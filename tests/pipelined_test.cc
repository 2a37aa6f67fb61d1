// Pipelined sorting (§VII): producer-driven input, consumer-driven sorted
// output, still exact.
#include <gtest/gtest.h>

#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/final_merge.h"
#include "core/pipelined.h"
#include "io/striped_writer.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/generators.h"

namespace demsort::core {
namespace {

using test::KVLess;

TEST(PipelinedSortTest, StreamsSortedOutput) {
  const int P = 3;
  const uint64_t chunks_per_pe = 4;
  SortConfig config = test::SmallConfig();
  std::mutex mu;
  std::vector<std::vector<KV16>> outputs(P);
  std::vector<std::vector<KV16>> inputs(P);

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    size_t m = cfg.ElementsPerPeMemory<KV16>();
    Rng rng(cfg.seed + ctx.rank());
    uint64_t produced = 0;
    auto producer = [&]() {
      std::vector<KV16> chunk;
      if (produced / m >= chunks_per_pe) return chunk;
      chunk.resize(m);
      for (auto& r : chunk) {
        r = {rng.Next(), produced++};
      }
      std::lock_guard<std::mutex> lock(mu);
      inputs[ctx.rank()].insert(inputs[ctx.rank()].end(), chunk.begin(),
                                chunk.end());
      return chunk;
    };
    auto consumer = [&](std::span<const KV16> records) {
      std::lock_guard<std::mutex> lock(mu);
      outputs[ctx.rank()].insert(outputs[ctx.rank()].end(), records.begin(),
                                 records.end());
    };
    PipelinedResult<KV16> result =
        PipelinedSort<KV16>(ctx, cfg, producer, consumer);
    EXPECT_EQ(result.num_runs, chunks_per_pe);
    EXPECT_EQ(result.consumed_elements,
              result.global_end - result.global_begin);
  });

  // Concatenated consumer streams == sorted concatenated producer streams.
  std::vector<KV16> got, expect;
  for (auto& o : outputs) got.insert(got.end(), o.begin(), o.end());
  for (auto& i : inputs) expect.insert(expect.end(), i.begin(), i.end());
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), KVLess()));
  std::vector<uint64_t> got_keys, expect_keys;
  for (auto& r : got) got_keys.push_back(r.key);
  for (auto& r : expect) expect_keys.push_back(r.key);
  std::sort(expect_keys.begin(), expect_keys.end());
  EXPECT_EQ(got_keys, expect_keys);
}

TEST(PipelinedSortTest, UnevenProducers) {
  const int P = 2;
  SortConfig config = test::SmallConfig();
  std::mutex mu;
  std::vector<uint64_t> counts(P, 0);
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    size_t m = cfg.ElementsPerPeMemory<KV16>();
    // PE 0 produces 3 chunks, PE 1 only 1.
    uint64_t quota = ctx.rank() == 0 ? 3 : 1;
    Rng rng(cfg.seed * 3 + ctx.rank());
    uint64_t produced_chunks = 0;
    auto producer = [&]() {
      std::vector<KV16> chunk;
      if (produced_chunks >= quota) return chunk;
      ++produced_chunks;
      chunk.resize(m);
      for (auto& r : chunk) r = {rng.Next(), rng.Next()};
      return chunk;
    };
    auto consumer = [&](std::span<const KV16> records) {
      std::lock_guard<std::mutex> lock(mu);
      counts[ctx.rank()] += records.size();
    };
    PipelinedSort<KV16>(ctx, cfg, producer, consumer);
  });
  size_t m = config.ElementsPerPeMemory<KV16>();
  EXPECT_EQ(counts[0] + counts[1], 4 * m);
  EXPECT_EQ(counts[0], counts[1]);  // exact equal split regardless of skew
}

TEST(PipelinedSortTest, EmptyProducers) {
  const int P = 2;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto producer = [] { return std::vector<KV16>(); };
    auto consumer = [](std::span<const KV16>) { FAIL() << "no data expected"; };
    PipelinedResult<KV16> result =
        PipelinedSort<KV16>(ctx, cfg, producer, consumer);
    EXPECT_EQ(result.consumed_elements, 0u);
  });
}

/// MergeExtentsToSink, the merge behind PipelinedSort, at a 7-record block
/// on a one- and a four-thread pool: the sink must see the stable-sort
/// oracle record for record while segment ends and gallop spans cross block
/// boundaries all the time, in spans of at most one block, always on the
/// calling thread.
template <typename R>
void ExpectSinkMatchesOracle(const test::SortedRuns<R>& in) {
  for (uint32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SortConfig config = test::SmallConfig();
    config.threads_per_pe = threads;
    config.block_size = 7 * sizeof(R);
    test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
      std::vector<std::vector<Extent<R>>> extents(in.runs.size());
      for (size_t j = 0; j < in.runs.size(); ++j) {
        if (in.runs[j].empty()) continue;
        io::StripedWriter<R> writer(ctx.bm);
        writer.AppendSpan(in.runs[j].data(), in.runs[j].size());
        writer.Finish();
        Extent<R> ext;
        ext.run = static_cast<uint32_t>(j);
        ext.count = in.runs[j].size();
        ext.blocks = writer.blocks();
        ext.block_first_records = writer.block_first_records();
        extents[j].push_back(std::move(ext));
      }
      std::vector<R> seen;
      const std::thread::id caller = std::this_thread::get_id();
      const size_t epb = cfg.ElementsPerBlock<R>();
      EXPECT_EQ(MergeExtentsToSink<R>(
                    ctx, cfg, std::move(extents),
                    [&](std::span<const R> records) {
                      EXPECT_EQ(std::this_thread::get_id(), caller);
                      EXPECT_LE(records.size(), epb);
                      seen.insert(seen.end(), records.begin(), records.end());
                    }),
                in.expect.size());
      test::ExpectSameBytes(seen, in.expect);
    });
  }
}

TEST(MergeExtentsToSinkTest, TinyBlocksMatchStableSortOracle) {
  for (size_t k : {2, 5, 16}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectSinkMatchesOracle(test::DealSortedRuns(
        workload::MakeKV16(workload::Distribution::kZipf, 3000, /*rank=*/1,
                           /*num_pes=*/4, k),
        k, k));
    ExpectSinkMatchesOracle(test::DealSortedRuns(
        workload::MakeKV16(workload::Distribution::kUniform, 3000,
                           /*rank=*/1, /*num_pes=*/4, k),
        k, k + 1));
    ExpectSinkMatchesOracle(test::DealSortedRuns(
        test::MakeGray100(test::GrayKeys::kLastByte, 2000, k), k, k));
  }
}

}  // namespace
}  // namespace demsort::core
