// Pipelined sorting (§VII): producer-driven input, consumer-driven sorted
// output, still exact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/final_merge.h"
#include "core/pipelined.h"
#include "io/striped_writer.h"
#include "par/thread_pool.h"
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
/// on one and four workers, and on two workers in front of a slow consumer
/// (it sleeps on every span, so worker 1 fills its staging buffer and waits
/// for its turn): the sink must see the stable-sort oracle record for record
/// while staging windows, segment ends and gallop spans cross block
/// boundaries all the time.
template <typename R>
void ExpectSinkMatchesOracle(const test::SortedRuns<R>& in) {
  const std::pair<uint32_t, bool> kEngines[] = {
      {1, false}, {4, false}, {2, true}};
  for (const auto& [threads, slow] : kEngines) {
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 (slow ? " slow consumer" : ""));
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
      EXPECT_EQ(MergeExtentsToSink<R>(
                    ctx, cfg, std::move(extents),
                    [&seen, slow](std::span<const R> records) {
                      if (slow) {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(20));
                      }
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

/// Writes `n` consecutive keys from `first` through the sink policy's
/// windows, counting committed records in `committed`.
template <typename Policy>
void WriteKeys(Policy& out, uint64_t first, size_t n,
               std::atomic<size_t>* committed) {
  while (n > 0) {
    size_t room = 0;
    KV16* window = out.Window(&room);
    const size_t take = std::min(room, n);
    for (size_t i = 0; i < take; ++i) window[i] = {first + i, 0};
    out.Commit(take);
    committed->fetch_add(take);
    first += take;
    n -= take;
  }
}

/// A sink worker waiting for its turn holds at most kSinkStagingBlocks
/// blocks. Two workers on a two-thread pool share a slow consumer (it
/// sleeps on every span); worker 0 holds the sink until worker 1 has
/// committed a full staging buffer, and checks that worker 1 then stays
/// blocked, with nothing more committed and nothing delivered, until worker
/// 0 has delivered its own records and passed the turn on.
TEST(SequencedSinkTest, WaitingWorkerStagesAtMostItsBlockBound) {
  const size_t epb = 7;
  const size_t bound = internal::kSinkStagingBlocks * epb;
  const size_t per_worker = 10 * bound;
  std::vector<uint64_t> seen;
  auto slow_consumer = [&seen](std::span<const KV16> records) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (const KV16& r : records) seen.push_back(r.key);
  };
  using Policy = internal::SequencedSink<KV16, decltype(slow_consumer)>;
  par::SequenceGate gate;
  std::vector<Policy> workers;
  workers.emplace_back(&gate, 0, epb, &slow_consumer);
  workers.emplace_back(&gate, 1, epb, &slow_consumer);
  std::atomic<size_t> committed[2] = {0, 0};

  par::ThreadPool pool(2);
  pool.ParallelFor(2, [&](size_t t) {
    if (t == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (committed[1].load() < bound &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_EQ(committed[1].load(), bound);
      // Worker 0 holds the turn, so nothing has reached the consumer yet.
      EXPECT_TRUE(seen.empty());
    }
    WriteKeys(workers[t], t * per_worker, per_worker, &committed[t]);
    workers[t].Finish();
  });

  ASSERT_EQ(seen.size(), 2 * per_worker);
  for (size_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], i);
}

}  // namespace
}  // namespace demsort::core
