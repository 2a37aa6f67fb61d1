// Final merge (§IV phase 3): merging extent chains must produce exactly the
// sorted concatenation, under both prefetch policies, freeing blocks as it
// goes (in-place).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "core/final_merge.h"
#include "core/record.h"
#include "io/striped_writer.h"
#include "test_util.h"
#include "util/aligned_buffer.h"
#include "util/random.h"
#include "workload/generators.h"

namespace demsort::core {
namespace {

using test::KVLess;

/// Builds an on-disk extent from a sorted record vector.
template <typename R>
Extent<R> MakeExtent(io::BlockManager* bm, uint32_t run, uint64_t start_pos,
                     const std::vector<R>& data) {
  io::StripedWriter<R> writer(bm);
  writer.AppendSpan(data.data(), data.size());
  writer.Finish();
  Extent<R> ext;
  ext.run = run;
  ext.start_pos = start_pos;
  ext.count = data.size();
  ext.blocks = writer.blocks();
  ext.block_first_records = writer.block_first_records();
  return ext;
}

template <typename R>
std::vector<R> ReadOutput(io::BlockManager* bm, const MergeOutput<R>& out) {
  size_t epb = bm->block_size() / sizeof(R);
  std::vector<R> data;
  AlignedBuffer buf(bm->block_size());
  uint64_t remaining = out.num_elements;
  for (const io::BlockId& id : out.blocks) {
    bm->ReadSync(id, buf.data());
    size_t take = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
    const R* records = reinterpret_cast<const R*>(buf.data());
    data.insert(data.end(), records, records + take);
    remaining -= take;
  }
  return data;
}

class FinalMergeParamTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int>> {};

TEST_P(FinalMergeParamTest, MergesToSortedPermutation) {
  auto [num_runs, extents_per_run, key_range] = GetParam();
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(num_runs * 131 + extents_per_run);
    std::vector<std::vector<Extent<KV16>>> extents(num_runs);
    std::vector<KV16> expect;
    uint64_t gid = 0;
    for (int j = 0; j < num_runs; ++j) {
      // One sorted run, chopped into several extents.
      size_t len = 50 + rng.Below(500);
      std::vector<KV16> run(len);
      for (auto& r : run) {
        r = {rng.Below(static_cast<uint64_t>(key_range)), gid++};
      }
      std::sort(run.begin(), run.end(), [](const KV16& a, const KV16& b) {
        return std::tie(a.key, a.value) < std::tie(b.key, b.value);
      });
      expect.insert(expect.end(), run.begin(), run.end());
      size_t cuts = extents_per_run;
      size_t pos = 0;
      for (size_t c = 0; c < cuts; ++c) {
        size_t end = c + 1 == cuts
                         ? len
                         : std::min(len, pos + len / cuts + rng.Below(7));
        if (end > pos) {
          std::vector<KV16> part(run.begin() + pos, run.begin() + end);
          extents[j].push_back(
              MakeExtent(ctx.bm, j, pos, part));
          pos = end;
        }
      }
    }
    std::sort(expect.begin(), expect.end(), [](const KV16& a, const KV16& b) {
      return std::tie(a.key, a.value) < std::tie(b.key, b.value);
    });

    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    std::vector<KV16> got = ReadOutput(ctx.bm, out);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), KVLess()));
    // Permutation check via sorted values.
    std::vector<uint64_t> got_vals, expect_vals;
    for (auto& r : got) got_vals.push_back(r.value);
    for (auto& r : expect) expect_vals.push_back(r.value);
    std::sort(got_vals.begin(), got_vals.end());
    std::sort(expect_vals.begin(), expect_vals.end());
    EXPECT_EQ(got_vals, expect_vals);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FinalMergeParamTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 9),
                       ::testing::Values(1, 3),
                       ::testing::Values(3, 1000000)));

TEST(FinalMergeTest, OffsetExtents) {
  // An extent whose data begins mid-block (first_block_offset > 0), as the
  // in-place local fast path produces.
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    size_t epb = cfg.ElementsPerBlock<KV16>();
    std::vector<KV16> run(3 * epb);
    for (size_t i = 0; i < run.size(); ++i) {
      run[i] = {static_cast<uint64_t>(i), i};
    }
    Extent<KV16> full = MakeExtent(ctx.bm, 0, 0, run);
    // Reference the same blocks but skip the first 10 elements and drop the
    // last 5 — simulating a trimmed local extent.
    Extent<KV16> trimmed;
    trimmed.run = 0;
    trimmed.start_pos = 10;
    trimmed.count = run.size() - 15;
    trimmed.blocks = full.blocks;
    trimmed.block_first_records = full.block_first_records;
    trimmed.first_block_offset = 10;

    std::vector<std::vector<Extent<KV16>>> extents(1);
    extents[0].push_back(trimmed);
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    std::vector<KV16> got = ReadOutput(ctx.bm, out);
    ASSERT_EQ(got.size(), run.size() - 15);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].value, i + 10);
    }
  });
}

TEST(FinalMergeTest, EmptyRunsAreFine) {
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    std::vector<std::vector<Extent<KV16>>> extents(4);  // all empty
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    EXPECT_EQ(out.num_elements, 0u);
    EXPECT_TRUE(out.blocks.empty());
  });
}

TEST(FinalMergeTest, FreesConsumedBlocks) {
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(3);
    std::vector<std::vector<Extent<KV16>>> extents(3);
    size_t total = 0;
    for (int j = 0; j < 3; ++j) {
      std::vector<KV16> run(1000);
      for (auto& r : run) r = {rng.Next(), 0};
      std::sort(run.begin(), run.end(), KVLess());
      extents[j].push_back(MakeExtent(ctx.bm, j, 0, run));
      total += run.size();
    }
    uint64_t before = ctx.bm->blocks_in_use();
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    // Inputs freed, output allocated: net usage ≈ the same block count.
    uint64_t after = ctx.bm->blocks_in_use();
    EXPECT_EQ(out.num_elements, total);
    EXPECT_LE(after, before + 2);
    // And the peak never held input + output simultaneously in full.
    EXPECT_LT(ctx.bm->peak_blocks_in_use(), 2 * before);
  });
}

// ------------------------------------------------- parallel merge sweep ----

std::string MakeTempDir() {
  char tmpl[] = "/tmp/demsort_merge_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  DEMSORT_CHECK(dir != nullptr);
  return dir;
}

/// A deterministic merge workload plus its exact sequential merge order:
/// the oracle sorts by (key, run, position) — precisely the tie order the
/// single-threaded loser tree emits — so the parallel engine must match it
/// record for record, not just as a sorted permutation.
struct MergeCase {
  std::vector<std::vector<KV16>> runs;
  std::vector<KV16> expect;
};

MergeCase BuildMergeCase(int num_runs, size_t run_len, uint64_t key_range,
                         uint64_t seed) {
  Rng rng(seed);
  MergeCase mc;
  mc.runs.resize(num_runs);
  struct Tagged {
    KV16 rec;
    size_t j, p;
  };
  std::vector<Tagged> all;
  uint64_t gid = 0;
  for (int j = 0; j < num_runs; ++j) {
    auto& run = mc.runs[j];
    run.resize(run_len + rng.Below(run_len / 4 + 1));
    for (auto& r : run) r = {rng.Below(key_range), gid++};
    std::sort(run.begin(), run.end(), [](const KV16& a, const KV16& b) {
      return std::tie(a.key, a.value) < std::tie(b.key, b.value);
    });
    for (size_t p = 0; p < run.size(); ++p) {
      all.push_back({run[p], static_cast<size_t>(j), p});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.rec.key, a.j, a.p) < std::tie(b.rec.key, b.j, b.p);
  });
  for (const auto& t : all) mc.expect.push_back(t.rec);
  return mc;
}

std::vector<std::pair<uint64_t, uint64_t>> AsPairs(
    const std::vector<KV16>& v) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(v.size());
  for (const auto& r : v) out.emplace_back(r.key, r.value);
  return out;
}

/// Feeds `mc` through FinalMerge under the given engine settings and
/// asserts the output is byte-identical to the oracle: the record stream,
/// the per-block first records, and the tail fill must all match exactly,
/// regardless of worker count or storage backend.
void CheckEngineMatchesOracle(SortConfig config, const MergeCase& mc) {
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    const size_t epb = cfg.ElementsPerBlock<KV16>();
    std::vector<std::vector<Extent<KV16>>> extents(mc.runs.size());
    for (size_t j = 0; j < mc.runs.size(); ++j) {
      // Chop each run into two extents to exercise segment chaining.
      size_t half = mc.runs[j].size() / 2;
      std::vector<KV16> a(mc.runs[j].begin(), mc.runs[j].begin() + half);
      std::vector<KV16> b(mc.runs[j].begin() + half, mc.runs[j].end());
      if (!a.empty()) {
        extents[j].push_back(
            MakeExtent(ctx.bm, static_cast<uint32_t>(j), 0, a));
      }
      if (!b.empty()) {
        extents[j].push_back(
            MakeExtent(ctx.bm, static_cast<uint32_t>(j), half, b));
      }
    }
    PhaseStats stats;
    MergeOutput<KV16> out =
        FinalMerge<KV16>(ctx, cfg, std::move(extents), &stats);
    ASSERT_EQ(out.num_elements, mc.expect.size());

    std::vector<KV16> got = ReadOutput(ctx.bm, out);
    ASSERT_EQ(AsPairs(got), AsPairs(mc.expect));

    // Manifest identity: first records per block and the tail fill are what
    // the sequential engine would have produced.
    ASSERT_EQ(out.block_first_records.size(), out.blocks.size());
    for (size_t i = 0; i < out.blocks.size(); ++i) {
      EXPECT_EQ(out.block_first_records[i].key, mc.expect[i * epb].key);
      EXPECT_EQ(out.block_first_records[i].value, mc.expect[i * epb].value);
    }
    size_t tail = mc.expect.size() % epb;
    EXPECT_EQ(out.last_block_fill, tail == 0 ? epb : tail);

    size_t expect_workers =
        std::min<size_t>(cfg.threads_per_pe,
                         std::max<size_t>(1, mc.expect.size() / (2 * epb)));
    EXPECT_EQ(stats.merge_workers, expect_workers);
  });
}

class ParallelMergeTest
    : public ::testing::TestWithParam<
          std::tuple<int, io::BlockManager::BackendKind>> {};

TEST_P(ParallelMergeTest, ByteIdenticalAcrossEnginesAndBackends) {
  auto [threads, backend] = GetParam();
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = threads;
  config.backend = backend;
  std::string dir;
  if (backend != io::BlockManager::BackendKind::kMemory) {
    dir = MakeTempDir();
    config.file_dir = dir;
  }
  // ~9k elements over 6 runs: enough for 4 real partitions (epb = 64).
  CheckEngineMatchesOracle(config,
                           BuildMergeCase(6, 1400, 100000, /*seed=*/777));
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelMergeTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 4),
        ::testing::Values(io::BlockManager::BackendKind::kMemory,
                          io::BlockManager::BackendKind::kFile)));

TEST(ParallelMergeTest, DuplicateHeavyKeysCollapseCutsSafely) {
  // All-equal keys collapse every partition cut onto the run/position tie
  // break; the engine must stay exact (some partitions just come out thin).
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  CheckEngineMatchesOracle(config, BuildMergeCase(5, 1200, /*key_range=*/1,
                                                  /*seed=*/31337));
}

TEST(ParallelMergeTest, FewKeysManyTies) {
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  CheckEngineMatchesOracle(config, BuildMergeCase(7, 900, /*key_range=*/3,
                                                  /*seed=*/2026));
}

TEST(ParallelMergeTest, SingleRunStreamsThroughAllWorkers) {
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  CheckEngineMatchesOracle(config, BuildMergeCase(1, 4000, 100000,
                                                  /*seed=*/8));
}

TEST(ParallelMergeTest, OrderedSinkSeesGlobalOrder) {
  // MergeExtentsToSink with a parallel pool: the sink must observe the
  // exact sequential merge order even though partitions are merged
  // concurrently (workers hand over through the sequence gate).
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  MergeCase mc = BuildMergeCase(6, 1400, 50000, /*seed=*/99);
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    std::vector<std::vector<Extent<KV16>>> extents(mc.runs.size());
    for (size_t j = 0; j < mc.runs.size(); ++j) {
      extents[j].push_back(
          MakeExtent(ctx.bm, static_cast<uint32_t>(j), 0, mc.runs[j]));
    }
    std::vector<KV16> seen;
    PhaseStats stats;
    uint64_t n = MergeExtentsToSink<KV16>(
        ctx, cfg, std::move(extents),
        [&seen](const KV16& r) { seen.push_back(r); }, &stats);
    EXPECT_EQ(n, mc.expect.size());
    ASSERT_EQ(AsPairs(seen), AsPairs(mc.expect));
    EXPECT_GT(stats.merge_workers, 1u);
    EXPECT_GT(stats.merge_cpu_ms + stats.merge_io_wait_ms, 0.0);
  });
}

TEST(ParallelMergeTest, ParallelMergeStillFreesConsumedBlocks) {
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(3);
    std::vector<std::vector<Extent<KV16>>> extents(3);
    size_t total = 0;
    for (int j = 0; j < 3; ++j) {
      std::vector<KV16> run(3000);
      for (auto& r : run) r = {rng.Next(), 0};
      std::sort(run.begin(), run.end(), KVLess());
      extents[j].push_back(MakeExtent(ctx.bm, j, 0, run));
      total += run.size();
    }
    uint64_t before = ctx.bm->blocks_in_use();
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    uint64_t after = ctx.bm->blocks_in_use();
    EXPECT_EQ(out.num_elements, total);
    // Every input block freed exactly once (shared boundary blocks
    // included), outputs allocated: net usage stays flat.
    EXPECT_LE(after, before + 2);
  });
}

TEST(FinalMergeTest, PredictionReducesDemandFetches) {
  // Not a strict guarantee, but for uniformly interleaved runs the
  // prediction order should cover essentially all fetches.
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(17);
    std::vector<std::vector<Extent<KV16>>> extents(4);
    for (int j = 0; j < 4; ++j) {
      std::vector<KV16> run(2000);
      for (auto& r : run) r = {rng.Next(), 0};
      std::sort(run.begin(), run.end(), KVLess());
      extents[j].push_back(MakeExtent(ctx.bm, j, 0, run));
    }
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    EXPECT_EQ(out.num_elements, 8000u);
  });
}

// ------------------------------------------- merge order against an oracle --

/// Writes every run as two extents, merges them with FinalMerge on one and
/// on four workers, and requires the output to equal the oracle record for
/// record, payload included.
template <typename R>
void ExpectFinalMergeMatchesOracle(const test::SortedRuns<R>& in) {
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SortConfig config = test::SmallConfig();
    config.threads_per_pe = threads;
    test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
      std::vector<std::vector<Extent<R>>> extents(in.runs.size());
      for (size_t j = 0; j < in.runs.size(); ++j) {
        const std::vector<R>& run = in.runs[j];
        const size_t half = run.size() / 2;
        const uint32_t id = static_cast<uint32_t>(j);
        if (half > 0) {
          extents[j].push_back(MakeExtent(
              ctx.bm, id, 0, std::vector<R>(run.begin(), run.begin() + half)));
        }
        if (half < run.size()) {
          extents[j].push_back(MakeExtent(
              ctx.bm, id, half, std::vector<R>(run.begin() + half, run.end())));
        }
      }
      MergeOutput<R> out = FinalMerge<R>(ctx, cfg, std::move(extents));
      test::ExpectSameBytes(ReadOutput(ctx.bm, out), in.expect);
    });
  }
}

TEST(FinalMergeOracleTest, KV16MatchesStableSort) {
  for (size_t k : test::kMergeWays) {
    for (workload::Distribution dist : test::kDistributions) {
      SCOPED_TRACE(std::string(workload::DistributionName(dist)) +
                   " k=" + std::to_string(k));
      ExpectFinalMergeMatchesOracle(test::DealSortedRuns(
          workload::MakeKV16(dist, 3000, /*rank=*/1, /*num_pes=*/4, k), k,
          k));
    }
    SCOPED_TRACE("key range 3, k=" + std::to_string(k));
    Rng rng(k);
    std::vector<KV16> records(3000);
    for (size_t i = 0; i < records.size(); ++i) records[i] = {rng.Below(3), i};
    ExpectFinalMergeMatchesOracle(test::DealSortedRuns(records, k, k + 1));
  }
}

TEST(FinalMergeOracleTest, Gray100MatchesStableSort) {
  for (size_t k : test::kMergeWays) {
    for (test::GrayKeys keys : {test::GrayKeys::kUniform,
                                test::GrayKeys::kBinaryBytes,
                                test::GrayKeys::kLastByte}) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(keys)) +
                   " k=" + std::to_string(k));
      ExpectFinalMergeMatchesOracle(
          test::DealSortedRuns(test::MakeGray100(keys, 2000, k), k, k));
    }
  }
}

// ------------------------------------------------ write-stall accounting --

TEST(FinalMergeTest, IoWaitCoversWriteStalls) {
  // Throttled disks: every block op sleeps about a millisecond of modeled
  // seek, so the merge spends nearly all its wall waiting for reads or for
  // the write window. Both waits must land in merge_io_wait_ms, on the
  // single-worker path as on the parallel one, leaving merge_cpu_ms a small
  // share.
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SortConfig config = test::SmallConfig();
    config.threads_per_pe = threads;
    config.disk_model.throttle = true;
    config.disk_model.seek_ms = 1.0;
    config.disk_model.mib_per_s = 1e6;
    test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
      Rng rng(5);
      std::vector<std::vector<Extent<KV16>>> extents(3);
      for (uint32_t j = 0; j < 3; ++j) {
        std::vector<KV16> run(1000);
        for (auto& r : run) r = {rng.Next(), 0};
        std::sort(run.begin(), run.end(), KVLess());
        extents[j].push_back(MakeExtent(ctx.bm, j, 0, run));
      }
      PhaseStats stats;
      MergeOutput<KV16> out =
          FinalMerge<KV16>(ctx, cfg, std::move(extents), &stats);
      EXPECT_EQ(out.num_elements, 3000u);
      EXPECT_GT(stats.merge_io_wait_ms, 2 * stats.merge_cpu_ms);
    });
  }
}

}  // namespace
}  // namespace demsort::core
