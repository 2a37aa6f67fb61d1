// External multiway selection (§IV-A / App. B): the splitter matrix must
// partition the disk-resident runs at exactly the ranks i*N/P, verified
// against a brute-force oracle over the full data.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/block_io.h"
#include "core/external_selection.h"
#include "core/run_formation.h"
#include "test_util.h"
#include "workload/generators.h"

namespace demsort::core {
namespace {

using workload::Distribution;

std::vector<KV16> ReadPiece(PeContext& ctx, const SortConfig& config,
                            const RunPiece<KV16>& piece) {
  size_t epb = config.ElementsPerBlock<KV16>();
  std::vector<size_t> counts(piece.blocks.size());
  uint64_t remaining = piece.size;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
    remaining -= counts[i];
  }
  return ReadBlocks<KV16>(ctx.bm, piece.blocks, counts);
}

class ExternalSelectionParamTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, Distribution>> {
};

TEST_P(ExternalSelectionParamTest, SplittersPartitionExactly) {
  auto [P, elements_per_pe, dist] = GetParam();
  SortConfig config = test::SmallConfig();

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, dist, elements_per_pe,
                                      ctx.rank(), P, cfg.seed);
    RunFormationResult<KV16> rf = FormRuns<KV16>(ctx, cfg, gen.input);

    ExternalSelector<KV16> selector(ctx, cfg, rf);
    SplitterMatrix split = selector.SelectAllCollective(nullptr);

    const size_t num_runs = rf.table.num_runs();
    ASSERT_EQ(split.boundary.size(), static_cast<size_t>(P + 1));

    // Row sums hit the exact target ranks; rows are monotone per run.
    uint64_t total = rf.total_elements;
    for (int t = 0; t <= P; ++t) {
      uint64_t sum = 0;
      for (size_t r = 0; r < num_runs; ++r) {
        sum += split.boundary[t][r];
        if (t > 0) {
          EXPECT_LE(split.boundary[t - 1][r], split.boundary[t][r]);
        }
      }
      uint64_t expect =
          t == P ? total : total / P * t + std::min<uint64_t>(total % P, t);
      EXPECT_EQ(sum, expect) << "row " << t;
    }

    // Oracle: gather all run data on every PE (test sizes are small), then
    // check the partition property per boundary: with the (key, run, pos)
    // total order, every element left of a split must precede every element
    // right of it.
    std::vector<std::vector<KV16>> full_runs(num_runs);
    for (size_t r = 0; r < num_runs; ++r) {
      std::vector<KV16> mine = ReadPiece(ctx, cfg, rf.runs.pieces[r]);
      auto parts = ctx.comm->AllgatherV(mine);
      for (auto& part : parts) {
        full_runs[r].insert(full_runs[r].end(), part.begin(), part.end());
      }
      ASSERT_EQ(full_runs[r].size(), rf.table.RunLength(r));
      ASSERT_TRUE(std::is_sorted(full_runs[r].begin(), full_runs[r].end(),
                                 test::KVLess()));
    }
    for (int t = 1; t < P; ++t) {
      // max over runs of (key at split-1, run) must precede min of
      // (key at split, run) in (key, run) order.
      std::pair<uint64_t, size_t> max_left{0, 0};
      std::pair<uint64_t, size_t> min_right{UINT64_MAX, SIZE_MAX};
      bool have_left = false, have_right = false;
      for (size_t r = 0; r < num_runs; ++r) {
        uint64_t s = split.boundary[t][r];
        if (s > 0) {
          std::pair<uint64_t, size_t> cand{full_runs[r][s - 1].key, r};
          if (!have_left || max_left < cand) max_left = cand;
          have_left = true;
        }
        if (s < full_runs[r].size()) {
          std::pair<uint64_t, size_t> cand{full_runs[r][s].key, r};
          if (!have_right || cand < min_right) min_right = cand;
          have_right = true;
        }
      }
      if (have_left && have_right) {
        EXPECT_LE(max_left.first, min_right.first) << "boundary " << t;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSelectionParamTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5),
        ::testing::Values<uint64_t>(64, 777, 3000),
        ::testing::Values(Distribution::kUniform,
                          Distribution::kWorstCaseLocal,
                          Distribution::kAllEqual, Distribution::kZipf,
                          Distribution::kSortedGlobal)));

TEST(ExternalSelectionTest, SelectionIsCheapWithSamples) {
  // The sampled bootstrap should keep fetch rounds very low (the paper:
  // "multiway selection takes negligible time").
  const int P = 4;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, 4096,
                                      ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
    PhaseStats stats;
    ExternalSelector<KV16> selector(ctx, cfg, rf);
    selector.SelectAllCollective(&stats);
    EXPECT_LE(stats.selection_rounds, 24u);
  });
}

TEST(ExternalSelectionTest, RowGatherStaysAtStreamingBufferBound) {
  // The splitter-row replication goes through Comm::AllgatherVStream: row
  // chunks land directly in the matrix, so transport-side buffering stays
  // at the streaming bound of O(credits x chunk x sources) — NOT at the
  // P-vectors-of-rows the buffered AllgatherV used to stage. A geometry
  // with hundreds of runs makes the two regimes clearly distinguishable.
  const int P = 4;
  SortConfig config = test::SmallConfig();
  config.memory_per_pe = 2048;       // 128 KV16 per run piece => many runs
  config.stream_chunk_bytes = 128;   // far below one row
  config.stream_chunk_min_bytes = 128;  // min == max: fixed chunking
  config.stream_chunk_max_bytes = 128;
  const uint64_t elements_per_pe = 60000;

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform,
                                      elements_per_pe, ctx.rank(), P,
                                      cfg.seed);
    RunFormationResult<KV16> rf = FormRuns<KV16>(ctx, cfg, gen.input);
    const size_t num_runs = rf.table.num_runs();
    ASSERT_GE(num_runs, 100u) << "geometry no longer produces enough runs "
                                 "for the bound comparison to be meaningful";

    net::Comm& comm = *ctx.comm;
    ExternalSelector<KV16> selector(ctx, cfg, rf);
    const uint64_t total = rf.total_elements;
    const int me = comm.rank();
    uint64_t my_target =
        total / P * me + std::min<uint64_t>(total % P, me);
    std::vector<uint64_t> my_row = selector.SelectCollective(my_target,
                                                             nullptr);

    // Quiesce the fetch rounds, then measure the row gather in isolation.
    comm.Barrier();
    comm.ResetRecvBufferPeak();
    SplitterMatrix split = selector.GatherSplitterMatrix(my_row);
    uint64_t peak = comm.StatsSnapshot().recv_buffer_peak_bytes;

    const uint64_t row_bytes = num_runs * sizeof(uint64_t);
    const uint64_t streaming_bound =
        static_cast<uint64_t>(P - 1) *
        ((net::Comm::kStreamSendCreditChunks + 2) *
             (cfg.stream_chunk_bytes + sizeof(net::StreamChunkHeader)) +
         sizeof(net::StreamSizeHeader) + 8 * sizeof(net::StreamCreditMsg));
    ASSERT_LT(streaming_bound, static_cast<uint64_t>(P - 1) * row_bytes)
        << "bound comparison degenerate: grow the run count";
    EXPECT_LE(peak, streaming_bound);

    // And the matrix is still the right one: row sums hit the targets.
    for (int t = 0; t <= P; ++t) {
      uint64_t sum = 0;
      for (size_t r = 0; r < num_runs; ++r) sum += split.boundary[t][r];
      uint64_t expect =
          t == P ? total : total / P * t + std::min<uint64_t>(total % P, t);
      EXPECT_EQ(sum, expect) << "row " << t;
    }
  });
}

TEST(ExternalSelectionTest, TinyCacheStillCorrect) {
  const int P = 3;
  SortConfig config = test::SmallConfig();
  config.selection_cache_blocks = 1;  // pathological; must still converge
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kZipf, 1024,
                                      ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
    ExternalSelector<KV16> selector(ctx, cfg, rf);
    SplitterMatrix split = selector.SelectAllCollective(nullptr);
    uint64_t total = rf.total_elements;
    for (int t = 0; t <= P; ++t) {
      uint64_t sum = 0;
      for (size_t r = 0; r < rf.table.num_runs(); ++r) {
        sum += split.boundary[t][r];
      }
      uint64_t expect =
          t == P ? total : total / P * t + std::min<uint64_t>(total % P, t);
      EXPECT_EQ(sum, expect);
    }
  });
}

}  // namespace
}  // namespace demsort::core
