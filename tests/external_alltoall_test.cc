// External all-to-all (§IV-C): after redistribution, every PE's extents must
// exactly tile its output ranges with the right data in the right order;
// the local fast path must not move in-place data; sub-steps must respect
// the memory budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/block_io.h"
#include "core/external_alltoall.h"
#include "core/external_selection.h"
#include "core/run_formation.h"
#include "test_util.h"
#include "workload/generators.h"

namespace demsort::core {
namespace {

using workload::Distribution;

/// Reads the full content of an extent (skipping first_block_offset).
std::vector<KV16> ReadExtent(PeContext& ctx, const SortConfig& config,
                             const Extent<KV16>& ext) {
  size_t epb = config.ElementsPerBlock<KV16>();
  std::vector<KV16> out;
  out.reserve(ext.count);
  AlignedBuffer buf(ctx.bm->block_size());
  uint64_t todo = ext.count;
  for (size_t b = 0; b < ext.blocks.size() && todo > 0; ++b) {
    ctx.bm->ReadSync(ext.blocks[b], buf.data());
    size_t skip = b == 0 ? ext.first_block_offset : 0;
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(epb - skip, todo));
    const KV16* records = reinterpret_cast<const KV16*>(buf.data()) + skip;
    out.insert(out.end(), records, records + take);
    todo -= take;
  }
  EXPECT_EQ(todo, 0u);
  return out;
}

struct PipelineState {
  RunFormationResult<KV16> rf;
  SplitterMatrix split;
  AllToAllResult<KV16> a2a;
};

PipelineState RunThroughAllToAll(PeContext& ctx, const SortConfig& cfg,
                                 Distribution dist, uint64_t n) {
  PipelineState st;
  auto gen = workload::GenerateKV16(ctx.bm, dist, n, ctx.rank(),
                                    ctx.num_pes(), cfg.seed);
  st.rf = FormRuns<KV16>(ctx, cfg, gen.input);
  ExternalSelector<KV16> selector(ctx, cfg, st.rf);
  st.split = selector.SelectAllCollective(nullptr);
  st.a2a = ExternalAllToAll<KV16>(ctx, cfg, st.rf, st.split);
  return st;
}

class AllToAllParamTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, Distribution,
                                                 bool>> {};

TEST_P(AllToAllParamTest, ExtentsCarryExactRanges) {
  auto [P, n, dist, randomize] = GetParam();
  SortConfig config = test::SmallConfig();
  config.randomize_blocks = randomize;

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    // Keep the full runs for the oracle before redistribution consumes them.
    auto gen = workload::GenerateKV16(ctx.bm, dist, n, ctx.rank(), P,
                                      cfg.seed);
    RunFormationResult<KV16> rf = FormRuns<KV16>(ctx, cfg, gen.input);

    std::vector<std::vector<KV16>> full_runs(rf.table.num_runs());
    for (size_t r = 0; r < rf.table.num_runs(); ++r) {
      const RunPiece<KV16>& piece = rf.runs.pieces[r];
      size_t epb = cfg.ElementsPerBlock<KV16>();
      std::vector<size_t> counts(piece.blocks.size());
      uint64_t remaining = piece.size;
      for (size_t i = 0; i < counts.size(); ++i) {
        counts[i] = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
        remaining -= counts[i];
      }
      auto mine = ReadBlocks<KV16>(ctx.bm, piece.blocks, counts);
      auto parts = ctx.comm->AllgatherV(mine);
      for (auto& part : parts) {
        full_runs[r].insert(full_runs[r].end(), part.begin(), part.end());
      }
    }

    ExternalSelector<KV16> selector(ctx, cfg, rf);
    SplitterMatrix split = selector.SelectAllCollective(nullptr);
    AllToAllResult<KV16> a2a = ExternalAllToAll<KV16>(ctx, cfg, rf, split);

    int me = ctx.rank();
    for (size_t r = 0; r < rf.table.num_runs(); ++r) {
      uint64_t begin = split.boundary[me][r];
      uint64_t end = split.boundary[me + 1][r];
      uint64_t pos = begin;
      for (const Extent<KV16>& ext : a2a.extents_per_run[r]) {
        ASSERT_EQ(ext.start_pos, pos);
        std::vector<KV16> data = ReadExtent(ctx, cfg, ext);
        ASSERT_EQ(data.size(), ext.count);
        for (uint64_t i = 0; i < ext.count; ++i) {
          EXPECT_EQ(data[i].value, full_runs[r][pos + i].value)
              << "run " << r << " pos " << pos + i;
        }
        pos += ext.count;
      }
      EXPECT_EQ(pos, end) << "run " << r;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllToAllParamTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 4),
        ::testing::Values<uint64_t>(600, 3000),
        ::testing::Values(Distribution::kUniform,
                          Distribution::kWorstCaseLocal,
                          Distribution::kReversedRanges,
                          Distribution::kAllEqual),
        ::testing::Values(false, true)));

TEST(AllToAllTest, SortedInputMovesAlmostNothing) {
  const int P = 4;
  const uint64_t n = 16384;
  SortConfig config = test::SmallConfig();
  config.memory_per_pe = 64 * 1024;  // R = 4: keeps metadata o(N)
  config.randomize_blocks = false;   // sorted input is already placed
  auto stats = net::Cluster::RunWithStats(P, [&](net::Comm& comm) {
    PeResources resources(&comm, config);
    PeContext& ctx = resources.ctx();
    RunThroughAllToAll(ctx, config, Distribution::kSortedGlobal, n);
  });
  // Communication should be far below N: only metadata (samples, pivots,
  // tables) — neither the internal sort nor the external all-to-all moves
  // payload for globally sorted input.
  uint64_t total_bytes = 0;
  for (auto& s : stats) total_bytes += s.bytes_sent;
  uint64_t n_bytes = P * n * sizeof(KV16);
  EXPECT_LT(total_bytes, n_bytes / 4);
}

TEST(AllToAllTest, ReversedRangesMoveEverything) {
  const int P = 4;
  const uint64_t n = 4096;
  SortConfig config = test::SmallConfig();
  auto stats = net::Cluster::RunWithStats(P, [&](net::Comm& comm) {
    PeResources resources(&comm, config);
    PeContext& ctx = resources.ctx();
    RunThroughAllToAll(ctx, config, Distribution::kReversedRanges, n);
  });
  uint64_t total_bytes = 0;
  for (auto& s : stats) total_bytes += s.bytes_sent;
  // Nearly all data crosses the network at least once (internal sort), and
  // most of it again in the external all-to-all.
  uint64_t n_bytes = P * n * sizeof(KV16);
  EXPECT_GT(total_bytes, n_bytes);
}

TEST(AllToAllTest, SubstepsRespectBudget) {
  // Worst-case input without randomization maximizes external movement
  // (reversed ranges would already be placed by run formation's internal
  // sort); a tiny budget (memory_per_pe, two blocks) must then force many
  // sub-steps.
  const int P = 2;
  SortConfig config = test::SmallConfig();
  config.randomize_blocks = false;
  config.memory_per_pe = 2 * config.block_size;
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto st = RunThroughAllToAll(ctx, cfg, Distribution::kWorstCaseLocal,
                                 3000);
    EXPECT_GT(st.a2a.substeps, 4u);
  });
}

TEST(AllToAllTest, StaysWithinBudget) {
  // The paper's claim for the sub-stepped exchange is that in-flight volume
  // is bounded by the memory budget m. The streamed exchange is
  // bounded much tighter than that: the receiver holds at most ~credit x
  // chunk bytes per source (plus frame headers and sub-step planning
  // messages), NOT a full per-source sub-step payload — asserted against
  // the per-PE receive-buffer peak below, with several sub-steps forced.
  const int P = 4;
  const uint64_t n = 3000;
  SortConfig config = test::SmallConfig();
  config.randomize_blocks = false;
  config.memory_per_pe = 4 * config.block_size;  // forces several substeps
  config.stream_chunk_bytes = 256;

  net::Cluster::Options options;
  options.num_pes = P;
  net::Cluster::Result result = test::RunPesWithOptions(
      options, config, [&](PeContext& ctx, const SortConfig& cfg) {
        auto gen = workload::GenerateKV16(ctx.bm,
                                          Distribution::kWorstCaseLocal, n,
                                          ctx.rank(), ctx.num_pes(),
                                          cfg.seed);
        auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
        ExternalSelector<KV16> selector(ctx, cfg, rf);
        SplitterMatrix split = selector.SelectAllCollective(nullptr);
        // Measure the exchange itself, not selection's allgathers.
        ctx.comm->ResetRecvBufferPeak();
        auto a2a = ExternalAllToAll<KV16>(ctx, cfg, rf, split);
        EXPECT_GT(a2a.substeps, 1u);
        // Extents must still tile my output ranges exactly (verified
        // inside ExternalAllToAll via checks; spot-check coverage here).
        uint64_t covered = 0;
        for (auto& per_run : a2a.extents_per_run) {
          for (auto& ext : per_run) covered += ext.count;
        }
        EXPECT_EQ(covered, a2a.my_end_rank - a2a.my_begin_rank);
      });
  // The streamed receive-side bound: at most ~credit x chunk untaken per
  // source, twice across a sub-step boundary (a finished peer may open its
  // next sub-step's credit window while this PE still drains the last),
  // plus lookahead/header slack — ~7.5 KiB total here, strictly below the
  // (P-1) x m = 12 KiB a staged exchange parks per sub-step.
  // (per_source < m holds by construction of this config — the bound below
  // is genuinely tighter than the staged exchange's.)
  const uint64_t per_source =
      (2 * net::Comm::kStreamSendCreditChunks + 2) *
      config.stream_chunk_bytes;
  for (const auto& s : result.stats) {
    EXPECT_LE(s.recv_buffer_peak_bytes,
              static_cast<uint64_t>(P - 1) * per_source);
  }
}

TEST(AllToAllTest, PartialBlockOverheadIsBounded) {
  const int P = 4;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto st = RunThroughAllToAll(ctx, cfg, Distribution::kWorstCaseLocal,
                                 4096);
    // Receiver-side partial blocks: at most one per (run, source) plus the
    // local extent edges => extents count bounds it.
    size_t extents = 0;
    for (auto& per_run : st.a2a.extents_per_run) extents += per_run.size();
    size_t rp = st.rf.table.num_runs() * P;
    EXPECT_LE(extents, rp + st.rf.table.num_runs());
  });
}

}  // namespace
}  // namespace demsort::core
