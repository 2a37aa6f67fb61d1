// End-to-end CANONICALMERGESORT: for every (P, size, distribution,
// randomization, prefetch) combination the output must be globally sorted,
// an exact permutation of the input, and exactly partitioned — plus the
// paper's headline I/O and communication volume claims as assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/canonical_mergesort.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/validator.h"

namespace demsort::core {
namespace {

using workload::Distribution;
using workload::ValidationResult;

class CanonicalSortParamTest
    : public ::testing::TestWithParam<
          std::tuple<int, uint64_t, Distribution, bool>> {};

TEST_P(CanonicalSortParamTest, SortsValidatesExactly) {
  auto [P, n, dist, randomize] = GetParam();
  SortConfig config = test::SmallConfig();
  config.randomize_blocks = randomize;

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, dist, n, ctx.rank(), P,
                                      cfg.seed);
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    ValidationResult v = workload::ValidateCollective<KV16>(
        ctx, out.blocks, out.num_elements, gen.checksum,
        /*require_exact_partition=*/true);
    EXPECT_TRUE(v.locally_sorted);
    EXPECT_TRUE(v.boundaries_ok);
    EXPECT_TRUE(v.permutation_ok) << v.ToString();
    EXPECT_TRUE(v.partition_exact);
    EXPECT_EQ(v.total_elements, static_cast<uint64_t>(P) * n);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CanonicalSortParamTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4, 8),
        ::testing::Values<uint64_t>(100, 2048, 5000),
        ::testing::Values(Distribution::kUniform,
                          Distribution::kSortedGlobal,
                          Distribution::kWorstCaseLocal,
                          Distribution::kReversedRanges,
                          Distribution::kAllEqual, Distribution::kZipf),
        ::testing::Values(false, true)));

TEST(CanonicalSortTest, Gray100Records) {
  const int P = 3;
  SortConfig config;
  config.block_size = 2000;  // 20 Gray100 records per block
  config.memory_per_pe = 16000;
  config.disks_per_pe = 2;
  config.seed = 7;
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateGray100(ctx.bm, 1000, ctx.rank(), P,
                                         cfg.seed);
    SortOutput<Gray100> out =
        CanonicalMergeSort<Gray100>(ctx, cfg, gen.input);
    auto v = workload::ValidateCollective<Gray100>(
        ctx, out.blocks, out.num_elements, gen.checksum);
    EXPECT_TRUE(v.ok()) << v.ToString();
    EXPECT_TRUE(v.partition_exact);
  });
}

TEST(CanonicalSortTest, MergeWorkersReadAndFreeKeptRunsConcurrently) {
  // Phase 1 keeps its last 3 runs in memory. With 4 merge workers per PE,
  // several threads read and free blocks of one kept buffer at once, and
  // by the end of the sort every kept block has been freed.
  const int P = 2;
  const uint64_t n = 8192;
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                      ctx.rank(), P, cfg.seed);
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    EXPECT_GE(
        out.report.phase[static_cast<int>(Phase::kFinalMerge)].merge_workers,
        2u);
    EXPECT_EQ(ctx.bm->blocks_kept(), 0u);
    ValidationResult v = workload::ValidateCollective<KV16>(
        ctx, out.blocks, out.num_elements, gen.checksum,
        /*require_exact_partition=*/true);
    EXPECT_TRUE(v.ok()) << v.ToString();
    EXPECT_TRUE(v.partition_exact);
  });
}

TEST(CanonicalSortTest, IoVolumeIsFourNLessTheKeptRuns) {
  // §IV-D: two read/write passes, 4N + o(N) for random input with
  // randomization, less the K = 3 tail runs that phase 1 keeps in memory:
  // each is neither written nor read back, which saves 2·K·N/R.
  const int P = 2;
  const uint64_t n = 8192;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                      ctx.rank(), P, cfg.seed);
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    const uint64_t R = out.num_runs;
    const uint64_t K = 3;
    ASSERT_EQ(R, 16u);  // 512 records of 16 B per PE per run
    auto io = [&](Phase p) { return out.report.phase[static_cast<int>(p)].io; };
    const uint64_t data_bytes = n * sizeof(KV16);
    const uint64_t kept_bytes = K * data_bytes / R;
    // The passes are exact: phase 1 reads the input and writes every run
    // but the kept ones (each piece is 8 whole blocks), and the final
    // merge writes the output.
    EXPECT_EQ(io(Phase::kRunFormation).bytes_read, data_bytes);
    EXPECT_EQ(io(Phase::kRunFormation).bytes_written, data_bytes - kept_bytes);
    EXPECT_EQ(io(Phase::kFinalMerge).bytes_written, data_bytes);
    // The final merge reads each written run's blocks in this PE's output
    // range at most once, plus every block the all-to-all wrote.
    const io::IoStatsSnapshot a2a = io(Phase::kAllToAll);
    EXPECT_GE(io(Phase::kFinalMerge).bytes_read,
              data_bytes - kept_bytes - a2a.bytes_read);
    EXPECT_LE(io(Phase::kFinalMerge).bytes_read,
              data_bytes - kept_bytes + a2a.bytes_written);
    // The total is 4N - 2·K·N/R plus the o(N) of the selection and the
    // all-to-all. The cap is fixed, so growth in either middle phase fails
    // it (measured here: 3.88-4.01N).
    const uint64_t expected = 4 * data_bytes - 2 * kept_bytes;
    uint64_t io_bytes = 0;
    for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
      io_bytes += out.report.phase[p].io.bytes();
    }
    EXPECT_GE(io_bytes, expected);
    EXPECT_LT(io_bytes, expected + data_bytes / 2);
  });
}

TEST(CanonicalSortTest, CommunicationVolumeIsNPlusLittle) {
  // §IV-D: communication volume N + o(N) — data crosses the network once
  // (during run formation's internal sort), plus metadata.
  const int P = 4;
  const uint64_t n = 4096;
  SortConfig config = test::SmallConfig();
  auto stats = net::Cluster::RunWithStats(P, [&](net::Comm& comm) {
    PeResources resources(&comm, config);
    PeContext& ctx = resources.ctx();
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                      ctx.rank(), P, config.seed);
    CanonicalMergeSort<KV16>(ctx, config, gen.input);
  });
  uint64_t sent = 0;
  for (auto& s : stats) sent += s.bytes_sent;
  uint64_t n_bytes = P * n * sizeof(KV16);
  // Expected: ~N*(P-1)/P of payload + metadata; must stay well under 2N.
  EXPECT_LT(sent, 2 * n_bytes);
}

TEST(CanonicalSortTest, WorstCaseNonRandomizedStillCorrect) {
  const int P = 4;
  SortConfig config = test::SmallConfig();
  config.randomize_blocks = false;
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kWorstCaseLocal,
                                      4096, ctx.rank(), P, cfg.seed);
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    auto v = workload::ValidateCollective<KV16>(ctx, out.blocks,
                                                out.num_elements,
                                                gen.checksum);
    EXPECT_TRUE(v.ok()) << v.ToString();
  });
}

TEST(CanonicalSortTest, RandomizationReducesAllToAllIo) {
  // The Fig. 5 claim as an assertion: on worst-case input, the all-to-all
  // phase moves much less data through the disks with randomization on.
  const int P = 4;
  const uint64_t n = 8192;
  uint64_t io_randomized = 0, io_plain = 0;
  for (bool randomize : {true, false}) {
    SortConfig config = test::SmallConfig();
    config.randomize_blocks = randomize;
    std::mutex mu;
    uint64_t total_io = 0;
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
      auto gen = workload::GenerateKV16(
          ctx.bm, Distribution::kWorstCaseLocal, n, ctx.rank(), P, cfg.seed);
      SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
      std::lock_guard<std::mutex> lock(mu);
      total_io += out.report.Get(Phase::kAllToAll).io.bytes();
    });
    (randomize ? io_randomized : io_plain) = total_io;
  }
  EXPECT_LT(io_randomized * 3, io_plain)
      << "randomization should cut all-to-all I/O by a large factor";
}

TEST(CanonicalSortTest, NearlyInPlace) {
  const int P = 2;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, 8192,
                                      ctx.rank(), P, cfg.seed);
    uint64_t input_blocks = gen.input.blocks.size();
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    // Temporary overhead: one run buffer + RP' partial blocks + write
    // window — far below 2x the input footprint.
    EXPECT_LT(out.report.peak_blocks, input_blocks * 3 / 2 + 16);
  });
}

TEST(CanonicalSortTest, DeterministicAcrossIdenticalRuns) {
  const int P = 3;
  const uint64_t n = 2000;
  std::mutex mu;
  // Indexed [round][rank] so collection order cannot matter.
  std::vector<std::vector<std::vector<uint64_t>>> first_keys(
      2, std::vector<std::vector<uint64_t>>(P));
  for (int round = 0; round < 2; ++round) {
    SortConfig config = test::SmallConfig();
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
      auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                        ctx.rank(), P, cfg.seed);
      SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
      std::lock_guard<std::mutex> lock(mu);
      for (const KV16& r : out.block_first_records) {
        first_keys[round][ctx.rank()].push_back(r.key);
      }
    });
  }
  EXPECT_EQ(first_keys[0], first_keys[1]);
}

TEST(CanonicalSortTest, SingleElementTotal) {
  SortConfig config = test::SmallConfig();
  test::RunPes(2, config, [&](PeContext& ctx, const SortConfig& cfg) {
    uint64_t n = ctx.rank() == 0 ? 1 : 0;
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                      ctx.rank(), 2, cfg.seed);
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    auto v = workload::ValidateCollective<KV16>(ctx, out.blocks,
                                                out.num_elements,
                                                gen.checksum);
    EXPECT_TRUE(v.ok()) << v.ToString();
    EXPECT_EQ(v.total_elements, 1u);
  });
}

TEST(CanonicalSortTest, FileBackendEndToEnd) {
  const int P = 2;
  SortConfig config = test::SmallConfig();
  config.backend = io::BlockManager::BackendKind::kFile;
  config.file_dir = "/tmp";
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, 2048,
                                      ctx.rank(), P, cfg.seed);
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    auto v = workload::ValidateCollective<KV16>(ctx, out.blocks,
                                                out.num_elements,
                                                gen.checksum);
    EXPECT_TRUE(v.ok()) << v.ToString();
  });
}

TEST(CanonicalSortTest, SyncIoModeWorks) {
  // Memory disks serve every block op inline on the submitting thread.
  const int P = 2;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, 2048,
                                      ctx.rank(), P, cfg.seed);
    SortOutput<KV16> out = CanonicalMergeSort<KV16>(ctx, cfg, gen.input);
    auto v = workload::ValidateCollective<KV16>(ctx, out.blocks,
                                                out.num_elements,
                                                gen.checksum);
    EXPECT_TRUE(v.ok()) << v.ToString();
  });
}

TEST(SortConfigTest, ValidateBoundsThreadsPerPe) {
  // A wrapped --threads=-1 reads 4294967295. Validate() rejects it, and
  // PeResources checks Validate() before it starts a disk or pool thread.
  // This test only validates, so it starts no thread.
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = SortConfig::kMaxThreadsPerPe;
  EXPECT_TRUE(config.Validate().ok());
  config.threads_per_pe = SortConfig::kMaxThreadsPerPe + 1;
  EXPECT_FALSE(config.Validate().ok());
  config.threads_per_pe = UINT32_MAX;
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace demsort::core
