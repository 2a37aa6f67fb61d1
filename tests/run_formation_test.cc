// Run formation (§IV phase 1) invariants: every run is globally sorted,
// pieces tile it exactly, samples carry exact positions, randomization
// permutes block pickup, and the phase is (nearly) in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "core/block_io.h"
#include "core/run_formation.h"
#include "test_util.h"
#include "util/aligned_buffer.h"
#include "workload/generators.h"

namespace demsort::core {
namespace {

using test::KVLess;
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

/// The piece's blocks, byte for byte: records, tails and block slack.
template <typename R>
std::vector<uint8_t> BlockBytes(PeContext& ctx, const RunPiece<R>& piece) {
  const size_t bs = ctx.bm->block_size();
  std::vector<uint8_t> bytes(piece.blocks.size() * bs);
  AlignedBuffer block(bs);
  for (size_t b = 0; b < piece.blocks.size(); ++b) {
    ctx.bm->ReadSync(piece.blocks[b], block.data());
    std::memcpy(bytes.data() + b * bs, block.data(), bs);
  }
  return bytes;
}

class RunFormationParamTest
    : public ::testing::TestWithParam<
          std::tuple<int, uint64_t, Distribution, bool>> {};

TEST_P(RunFormationParamTest, RunsAreGloballySortedAndTiled) {
  auto [P, elements_per_pe, dist, randomize] = GetParam();
  SortConfig config = test::SmallConfig();
  config.randomize_blocks = randomize;

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, dist, elements_per_pe,
                                      ctx.rank(), P, cfg.seed);
    RunFormationResult<KV16> rf = FormRuns<KV16>(ctx, cfg, gen.input);

    EXPECT_EQ(rf.total_elements,
              static_cast<uint64_t>(P) * elements_per_pe);
    ASSERT_EQ(rf.runs.num_runs(), rf.table.num_runs());

    uint64_t seen = 0;
    for (size_t r = 0; r < rf.runs.num_runs(); ++r) {
      const RunPiece<KV16>& piece = rf.runs.pieces[r];
      std::vector<KV16> data = ReadPiece(ctx, cfg, piece);
      ASSERT_EQ(data.size(), piece.size);
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), KVLess()));
      seen += piece.size;

      // Piece metadata matches the replicated table.
      EXPECT_EQ(piece.global_start,
                rf.table.piece_start[r][ctx.rank()]);
      EXPECT_EQ(piece.global_start + piece.size,
                rf.table.piece_start[r][ctx.rank() + 1]);

      // Block first-records are correct.
      size_t epb = cfg.ElementsPerBlock<KV16>();
      for (size_t b = 0; b * epb < data.size(); ++b) {
        EXPECT_EQ(piece.block_first_records[b].value,
                  data[b * epb].value);
      }

      // Global sortedness across pieces: my first key must not precede the
      // previous PE's last key. Verify via allgather of boundary keys.
      struct Bound {
        uint64_t first_key, last_key;
        uint8_t non_empty;
      };
      Bound mine{piece.size ? data.front().key : 0,
                 piece.size ? data.back().key : 0,
                 static_cast<uint8_t>(piece.size ? 1 : 0)};
      auto bounds = ctx.comm->Allgather(mine);
      bool have_prev = false;
      uint64_t prev_last = 0;
      for (const Bound& b : bounds) {
        if (!b.non_empty) continue;
        if (have_prev) {
          EXPECT_LE(prev_last, b.first_key);
        }
        prev_last = b.last_key;
        have_prev = true;
      }

      // Samples: every K-th element with exact positions.
      const auto& samples = rf.samples.per_run[r];
      for (const auto& entry : samples) {
        if (entry.pos >= piece.global_start &&
            entry.pos < piece.global_start + piece.size) {
          EXPECT_EQ(entry.record.value,
                    data[entry.pos - piece.global_start].value);
        }
      }
    }
    EXPECT_EQ(ctx.comm->AllreduceSum<uint64_t>(seen), rf.total_elements);

    // Sample table is position-sorted per run.
    for (size_t r = 0; r < rf.samples.per_run.size(); ++r) {
      const auto& s = rf.samples.per_run[r];
      for (size_t i = 1; i < s.size(); ++i) {
        EXPECT_LT(s[i - 1].pos, s[i].pos);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunFormationParamTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 4),
        ::testing::Values<uint64_t>(100, 1500, 4096),
        ::testing::Values(Distribution::kUniform,
                          Distribution::kWorstCaseLocal,
                          Distribution::kAllEqual),
        ::testing::Values(false, true)));

TEST(RunFormationTest, NumberOfRunsMatchesMemory) {
  const int P = 2;
  SortConfig config = test::SmallConfig();  // 512 elements per PE per run
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform,
                                      2048, ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
    EXPECT_EQ(rf.runs.num_runs(), 4u);  // 2048 / 512
  });
}

TEST(RunFormationTest, PesThatRunOutOfBlocksJoinEveryRun) {
  // PE p holds 1000 + 300p records: 16, 21 and 25 blocks of 64, so 2, 3
  // and 4 runs of 8 blocks. The shorter PEs take part in the later runs
  // with nothing to contribute.
  const int P = 3;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    const uint64_t n = 1000 + 300 * static_cast<uint64_t>(ctx.rank());
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                      ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
    EXPECT_EQ(rf.runs.num_runs(), 4u);
    EXPECT_EQ(rf.total_elements, 3900u);
    uint64_t seen = 0;
    for (size_t r = 0; r < rf.runs.num_runs(); ++r) {
      const RunPiece<KV16>& piece = rf.runs.pieces[r];
      std::vector<KV16> data = ReadPiece(ctx, cfg, piece);
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), KVLess()));
      EXPECT_EQ(piece.global_start, rf.table.piece_start[r][ctx.rank()]);
      seen += piece.size;
    }
    EXPECT_EQ(ctx.comm->AllreduceSum<uint64_t>(seen), rf.total_elements);
  });
}

TEST(RunFormationTest, InPlaceKeepsPeakNearInput) {
  const int P = 2;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform,
                                      4096, ctx.rank(), P, cfg.seed);
    uint64_t input_blocks = gen.input.blocks.size();
    FormRuns<KV16>(ctx, cfg, gen.input);
    // Freed input blocks are recycled into run pieces: the peak should stay
    // within input + one run's worth of blocks (+ small slack).
    uint64_t run_blocks = cfg.memory_per_pe / cfg.block_size;
    EXPECT_LE(ctx.bm->peak_blocks_in_use(),
              input_blocks + run_blocks + 4);
  });
}

TEST(RunFormationTest, RandomizationChangesRunComposition) {
  // With locally sorted (worst-case) input and NO randomization, run 0 is
  // formed from every PE's smallest keys => run 0's key range is narrow.
  // With randomization it spans ~the full key range.
  const int P = 2;
  const uint64_t n = 4096;
  for (bool randomize : {false, true}) {
    SortConfig config = test::SmallConfig();
    config.randomize_blocks = randomize;
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
      auto gen = workload::GenerateKV16(ctx.bm,
                                        Distribution::kWorstCaseLocal, n,
                                        ctx.rank(), P, cfg.seed);
      auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
      ASSERT_GE(rf.runs.num_runs(), 4u);
      // Key range of run 0 from its samples, relative to global key range.
      const auto& s0 = rf.samples.per_run[0];
      ASSERT_FALSE(s0.empty());
      uint64_t min_key = UINT64_MAX, max_key = 0;
      for (const auto& e : s0) {
        min_key = std::min(min_key, e.record.key);
        max_key = std::max(max_key, e.record.key);
      }
      double spread =
          static_cast<double>(max_key - min_key) / static_cast<double>(UINT64_MAX);
      if (cfg.randomize_blocks) {
        EXPECT_GT(spread, 0.5) << "randomized run should span the keyspace";
      } else {
        EXPECT_LT(spread, 0.35) << "non-randomized run should be narrow";
      }
    });
  }
}

TEST(RunFormationTest, OverlapOffProducesSameRuns) {
  // The blocks must not depend on the overlap. With overlap, three run
  // buffers rotate and a buffer's writes drain only before it is read into
  // again; six runs reuse every buffer. The throttled disk keeps its
  // pump, so reads and writes complete on another thread while the next
  // runs sort, and the blocks must still match byte for byte.
  const int P = 2;
  const uint64_t n = 3000;  // 47 blocks of 64 per PE, 8 per run: 6 runs
  const char* kVariants[] = {"overlap off", "overlap on",
                             "overlap on, throttled disk"};
  std::mutex mu;
  // (rank, run) -> the piece's blocks, byte for byte.
  std::vector<std::map<std::pair<int, size_t>, std::vector<uint8_t>>> runs(3);
  for (int variant = 0; variant < 3; ++variant) {
    SortConfig config = test::SmallConfig();
    config.overlap_run_formation = variant != 0;
    if (variant == 2) {
      config.disk_model.throttle = true;
      config.disk_model.seek_ms = 0.2;
      config.disk_model.mib_per_s = 1e6;
    }
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
      auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                        ctx.rank(), P, cfg.seed);
      auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
      EXPECT_GE(rf.runs.num_runs(), 6u);
      // The runs in buffers that are never reused stay in memory: the last
      // three with overlap, the last one without.
      const size_t kept_runs = cfg.overlap_run_formation ? 3 : 1;
      size_t kept_blocks = 0;
      for (size_t r = rf.runs.num_runs() - kept_runs; r < rf.runs.num_runs();
           ++r) {
        kept_blocks += rf.runs.pieces[r].blocks.size();
      }
      EXPECT_EQ(ctx.bm->blocks_kept(), kept_blocks);
      for (size_t r = 0; r < rf.runs.num_runs(); ++r) {
        std::vector<uint8_t> bytes = BlockBytes(ctx, rf.runs.pieces[r]);
        std::lock_guard<std::mutex> lock(mu);
        runs[variant][{ctx.rank(), r}] = std::move(bytes);
      }
    });
  }
  ASSERT_FALSE(runs[0].empty());
  for (int variant = 1; variant < 3; ++variant) {
    ASSERT_EQ(runs[variant].size(), runs[0].size()) << kVariants[variant];
    for (const auto& [key, bytes] : runs[0]) {
      EXPECT_TRUE(runs[variant][key] == bytes)
          << kVariants[variant] << ": rank " << key.first << " run "
          << key.second << " differs from " << kVariants[0];
    }
  }
}

TEST(RunFormationTest, Gray100BlocksHoldRecordsThenZeros) {
  // 1 KiB blocks hold 10 Gray100 records and 24 B of slack, so the run
  // buffer is compacted before the sort and spread back to block stride
  // after the merge. 505 records per PE make the last input block partial;
  // randomization can place it mid-run, leaving a gap the compaction
  // closes.
  const int P = 2;
  const uint64_t n = 505;
  SortConfig config = test::SmallConfig();
  const size_t epb = config.ElementsPerBlock<Gray100>();
  ASSERT_EQ(epb, 10u);
  std::mutex mu;
  std::vector<uint64_t> ids;  // every record's input index, read back
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateGray100(ctx.bm, n, ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<Gray100>(ctx, cfg, gen.input);
    ASSERT_GE(rf.runs.num_runs(), 4u);
    RecordTraits<Gray100>::Less less;
    for (size_t r = 0; r < rf.runs.num_runs(); ++r) {
      const RunPiece<Gray100>& piece = rf.runs.pieces[r];
      EXPECT_EQ(piece.global_start, rf.table.piece_start[r][ctx.rank()]);
      ASSERT_EQ(piece.blocks.size(), (piece.size + epb - 1) / epb);
      ASSERT_EQ(piece.block_first_records.size(), piece.blocks.size());
      std::vector<uint8_t> bytes = BlockBytes(ctx, piece);
      std::vector<Gray100> records;
      for (size_t b = 0; b < piece.blocks.size(); ++b) {
        const uint8_t* block = bytes.data() + b * cfg.block_size;
        const size_t count = std::min<uint64_t>(epb, piece.size - b * epb);
        for (size_t i = 0; i < count; ++i) {
          Gray100 rec;
          std::memcpy(&rec, block + i * sizeof(Gray100), sizeof(Gray100));
          records.push_back(rec);
        }
        for (size_t i = count * sizeof(Gray100); i < cfg.block_size; ++i) {
          ASSERT_EQ(block[i], 0) << "run " << r << " block " << b
                                 << " byte " << i;
        }
        EXPECT_EQ(std::memcmp(&piece.block_first_records[b], &records[b * epb],
                              sizeof(Gray100)),
                  0)
            << "run " << r << " block " << b;
      }
      ASSERT_EQ(records.size(), piece.size);
      EXPECT_TRUE(std::is_sorted(records.begin(), records.end(), less));
      size_t in_piece = 0;
      for (const auto& entry : rf.samples.per_run[r]) {
        if (entry.pos < piece.global_start ||
            entry.pos >= piece.global_start + piece.size) {
          continue;
        }
        ++in_piece;
        EXPECT_EQ(std::memcmp(&entry.record,
                              &records[entry.pos - piece.global_start],
                              sizeof(Gray100)),
                  0)
            << "run " << r << " sample at " << entry.pos;
      }
      // Every K-th record (K = epb) plus the closing one.
      size_t expect = (piece.size + epb - 1) / epb;
      if (piece.size > 0 && (piece.size - 1) % epb != 0) ++expect;
      EXPECT_EQ(in_piece, expect) << "run " << r;
      std::lock_guard<std::mutex> lock(mu);
      for (const Gray100& rec : records) {
        uint64_t gid;
        std::memcpy(&gid, rec.payload.data(), sizeof(gid));
        ids.push_back(gid);
      }
    }
  });
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), P * n);
  for (uint64_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], i);
}

/// Runs phase 1 on P PEs, then saves and reloads each PE's checkpoint image
/// of it (the image a resumed epoch re-enters phase 2 from) and compares
/// the reloaded result with the original field by field.
template <typename R>
void ExpectCheckpointRoundTrip(
    const std::function<workload::GeneratedInput<R>(PeContext&, int)>&
        generate) {
  const int P = 3;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = generate(ctx, P);
    RunFormationResult<R> rf = FormRuns<R>(ctx, cfg, gen.input);
    ASSERT_GE(rf.runs.num_runs(), 2u);

    ByteWriter w;
    SaveRunFormation(w, rf);
    const std::string image = w.Take();
    ByteReader r(image);
    RunFormationResult<R> loaded;
    ASSERT_TRUE(LoadRunFormation(r, P, &loaded).ok());
    EXPECT_TRUE(r.exhausted());

    auto same_bytes = [](const auto& a, const auto& b) {
      return std::memcmp(&a, &b, sizeof(a)) == 0;
    };
    EXPECT_EQ(loaded.total_elements, rf.total_elements);
    ASSERT_EQ(loaded.runs.num_runs(), rf.runs.num_runs());
    for (size_t j = 0; j < rf.runs.num_runs(); ++j) {
      const RunPiece<R>& want = rf.runs.pieces[j];
      const RunPiece<R>& got = loaded.runs.pieces[j];
      EXPECT_EQ(got.global_start, want.global_start) << "run " << j;
      EXPECT_EQ(got.size, want.size) << "run " << j;
      EXPECT_EQ(got.blocks, want.blocks) << "run " << j;
      ASSERT_EQ(got.block_first_records.size(),
                want.block_first_records.size());
      for (size_t b = 0; b < want.block_first_records.size(); ++b) {
        EXPECT_TRUE(same_bytes(got.block_first_records[b],
                               want.block_first_records[b]))
            << "run " << j << " block " << b;
      }
    }
    EXPECT_EQ(loaded.table.piece_start, rf.table.piece_start);
    ASSERT_EQ(loaded.samples.per_run.size(), rf.samples.per_run.size());
    for (size_t j = 0; j < rf.samples.per_run.size(); ++j) {
      const auto& want = rf.samples.per_run[j];
      const auto& got = loaded.samples.per_run[j];
      ASSERT_EQ(got.size(), want.size()) << "run " << j;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].pos, want[i].pos) << "run " << j << " sample " << i;
        EXPECT_TRUE(same_bytes(got[i].record, want[i].record))
            << "run " << j << " sample " << i;
      }
    }

    // A truncated image is an error, not a short result.
    const std::string truncated = image.substr(0, image.size() - 1);
    ByteReader short_reader(truncated);
    RunFormationResult<R> partial;
    EXPECT_FALSE(LoadRunFormation(short_reader, P, &partial).ok());
  });
}

TEST(RunFormationTest, CheckpointImageRoundTripsKV16) {
  ExpectCheckpointRoundTrip<KV16>([](PeContext& ctx, int P) {
    return workload::GenerateKV16(ctx.bm, Distribution::kZipf, 1500,
                                  ctx.rank(), P, 424242);
  });
}

TEST(RunFormationTest, CheckpointImageRoundTripsGray100) {
  // 10 Gray100 records per 1 KiB block and a partial last input block.
  ExpectCheckpointRoundTrip<Gray100>([](PeContext& ctx, int P) {
    return workload::GenerateGray100(ctx.bm, 505, ctx.rank(), P, 424242);
  });
}

}  // namespace
}  // namespace demsort::core
