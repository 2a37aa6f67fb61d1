// Tests of the cooperative distributed in-memory sort (§IV-B): after the
// collective call, PE i must hold exactly the i-th equal share of the
// globally sorted data, for every P, size and distribution combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/internal_sort.h"
#include "test_util.h"
#include "util/random.h"

namespace demsort::core {
namespace {

using test::KVLess;

enum class Dist { kRandom, kSorted, kReversed, kAllEqual, kFewKeys };

std::vector<KV16> MakeLocal(Dist dist, uint64_t n, int rank, int P) {
  Rng rng(1000 + rank);
  std::vector<KV16> data(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t gid = static_cast<uint64_t>(rank) * n + i;
    switch (dist) {
      case Dist::kRandom:
        data[i] = {rng.Next(), gid};
        break;
      case Dist::kSorted:
        data[i] = {gid, gid};
        break;
      case Dist::kReversed:
        data[i] = {static_cast<uint64_t>(P) * n - gid, gid};
        break;
      case Dist::kAllEqual:
        data[i] = {7, gid};
        break;
      case Dist::kFewKeys:
        data[i] = {rng.Below(3), gid};
        break;
    }
  }
  return data;
}

/// The pieces must be the equal shares of the (key, source PE, position)
/// order of the inputs, record for record, starting at the given ranks.
void ExpectOraclePieces(const std::vector<std::vector<KV16>>& inputs,
                        const std::vector<std::vector<KV16>>& pieces,
                        const std::vector<uint64_t>& starts) {
  const int P = static_cast<int>(inputs.size());
  std::vector<KV16> all;
  for (const auto& in : inputs) all.insert(all.end(), in.begin(), in.end());
  std::stable_sort(all.begin(), all.end(), KVLess());

  const uint64_t total = all.size();
  uint64_t offset = 0;
  for (int p = 0; p < P; ++p) {
    uint64_t expect_size = total / P + (static_cast<uint64_t>(p) <
                                        total % P ? 1 : 0);
    ASSERT_EQ(pieces[p].size(), expect_size) << "PE " << p;
    EXPECT_EQ(starts[p], offset);
    for (uint64_t i = 0; i < expect_size; ++i) {
      ASSERT_EQ(pieces[p][i].key, all[offset + i].key)
          << "PE " << p << " at " << i;
      ASSERT_EQ(pieces[p][i].value, all[offset + i].value)
          << "PE " << p << " at " << i;
    }
    offset += expect_size;
  }
}

class InternalSortParamTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, Dist>> {};

TEST_P(InternalSortParamTest, ExactEqualPartition) {
  auto [P, n, dist] = GetParam();
  std::mutex mu;
  std::vector<std::vector<KV16>> pieces(P);
  std::vector<uint64_t> starts(P);
  std::vector<std::vector<KV16>> inputs(P);

  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    std::vector<KV16> local = MakeLocal(dist, n, ctx.rank(), P);
    {
      std::lock_guard<std::mutex> lock(mu);
      inputs[ctx.rank()] = local;
    }
    InternalSortResult<KV16> result =
        InternalParallelSort<KV16>(ctx, std::move(local));
    std::lock_guard<std::mutex> lock(mu);
    pieces[ctx.rank()] = std::move(result.piece);
    starts[ctx.rank()] = result.piece_start;
    EXPECT_EQ(result.total, static_cast<uint64_t>(P) * n);
  });

  ExpectOraclePieces(inputs, pieces, starts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InternalSortParamTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       // 2^16 per PE leaves windows wide enough after the
                       // coarse sample that refinement rounds run.
                       ::testing::Values<uint64_t>(0, 1, 10, 257, 1000,
                                                   uint64_t{1} << 16),
                       ::testing::Values(Dist::kRandom, Dist::kSorted,
                                         Dist::kReversed, Dist::kAllEqual,
                                         Dist::kFewKeys)));

/// Sorts P x n Gray100 records whose first `random_bytes` key bytes are
/// drawn from {0, 1, 2} (the rest zero), so most keys tie; two threads per
/// PE, so the local sort takes the chunked tag-sort path. The pieces must
/// concatenate to the (key, PE, position) order byte for byte.
void ExpectGray100TiesFollowPeAndPosition(int P, size_t n,
                                          size_t random_bytes) {
  std::mutex mu;
  std::vector<std::vector<Gray100>> inputs(P), pieces(P);
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 2;
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    Rng rng(77 + ctx.rank());
    std::vector<Gray100> local(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t b = 0; b < random_bytes; ++b) {
        local[i].key[b] = static_cast<uint8_t>(rng.Below(3));
      }
      uint64_t gid = static_cast<uint64_t>(ctx.rank()) * n + i;
      std::memcpy(local[i].payload.data(), &gid, sizeof(gid));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      inputs[ctx.rank()] = local;
    }
    auto result = InternalParallelSort<Gray100>(ctx, std::move(local));
    std::lock_guard<std::mutex> lock(mu);
    pieces[ctx.rank()] = std::move(result.piece);
  });

  std::vector<Gray100> expect, got;
  for (int p = 0; p < P; ++p) {
    expect.insert(expect.end(), inputs[p].begin(), inputs[p].end());
    got.insert(got.end(), pieces[p].begin(), pieces[p].end());
  }
  std::stable_sort(expect.begin(), expect.end(),
                   RecordTraits<Gray100>::Less());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &expect[i], sizeof(Gray100)), 0)
        << "at " << i;
  }
}

TEST(InternalSortTest, Gray100TiesFollowPeAndPosition) {
  ExpectGray100TiesFollowPeAndPosition(3, 10000, 10);
}

TEST(InternalSortTest, Gray100HeavyTiesAtRefinementScale) {
  // Nine distinct keys over 2^16 records per PE: every window the
  // refinement rounds sample lies inside one long run of equal keys.
  ExpectGray100TiesFollowPeAndPosition(4, size_t{1} << 16, 2);
}

TEST(InternalSortTest, UnevenLocalSizes) {
  // Empty PEs, and PEs of 2^16 records next to nearly empty ones, so the
  // targets' windows differ widely in width across sequences. The third
  // case gives PE r the descending keys (P - r) n_r - i: ranges that
  // overlap unevenly, where bounds recomputed from scratch after a round
  // came out wider than before it.
  struct Case {
    std::vector<uint64_t> sizes;
    bool descending_ranges;
  };
  for (const Case& c :
       {Case{{0, 100, 200, 300}, false},
        Case{{uint64_t{1} << 16, 0, 3000, 40000, 1}, false},
        Case{{30911, 67611, 16454, 3915, 56639}, true}}) {
    const int P = static_cast<int>(c.sizes.size());
    std::mutex mu;
    std::vector<std::vector<KV16>> inputs(P), pieces(P);
    std::vector<uint64_t> starts(P);
    SortConfig config = test::SmallConfig();
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
      Rng rng(ctx.rank() + 55);
      const uint64_t n = c.sizes[ctx.rank()];
      std::vector<KV16> local(n);
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t key =
            c.descending_ranges ? (P - ctx.rank()) * n - i : rng.Below(1000);
        local[i] = {key, rng.Next()};
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        inputs[ctx.rank()] = local;
      }
      auto result = InternalParallelSort<KV16>(ctx, std::move(local));
      std::lock_guard<std::mutex> lock(mu);
      pieces[ctx.rank()] = std::move(result.piece);
      starts[ctx.rank()] = result.piece_start;
    });
    ExpectOraclePieces(inputs, pieces, starts);
  }
}

TEST(InternalSortTest, SkewedDuplicatesNarrowEveryRound) {
  // Power-law keys: 41% of every PE's records share the smallest key, and
  // the boundary of PE 1's piece lies in PE 2's run of it, where the
  // middle sample of PE 2's window has a rank bracket that holds the
  // target. Refinement must still shrink the widest window every round (a
  // stalled round fails a CHECK).
  const int P = 3;
  const uint64_t n = uint64_t{1} << 16;
  std::mutex mu;
  std::vector<std::vector<KV16>> inputs(P), pieces(P);
  std::vector<uint64_t> starts(P);
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    Rng rng(26700 + ctx.rank());
    std::vector<KV16> local(n);
    for (uint64_t i = 0; i < n; ++i) {
      const double u = static_cast<double>(rng.Next() >> 11) * 0x1p-53;
      local[i] = {static_cast<uint64_t>(std::pow(1.0 / (u + 1e-9), 1.3)),
                  static_cast<uint64_t>(ctx.rank()) * n + i};
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      inputs[ctx.rank()] = local;
    }
    auto result = InternalParallelSort<KV16>(ctx, std::move(local));
    std::lock_guard<std::mutex> lock(mu);
    pieces[ctx.rank()] = std::move(result.piece);
    starts[ctx.rank()] = result.piece_start;
  });
  ExpectOraclePieces(inputs, pieces, starts);
}

TEST(InternalSortTest, SelectionRoundsAreLogarithmic) {
  const int P = 4;
  SortConfig config = test::SmallConfig();
  for (uint64_t n : {uint64_t{4096}, uint64_t{1} << 18}) {
    std::mutex mu;
    uint64_t rounds = 0;
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
      Rng rng(ctx.rank());
      std::vector<KV16> local(n);
      for (auto& r : local) r = {rng.Next(), rng.Next()};
      auto result = InternalParallelSort<KV16>(ctx, std::move(local));
      std::lock_guard<std::mutex> lock(mu);
      rounds = std::max(rounds, result.selection_rounds);
    });
    // Five collectives around the loop, three per refinement round; each
    // round shrinks the widest window by well over a factor of 8, so
    // log8(n) rounds is a generous bound.
    uint64_t log8 = 0;
    for (uint64_t w = n; w > 1; w /= 8) ++log8;
    EXPECT_GE(rounds, 5u) << "n = " << n;
    EXPECT_LE(rounds, 5 + 3 * log8) << "n = " << n;
  }
}

TEST(InternalSortTest, SelectionTrafficIsLittleO) {
  // §IV-D: the data crosses the network once. The exchange moves exactly
  // (P-1)/P of the N bytes; the selection's samples, windows and rows
  // must add o(N), well under 2% of N at 2^18 records per PE.
  const uint64_t n = uint64_t{1} << 18;
  for (int P : {4, 8}) {
    SortConfig config = test::SmallConfig();
    auto stats = net::Cluster::RunWithStats(P, [&](net::Comm& comm) {
      PeResources resources(&comm, config);
      Rng rng(500 + comm.rank());
      std::vector<KV16> local(n);
      for (auto& r : local) r = {rng.Next(), rng.Next()};
      InternalParallelSort<KV16>(resources.ctx(), std::move(local));
    });
    uint64_t sent = 0;
    for (const auto& s : stats) sent += s.bytes_sent;
    const double n_bytes = static_cast<double>(P * n * sizeof(KV16));
    const double exchange = n_bytes * (P - 1) / P;
    EXPECT_LE(static_cast<double>(sent), exchange + 0.02 * n_bytes)
        << "P = " << P << ": excess over the exchange "
        << (static_cast<double>(sent) - exchange) / n_bytes << " N";
  }
}

}  // namespace
}  // namespace demsort::core
