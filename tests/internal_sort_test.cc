// Tests of the cooperative distributed in-memory sort (§IV-B): after the
// collective call, PE i must hold exactly the i-th equal share of the
// globally sorted data, for every P, size and distribution combination.
#include <gtest/gtest.h>

#include <algorithm>
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

  // Oracle: sort the concatenated input by (key, source PE, position) —
  // which for our data equals (key, value) since values are global ids.
  std::vector<KV16> all;
  for (auto& in : inputs) all.insert(all.end(), in.begin(), in.end());
  std::sort(all.begin(), all.end(), [](const KV16& a, const KV16& b) {
    return std::tie(a.key, a.value) < std::tie(b.key, b.value);
  });

  uint64_t total = static_cast<uint64_t>(P) * n;
  uint64_t offset = 0;
  for (int p = 0; p < P; ++p) {
    uint64_t expect_size = total / P + (static_cast<uint64_t>(p) <
                                        total % P ? 1 : 0);
    ASSERT_EQ(pieces[p].size(), expect_size) << "PE " << p;
    EXPECT_EQ(starts[p], offset);
    for (uint64_t i = 0; i < expect_size; ++i) {
      EXPECT_EQ(pieces[p][i].key, all[offset + i].key)
          << "PE " << p << " at " << i;
      EXPECT_EQ(pieces[p][i].value, all[offset + i].value)
          << "PE " << p << " at " << i;
    }
    offset += expect_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InternalSortParamTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values<uint64_t>(0, 1, 10, 257, 1000),
                       ::testing::Values(Dist::kRandom, Dist::kSorted,
                                         Dist::kReversed, Dist::kAllEqual,
                                         Dist::kFewKeys)));

TEST(InternalSortTest, Gray100TiesFollowPeAndPosition) {
  // Few distinct key bytes, so most keys tie; two threads per PE, so the
  // local sort takes the chunked tag-sort path. The pieces must concatenate
  // to the (key, PE, position) order byte for byte.
  const int P = 3;
  const size_t n = 10000;
  std::mutex mu;
  std::vector<std::vector<Gray100>> inputs(P), pieces(P);
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 2;
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    Rng rng(77 + ctx.rank());
    std::vector<Gray100> local(n);
    for (size_t i = 0; i < n; ++i) {
      for (uint8_t& b : local[i].key) b = static_cast<uint8_t>(rng.Below(3));
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

TEST(InternalSortTest, UnevenLocalSizes) {
  const int P = 4;
  std::mutex mu;
  std::vector<std::vector<KV16>> pieces(P);
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    // PE p contributes p*100 elements.
    uint64_t n = static_cast<uint64_t>(ctx.rank()) * 100;
    Rng rng(ctx.rank() + 55);
    std::vector<KV16> local(n);
    for (auto& r : local) r = {rng.Below(1000), rng.Next()};
    auto result = InternalParallelSort<KV16>(ctx, std::move(local));
    EXPECT_EQ(result.total, 600u);
    std::lock_guard<std::mutex> lock(mu);
    pieces[ctx.rank()] = std::move(result.piece);
  });
  // Equal split of 600 into 4 pieces of 150, globally ordered.
  uint64_t prev_last = 0;
  for (int p = 0; p < P; ++p) {
    ASSERT_EQ(pieces[p].size(), 150u);
    EXPECT_TRUE(std::is_sorted(pieces[p].begin(), pieces[p].end(),
                               KVLess()));
    if (p > 0) {
      EXPECT_GE(pieces[p].front().key, prev_last);
    }
    prev_last = pieces[p].back().key;
  }
}

TEST(InternalSortTest, SelectionRoundsAreLogarithmic) {
  const int P = 4;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    Rng rng(ctx.rank());
    std::vector<KV16> local(4096);
    for (auto& r : local) r = {rng.Next(), rng.Next()};
    auto result = InternalParallelSort<KV16>(ctx, std::move(local));
    // log2(4096) = 12; allow generous slack over the bound.
    EXPECT_LE(result.selection_rounds, 40u);
  });
}

}  // namespace
}  // namespace demsort::core
