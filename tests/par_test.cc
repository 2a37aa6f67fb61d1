#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/record.h"
#include "par/loser_tree.h"
#include "par/multiway_merge.h"
#include "par/parallel_sort.h"
#include "par/thread_pool.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/generators.h"

namespace demsort::par {
namespace {

using demsort::core::KV16;
using KVLess = demsort::core::RecordTraits<KV16>::Less;
using test::GrayKeys;
using test::MakeGray100;

// --------------------------------------------------------- ThreadPool ----

TEST(ThreadPoolTest, InlineWhenZeroThreads) {
  ThreadPool pool(0);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, RunsAllTasksOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SequentialBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(7, [&](size_t) { count++; });
    EXPECT_EQ(count.load(), 7);
  }
}

TEST(ThreadPoolTest, ParallelChunksCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelChunks(0, 1000, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyWorkIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL(); });
  pool.ParallelChunks(5, 5, [&](size_t, size_t) { FAIL(); });
}

/// One ParallelFor(2) whose tasks must overlap: each waits, for at most
/// five seconds, for the other to start. True when both saw the other.
bool TwoTasksOverlap(ThreadPool& pool) {
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  pool.ParallelFor(2, [&](size_t) {
    started.fetch_add(1);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == 2) met.fetch_add(1);
  });
  return met.load() == 2;
}

TEST(ThreadPoolTest, BackToBackBatchesFromOneCallSiteReachWorkers) {
  // Consecutive batches from one call site reuse the same stack address;
  // a worker must still recognise each as new instead of sleeping through
  // it and leaving the caller to run every task.
  ThreadPool pool(2);
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(TwoTasksOverlap(pool)) << "round " << round;
  }
}

// --------------------------------------------------------- LoserTree ----

/// An order-preserving record for small keys k < 1024. Gray100 spreads k
/// over key byte 7 (k / 4), inside the 64-bit prefix, and byte 9 (k % 4),
/// past it, so the typed tests run both the prefix compare and the
/// fallback to Less.
template <typename R>
R Rec(uint64_t k, uint64_t tag = 0);

template <>
KV16 Rec<KV16>(uint64_t k, uint64_t tag) {
  return {k, tag};
}

template <>
core::Gray100 Rec<core::Gray100>(uint64_t k, uint64_t tag) {
  core::Gray100 r;
  r.key[7] = static_cast<uint8_t>(k / 4);
  r.key[9] = static_cast<uint8_t>(k % 4);
  std::memcpy(r.payload.data(), &tag, sizeof(tag));
  return r;
}

/// A real record equal to the tree's sentinel under Less.
template <typename R>
R MaxKeyRecord() {
  return core::RecordTraits<R>::MaxSentinel();
}

template <typename R>
class LoserTreeTest : public ::testing::Test {};
using TreeRecords = ::testing::Types<KV16, core::Gray100>;
TYPED_TEST_SUITE(LoserTreeTest, TreeRecords);

TYPED_TEST(LoserTreeTest, SingleSource) {
  const TypeParam head = Rec<TypeParam>(7);
  LoserTree<TypeParam> tree(1);
  tree.InitSource(0, &head);
  tree.Build();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_EQ(&tree.Winner(), &head);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TYPED_TEST(LoserTreeTest, AllSourcesExhausted) {
  LoserTree<TypeParam> tree(3);
  tree.Build();
  EXPECT_TRUE(tree.Empty());
  EXPECT_EQ(tree.live(), 0u);
}

TYPED_TEST(LoserTreeTest, MergesTwoSources) {
  const TypeParam a[] = {Rec<TypeParam>(2), Rec<TypeParam>(9)};
  const TypeParam b[] = {Rec<TypeParam>(1), Rec<TypeParam>(3)};
  LoserTree<TypeParam> tree(2);
  tree.InitSource(0, a);
  tree.InitSource(1, b);
  tree.Build();
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(&tree.Winner(), &b[0]);
  tree.ReplaceWinner(&b[1]);
  EXPECT_EQ(tree.WinnerSource(), 0u);
  EXPECT_EQ(&tree.Winner(), &a[0]);
  EXPECT_EQ(&tree.Head(1), &b[1]);
}

TYPED_TEST(LoserTreeTest, LiveSourceBeatsSentinelValuedRecord) {
  // A real record EQUAL to the sentinel must still win against exhausted
  // sources: exhaustion biases the tie-break rank, not the key compare.
  const TypeParam low = Rec<TypeParam>(1);
  const TypeParam max = MaxKeyRecord<TypeParam>();
  LoserTree<TypeParam> tree(3);
  tree.InitSource(0, &low);
  tree.InitSource(2, &max);
  tree.Build();
  EXPECT_EQ(tree.live(), 2u);
  EXPECT_EQ(tree.WinnerSource(), 0u);
  tree.ExhaustWinner();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_EQ(tree.WinnerSource(), 2u);
  EXPECT_EQ(&tree.Winner(), &max);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TYPED_TEST(LoserTreeTest, TieBreaksBySourceIndex) {
  const TypeParam five = Rec<TypeParam>(5);
  LoserTree<TypeParam> tree(4);
  for (size_t s = 0; s < 4; ++s) tree.InitSource(s, &five);
  tree.Build();
  for (size_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(tree.WinnerSource(), expect);
    tree.ExhaustWinner();
  }
  EXPECT_TRUE(tree.Empty());
}

TYPED_TEST(LoserTreeTest, RunnerUpSourceIsSecondBest) {
  const TypeParam heads[] = {Rec<TypeParam>(40), Rec<TypeParam>(10),
                             Rec<TypeParam>(30), Rec<TypeParam>(20),
                             Rec<TypeParam>(50)};
  const TypeParam next = Rec<TypeParam>(25);
  LoserTree<TypeParam> tree(5);
  for (size_t s = 0; s < 5; ++s) tree.InitSource(s, &heads[s]);
  tree.Build();
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.RunnerUpSource(), 3u);  // head 20 is second-smallest
  tree.ReplaceWinner(&next);
  EXPECT_EQ(tree.WinnerSource(), 3u);
  EXPECT_EQ(tree.RunnerUpSource(), 1u);  // now 25 at source 1
  // On ties the runner-up is the lowest live source index among the tied.
  tree.ReplaceWinner(&next);
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.RunnerUpSource(), 3u);
}

TYPED_TEST(LoserTreeTest, LiveCountTracksExhaustion) {
  const TypeParam three = Rec<TypeParam>(3);
  const TypeParam one = Rec<TypeParam>(1);
  LoserTree<TypeParam> tree(6);
  tree.InitSource(1, &three);
  tree.InitSource(4, &one);
  tree.Build();
  EXPECT_EQ(tree.live(), 2u);
  EXPECT_TRUE(tree.IsLive(1));
  EXPECT_TRUE(tree.IsLive(4));
  EXPECT_FALSE(tree.IsLive(0));
  tree.ExhaustWinner();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_FALSE(tree.IsLive(4));
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TYPED_TEST(LoserTreeTest, NonPowerOfTwoSources) {
  for (size_t k : {3u, 5u, 6u, 7u, 9u, 13u}) {
    std::vector<TypeParam> heads;
    for (size_t s = 0; s < k; ++s) heads.push_back(Rec<TypeParam>(k - s));
    LoserTree<TypeParam> tree(k);
    for (size_t s = 0; s < k; ++s) tree.InitSource(s, &heads[s]);
    tree.Build();
    // The winner is the largest s (smallest key k - s).
    EXPECT_EQ(tree.WinnerSource(), k - 1) << "k=" << k;
  }
}

/// Gray100 keys equal in bytes 0-7: bytes 8-9 alone order them, and full
/// ties still break by source index.
TEST(LoserTreeGray100Test, PrefixTiesFallBackToTrailingKeyBytes) {
  auto gray = [](uint8_t b8, uint8_t b9) {
    core::Gray100 r;
    r.key.fill(0xAB);
    r.key[8] = b8;
    r.key[9] = b9;
    return r;
  };
  const core::Gray100 heads[] = {gray(1, 0), gray(0, 9), gray(0, 2),
                                 gray(0, 2), gray(0, 3)};
  LoserTree<core::Gray100> tree(5);
  for (size_t s = 0; s < 5; ++s) tree.InitSource(s, &heads[s]);
  tree.Build();
  std::vector<size_t> order;
  while (!tree.Empty()) {
    order.push_back(tree.WinnerSource());
    tree.ExhaustWinner();
  }
  EXPECT_EQ(order, (std::vector<size_t>{2, 3, 4, 1, 0}));
}

// ------------------------------------------------------ MultiwayMerge ----

/// MultiwayMerge and ParallelMultiwayMerge against the oracle.
template <typename R>
void ExpectMergeMatchesOracle(const test::SortedRuns<R>& in) {
  std::vector<std::span<const R>> spans;
  for (const auto& run : in.runs) spans.emplace_back(run.data(), run.size());
  std::vector<R> out(in.expect.size());
  EXPECT_EQ(MultiwayMerge<R>(spans, out.data()), in.expect.size());
  test::ExpectSameBytes(out, in.expect);
  ThreadPool pool(4);
  std::vector<R> par_out(in.expect.size());
  ParallelMultiwayMerge<R>(pool, spans, par_out.data());
  test::ExpectSameBytes(par_out, in.expect);
}

TEST(MultiwayMergeTest, KV16MatchesStableSortOracle) {
  for (size_t k : test::kMergeWays) {
    for (workload::Distribution dist : test::kDistributions) {
      SCOPED_TRACE(std::string(workload::DistributionName(dist)) +
                   " k=" + std::to_string(k));
      ExpectMergeMatchesOracle(test::DealSortedRuns(
          workload::MakeKV16(dist, 6000, /*rank=*/1, /*num_pes=*/4, k), k,
          k));
    }
    for (uint64_t range : {1u, 3u, 40u}) {
      SCOPED_TRACE("key range " + std::to_string(range) +
                   " k=" + std::to_string(k));
      Rng rng(range * 100 + k);
      std::vector<KV16> records(6000);
      for (size_t i = 0; i < records.size(); ++i) {
        records[i] = {rng.Below(range), i};
      }
      ExpectMergeMatchesOracle(test::DealSortedRuns(records, k, range + k));
    }
  }
}

TEST(MultiwayMergeTest, Gray100MatchesStableSortOracle) {
  for (size_t k : test::kMergeWays) {
    for (GrayKeys keys :
         {GrayKeys::kUniform, GrayKeys::kBinaryBytes, GrayKeys::kLastByte}) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(keys)) +
                   " k=" + std::to_string(k));
      ExpectMergeMatchesOracle(
          test::DealSortedRuns(MakeGray100(keys, 5000, k), k, k));
    }
  }
}

TEST(MultiwayMergeTest, EmptyInputs) {
  std::vector<std::span<const KV16>> spans;
  std::vector<KV16> out;
  EXPECT_EQ(MultiwayMerge<KV16>(spans, out.data()), 0u);

  std::vector<KV16> empty;
  spans.assign(3, std::span<const KV16>(empty.data(), 0));
  EXPECT_EQ(MultiwayMerge<KV16>(spans, out.data()), 0u);
}

TEST(MultiwayMergeTest, StableAcrossSources) {
  // Equal keys must come out in source order: merge KV16 with equal keys
  // and per-source values; output values must be grouped by source.
  std::vector<std::vector<KV16>> seqs(3);
  for (uint64_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 4; ++i) seqs[s].push_back({7, s});
  }
  std::vector<std::span<const KV16>> spans;
  for (auto& s : seqs) spans.emplace_back(s.data(), s.size());
  std::vector<KV16> out(12);
  MultiwayMerge<KV16>(spans, out.data());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(out[i].value, static_cast<uint64_t>(i / 4));
  }
}

// ------------------------------------------------------- ParallelSort ----

/// ParallelSort must produce std::stable_sort's bytes exactly: the whole
/// record, so the input order of ties (which every record carries in its
/// value or payload) is checked along with the keys.
template <typename R>
void ExpectMatchesStableSort(int threads, std::vector<R> data) {
  std::vector<R> expect = data;
  std::stable_sort(expect.begin(), expect.end(),
                   typename core::RecordTraits<R>::Less());
  ThreadPool pool(threads);
  ParallelSort(pool, std::span<R>(data));
  test::ExpectSameBytes(data, expect);
}

// Around the 8192-record switch to the chunked path, plus sizes the radix
// kernel's halves and chunks split unevenly.
const auto kSortSizes =
    ::testing::Values<size_t>(0, 1, 2, 8191, 8192, 8193, 50000);
const auto kSortThreads = ::testing::Values(1, 2, 4);

class ParallelSortKV16Test
    : public ::testing::TestWithParam<
          std::tuple<int, size_t, workload::Distribution>> {};

TEST_P(ParallelSortKV16Test, MatchesStableSort) {
  auto [threads, n, dist] = GetParam();
  ExpectMatchesStableSort(
      threads, workload::MakeKV16(dist, n, /*rank=*/1, /*num_pes=*/4,
                                  /*seed=*/n * 31 + threads));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortKV16Test,
    ::testing::Combine(kSortThreads, kSortSizes,
                       ::testing::ValuesIn(test::kDistributions)));

class ParallelSortGray100Test
    : public ::testing::TestWithParam<std::tuple<int, size_t, GrayKeys>> {};

TEST_P(ParallelSortGray100Test, MatchesStableSort) {
  auto [threads, n, keys] = GetParam();
  ExpectMatchesStableSort(threads, MakeGray100(keys, n, n * 17 + threads));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortGray100Test,
    ::testing::Combine(kSortThreads, kSortSizes,
                       ::testing::Values(GrayKeys::kUniform,
                                         GrayKeys::kBinaryBytes,
                                         GrayKeys::kLastByte)));

TEST(ParallelSortTest, ReverseSorted) {
  for (int threads : {1, 2}) {
    std::vector<KV16> data(30000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = {(data.size() - i) / 3, i};  // descending, with ties
    }
    ExpectMatchesStableSort(threads, data);
  }
}

/// The key-digit contract of core/record.h: Less is the lexicographic order
/// of the digit strings, most significant digit first.
template <typename R>
void ExpectDigitsOrderLikeLess(const std::vector<R>& records) {
  using Traits = core::RecordTraits<R>;
  auto digits = [](const R& r) {
    std::vector<uint8_t> s;
    for (size_t d = Traits::kKeyDigits; d-- > 0;) {
      s.push_back(Traits::KeyDigit(r, d));
    }
    return s;
  };
  for (size_t i = 1; i < records.size(); ++i) {
    const R& a = records[i - 1];
    const R& b = records[i];
    EXPECT_EQ(typename Traits::Less()(a, b), digits(a) < digits(b)) << i;
    EXPECT_EQ(typename Traits::Less()(b, a), digits(b) < digits(a)) << i;
  }
}

TEST(RadixSortTest, KeyDigitsOrderLikeLess) {
  ExpectDigitsOrderLikeLess(
      workload::MakeKV16(workload::Distribution::kUniform, 2000, 0, 1, 5));
  ExpectDigitsOrderLikeLess(
      workload::MakeKV16(workload::Distribution::kZipf, 2000, 0, 1, 5));
  ExpectDigitsOrderLikeLess(MakeGray100(GrayKeys::kUniform, 2000, 5));
  ExpectDigitsOrderLikeLess(MakeGray100(GrayKeys::kBinaryBytes, 2000, 5));
}

// -------------------------------------------------------- SequenceGate ----

TEST(SequenceGateTest, SingleThreadTurnsAdvanceInOrder) {
  SequenceGate gate;
  for (size_t t = 0; t < 5; ++t) {
    EXPECT_TRUE(gate.IsTurn(t));
    EXPECT_FALSE(gate.IsTurn(t + 1));
    gate.WaitTurn(t);  // must not block on the current turn
    gate.Advance();
  }
}

TEST(SequenceGateTest, OrdersParallelForDelivery) {
  // The ordered-sink idiom of the parallel merge: workers pick up tasks in
  // any interleaving but hand over their output strictly in task order.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    SequenceGate gate;
    std::vector<size_t> delivered;
    pool.ParallelFor(64, [&](size_t t) {
      gate.WaitTurn(t);
      delivered.push_back(t);  // gate serializes: no mutex needed
      gate.Advance();
    });
    ASSERT_EQ(delivered.size(), 64u);
    for (size_t t = 0; t < 64; ++t) EXPECT_EQ(delivered[t], t);
  }
}

}  // namespace
}  // namespace demsort::par
