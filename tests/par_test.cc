#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "core/record.h"
#include "par/loser_tree.h"
#include "par/multiway_merge.h"
#include "par/parallel_sort.h"
#include "par/thread_pool.h"
#include "util/random.h"
#include "workload/generators.h"

namespace demsort::par {
namespace {

using demsort::core::KV16;
using KVLess = demsort::core::RecordTraits<KV16>::Less;

struct IntLess {
  bool operator()(int a, int b) const { return a < b; }
};

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

// ---------------------------------------------------------- LoserTree ----

TEST(LoserTreeTest, SingleSource) {
  LoserTree<int, IntLess> tree(1);
  tree.InitSource(0, 7);
  tree.Build();
  EXPECT_FALSE(tree.Empty());
  EXPECT_EQ(tree.Winner(), 7);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTreeTest, AllSourcesExhausted) {
  LoserTree<int, IntLess> tree(3);
  tree.Build();
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTreeTest, MergesTwoSources) {
  LoserTree<int, IntLess> tree(2);
  tree.InitSource(0, 2);
  tree.InitSource(1, 1);
  tree.Build();
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.Winner(), 1);
  tree.ReplaceWinner(3);
  EXPECT_EQ(tree.Winner(), 2);
}

TEST(LoserTreeTest, TieBreaksBySourceIndex) {
  LoserTree<int, IntLess> tree(4);
  for (size_t s = 0; s < 4; ++s) tree.InitSource(s, 5);
  tree.Build();
  for (size_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(tree.WinnerSource(), expect);
    tree.ExhaustWinner();
  }
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTreeTest, NonPowerOfTwoSources) {
  for (size_t k : {3u, 5u, 6u, 7u, 9u, 13u}) {
    LoserTree<int, IntLess> tree(k);
    for (size_t s = 0; s < k; ++s) {
      tree.InitSource(s, static_cast<int>(k - s));
    }
    tree.Build();
    // Winner should be the largest s (smallest value k-s).
    EXPECT_EQ(tree.WinnerSource(), k - 1) << "k=" << k;
  }
}

// ------------------------------------------------------ MultiwayMerge ----

std::vector<std::vector<int>> MakeSortedSequences(size_t k, size_t avg_len,
                                                  uint64_t seed,
                                                  int key_range = 1000000) {
  Rng rng(seed);
  std::vector<std::vector<int>> seqs(k);
  for (auto& s : seqs) {
    size_t len = rng.Below(2 * avg_len + 1);
    s.resize(len);
    for (auto& x : s) x = static_cast<int>(rng.Below(key_range));
    std::sort(s.begin(), s.end());
  }
  return seqs;
}

TEST(MultiwayMergeTest, MatchesStdSort) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto seqs = MakeSortedSequences(1 + seed % 7, 50, seed);
    std::vector<std::span<const int>> spans;
    std::vector<int> expect;
    for (auto& s : seqs) {
      spans.emplace_back(s.data(), s.size());
      expect.insert(expect.end(), s.begin(), s.end());
    }
    std::sort(expect.begin(), expect.end());
    std::vector<int> out(expect.size());
    size_t n = MultiwayMerge<int, IntLess>(spans, out.data());
    EXPECT_EQ(n, expect.size());
    EXPECT_EQ(out, expect);
  }
}

TEST(MultiwayMergeTest, EmptyInputs) {
  std::vector<std::span<const int>> spans;
  std::vector<int> out;
  EXPECT_EQ((MultiwayMerge<int, IntLess>(spans, out.data())), 0u);

  std::vector<int> empty;
  spans.assign(3, std::span<const int>(empty.data(), 0));
  EXPECT_EQ((MultiwayMerge<int, IntLess>(spans, out.data())), 0u);
}

TEST(MultiwayMergeTest, HeavyDuplicates) {
  auto seqs = MakeSortedSequences(5, 200, 99, /*key_range=*/3);
  std::vector<std::span<const int>> spans;
  std::vector<int> expect;
  for (auto& s : seqs) {
    spans.emplace_back(s.data(), s.size());
    expect.insert(expect.end(), s.begin(), s.end());
  }
  std::sort(expect.begin(), expect.end());
  std::vector<int> out(expect.size());
  MultiwayMerge<int, IntLess>(spans, out.data());
  EXPECT_EQ(out, expect);
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
  MultiwayMerge<KV16, KVLess>(spans, out.data());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(out[i].value, static_cast<uint64_t>(i / 4));
  }
}

TEST(ParallelMultiwayMergeTest, MatchesSequential) {
  ThreadPool pool(4);
  auto seqs = MakeSortedSequences(6, 5000, 1234);
  std::vector<std::span<const int>> spans;
  size_t total = 0;
  for (auto& s : seqs) {
    spans.emplace_back(s.data(), s.size());
    total += s.size();
  }
  std::vector<int> seq_out(total), par_out(total);
  MultiwayMerge<int, IntLess>(spans, seq_out.data());
  ParallelMultiwayMerge<int, IntLess>(pool, spans, par_out.data());
  EXPECT_EQ(par_out, seq_out);
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
  ASSERT_EQ(data.size(), expect.size());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(std::memcmp(&data[i], &expect[i], sizeof(R)), 0) << "at " << i;
  }
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
                       ::testing::Values(workload::Distribution::kUniform,
                                         workload::Distribution::kSortedGlobal,
                                         workload::Distribution::kWorstCaseLocal,
                                         workload::Distribution::kReversedRanges,
                                         workload::Distribution::kAllEqual,
                                         workload::Distribution::kZipf)));

enum class GrayKeys {
  kUniform,      // every key byte random
  kBinaryBytes,  // every byte 0 or 1: 1024 keys, ties at every digit
  kLastByte,     // bytes 0..8 zero, byte 9 one of 16 values
};

std::vector<core::Gray100> MakeGray100(GrayKeys keys, size_t n,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<core::Gray100> data(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t b = 0; b < data[i].key.size(); ++b) {
      uint64_t v = 0;
      switch (keys) {
        case GrayKeys::kUniform:
          v = rng.Next();
          break;
        case GrayKeys::kBinaryBytes:
          v = rng.Below(2);
          break;
        case GrayKeys::kLastByte:
          v = b + 1 == data[i].key.size() ? rng.Below(16) : 0;
          break;
      }
      data[i].key[b] = static_cast<uint8_t>(v);
    }
    std::memcpy(data[i].payload.data(), &i, sizeof(i));
  }
  return data;
}

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

// --------------------------------------------------- SentinelLoserTree ----

constexpr int kIntSentinel = std::numeric_limits<int>::max();

TEST(SentinelLoserTreeTest, SingleSource) {
  SentinelLoserTree<int, IntLess> tree(1, kIntSentinel);
  tree.InitSource(0, 7);
  tree.Build();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_EQ(tree.Winner(), 7);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TEST(SentinelLoserTreeTest, LiveSourceBeatsSentinelValuedItem) {
  // A real item EQUAL to the sentinel must still win against exhausted
  // sources: exhaustion biases the tie-break rank, not the item compare.
  SentinelLoserTree<int, IntLess> tree(3, kIntSentinel);
  tree.InitSource(0, 1);
  tree.InitSource(2, kIntSentinel);  // real item at the sentinel value
  tree.Build();
  EXPECT_EQ(tree.live(), 2u);
  EXPECT_EQ(tree.WinnerSource(), 0u);
  tree.ExhaustWinner();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_EQ(tree.WinnerSource(), 2u);
  EXPECT_EQ(tree.Winner(), kIntSentinel);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TEST(SentinelLoserTreeTest, TieBreaksBySourceIndex) {
  SentinelLoserTree<int, IntLess> tree(4, kIntSentinel);
  for (size_t s = 0; s < 4; ++s) tree.InitSource(s, 5);
  tree.Build();
  for (size_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(tree.WinnerSource(), expect);
    tree.ExhaustWinner();
  }
  EXPECT_TRUE(tree.Empty());
}

TEST(SentinelLoserTreeTest, RunnerUpSourceIsSecondBest) {
  SentinelLoserTree<int, IntLess> tree(5, kIntSentinel);
  int heads[] = {40, 10, 30, 20, 50};
  for (size_t s = 0; s < 5; ++s) tree.InitSource(s, heads[s]);
  tree.Build();
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.RunnerUpSource(), 3u);  // head 20 is second-smallest
  tree.ReplaceWinner(25);
  EXPECT_EQ(tree.WinnerSource(), 3u);
  EXPECT_EQ(tree.RunnerUpSource(), 1u);  // now 25 at source 1
  // On ties the runner-up is the lowest live source index among the tied.
  tree.ReplaceWinner(25);
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.RunnerUpSource(), 3u);
}

TEST(SentinelLoserTreeTest, LiveCountTracksExhaustion) {
  SentinelLoserTree<int, IntLess> tree(6, kIntSentinel);
  tree.InitSource(1, 3);
  tree.InitSource(4, 1);
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

/// Merge k random sorted runs with both trees and require identical
/// (value, source) output streams — the sentinel tree must preserve the
/// exact (key, source) total order of the classic tree.
TEST(SentinelLoserTreeTest, MatchesClassicTreeOnRandomRuns) {
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 20; ++trial) {
    size_t k = 1 + rng() % 9;
    std::vector<std::vector<int>> runs(k);
    for (auto& run : runs) {
      run.resize(rng() % 60);
      // Narrow key range to force many cross-run ties.
      for (auto& x : run) x = static_cast<int>(rng() % 12);
      std::sort(run.begin(), run.end());
    }
    auto drain = [&](auto& tree) {
      std::vector<size_t> pos(k, 0);
      for (size_t s = 0; s < k; ++s) {
        if (!runs[s].empty()) tree.InitSource(s, runs[s][0]);
        pos[s] = 1;
      }
      tree.Build();
      std::vector<std::pair<int, size_t>> out;
      while (!tree.Empty()) {
        size_t w = tree.WinnerSource();
        out.emplace_back(tree.Winner(), w);
        if (pos[w] < runs[w].size()) {
          tree.ReplaceWinner(runs[w][pos[w]++]);
        } else {
          tree.ExhaustWinner();
        }
      }
      return out;
    };
    LoserTree<int, IntLess> classic(k);
    SentinelLoserTree<int, IntLess> sentinel(k, kIntSentinel);
    auto expect = drain(classic);
    auto got = drain(sentinel);
    ASSERT_EQ(got, expect) << "trial " << trial << " k=" << k;
  }
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
