// Property tests for the sample-bounds primitive both selection flavours
// build on: for arbitrary sorted sequences, sample rates and target ranks,
// SampleBootstrapBounds must return windows that (a) contain the exact
// split positions and (b) are O(sample gap) wide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "core/record.h"
#include "core/sample_bounds.h"
#include "par/multiway_select.h"
#include "util/random.h"

namespace demsort::core {
namespace {

using KVLess = RecordTraits<KV16>::Less;
using Entry = SampleTable<KV16>::Entry;

struct Family {
  std::vector<std::vector<KV16>> seqs;
  std::vector<std::vector<Entry>> samples;
  std::vector<uint64_t> lengths;
  uint64_t total = 0;
};

Family MakeFamily(size_t k, size_t max_len, uint64_t key_range,
                  uint64_t sample_k, uint64_t seed) {
  Family f;
  Rng rng(seed);
  f.seqs.resize(k);
  f.samples.resize(k);
  for (size_t j = 0; j < k; ++j) {
    f.seqs[j].resize(rng.Below(max_len + 1));
    for (auto& r : f.seqs[j]) r = {rng.Below(key_range), rng.Next()};
    std::sort(f.seqs[j].begin(), f.seqs[j].end(), KVLess());
    uint64_t len = f.seqs[j].size();
    for (uint64_t pos = 0; pos < len; pos += sample_k) {
      f.samples[j].push_back(Entry{f.seqs[j][pos], pos});
    }
    if (len > 0 && (len - 1) % sample_k != 0) {
      f.samples[j].push_back(Entry{f.seqs[j][len - 1], len - 1});
    }
    f.lengths.push_back(f.seqs[j].size());
    f.total += f.seqs[j].size();
  }
  return f;
}

class SampleBoundsParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t, uint64_t>> {
};

TEST_P(SampleBoundsParamTest, BoundsContainExactPositionsAndAreTight) {
  auto [k, key_range, sample_k] = GetParam();
  KVLess less;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Family f = MakeFamily(k, 600, key_range, sample_k, seed * 77 + k);
    std::vector<std::span<const KV16>> spans;
    for (auto& s : f.seqs) spans.emplace_back(s.data(), s.size());

    for (uint64_t target :
         {uint64_t{0}, f.total / 3, f.total / 2, f.total - f.total / 5,
          f.total}) {
      std::vector<size_t> exact =
          par::MultiwaySelect<KV16, KVLess>(spans, target, less);
      std::vector<uint64_t> lo, hi;
      SampleBootstrapBounds<KV16, KVLess>(f.samples, f.lengths, target, less,
                                          &lo, &hi);
      uint64_t window_total = 0;
      for (size_t j = 0; j < k; ++j) {
        EXPECT_LE(lo[j], exact[j]) << "seq " << j << " target " << target;
        EXPECT_GE(hi[j], exact[j]) << "seq " << j << " target " << target;
        window_total += hi[j] - lo[j];
      }
      // Tightness: O(k * gap) for low-duplication keys. (With heavy
      // duplication the sample-unresolvable boundary mass is input
      // dependent; containment above is the contract consumers rely on —
      // wider windows only mean more fetched data.)
      if (key_range > 1000) {
        EXPECT_LE(window_total, 6 * k * sample_k + 4 * k)
            << "target " << target;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleBoundsParamTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 4, 8),
                       ::testing::Values<uint64_t>(3, 50, 1u << 30),
                       ::testing::Values<uint64_t>(1, 8, 64)));

TEST(SampleBoundsTest, AllEqualKeysStillNarrow) {
  // Duplicate-heavy sequences: the (key, sequence) tie order must keep the
  // windows at sample-gap width, not collapse to "anything goes".
  KVLess less;
  Family f;
  f.seqs.resize(3);
  f.samples.resize(3);
  for (size_t j = 0; j < 3; ++j) {
    f.seqs[j].assign(256, KV16{7, j});
    for (uint64_t pos = 0; pos < 256; pos += 16) {
      f.samples[j].push_back(Entry{f.seqs[j][pos], pos});
    }
    // Closing sample, as the library's samplers produce.
    f.samples[j].push_back(Entry{f.seqs[j][255], 255});
    f.lengths.push_back(256);
  }
  std::vector<uint64_t> lo, hi;
  SampleBootstrapBounds<KV16, KVLess>(f.samples, f.lengths, 384, less, &lo,
                                      &hi);
  // Exact positions for rank 384 in (key, seq, pos) order: 256 + 128 + 0.
  EXPECT_LE(lo[0], 256u);
  EXPECT_GE(hi[0], 256u);
  EXPECT_LE(lo[1], 128u);
  EXPECT_GE(hi[1], 128u);
  EXPECT_LE(lo[2], 0u);
  uint64_t window = 0;
  for (int j = 0; j < 3; ++j) window += hi[j] - lo[j];
  EXPECT_LE(window, 3 * 2 * 16 + 6);
}

TEST(SampleBoundsTest, EmptySequences) {
  KVLess less;
  std::vector<std::vector<Entry>> samples(3);
  std::vector<uint64_t> lengths = {0, 0, 0};
  std::vector<uint64_t> lo, hi;
  SampleBootstrapBounds<KV16, KVLess>(samples, lengths, 0, less, &lo, &hi);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(lo[j], 0u);
    EXPECT_EQ(hi[j], 0u);
  }
}

TEST(SampleBoundsTest, SingleElementSequences) {
  KVLess less;
  std::vector<std::vector<Entry>> samples(2);
  std::vector<uint64_t> lengths = {1, 1};
  samples[0].push_back(Entry{KV16{10, 0}, 0});
  samples[1].push_back(Entry{KV16{20, 1}, 0});
  for (uint64_t target = 0; target <= 2; ++target) {
    std::vector<uint64_t> lo, hi;
    SampleBootstrapBounds<KV16, KVLess>(samples, lengths, target, less, &lo,
                                        &hi);
    // Exact positions: target 0 -> (0,0); 1 -> (1,0); 2 -> (1,1).
    uint64_t p0 = target >= 1 ? 1 : 0;
    uint64_t p1 = target >= 2 ? 1 : 0;
    EXPECT_LE(lo[0], p0);
    EXPECT_GE(hi[0], p0);
    EXPECT_LE(lo[1], p1);
    EXPECT_GE(hi[1], p1);
  }
}

TEST(SampleBoundsTest, WindowSamplesNarrowTheBoundsEveryRound) {
  // The refinement loop of the in-memory selection: sample each window
  // [lo_j, hi_j) at 64 points, merge, tighten. Every round must keep the
  // exact positions inside and shrink the widest window until it is a
  // handful of records, for any duplication level.
  KVLess less;
  for (uint64_t key_range : {uint64_t{3}, uint64_t{50}, uint64_t{1} << 30}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      Family f = MakeFamily(6, 20000, key_range, 4096, seed + key_range);
      std::vector<std::span<const KV16>> spans;
      for (auto& s : f.seqs) spans.emplace_back(s.data(), s.size());
      // About 60 targets, so some boundary lands next to the middle of
      // a window, where a pivot's rank bracket holds the target.
      for (uint64_t target = 0; target <= f.total;
           target += f.total / 61 + 1) {
        std::vector<size_t> exact =
            par::MultiwaySelect<KV16, KVLess>(spans, target, less);
        std::vector<std::vector<Entry>> samples = f.samples;
        std::vector<uint64_t> lo, hi;
        SampleBootstrapBounds<KV16, KVLess>(samples, f.lengths, target, less,
                                            &lo, &hi);
        uint64_t widest = UINT64_MAX;
        for (int round = 0; round < 8; ++round) {
          uint64_t next = 0;
          for (size_t j = 0; j < f.seqs.size(); ++j) {
            EXPECT_LE(lo[j], exact[j]) << "seq " << j << " round " << round;
            EXPECT_GE(hi[j], exact[j]) << "seq " << j << " round " << round;
            next = std::max(next, hi[j] - lo[j]);
          }
          if (next <= 8) break;
          ASSERT_LT(next, widest) << "target " << target << " round "
                                  << round;
          widest = next;
          for (size_t j = 0; j < f.seqs.size(); ++j) {
            std::vector<Entry> window;
            const uint64_t stride = std::max<uint64_t>(1, (hi[j] - lo[j]) / 64);
            for (uint64_t pos = lo[j]; pos < hi[j]; pos += stride) {
              window.push_back(Entry{f.seqs[j][pos], pos});
            }
            MergeSamplesByPosition(&samples[j], window);
          }
          TightenSampleBounds<KV16, KVLess>(samples, f.lengths, target, less,
                                            &lo, &hi);
        }
        uint64_t last = 0;
        for (size_t j = 0; j < f.seqs.size(); ++j) {
          last = std::max(last, hi[j] - lo[j]);
        }
        EXPECT_LE(last, 8u) << "target " << target;
      }
    }
  }
}

TEST(PrecedesInTieOrderTest, KeyThenSequence) {
  KVLess less;
  KV16 small{1, 0}, big{2, 0};
  EXPECT_TRUE((PrecedesInTieOrder<KV16, KVLess>(small, 5, big, 1, less)));
  EXPECT_FALSE((PrecedesInTieOrder<KV16, KVLess>(big, 0, small, 9, less)));
  // Equal keys: sequence index decides.
  EXPECT_TRUE((PrecedesInTieOrder<KV16, KVLess>(small, 1, small, 2, less)));
  EXPECT_FALSE((PrecedesInTieOrder<KV16, KVLess>(small, 2, small, 1, less)));
}

}  // namespace
}  // namespace demsort::core
