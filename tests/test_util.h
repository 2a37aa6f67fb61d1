// Shared helpers for the pipeline tests: spin up a P-PE cluster where every
// PE owns a BlockManager and ThreadPool per the SortConfig, and hand the
// test body a ready PeContext.
#ifndef DEMSORT_TESTS_TEST_UTIL_H_
#define DEMSORT_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/pe_context.h"
#include "core/record.h"
#include "net/cluster.h"
#include "net/comm.h"
#include "util/random.h"
#include "workload/generators.h"

namespace demsort::test {

/// A small geometry that still produces several runs and several blocks per
/// piece: 64-byte... 1 KiB blocks of KV16 (64 elements), 8 KiB memory per PE
/// (512 elements/run-piece), two disks.
inline core::SortConfig SmallConfig() {
  core::SortConfig config;
  config.block_size = 1024;        // 64 KV16 per block
  config.memory_per_pe = 8 * 1024;  // 512 KV16 per PE per run
  config.disks_per_pe = 2;
  config.threads_per_pe = 1;
  config.seed = 424242;
  return config;
}

inline void RunPes(
    int num_pes, const core::SortConfig& config,
    const std::function<void(core::PeContext&, const core::SortConfig&)>&
        body) {
  net::Cluster::Run(num_pes, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    body(resources.ctx(), config);
  });
}

/// As RunPes, but with full fabric options (channel caps); returns the
/// cluster result so tests can assert on buffering high-water marks.
inline net::Cluster::Result RunPesWithOptions(
    const net::Cluster::Options& options, const core::SortConfig& config,
    const std::function<void(core::PeContext&, const core::SortConfig&)>&
        body) {
  return net::Cluster::Run(options, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    body(resources.ctx(), config);
  });
}

/// Comparator shorthand.
using KVLess = core::RecordTraits<core::KV16>::Less;

/// Gray100 key shapes; MakeGray100 stores each record's input index in its
/// payload, so tests can check the order of ties.
enum class GrayKeys {
  kUniform,      // every key byte random
  kBinaryBytes,  // every byte 0 or 1: 1024 keys, ties at every digit
  kLastByte,     // bytes 0..8 zero, byte 9 one of 16 values
};

inline std::vector<core::Gray100> MakeGray100(GrayKeys keys, size_t n,
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

/// Every input distribution of workload/generators.h.
inline constexpr workload::Distribution kDistributions[] = {
    workload::Distribution::kUniform,
    workload::Distribution::kSortedGlobal,
    workload::Distribution::kWorstCaseLocal,
    workload::Distribution::kReversedRanges,
    workload::Distribution::kAllEqual,
    workload::Distribution::kZipf};

/// Merge fan-ins the merge tests sweep: tiny, around the loser tree's
/// power-of-two padding, and beyond it.
inline constexpr size_t kMergeWays[] = {1, 2, 3, 4, 15, 16, 17, 24};

/// Sorted runs with their merge oracle: `expect` is std::stable_sort of the
/// concatenated runs, i.e. (key, run, position) order.
template <typename R>
struct SortedRuns {
  std::vector<std::vector<R>> runs;
  std::vector<R> expect;
};

/// Deals `records` into k runs at random (run 1 left empty when k > 2) and
/// sorts each run stably.
template <typename R>
SortedRuns<R> DealSortedRuns(const std::vector<R>& records, size_t k,
                             uint64_t seed) {
  using Less = typename core::RecordTraits<R>::Less;
  Rng rng(seed);
  SortedRuns<R> out;
  out.runs.resize(k);
  for (const R& r : records) out.runs[rng.Below(k)].push_back(r);
  if (k > 2) out.runs[1].clear();
  for (auto& run : out.runs) {
    std::stable_sort(run.begin(), run.end(), Less());
    out.expect.insert(out.expect.end(), run.begin(), run.end());
  }
  std::stable_sort(out.expect.begin(), out.expect.end(), Less());
  return out;
}

/// Whole-record equality, payload included.
template <typename R>
void ExpectSameBytes(const std::vector<R>& got, const std::vector<R>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &expect[i], sizeof(R)), 0) << "at " << i;
  }
}

}  // namespace demsort::test

#endif  // DEMSORT_TESTS_TEST_UTIL_H_
