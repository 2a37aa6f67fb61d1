// Shared-memory parallel stable sort (the MCSTL role), used inside a PE to
// sort its share of a run: a parallel MSD radix sort on par/radix_sort.h's
// kernel. The threads scatter their chunks on the top digit, then each
// finishes a contiguous group of buckets on its own.
#ifndef DEMSORT_PAR_PARALLEL_SORT_H_
#define DEMSORT_PAR_PARALLEL_SORT_H_

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "core/record.h"
#include "par/radix_sort.h"
#include "par/thread_pool.h"
#include "util/logging.h"

namespace demsort::par {
namespace radix_internal {

/// Sorts the n elements at `data` on the pool's T threads, using the n
/// elements at `scratch` as the other buffer:
///  1. every thread histograms every digit of its chunk;
///  2. the chunks scatter on the most significant non-constant digit into
///     `scratch`, at per-(chunk, bucket) offsets, so the scatter is stable;
///  3. the buckets are cut into T contiguous groups of about n/T elements,
///     and every thread sorts its group's buckets back into `data` with the
///     single-thread kernel.
template <typename Key, typename E>
void ParallelMsdSort(ThreadPool& pool, E* data, E* scratch, size_t n) {
  const size_t parts = pool.num_threads();
  const size_t chunk = (n + parts - 1) / parts;
  auto chunk_range = [&](size_t t) {
    const size_t lo = std::min(n, t * chunk);
    return std::pair{lo, std::min(n, lo + chunk)};
  };
  std::vector<DigitCounts<Key>> count(parts);
  pool.ParallelFor(parts, [&](size_t t) {
    auto [lo, hi] = chunk_range(t);
    CountDigits<Key>(data + lo, hi - lo, count[t]);
  });
  DigitCounts<Key> total{};
  for (const DigitCounts<Key>& c : count) {
    for (size_t d = 0; d < Key::kDigits; ++d) {
      for (size_t b = 0; b < kBuckets; ++b) total[d][b] += c[d][b];
    }
  }
  const size_t digits = SignificantDigits<Key>(total, n);
  if (digits == 0) return;  // all keys equal
  const size_t d = digits - 1;

  // Chunk t's records of bucket b go after bucket b's records of the
  // chunks before t.
  std::array<size_t, kBuckets + 1> bucket_start{};
  size_t sum = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    bucket_start[b] = sum;
    for (DigitCounts<Key>& c : count) sum += std::exchange(c[d][b], sum);
  }
  bucket_start[kBuckets] = n;
  pool.ParallelFor(parts, [&](size_t t) {
    auto [lo, hi] = chunk_range(t);
    Scatter<Key>(data + lo, scratch, hi - lo, d, count[t][d]);
  });

  // Group g holds the buckets that start in [g * n / parts, (g+1) * n /
  // parts); a bucket is never split, so one heavy key can make one group
  // large and leave others empty.
  std::vector<size_t> cut(parts + 1, kBuckets);
  for (size_t g = 0; g < parts; ++g) {
    cut[g] = std::lower_bound(bucket_start.begin(), bucket_start.end() - 1,
                              g * n / parts) -
             bucket_start.begin();
  }
  pool.ParallelFor(parts, [&](size_t g) {
    for (size_t b = cut[g]; b < cut[g + 1]; ++b) {
      const size_t begin = bucket_start[b];
      SortBucket<Key>(scratch + begin, data + begin,
                      bucket_start[b + 1] - begin, d, /*into_b=*/true);
    }
  });
}

}  // namespace radix_internal

/// Sorts `data` by RecordTraits<R>::Less using the pool, with `scratch`
/// (at least data.size() records, caller-owned so a run loop can reuse it)
/// as the other buffer. STABLE: equal records keep their input order — the
/// distributed algorithms build a deterministic (key, PE, position) total
/// order on top of this. Returns at once on sorted input. On one thread or
/// below 8192 records this is RadixSort, which uses ceil(n/2) records of
/// the scratch; otherwise the top-digit scatter fills the scratch and the
/// buckets sort back out of it. Records over 16 bytes sort 2n tags (32
/// bytes a record, allocated here) instead, then gather from a copy in the
/// scratch — within the "factor around two" memory remark in the paper's
/// run-size footnote.
template <typename R>
void ParallelSort(ThreadPool& pool, std::span<R> data, std::span<R> scratch) {
  using namespace radix_internal;
  using Less = typename core::RecordTraits<R>::Less;
  const size_t n = data.size();
  DEMSORT_CHECK_GE(scratch.size(), n);
  if (pool.num_threads() <= 1 || n < 8192) {
    RadixSort(data, scratch);
    return;
  }
  if (std::is_sorted(data.begin(), data.end(), Less())) return;

  if constexpr (kSortsTags<R>) {
    DEMSORT_CHECK_LE(n, size_t{UINT32_MAX});
    std::vector<Tag> tags(n);
    std::vector<Tag> other(n);
    pool.ParallelChunks(0, n, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        tags[i] = TagKey<R>::Make(data[i], static_cast<uint32_t>(i));
      }
      std::copy(data.begin() + lo, data.begin() + hi, scratch.begin() + lo);
    });
    ParallelMsdSort<TagKey<R>>(pool, tags.data(), other.data(), n);
    pool.ParallelChunks(0, n, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) data[i] = scratch[tags[i].index];
    });
  } else {
    ParallelMsdSort<RecordKey<R>>(pool, data.data(), scratch.data(), n);
  }
}

/// ParallelSort with a scratch buffer of its own.
template <typename R>
void ParallelSort(ThreadPool& pool, std::span<R> data) {
  std::vector<R> scratch(data.size());
  ParallelSort(pool, data, std::span<R>(scratch));
}

}  // namespace demsort::par

#endif  // DEMSORT_PAR_PARALLEL_SORT_H_
