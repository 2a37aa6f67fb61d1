// Stable MSD radix sort on a record's key digits (the RecordTraits contract
// in core/record.h): the local-sort kernel behind par::ParallelSort.
//
// The output is byte-identical to std::stable_sort under RecordTraits<R>::
// Less: every scatter distributes the records in input order and the small
// buckets end in a stable insertion sort, so ties keep their input order.
//
// The kernel scatters on the most significant digit into the other of two
// buffers, then recurses into each bucket on the next digit with the roles
// of the buffers swapped, so after the first scatter every bucket works on
// cache-resident data. Sorted input returns after one scan; one all-digit
// histogram skips the digits that are constant across the input (Zipf's
// 48-bit keys start two digits down); inside a bucket a constant digit
// costs a count but no scatter, and a bucket of equal keys ends after one
// early-exit scan. Depth is at most kKeyDigits.
//
// Records of up to 16 bytes (KV16) move through the scatters themselves.
// Larger records (Gray100) are represented by 16-byte (key, index) tags:
// only the tags are radix-sorted, then each record moves once.
#ifndef DEMSORT_PAR_RADIX_SORT_H_
#define DEMSORT_PAR_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/record.h"
#include "util/logging.h"

namespace demsort::par {
namespace radix_internal {

inline constexpr size_t kBuckets = 256;

/// Buckets of at most this many elements end in an insertion sort.
inline constexpr size_t kInsertionSortMax = 48;

/// The key of a record that sorts itself.
template <typename R>
struct RecordKey {
  using Traits = core::RecordTraits<R>;
  static constexpr size_t kDigits = Traits::kKeyDigits;
  static size_t Digit(const R& r, size_t d) { return Traits::KeyDigit(r, d); }
  static bool Less(const R& a, const R& b) {
    return typename Traits::Less()(a, b);
  }
};

/// A larger record's stand-in: up to 12 key digits and its input index.
struct Tag {
  uint64_t hi;  // the 8 most significant digits
  uint32_t lo;  // the digits below them
  uint32_t index;
};
static_assert(sizeof(Tag) == 16);

template <typename R>
inline constexpr bool kSortsTags = sizeof(R) > sizeof(Tag);

template <typename R>
struct TagKey {
  using Traits = core::RecordTraits<R>;
  static constexpr size_t kDigits = Traits::kKeyDigits;
  static_assert(kDigits <= 12, "a tag holds at most 12 key digits");
  static constexpr size_t kLowDigits = kDigits > 8 ? kDigits - 8 : 0;

  static size_t Digit(const Tag& t, size_t d) {
    return d < kLowDigits ? (t.lo >> (8 * d)) & 0xFF
                          : (t.hi >> (8 * (d - kLowDigits))) & 0xFF;
  }
  static bool Less(const Tag& a, const Tag& b) {
    return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo);
  }
  static Tag Make(const R& r, uint32_t index) {
    Tag t{0, 0, index};
    for (size_t d = 0; d < kLowDigits; ++d) {
      t.lo |= uint32_t{Traits::KeyDigit(r, d)} << (8 * d);
    }
    for (size_t d = kLowDigits; d < kDigits; ++d) {
      t.hi |= uint64_t{Traits::KeyDigit(r, d)} << (8 * (d - kLowDigits));
    }
    return t;
  }
};

/// One histogram per key digit.
template <typename Key>
using DigitCounts = std::array<std::array<size_t, kBuckets>, Key::kDigits>;

/// Adds every digit of the n elements at `a` to `count`.
template <typename Key, typename E>
void CountDigits(const E* a, size_t n, DigitCounts<Key>& count) {
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < Key::kDigits; ++d) ++count[d][Key::Digit(a[i], d)];
  }
}

/// 1 + the most significant digit that is not constant across the n
/// counted elements; 0 when every digit is (all keys equal).
template <typename Key>
size_t SignificantDigits(const DigitCounts<Key>& count, size_t n) {
  for (size_t d = Key::kDigits; d-- > 0;) {
    if (std::find(count[d].begin(), count[d].end(), n) == count[d].end()) {
      return d + 1;
    }
  }
  return 0;
}

/// Exclusive prefix sums: count[b] becomes the first position of bucket b.
inline void BucketStarts(std::array<size_t, kBuckets>& count) {
  size_t sum = 0;
  for (size_t& c : count) sum += std::exchange(c, sum);
}

/// Moves the n elements at `a` to `to`, in input order, each to
/// next[its digit d]++; afterwards next[b] is the end of bucket b.
template <typename Key, typename E>
void Scatter(const E* a, E* to, size_t n, size_t d,
             std::array<size_t, kBuckets>& next) {
  for (size_t i = 0; i < n; ++i) to[next[Key::Digit(a[i], d)]++] = a[i];
}

/// Stable insertion sort of the n elements at `a` into `to`, which may be
/// `a` itself.
template <typename Key, typename E>
void InsertionSort(const E* a, E* to, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const E e = a[i];
    size_t j = i;
    for (; j > 0 && Key::Less(e, to[j - 1]); --j) to[j] = to[j - 1];
    to[j] = e;
  }
}

template <typename Key, typename E>
void SortBucket(E* a, E* b, size_t n, size_t digits, bool into_b);

/// Scatters the n elements at `a` into `b` on digit d, whose bucket starts
/// are `next`, then sorts every bucket on the digits below d. The result
/// lands in `b` if `into_b`, otherwise back in `a`.
template <typename Key, typename E>
void ScatterAndRecurse(E* a, E* b, size_t n, size_t d,
                       std::array<size_t, kBuckets>& next, bool into_b) {
  Scatter<Key>(a, b, n, d, next);
  size_t begin = 0;
  for (size_t end : next) {
    // A bucket of one element is sorted; below the top level of a small
    // input (Gray100 tags) most buckets hold at most one.
    if (end - begin > 1) {
      SortBucket<Key>(b + begin, a + begin, end - begin, d, !into_b);
    } else if (end - begin == 1 && !into_b) {
      a[begin] = b[begin];
    }
    begin = end;
  }
}

/// Sorts the n elements at `a`, whose digits at and above `digits` are all
/// equal, using the n elements at `b` as the other buffer. The result lands
/// in `b` if `into_b`, otherwise in `a`.
template <typename Key, typename E>
void SortBucket(E* a, E* b, size_t n, size_t digits, bool into_b) {
  E* to = into_b ? b : a;
  if (n <= kInsertionSortMax) {
    InsertionSort<Key>(a, to, n);
    return;
  }
  const E* differs = std::find_if(a + 1, a + n, [&](const E& e) {
    return Key::Less(a[0], e) || Key::Less(e, a[0]);
  });
  if (differs == a + n) digits = 0;  // all keys equal
  while (digits-- > 0) {
    std::array<size_t, kBuckets> count{};
    for (size_t i = 0; i < n; ++i) ++count[Key::Digit(a[i], digits)];
    if (count[Key::Digit(a[0], digits)] == n) continue;  // constant digit
    BucketStarts(count);
    ScatterAndRecurse<Key>(a, b, n, digits, count, into_b);
    return;
  }
  if (into_b) std::copy(a, a + n, b);
}

/// Sorts the n elements at `a`, using the n elements at `b` as the other
/// buffer. The result lands in `b` if `into_b`, otherwise in `a`.
template <typename Key, typename E>
void MsdSort(E* a, E* b, size_t n, bool into_b) {
  const bool sorted = std::is_sorted(a, a + n, [](const E& x, const E& y) {
    return Key::Less(x, y);
  });
  size_t digits = 0;
  DigitCounts<Key> count{};
  if (!sorted) {
    CountDigits<Key>(a, n, count);
    digits = SignificantDigits<Key>(count, n);
  }
  if (digits == 0) {
    if (into_b) std::copy(a, a + n, b);
    return;
  }
  BucketStarts(count[digits - 1]);
  ScatterAndRecurse<Key>(a, b, n, digits - 1, count[digits - 1], into_b);
}

/// The records' tags in sorted order: tags[i].index is the input position
/// of the i-th smallest record.
template <typename R>
std::vector<Tag> SortedTags(std::span<const R> records) {
  const size_t n = records.size();
  DEMSORT_CHECK_LE(n, size_t{UINT32_MAX});
  std::vector<Tag> tags(n);
  std::vector<Tag> other(n);
  for (size_t i = 0; i < n; ++i) {
    tags[i] = TagKey<R>::Make(records[i], static_cast<uint32_t>(i));
  }
  MsdSort<TagKey<R>>(tags.data(), other.data(), n, /*into_b=*/false);
  return tags;
}

/// Moves data[tags[i].index] to position i for every i. Follows the
/// permutation's cycles, so every record moves once and the only scratch is
/// one record; each visited tag's index is reset to its own position.
template <typename R>
void PermuteInPlace(std::span<R> data, std::vector<Tag>& tags) {
  for (size_t i = 0; i < data.size(); ++i) {
    if (tags[i].index == i) continue;
    R held = data[i];
    size_t j = i;
    for (size_t k = tags[j].index; k != i; k = tags[j].index) {
      data[j] = data[k];
      tags[j].index = static_cast<uint32_t>(j);
      j = k;
    }
    data[j] = held;
    tags[j].index = static_cast<uint32_t>(j);
  }
}

}  // namespace radix_internal

/// Sorts `data` stably in place with ceil(n/2) records of `scratch` (the
/// buffer std::stable_sort allocates), which must hold that many. Records
/// of up to 16 bytes sort both halves against the half-size scratch — the
/// upper half back in place, the lower half into the scratch — then merge
/// them through it; larger records leave `scratch` unused and sort 2n tags
/// (32n bytes, under ceil(n/2) records).
template <typename R>
void RadixSort(std::span<R> data, std::span<R> scratch) {
  using namespace radix_internal;
  using Less = typename core::RecordTraits<R>::Less;
  const size_t n = data.size();
  if (std::is_sorted(data.begin(), data.end(), Less())) return;
  if constexpr (kSortsTags<R>) {
    std::vector<Tag> tags = SortedTags<R>(data);
    PermuteInPlace(data, tags);
  } else {
    const size_t n_lo = (n + 1) / 2;
    const size_t n_hi = n - n_lo;
    DEMSORT_CHECK_GE(scratch.size(), n_lo);
    R* lo = data.data();
    R* hi = lo + n_lo;
    R* s = scratch.data();
    MsdSort<RecordKey<R>>(hi, s, n_hi, /*into_b=*/false);
    MsdSort<RecordKey<R>>(lo, s, n_lo, /*into_b=*/true);

    // Stable merge into data, ties from the lower half first. The write
    // cursor trails the upper half's read cursor by the lower half's
    // unread count, so it never overwrites an unread record.
    Less less;
    const R* a = s;
    const R* a_end = s + n_lo;
    const R* b = hi;
    const R* b_end = lo + n;
    R* out = lo;
    while (a != a_end && b != b_end) {
      const bool take_b = less(*b, *a);
      *out++ = take_b ? *b : *a;
      b += take_b;
      a += !take_b;
    }
    std::copy(a, a_end, out);
  }
}

}  // namespace demsort::par

#endif  // DEMSORT_PAR_RADIX_SORT_H_
