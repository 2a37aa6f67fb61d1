// Stable LSD radix sort on a record's key digits (the RecordTraits contract
// in core/record.h): the local-sort kernel behind par::ParallelSort.
//
// The output is byte-identical to std::stable_sort under RecordTraits<R>::
// Less: every pass distributes the records in input order, so ties keep
// their input order. Sorted input returns after one scan, and a digit that
// is constant across the input costs no pass (Zipf's 48-bit keys skip two of
// eight, all-equal keys skip every one).
//
// Records of up to 16 bytes (KV16) move through the passes themselves.
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

/// LSD-sorts the n elements at `a`, using the n elements at `b` as the
/// other side of every pass. Returns whichever of the two holds the result.
template <typename Key, typename E>
E* SortPingPong(E* a, E* b, size_t n) {
  if (std::is_sorted(a, a + n, [](const E& x, const E& y) {
        return Key::Less(x, y);
      })) {
    return a;
  }
  // One counting scan serves every pass: a pass permutes the elements but
  // leaves each digit's histogram unchanged.
  std::array<std::array<size_t, kBuckets>, Key::kDigits> count{};
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < Key::kDigits; ++d) ++count[d][Key::Digit(a[i], d)];
  }
  for (size_t d = 0; d < Key::kDigits; ++d) {
    std::array<size_t, kBuckets>& offset = count[d];
    if (offset[Key::Digit(a[0], d)] == n) continue;  // constant digit
    size_t sum = 0;
    for (size_t& c : offset) sum += std::exchange(c, sum);
    for (size_t i = 0; i < n; ++i) b[offset[Key::Digit(a[i], d)]++] = a[i];
    std::swap(a, b);
  }
  return a;
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
  if (SortPingPong<TagKey<R>>(tags.data(), other.data(), n) != tags.data()) {
    tags.swap(other);
  }
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

/// Sorts `src` stably into `dst`, which has the same size; `src` holds
/// unspecified records afterwards. Records of up to 16 bytes allocate
/// nothing; larger ones allocate 2 * src.size() 16-byte tags.
template <typename R>
void RadixSortInto(std::span<R> src, std::span<R> dst) {
  using namespace radix_internal;
  DEMSORT_CHECK_EQ(src.size(), dst.size());
  const size_t n = src.size();
  if constexpr (kSortsTags<R>) {
    std::vector<Tag> tags = SortedTags<R>(src);
    for (size_t i = 0; i < n; ++i) dst[i] = src[tags[i].index];
  } else {
    R* sorted = SortPingPong<RecordKey<R>>(src.data(), dst.data(), n);
    if (sorted != dst.data()) std::copy(sorted, sorted + n, dst.data());
  }
}

/// Sorts `data` stably in place with at most ceil(n/2) records of scratch,
/// the buffer std::stable_sort allocates. Records of up to 16 bytes sort
/// both halves against one half-size buffer, then merge them through it;
/// larger records need 2n tags (32n bytes, under ceil(n/2) records).
template <typename R>
void RadixSort(std::span<R> data) {
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
    std::vector<R> scratch(n_lo);
    R* lo = data.data();
    R* hi = lo + n_lo;
    R* s = scratch.data();
    // The upper half ends in place, the lower half in the scratch buffer.
    R* sorted = SortPingPong<RecordKey<R>>(hi, s, n_hi);
    if (sorted != hi) std::copy(sorted, sorted + n_hi, hi);
    sorted = SortPingPong<RecordKey<R>>(lo, s, n_lo);
    if (sorted != s) std::copy(sorted, sorted + n_lo, s);

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
