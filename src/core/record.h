// Record types the sorter is instantiated for, and the traits binding them
// to the algorithms.
//
// A sortable record is a trivially copyable struct; RecordTraits<R> supplies
// the comparator, the key digits, the key prefix and a printable name. Two
// concrete types cover the paper's evaluation:
//  * KV16   — 16 bytes, 64-bit key (the scalability experiments, Figs 2-6;
//             "element size is (only) 16 bytes with 64-bit keys").
//  * Gray100 — 100 bytes, 10-byte key (the SortBenchmark categories).
//
// Key-digit contract (the local radix sort, par/radix_sort.h, relies on it):
// a key is kKeyDigits unsigned 8-bit digits, and KeyDigit(r, d) returns digit
// d, with d = 0 the LEAST significant. Less(a, b) must hold exactly when a's
// digit string, read from d = kKeyDigits - 1 down to 0, is lexicographically
// smaller than b's; records with equal digit strings are ties. kKeyDigits is
// at most 12 for records larger than 16 bytes, which are sorted through
// 16-byte (key, index) tags.
//
// Key-prefix contract (the loser tree, par/loser_tree.h, relies on it):
// KeyPrefix(r) is a 64-bit integer, monotone in Less — KeyPrefix(a) <
// KeyPrefix(b) implies Less(a, b). When kPrefixIsKey, equal prefixes are
// ties; otherwise records with equal prefixes are ordered by Less.
#ifndef DEMSORT_CORE_RECORD_H_
#define DEMSORT_CORE_RECORD_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace demsort::core {

struct KV16 {
  uint64_t key = 0;
  /// Carries the element's original global index in the workloads; lets the
  /// validator prove permutation-ness and tests distinguish equal keys.
  uint64_t value = 0;
};
static_assert(sizeof(KV16) == 16);
static_assert(std::is_trivially_copyable_v<KV16>);

struct Gray100 {
  std::array<uint8_t, 10> key{};
  std::array<uint8_t, 90> payload{};
};
static_assert(sizeof(Gray100) == 100);
static_assert(std::is_trivially_copyable_v<Gray100>);

template <typename R>
struct RecordTraits;

template <>
struct RecordTraits<KV16> {
  struct Less {
    bool operator()(const KV16& a, const KV16& b) const {
      return a.key < b.key;
    }
  };
  /// A maximal record under Less (not necessarily strictly greater than
  /// every real record — the all-ones key is itself a valid key). The loser
  /// tree pairs it with an exhaustion-biased tie-break, so equality with
  /// real records is fine.
  static KV16 MaxSentinel() { return KV16{UINT64_MAX, UINT64_MAX}; }
  /// The key's bytes in numeric order.
  static constexpr size_t kKeyDigits = 8;
  static uint8_t KeyDigit(const KV16& r, size_t d) {
    return static_cast<uint8_t>(r.key >> (8 * d));
  }
  /// The whole key.
  static constexpr bool kPrefixIsKey = true;
  static uint64_t KeyPrefix(const KV16& r) { return r.key; }
  static constexpr const char* kName = "kv16";
};

template <>
struct RecordTraits<Gray100> {
  struct Less {
    bool operator()(const Gray100& a, const Gray100& b) const {
      return std::memcmp(a.key.data(), b.key.data(), a.key.size()) < 0;
    }
  };
  static Gray100 MaxSentinel() {
    Gray100 r;
    r.key.fill(0xFF);
    return r;
  }
  /// memcmp order: key[0] is the most significant digit.
  static constexpr size_t kKeyDigits = 10;
  static uint8_t KeyDigit(const Gray100& r, size_t d) {
    return r.key[kKeyDigits - 1 - d];
  }
  /// Key bytes 0-7 read big-endian; ties on them fall back to Less, which
  /// then decides on bytes 8-9.
  static constexpr bool kPrefixIsKey = false;
  static uint64_t KeyPrefix(const Gray100& r) {
    uint64_t v;
    std::memcpy(&v, r.key.data(), sizeof(v));
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  static constexpr const char* kName = "gray100";
};

}  // namespace demsort::core

#endif  // DEMSORT_CORE_RECORD_H_
