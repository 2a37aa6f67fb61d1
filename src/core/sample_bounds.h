// Sample-derived exact bounds for multiway selection (App. B's idea in
// reusable form).
//
// Given, for each of k sorted sequences, a position-annotated sample (every
// K-th element with its exact in-sequence position), this computes per-
// sequence bounds [lo_j, hi_j] on the split positions of a target rank that
// are *guaranteed to contain the true positions*: every statement derives
// from exact sample positions, only the rank test is bracketed. Adjacent
// samples are <= K apart, so the windows end up O(K) wide — even under
// heavy key duplication, because the (key, sequence) tie order resolves
// cross-sequence comparisons at sample granularity.
//
// The in-memory distributed sort of §IV-B builds on this: it narrows the
// windows in rounds, merging strided samples of each window into the
// sample and tightening again (TightenSampleBounds), then fetches the
// narrow windows and finishes locally. The external selector of §IV-A
// (external_selection.h) brackets with its own copy of this logic and
// refines with cached block probes.
#ifndef DEMSORT_CORE_SAMPLE_BOUNDS_H_
#define DEMSORT_CORE_SAMPLE_BOUNDS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <type_traits>
#include <vector>

#include "core/run_index.h"
#include "net/comm.h"
#include "util/logging.h"

namespace demsort::core {

/// Replicates every PE's contribution as ONE concatenated vector in PE
/// order — the shape of the sample-table replication that feeds the
/// sample-bound machinery below (pieces are position-disjoint and PE order
/// is position order, so the concatenation IS the merged sample table).
///
/// Streamed: a cheap fixed-size allgather of the counts pins every
/// element's final position, then Comm::AllgatherVStream memcpys chunks
/// into place as they land. Unlike the buffered AllgatherV path, no P
/// per-source payload vectors exist at any point — receive-side memory is
/// O(credit x chunk x sources) plus the (mandatory) result itself, and in
/// the symmetric rounds the flow-control credits ride the data frames.
template <typename T>
std::vector<T> AllgatherConcatStreamed(net::Comm& comm,
                                       const std::vector<T>& mine,
                                       net::StreamOptions options = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int P = comm.size();
  std::vector<uint64_t> counts = comm.Allgather<uint64_t>(mine.size());
  std::vector<uint64_t> cursor(P, 0);
  uint64_t total = 0;
  for (int p = 0; p < P; ++p) {
    cursor[p] = total;
    total += counts[p];
  }
  std::vector<T> merged(total);
  if (options.align_bytes <= 1) options.align_bytes = sizeof(T);
  comm.AllgatherVStream(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(mine.data()),
                               mine.size() * sizeof(T)),
      [&](int src, std::span<const uint8_t> chunk, bool) {
        DEMSORT_CHECK_EQ(chunk.size() % sizeof(T), 0u);
        // An empty contribution still lands as one empty chunk, and an
        // empty `merged` has a null data(): memcpy must not see either.
        if (chunk.empty()) return;
        std::memcpy(merged.data() + cursor[src], chunk.data(), chunk.size());
        cursor[src] += chunk.size() / sizeof(T);
      },
      nullptr, options);
  return merged;
}

/// True if element `rec` of sequence `i` precedes pivot (xrec, jx) in the
/// (key, sequence) total order (positions never compared across sequences).
template <typename R, typename Less>
bool PrecedesInTieOrder(const R& rec, size_t i, const R& xrec, size_t jx,
                        const Less& less) {
  if (less(rec, xrec)) return true;
  if (less(xrec, rec)) return false;
  return i < jx;
}

/// Bracket of "number of sequence-i elements preceding pivot (xrec, jx)"
/// derivable from sequence i's samples alone.
template <typename R, typename Less>
void SampleCountBounds(const std::vector<typename SampleTable<R>::Entry>&
                           samples,
                       uint64_t sequence_length, size_t i, const R& xrec,
                       size_t jx, const Less& less, uint64_t* c_lo,
                       uint64_t* c_hi) {
  size_t si = std::partition_point(
                  samples.begin(), samples.end(),
                  [&](const auto& s) {
                    return PrecedesInTieOrder<R, Less>(s.record, i, xrec, jx,
                                                       less);
                  }) -
              samples.begin();
  *c_lo = si == 0 ? 0 : samples[si - 1].pos + 1;
  *c_hi = si == samples.size() ? sequence_length : samples[si].pos;
}

/// Tightens bounds [lo_i, hi_i] that already hold for the split positions
/// p_i of `target_rank` t (p_i = how many of sequence i's elements are among
/// the first t of the union), using only the samples.
///
/// A sample x of sequence j has an exact position, and SampleCountBounds
/// brackets how many elements of every other sequence precede it, so its
/// global rank r(x) lies in a bracket [rl, rh]. Brackets never decrease
/// along a sequence, so binary searches find in every sequence the last
/// sample with rh < t (certainly among the first t), the first with
/// rl >= t (certainly not), and the undecided samples next to them. With
/// [c_lo_i, c_hi_i] the count bracket of x in sequence i (x.pos for i = j),
/// each pivot bounds every sequence:
///   r(x) <  t: c_lo_i (+1 for i = j) <= p_i <= c_hi_i + (t - rl)
///   r(x) >= t: c_lo_i - (rh - t)     <= p_i <= c_hi_i
/// (the first t elements are a prefix of the order: they hold everything
/// before x and at most t - r(x) elements from x on; or they lie before x
/// and miss at most r(x) - t of its predecessors). An undecided pivot gives
/// the union of both. Bounds only ever shrink, so a caller that adds
/// samples and tightens again never loses ground.
/// Postcondition: lo_i <= p_i <= hi_i for the exact positions p_i.
template <typename R, typename Less>
void TightenSampleBounds(
    const std::vector<std::vector<typename SampleTable<R>::Entry>>& samples,
    const std::vector<uint64_t>& lengths, uint64_t target_rank,
    const Less& less, std::vector<uint64_t>* lo, std::vector<uint64_t>* hi) {
  using Entry = typename SampleTable<R>::Entry;
  const size_t k = lengths.size();
  const uint64_t t = target_rank;
  std::vector<uint64_t> c_lo(k), c_hi(k);
  // Rank bracket of sample x of sequence j; leaves its count brackets in
  // c_lo / c_hi.
  auto bracket = [&](const Entry& x, size_t j, uint64_t* rl, uint64_t* rh) {
    *rl = 0;
    *rh = 0;
    for (size_t i = 0; i < k; ++i) {
      if (i == j) {
        c_lo[i] = c_hi[i] = x.pos;
      } else {
        SampleCountBounds<R, Less>(samples[i], lengths[i], i, x.record, j,
                                   less, &c_lo[i], &c_hi[i]);
      }
      *rl += c_lo[i];
      *rh += c_hi[i];
    }
  };
  auto apply = [&](const Entry& x, size_t j) {
    uint64_t rl, rh;
    bracket(x, j, &rl, &rh);
    for (size_t i = 0; i < k; ++i) {
      const uint64_t low = rh < t ? c_lo[i] + (i == j ? 1 : 0)
                                  : c_lo[i] - std::min(c_lo[i], rh - t);
      const uint64_t high = rl >= t ? c_hi[i] : c_hi[i] + (t - rl);
      (*lo)[i] = std::max((*lo)[i], low);
      (*hi)[i] = std::min((*hi)[i], high);
    }
  };
  for (size_t j = 0; j < k; ++j) {
    const auto& sj = samples[j];
    uint64_t rl, rh;
    // [sj.begin(), undecided) are certainly among the first t,
    // [above, sj.end()) certainly not.
    auto undecided = std::partition_point(
        sj.begin(), sj.end(), [&](const Entry& x) {
          bracket(x, j, &rl, &rh);
          return rh < t;
        });
    auto above = std::partition_point(undecided, sj.end(),
                                      [&](const Entry& x) {
                                        bracket(x, j, &rl, &rh);
                                        return rl < t;
                                      });
    if (undecided != sj.begin()) apply(*(undecided - 1), j);
    if (undecided != above) {
      apply(*undecided, j);
      if (above - 1 != undecided) apply(*(above - 1), j);
    }
    if (above != sj.end()) apply(*above, j);
  }
  for (size_t i = 0; i < k; ++i) DEMSORT_CHECK_LE((*lo)[i], (*hi)[i]);
}

/// Merges `more` into `into`; both are sorted by position, and each
/// position is kept once.
template <typename Entry>
void MergeSamplesByPosition(std::vector<Entry>* into,
                            const std::vector<Entry>& more) {
  auto by_pos = [](const Entry& a, const Entry& b) { return a.pos < b.pos; };
  std::vector<Entry> merged;
  merged.reserve(into->size() + more.size());
  std::merge(into->begin(), into->end(), more.begin(), more.end(),
             std::back_inserter(merged), by_pos);
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.pos == b.pos;
                           }),
               merged.end());
  *into = std::move(merged);
}

/// Bounds [lo_j, hi_j] for the split positions of `target_rank` from the
/// samples alone: TightenSampleBounds from the whole sequences.
template <typename R, typename Less>
void SampleBootstrapBounds(
    const std::vector<std::vector<typename SampleTable<R>::Entry>>& samples,
    const std::vector<uint64_t>& lengths, uint64_t target_rank,
    const Less& less, std::vector<uint64_t>* lo, std::vector<uint64_t>* hi) {
  lo->assign(lengths.size(), 0);
  *hi = lengths;
  TightenSampleBounds<R, Less>(samples, lengths, target_rank, less, lo, hi);
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_SAMPLE_BOUNDS_H_
