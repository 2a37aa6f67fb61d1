// k-way merging of sorted sequences: the one merge kernel every merge in the
// sorter runs, its in-memory form (sequential and parallel), and the policies
// it is written against.
//
// MergeKernel drives a LoserTree over k sources and copies each winner
// straight into an output window (the current output block), not through a
// per-record callback. A source hands out its records one contiguous span at
// a time (a whole in-memory run, or one block of a run on disk), so per
// record the kernel does one copy, one span-end test and one replay. Runs
// that are locally disjoint are caught with timsort-style hysteresis: once
// one source has won kMinGallop times in a row, the kernel gallops the
// winner's span up to the runner-up's head and copies it with one replay
// for the whole span. Uniformly interleaved runs thus pay one streak update
// per record over a plain loop, while duplicate-heavy or clustered runs
// collapse to O(log span) per span — which the branch-free replay needs:
// on equal keys a branchy replay predicts well and a branch-free one does
// not. With two sources left the tree is dropped for a head-vs-head merge
// with the same hysteresis; the last source streams.
//
// The parallel variant uses exact multiway selection to slice all inputs
// into independent, equal-sized output chunks — the [12]/MCSTL approach the
// paper builds on.
#ifndef DEMSORT_PAR_MULTIWAY_MERGE_H_
#define DEMSORT_PAR_MULTIWAY_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/record.h"
#include "par/loser_tree.h"
#include "par/multiway_select.h"
#include "par/thread_pool.h"
#include "util/logging.h"

namespace demsort::par {

/// Wins in a row after which the kernel stops stepping record by record and
/// gallops the winner's span.
inline constexpr size_t kMinGallop = 4;

/// Galloping span search: the first index in [lo, hi) whose record fails
/// `take` (a monotone predicate over the sorted records — true on a prefix).
/// Exponential probes from lo, then partition_point inside the bracket:
/// ~1 compare when the span is empty or unit-length, O(log span) when it is
/// long — unlike a plain bound over [lo, hi), which pays O(log(hi-lo)) even
/// for the unit spans that dominate uniformly interleaved runs.
template <typename R, typename Take>
size_t GallopSpan(const R* base, size_t lo, size_t hi, const Take& take) {
  if (lo == hi || !take(base[lo])) return lo;
  size_t good = 0;  // offset from lo; prefix [lo, lo+good] known good
  size_t next = 1;
  while (lo + next < hi && take(base[lo + next])) {
    good = next;
    next <<= 1;
  }
  const R* first = base + lo + good + 1;
  const R* last = base + std::min(hi, lo + next);
  return static_cast<size_t>(std::partition_point(first, last, take) - base);
}

namespace internal {

/// The kernel's end of an output window: records go into the window the
/// output policy handed out, and a full window is committed before the next
/// one is asked for.
template <typename R, typename Out>
class WindowWriter {
 public:
  explicit WindowWriter(Out& out) : out_(out) {}

  void Put(const R& record) {
    if (next_ == end_) Turn();
    *next_++ = record;
  }

  void PutSpan(const R* records, size_t n) {
    while (n > 0) {
      if (next_ == end_) Turn();
      const size_t take = std::min<size_t>(n, end_ - next_);
      std::memcpy(static_cast<void*>(next_), records, take * sizeof(R));
      next_ += take;
      records += take;
      n -= take;
    }
  }

  /// Commits what the current window holds.
  void Close() {
    const size_t n = static_cast<size_t>(next_ - first_);
    if (n > 0) out_.Commit(n);
    committed_ += n;
    first_ = next_;
  }

  /// Records committed so far.
  uint64_t committed() const { return committed_; }

 private:
  void Turn() {
    Close();
    size_t room = 0;
    first_ = next_ = out_.Window(&room);
    DEMSORT_CHECK_GT(room, 0u) << "merge output overflows its window";
    end_ = first_ + room;
  }

  Out& out_;
  R* first_ = nullptr;
  R* next_ = nullptr;
  R* end_ = nullptr;
  uint64_t committed_ = 0;
};

}  // namespace internal

/// Merges k sorted sources into `out`, stably across sources (ties resolve
/// by source index). Returns the number of records written.
///
/// Source policy (`src`):
///   size_t num_sources() const;
///   bool First(size_t j, const R** begin, const R** end);
///     run j's first span; false if run j is empty.
///   bool Next(size_t j, const R** begin, const R** end);
///     called once run j's current span is consumed: its next span, or
///     false once run j is exhausted. The consumed span's memory may be
///     released here: the tree no longer reads it.
/// Every span a source returns is non-empty.
///
/// Output policy (`out`):
///   R* Window(size_t* room);  writable space for *room >= 1 records;
///   void Commit(size_t n);    appends the window's first n records.
/// Commit invalidates the window; the kernel asks for a new one before it
/// writes again.
template <typename R, typename Source, typename Out>
uint64_t MergeKernel(Source& src, Out& out) {
  using Less = typename core::RecordTraits<R>::Less;
  Less less;
  const size_t k = src.num_sources();
  if (k == 0) return 0;
  std::vector<const R*> pos(k, nullptr);
  std::vector<const R*> end(k, nullptr);
  LoserTree<R> tree(k);
  for (size_t j = 0; j < k; ++j) {
    if (src.First(j, &pos[j], &end[j])) tree.InitSource(j, pos[j]);
  }
  tree.Build();

  internal::WindowWriter<R, Out> w(out);
  // Copies `n` records from source j's head and advances it; false once
  // source j is exhausted.
  auto take = [&](size_t j, size_t n) {
    if (n == 1) {
      w.Put(*pos[j]);
    } else {
      w.PutSpan(pos[j], n);
    }
    pos[j] += n;
    return pos[j] != end[j] || src.Next(j, &pos[j], &end[j]);
  };

  // Length of the prefix of j's span that precedes `limit`, the head of
  // source `other` (ties go to the smaller source index).
  auto gallop = [&](size_t j, size_t other, const R& limit) {
    const R* base = pos[j];
    const size_t hi = static_cast<size_t>(end[j] - base);
    return j < other
               ? GallopSpan(base, 0, hi,
                            [&](const R& rec) { return !less(limit, rec); })
               : GallopSpan(base, 0, hi,
                            [&](const R& rec) { return less(rec, limit); });
  };

  size_t last = k;
  size_t streak = 0;
  while (tree.live() > 2) {
    const size_t j = tree.WinnerSource();
    streak = (j == last ? streak : 0) + 1;
    last = j;
    size_t n = 1;
    if (streak >= kMinGallop) {
      const size_t ru = tree.RunnerUpSource();
      n = gallop(j, ru, tree.Head(ru));
    }
    if (take(j, n)) {
      tree.ReplaceWinner(pos[j]);
    } else {
      tree.ExhaustWinner();
    }
  }

  size_t rest = tree.live() == 1 ? tree.WinnerSource() : k;
  if (tree.live() == 2) {
    // The last two sources, a < b, merge head to head without the tree:
    // record by record while both spans last and neither side has won
    // kMinGallop times in a row, then one gallop of the last winner.
    size_t a = k, b = k;
    for (size_t s = 0; s < k; ++s) {
      if (tree.IsLive(s)) (a == k ? a : b) = s;
    }
    bool last_b = false;
    streak = 0;
    while (true) {
      const R* pa = pos[a];
      const R* pb = pos[b];
      bool b_wins;
      do {
        b_wins = less(*pb, *pa);
        streak = (b_wins == last_b ? streak : 0) + 1;
        last_b = b_wins;
        w.Put(*(b_wins ? pb : pa));
        pa += !b_wins;
        pb += b_wins;
      } while (pa != end[a] && pb != end[b] && streak < kMinGallop);
      pos[a] = pa;
      pos[b] = pb;
      // Only the winner moved, so the other's span is still non-empty.
      const size_t j = b_wins ? b : a;
      const size_t other = b_wins ? a : b;
      const size_t n =
          pos[j] != end[j] && streak >= kMinGallop
              ? gallop(j, other, *pos[other])
              : 0;
      if (!take(j, n)) {
        rest = other;
        break;
      }
    }
  }
  if (rest != k) {
    while (take(rest, static_cast<size_t>(end[rest] - pos[rest]))) {
    }
  }
  w.Close();
  return w.committed();
}

/// Merges `sources` (each sorted by RecordTraits<R>::Less) into `out`,
/// which must have room for the total number of records. Stable across
/// sources (ties resolve by source index). Returns the number of records
/// written.
template <typename R>
size_t MultiwayMerge(const std::vector<std::span<const R>>& sources, R* out) {
  struct Spans {
    const std::vector<std::span<const R>>& spans;
    size_t num_sources() const { return spans.size(); }
    bool First(size_t j, const R** begin, const R** end) const {
      *begin = spans[j].data();
      *end = *begin + spans[j].size();
      return !spans[j].empty();
    }
    bool Next(size_t, const R**, const R**) const { return false; }
  };
  struct Array {
    R* next;
    size_t room;
    R* Window(size_t* n) {
      *n = room;
      return next;
    }
    void Commit(size_t n) {
      next += n;
      room -= n;
    }
  };
  size_t total = 0;
  for (const auto& s : sources) total += s.size();
  Spans src{sources};
  Array dst{out, total};
  return static_cast<size_t>(MergeKernel<R>(src, dst));
}

/// Parallel k-way merge: splits the output into one chunk per pool thread
/// using exact multiway selection, merges chunks independently.
template <typename R>
size_t ParallelMultiwayMerge(ThreadPool& pool,
                             const std::vector<std::span<const R>>& sources,
                             R* out) {
  using Less = typename core::RecordTraits<R>::Less;
  size_t total = 0;
  for (const auto& s : sources) total += s.size();
  size_t parts = pool.num_threads();
  if (parts <= 1 || total < 4096) {
    return MultiwayMerge(sources, out);
  }

  // Split positions for ranks t*total/parts, t = 0..parts.
  std::vector<std::vector<size_t>> split =
      SelectSplitters<R, Less>(sources, parts, Less());

  pool.ParallelFor(parts, [&](size_t t) {
    std::vector<std::span<const R>> slice(sources.size());
    size_t out_offset = 0;
    for (size_t s = 0; s < sources.size(); ++s) {
      slice[s] = sources[s].subspan(split[t][s], split[t + 1][s] - split[t][s]);
      out_offset += split[t][s];
    }
    MultiwayMerge(slice, out + out_offset);
  });
  return total;
}

}  // namespace demsort::par

#endif  // DEMSORT_PAR_MULTIWAY_MERGE_H_
