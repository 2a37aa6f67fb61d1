// Shared-memory parallel multiway mergesort (the MCSTL role): radix-sort
// chunks in parallel, then parallel-merge via exact selection. Used inside a
// PE to sort its share of a run.
#ifndef DEMSORT_PAR_PARALLEL_SORT_H_
#define DEMSORT_PAR_PARALLEL_SORT_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/record.h"
#include "par/multiway_merge.h"
#include "par/radix_sort.h"
#include "par/thread_pool.h"

namespace demsort::par {

/// Sorts `data` by RecordTraits<R>::Less using the pool. STABLE: equal
/// records keep their input order — the distributed algorithms build a
/// deterministic (key, PE, position) total order on top of this. Returns at
/// once on sorted input. Scratch: ceil(n/2) records on one thread or below
/// 8192 records (RadixSort); otherwise one buffer of n records that every
/// chunk ping-pongs with its own range of `data` before the merge reads it
/// back (records over 16 bytes add their chunk's tags, 32 bytes a record) —
/// within the "factor around two" memory remark in the paper's run-size
/// footnote.
template <typename R>
void ParallelSort(ThreadPool& pool, std::span<R> data) {
  using Less = typename core::RecordTraits<R>::Less;
  const size_t n = data.size();
  const size_t parts = pool.num_threads();
  if (parts <= 1 || n < 8192) {
    RadixSort(data);
    return;
  }
  if (std::is_sorted(data.begin(), data.end(), Less())) return;

  // Each task sorts its chunk into the scratch buffer, then the merge lands
  // directly in the caller's buffer.
  const size_t chunk = (n + parts - 1) / parts;
  std::vector<R> scratch(n);
  pool.ParallelFor(parts, [&](size_t t) {
    size_t lo = std::min(n, t * chunk);
    size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) return;
    RadixSortInto(data.subspan(lo, hi - lo),
                  std::span<R>(scratch).subspan(lo, hi - lo));
  });

  std::vector<std::span<const R>> sources;
  sources.reserve(parts);
  for (size_t t = 0; t < parts; ++t) {
    size_t lo = std::min(n, t * chunk);
    size_t hi = std::min(n, lo + chunk);
    if (lo < hi) sources.push_back(std::span<const R>(&scratch[lo], hi - lo));
  }
  ParallelMultiwayMerge(pool, sources, data.data());
}

}  // namespace demsort::par

#endif  // DEMSORT_PAR_PARALLEL_SORT_H_
