// In-memory k-way merging of sorted sequences, sequential and parallel.
//
// The parallel variant uses exact multiway selection to slice all inputs
// into independent, equal-sized output chunks — the [12]/MCSTL approach the
// paper builds on.
#ifndef DEMSORT_PAR_MULTIWAY_MERGE_H_
#define DEMSORT_PAR_MULTIWAY_MERGE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/record.h"
#include "par/loser_tree.h"
#include "par/multiway_select.h"
#include "par/thread_pool.h"
#include "util/logging.h"

namespace demsort::par {

/// Merges `sources` (each sorted by RecordTraits<R>::Less) into `out`,
/// which must have room for the total number of records. Stable across
/// sources (ties resolve by source index). Returns the number of records
/// written.
template <typename R>
size_t MultiwayMerge(const std::vector<std::span<const R>>& sources, R* out) {
  const size_t k = sources.size();
  if (k == 0) return 0;
  LoserTree<R> tree(k);
  for (size_t s = 0; s < k; ++s) {
    if (!sources[s].empty()) tree.InitSource(s, sources[s].data());
  }
  tree.Build();
  R* const first = out;
  while (!tree.Empty()) {
    const size_t w = tree.WinnerSource();
    const R* head = &tree.Winner();
    *out++ = *head;
    if (++head != sources[w].data() + sources[w].size()) {
      tree.ReplaceWinner(head);
    } else {
      tree.ExhaustWinner();
    }
  }
  return static_cast<size_t>(out - first);
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
