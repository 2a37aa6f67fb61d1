// Metadata describing where the sorted runs live.
//
// After run formation, run r is a globally sorted sequence of length
// table.RunLength(r), physically split into P pieces: PE p holds positions
// [piece_start[r][p], piece_start[r][p+1]) on its local disks. The
// GlobalRunTable (replicated via allgather) plus per-PE RunIndex give every
// phase the addressing it needs; the SampleTable carries one element per
// block (with its exact run position) for the selection bootstrap.
#ifndef DEMSORT_CORE_RUN_INDEX_H_
#define DEMSORT_CORE_RUN_INDEX_H_

#include <cstdint>
#include <vector>

#include "io/block_manager.h"
#include "util/logging.h"

namespace demsort::core {

/// One PE's piece of one run.
template <typename R>
struct RunPiece {
  uint64_t global_start = 0;  // run-relative rank of the first element
  uint64_t size = 0;
  std::vector<io::BlockId> blocks;
  /// First record of each block (the prediction sequence of [11]/[14]).
  std::vector<R> block_first_records;
};

template <typename R>
struct RunIndex {
  std::vector<RunPiece<R>> pieces;  // indexed by run
  size_t num_runs() const { return pieces.size(); }
};

/// Replicated table of piece boundaries: piece_start[r] has P+1 entries,
/// entry P being the run length.
struct GlobalRunTable {
  std::vector<std::vector<uint64_t>> piece_start;

  size_t num_runs() const { return piece_start.size(); }
  uint64_t RunLength(size_t run) const { return piece_start[run].back(); }
  uint64_t TotalElements() const {
    uint64_t n = 0;
    for (size_t r = 0; r < num_runs(); ++r) n += RunLength(r);
    return n;
  }
  /// PE owning position `pos` of `run`.
  int FindOwner(size_t run, uint64_t pos) const {
    const auto& ps = piece_start[run];
    DEMSORT_CHECK_LT(pos, ps.back());
    // Last pe p with ps[p] <= pos.
    size_t lo = 0, hi = ps.size() - 2;
    while (lo < hi) {
      size_t mid = (lo + hi + 1) / 2;
      if (ps[mid] <= pos) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return static_cast<int>(lo);
  }
};

/// The first element of every block of every run piece, plus each piece's
/// closing element, with exact run positions; replicated.
template <typename R>
struct SampleTable {
  struct Entry {
    R record;
    uint64_t pos = 0;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  /// Appends (record, pos). The entry is value-initialised, so its padding
  /// (4 bytes after a Gray100) is zero and checkpoint images, which store
  /// entries as raw bytes, are deterministic.
  static void Append(std::vector<Entry>& to, const R& record, uint64_t pos) {
    Entry& entry = to.emplace_back();
    entry.record = record;
    entry.pos = pos;
  }

  std::vector<std::vector<Entry>> per_run;  // sorted by pos (== by key)
};

/// A received (or locally retained) contiguous piece of a run on local
/// disks, produced by the external all-to-all and consumed by the final
/// merge. `first_block_offset` elements of the first block belong to a
/// neighbouring extent or to data that stayed elsewhere.
template <typename R>
struct Extent {
  uint32_t run = 0;
  uint64_t start_pos = 0;  // run-relative rank of first element
  uint64_t count = 0;
  std::vector<io::BlockId> blocks;
  uint64_t first_block_offset = 0;
  std::vector<R> block_first_records;
};

}  // namespace demsort::core

#endif  // DEMSORT_CORE_RUN_INDEX_H_
