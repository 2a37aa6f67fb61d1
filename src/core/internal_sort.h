// Cooperative distributed in-memory sorting of one run (§IV-B), following
// the multiway-merging scheme of [12]/[26]:
//   1. every PE sorts its local share (shared-memory parallel sort),
//   2. distributed exact multiway selection finds the P-1 splitters that cut
//      the P sorted sequences into exactly equal global ranks,
//   3. one Alltoallv moves every element to its final PE (the only time the
//      data crosses the network in the best case of the whole sort),
//   4. every PE merges the P sorted slices it received.
//
// The distributed selection is the in-memory analogue of §IV-A: the same
// pivot-with-exact-counts loop as par::MultiwaySelect, but the sequences
// live on remote PEs, so each BSP round allgathers (a) the pivot elements
// every open (target, sequence) pair needs and (b) each PE's exact local
// counts for all pivots. All PEs replicate the full selection state
// deterministically, so no additional coordination is needed.
#ifndef DEMSORT_CORE_INTERNAL_SORT_H_
#define DEMSORT_CORE_INTERNAL_SORT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "core/run_index.h"
#include "core/sample_bounds.h"
#include "net/transport.h"
#include "par/multiway_merge.h"
#include "par/multiway_select.h"
#include "par/parallel_sort.h"
#include "util/logging.h"

namespace demsort::core {

/// This PE's share of one cooperative sort; its records are in the
/// caller's output span.
struct SortedPiece {
  /// Global rank (within the run) of the piece's first record.
  uint64_t piece_start = 0;
  /// Records in the piece.
  uint64_t piece_size = 0;
  /// Total run length across all PEs.
  uint64_t total = 0;
  uint64_t selection_rounds = 0;
};

/// SortedPiece with the records in a vector of their own.
template <typename R>
struct InternalSortResult : SortedPiece {
  std::vector<R> piece;
};

namespace internal {

/// Splitter matrix: split[t][j] = how many elements of (sorted) sequence j
/// precede global rank target_ranks[t] (one target per PE rank 1..P-1;
/// target_ranks.size() must be P-1). Sequence j lives on PE j; `local` is
/// this PE's sequence. All PEs return identical matrices.
///
/// Constant number of communication rounds (App. B applied in memory):
///   1. allgather a position-annotated sample of every sequence,
///   2. every PE derives guaranteed bounds [lo_j, hi_j] for ITS target
///      locally (SampleBootstrapBounds), windows are O(sample gap) wide,
///   3. one alltoallv fetches the window contents from their owners,
///   4. exact multiway selection runs locally on the windows (the bounds
///      guarantee the boundary element lies inside them),
///   5. rows are allgathered into the full matrix.
template <typename R>
std::vector<std::vector<uint64_t>> DistributedSelect(
    net::Comm& comm, std::span<const R> local,
    const std::vector<uint64_t>& sequence_sizes,
    const std::vector<uint64_t>& target_ranks, uint64_t* rounds_out,
    net::StreamOptions stream_options = {}) {
  using Less = typename RecordTraits<R>::Less;
  using Entry = typename SampleTable<R>::Entry;
  Less less;
  const int P = comm.size();
  const int me = comm.rank();
  DEMSORT_CHECK_EQ(target_ranks.size(), static_cast<size_t>(P - 1));

  // 1. Sample every K-th element (K keeps the replicated sample ~8 entries
  // per (sequence, PE) pair).
  const uint64_t n_local = local.size();
  const uint64_t sample_k =
      std::max<uint64_t>(1, n_local / (8 * static_cast<uint64_t>(P)));
  std::vector<Entry> mine;
  for (uint64_t pos = 0; pos < n_local; pos += sample_k) {
    mine.push_back(Entry{local[pos], pos});
  }
  // Closing sample: makes tail counts exact (important under heavy key
  // duplication, where the (key, seq) tie order then resolves whole
  // sequences at once).
  if (n_local > 0 && (n_local - 1) % sample_k != 0) {
    mine.push_back(Entry{local[n_local - 1], n_local - 1});
  }
  // Streamed replication: the transport never stages P sample payloads
  // (AllgatherVStreamed appends chunks as they land; align defaults to the
  // entry size so chunks never split an entry).
  stream_options.align_bytes = 1;
  std::vector<std::vector<Entry>> samples =
      comm.AllgatherVStreamed<Entry>(mine, stream_options);

  // 2. Bounds for MY target (PE 0 has none: its row is all zeros).
  std::vector<uint64_t> lo(P, 0), hi(P, 0);
  if (me > 0) {
    SampleBootstrapBounds<R, Less>(samples, sequence_sizes,
                                   target_ranks[me - 1], less, &lo, &hi);
  }

  // 3. Fetch windows [lo_j, hi_j) from their owners.
  struct WindowRequest {
    uint64_t begin;
    uint64_t end;
  };
  std::vector<std::vector<WindowRequest>> requests(P);
  if (me > 0) {
    for (int j = 0; j < P; ++j) {
      requests[j].push_back(WindowRequest{lo[j], hi[j]});
    }
  }
  std::vector<std::vector<WindowRequest>> incoming =
      comm.Alltoallv<WindowRequest>(requests, stream_options);
  std::vector<std::vector<R>> responses(P);
  for (int t = 0; t < P; ++t) {
    for (const WindowRequest& req : incoming[t]) {
      DEMSORT_CHECK_LE(req.end, n_local);
      responses[t].insert(responses[t].end(), local.begin() + req.begin,
                          local.begin() + req.end);
    }
  }
  std::vector<std::vector<R>> windows =
      comm.Alltoallv<R>(responses, stream_options);

  // 4. Exact selection on the windows: positions relative to the window
  // starts; the bounds guarantee sum(lo) <= target <= sum(hi).
  std::vector<uint64_t> my_row(P, 0);
  if (me > 0) {
    uint64_t base = 0;
    for (int j = 0; j < P; ++j) base += lo[j];
    DEMSORT_CHECK_LE(base, target_ranks[me - 1]);
    std::vector<std::span<const R>> spans(P);
    for (int j = 0; j < P; ++j) {
      DEMSORT_CHECK_EQ(windows[j].size(), hi[j] - lo[j]);
      spans[j] = std::span<const R>(windows[j].data(), windows[j].size());
    }
    std::vector<size_t> in_window = par::MultiwaySelect<R, Less>(
        spans, target_ranks[me - 1] - base, less);
    for (int j = 0; j < P; ++j) my_row[j] = lo[j] + in_window[j];
  }

  // 5. Assemble the full matrix (rows of ranks 1..P-1), streamed like the
  // sample gather.
  std::vector<std::vector<uint64_t>> rows =
      comm.AllgatherVStreamed<uint64_t>(my_row, stream_options);
  std::vector<std::vector<uint64_t>> result(P - 1);
  for (int t = 1; t < P; ++t) result[t - 1] = std::move(rows[t]);
  if (rounds_out != nullptr) *rounds_out += 3;
  return result;
}

}  // namespace internal

/// Sorts the union of all PEs' `local` spans; afterwards PE i holds global
/// ranks [i*total/P, (i+1)*total/P), sorted (ties resolved by the
/// (key, source PE, position) total order, hence deterministically), in
/// `out[0, piece_size)`. All three spans are caller-owned, so a run loop can
/// reuse them:
///  * `local` is sorted in place, then sent from;
///  * `recv` is the local sort's scratch, then the exchange's landing
///    buffer: each source's slice lands at an offset computed from the
///    replicated split matrix, so the slices are the merge's P sources;
///  * `out` receives the P-way merge. It may alias `local`, which is dead
///    once the exchange returns.
/// `recv` must hold max(local.size(), piece) records and `out` the piece;
/// a piece never exceeds the largest local share (it is at most
/// ceil(total/P) records). `stream_options` tunes the redistribution's and
/// the selection gathers' streaming (SortConfig::StreamOptionsFor), passed
/// per call so per-run overrides never mutate the shared Comm; alignment is
/// set here from R.
template <typename R>
SortedPiece InternalParallelSort(PeContext& ctx, std::span<R> local,
                                 std::span<R> recv, std::span<R> out,
                                 PhaseStats* stats = nullptr,
                                 net::StreamOptions stream_options = {}) {
  net::Comm& comm = *ctx.comm;
  const int P = comm.size();
  const int me = comm.rank();

  par::ParallelSort<R>(*ctx.pool, local, recv.first(local.size()));
  if (stats != nullptr) stats->elements_sorted += local.size();

  std::vector<uint64_t> sizes = comm.Allgather<uint64_t>(local.size());
  uint64_t total = 0;
  for (uint64_t s : sizes) total += s;

  SortedPiece result;
  result.total = total;
  if (P == 1) {
    DEMSORT_CHECK_GE(out.size(), local.size());
    if (out.data() != local.data()) {
      std::copy(local.begin(), local.end(), out.begin());
    }
    result.piece_size = local.size();
    return result;
  }

  std::vector<uint64_t> targets(P - 1);
  for (int t = 1; t < P; ++t) {
    targets[t - 1] = total / P * t + std::min<uint64_t>(total % P, t);
  }
  uint64_t rounds = 0;
  std::vector<std::vector<uint64_t>> split = internal::DistributedSelect<R>(
      comm, std::span<const R>(local), sizes, targets, &rounds,
      stream_options);
  result.selection_rounds = rounds;
  if (stats != nullptr) stats->selection_rounds += rounds;

  // split rows for ranks r_1..r_{P-1}; add r_0 = 0 and r_P = sizes. Source
  // s sends me its records [split[me-1][s], split[me][s]), which land at
  // recv[at[s], at[s+1]).
  std::vector<uint64_t> at(P + 1, 0);
  for (int s = 0; s < P; ++s) {
    uint64_t begin = me == 0 ? 0 : split[me - 1][s];
    uint64_t end = me == P - 1 ? sizes[s] : split[me][s];
    DEMSORT_CHECK_LE(begin, end);
    at[s + 1] = at[s] + (end - begin);
  }
  const uint64_t piece_size = at[P];
  DEMSORT_CHECK_LE(piece_size, recv.size());
  DEMSORT_CHECK_LE(piece_size, out.size());

  // Streaming redistribution straight out of `local` (the provider hands
  // AlltoallvStream zero-copy slice spans, which it chunks onto the wire
  // itself). Each source's slice, the self slice included, is copied to
  // its place in `recv` chunk by chunk AS IT LANDS — the copy out of the
  // transport overlaps the rest of the transfer, and no full per-source
  // payload is ever staged in the mailbox.
  std::vector<uint64_t> landed(at.begin(), at.end() - 1);
  net::StreamOptions redist_options = stream_options;
  redist_options.align_bytes = sizeof(R);
  comm.AlltoallvStream(
      [&](int t) -> std::span<const uint8_t> {
        uint64_t begin = t == 0 ? 0 : split[t - 1][me];
        uint64_t end = t == P - 1 ? local.size() : split[t][me];
        DEMSORT_CHECK_LE(begin, end);
        return std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(local.data() + begin),
            (end - begin) * sizeof(R));
      },
      [&](int src, std::span<const uint8_t> chunk, bool last) {
        (void)last;
        DEMSORT_CHECK_EQ(chunk.size() % sizeof(R), 0u);
        const size_t n = chunk.size() / sizeof(R);
        DEMSORT_CHECK_LE(landed[src] + n, at[src + 1]);
        if (n > 0) {
          std::memcpy(recv.data() + landed[src], chunk.data(), chunk.size());
        }
        landed[src] += n;
      },
      [&](int src, uint64_t bytes) {
        DEMSORT_CHECK_EQ(bytes, (at[src + 1] - at[src]) * sizeof(R));
      },
      redist_options);

  std::vector<std::span<const R>> sources;
  sources.reserve(P);
  for (int s = 0; s < P; ++s) {
    DEMSORT_CHECK_EQ(landed[s], at[s + 1]);
    sources.emplace_back(recv.data() + at[s], at[s + 1] - at[s]);
  }
  par::ParallelMultiwayMerge<R>(*ctx.pool, sources, out.data());
  if (stats != nullptr) {
    stats->elements_merged += piece_size;
    stats->merge_ways = std::max<uint64_t>(stats->merge_ways, P);
  }

  uint64_t r_me = me == 0 ? 0 : targets[me - 1];
  uint64_t r_next = me == P - 1 ? total : targets[me];
  DEMSORT_CHECK_EQ(piece_size, r_next - r_me);
  result.piece_start = r_me;
  result.piece_size = piece_size;
  return result;
}

/// InternalParallelSort for a caller that owns its records in a vector:
/// sizes the scratch and the piece to the largest local share (one
/// AllreduceMax) and returns the piece in `local`'s storage.
template <typename R>
InternalSortResult<R> InternalParallelSort(
    PeContext& ctx, std::vector<R> local, PhaseStats* stats = nullptr,
    net::StreamOptions stream_options = {}) {
  const size_t n = local.size();
  const size_t capacity =
      static_cast<size_t>(ctx.comm->AllreduceMax<uint64_t>(n));
  std::vector<R> recv(capacity);
  local.resize(capacity);
  InternalSortResult<R> result;
  static_cast<SortedPiece&>(result) = InternalParallelSort<R>(
      ctx, std::span<R>(local).first(n), std::span<R>(recv),
      std::span<R>(local), stats, stream_options);
  local.resize(result.piece_size);
  result.piece = std::move(local);
  return result;
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_INTERNAL_SORT_H_
