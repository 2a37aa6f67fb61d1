// Cooperative distributed in-memory sorting of one run (§IV-B), following
// the multiway-merging scheme of [12]/[26]:
//   1. every PE sorts its local share (shared-memory parallel sort),
//   2. distributed exact multiway selection finds the P-1 splitters that cut
//      the P sorted sequences into exactly equal global ranks,
//   3. one Alltoallv moves every element to its final PE (the only time the
//      data crosses the network in the best case of the whole sort),
//   4. every PE merges the P sorted slices it received.
//
// The distributed selection (internal::DistributedSelect) is App. B's
// sample-bounds idea applied in memory: a coarse position-annotated sample
// bounds every splitter, refinement rounds narrow the bounds with samples
// of the windows, and the narrow windows are fetched and finished locally
// with par::MultiwaySelect. Each round ships O(P^2) sample entries, however
// long the run, so the exchange of step 3 is the only Theta(N) traffic.
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
  /// Collectives the splitter selection issued: 5, plus 3 per refinement
  /// round (each pays one network latency).
  uint64_t selection_rounds = 0;
};

/// SortedPiece with the records in a vector of their own.
template <typename R>
struct InternalSortResult : SortedPiece {
  std::vector<R> piece;
};

namespace internal {

/// Entries per sequence in the allgathered coarse sample (plus the closing
/// entry). Independent of P, so each PE receives O(P) entries per run.
inline constexpr uint64_t kSelectCoarseSamples = 64;
/// Entries an owner returns per window in one refinement round.
inline constexpr uint64_t kSelectRefineSamples = 64;
/// Refinement stops once no window on any PE is wider than this; the
/// windows are then fetched whole.
inline constexpr uint64_t kSelectFetchWindow = 128;

/// Every ceil((end-begin)/count)-th record of local[begin, end), annotated
/// with its exact position, appended to `out`.
template <typename R>
void AppendStridedSample(std::span<const R> local, uint64_t begin,
                         uint64_t end, uint64_t count,
                         std::vector<typename SampleTable<R>::Entry>* out) {
  DEMSORT_CHECK_LE(begin, end);
  DEMSORT_CHECK_LE(end, local.size());
  const uint64_t stride = std::max<uint64_t>(1, (end - begin + count - 1) /
                                                    count);
  for (uint64_t pos = begin; pos < end; pos += stride) {
    SampleTable<R>::Append(*out, local[pos], pos);
  }
}

/// Splitter matrix: split[t][j] = how many elements of (sorted) sequence j
/// precede global rank target_ranks[t] (one target per PE rank 1..P-1;
/// target_ranks.size() must be P-1). Sequence j lives on PE j; `local` is
/// this PE's sequence. All PEs return identical matrices.
///
/// Communication rounds (App. B applied in memory, refined in rounds):
///   1. allgather a coarse position-annotated sample of every sequence
///      (kSelectCoarseSamples + 1 entries each: P (P-1) (S + 1) entries
///      cross the network); every PE derives guaranteed bounds
///      [lo_j, hi_j] for ITS target locally (TightenSampleBounds from the
///      whole sequences), windows about two sample gaps (n/32) wide;
///   2. an AllreduceMax of the widest window; while it exceeds
///      kSelectFetchWindow, one refinement round: every target PE sends
///      each owner its window (P (P-1) requests of 16 bytes), each owner
///      returns a strided sample of at most kSelectRefineSamples entries
///      per window (P (P-1) x 64 entries in all), and the target merges
///      them into that sequence's sample and tightens its bounds again.
///      Positions stay exact, so the bounds stay guaranteed; a round
///      shrinks the widest window about 30-fold, so there are
///      O(log(n) / log(30)) rounds (two at n = 2^18);
///   3. one alltoallv fetches the now narrow windows (at most
///      P (P-1) x kSelectFetchWindow records);
///   4. exact multiway selection runs locally on the windows (the bounds
///      guarantee the boundary element lies inside them);
///   5. rows are allgathered into the full matrix (P (P-1) counts).
/// None of it depends on n beyond the logarithmic round count, so the
/// selection adds o(N) to the exchange. `*rounds_out` grows by the number
/// of collectives issued (each pays one network latency).
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
  uint64_t rounds = 0;

  // 1. Coarse sample of every sequence.
  const uint64_t n_local = local.size();
  std::vector<Entry> mine;
  AppendStridedSample<R>(local, 0, n_local, kSelectCoarseSamples, &mine);
  // Closing sample: makes tail counts exact (important under heavy key
  // duplication, where the (key, seq) tie order then resolves whole
  // sequences at once).
  if (n_local > 0 && mine.back().pos != n_local - 1) {
    SampleTable<R>::Append(mine, local[n_local - 1], n_local - 1);
  }
  // Streamed replication: the transport never stages P sample payloads
  // (AllgatherVStreamed appends chunks as they land; align defaults to the
  // entry size so chunks never split an entry).
  stream_options.align_bytes = 1;
  std::vector<std::vector<Entry>> samples =
      comm.AllgatherVStreamed<Entry>(mine, stream_options);
  ++rounds;

  // Bounds for MY target (PE 0 has none: its row is all zeros); returns
  // the widest window on any PE.
  std::vector<uint64_t> lo(P, 0), hi(P, 0);
  if (me > 0) hi = sequence_sizes;
  auto bound = [&]() -> uint64_t {
    uint64_t widest = 0;
    if (me > 0) {
      TightenSampleBounds<R, Less>(samples, sequence_sizes,
                                   target_ranks[me - 1], less, &lo, &hi);
      for (int j = 0; j < P; ++j) widest = std::max(widest, hi[j] - lo[j]);
    }
    ++rounds;
    return comm.AllreduceMax<uint64_t>(widest);
  };

  // Every round sends each owner the window [lo_j, hi_j) of MY target.
  struct WindowRequest {
    uint64_t begin;
    uint64_t end;
  };
  auto request_windows = [&]() {
    std::vector<std::vector<WindowRequest>> requests(P);
    if (me > 0) {
      for (int j = 0; j < P; ++j) {
        requests[j].push_back(WindowRequest{lo[j], hi[j]});
      }
    }
    ++rounds;
    return comm.Alltoallv<WindowRequest>(requests, stream_options);
  };

  // 2. Refinement rounds.
  uint64_t widest = bound();
  while (widest > kSelectFetchWindow) {
    std::vector<std::vector<WindowRequest>> incoming = request_windows();
    std::vector<std::vector<Entry>> replies(P);
    for (int t = 0; t < P; ++t) {
      for (const WindowRequest& req : incoming[t]) {
        AppendStridedSample<R>(local, req.begin, req.end,
                               kSelectRefineSamples, &replies[t]);
      }
    }
    std::vector<std::vector<Entry>> fetched =
        comm.Alltoallv<Entry>(replies, stream_options);
    ++rounds;
    for (int j = 0; j < P; ++j) {
      MergeSamplesByPosition(&samples[j], fetched[j]);
    }
    const uint64_t next = bound();
    // A round that cannot shrink the widest window would repeat forever.
    DEMSORT_CHECK_LT(next, widest);
    widest = next;
  }

  // 3. Fetch the narrow windows [lo_j, hi_j) from their owners.
  std::vector<std::vector<WindowRequest>> incoming = request_windows();
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
  ++rounds;

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
  ++rounds;
  std::vector<std::vector<uint64_t>> result(P - 1);
  for (int t = 1; t < P; ++t) result[t - 1] = std::move(rows[t]);
  if (rounds_out != nullptr) *rounds_out += rounds;
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
