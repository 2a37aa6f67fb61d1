// Phase 1 of CANONICALMERGESORT (§IV): form R = ceil(N/M) globally sorted
// runs, each written back to the PEs' *local* disks (no striping — this is
// what makes the algorithm communication-minimal).
//
//  * Randomization: each PE shuffles its local input block IDs first, so
//    every run sees ≈ the global key distribution (the defence that turns
//    the worst case of Figs. 5/6 into Fig. 4).
//  * In-place: input blocks are freed as they are read; the sorted pieces
//    allocate from the free list, so disk usage stays ≈ the input footprint.
//  * Overlap: reads of run r+1 are issued before the cooperative sort of
//    run r starts, and writes of run r complete while run r+1 is sorted.
//  * Sampling: every K-th element of each written piece is recorded with its
//    exact run position — the selection bootstrap and prediction sequence.
#ifndef DEMSORT_CORE_RUN_FORMATION_H_
#define DEMSORT_CORE_RUN_FORMATION_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/block_io.h"
#include "core/checkpoint.h"
#include "core/config.h"
#include "core/internal_sort.h"
#include "core/local_input.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/run_index.h"
#include "core/sample_bounds.h"
#include "obs/trace.h"
#include "util/random.h"

namespace demsort::core {

template <typename R>
struct RunFormationResult {
  RunIndex<R> runs;        // this PE's pieces
  GlobalRunTable table;    // replicated
  SampleTable<R> samples;  // replicated
  uint64_t total_elements = 0;
};

template <typename R>
RunFormationResult<R> FormRuns(PeContext& ctx, const SortConfig& config,
                               const LocalInput& input,
                               PhaseStats* stats = nullptr) {
  net::Comm& comm = *ctx.comm;
  io::BlockManager* bm = ctx.bm;
  const size_t epb = config.ElementsPerBlock<R>();
  DEMSORT_CHECK_GT(epb, 0u);
  const size_t blocks_per_run =
      std::max<size_t>(1, config.ElementsPerPeMemory<R>() / epb);
  const size_t sample_k =
      config.sample_every_k == 0 ? epb : config.sample_every_k;

  // Per-block element counts (only the last input block may be partial).
  std::vector<std::pair<io::BlockId, size_t>> block_list;
  block_list.reserve(input.blocks.size());
  {
    uint64_t remaining = input.num_elements;
    for (size_t i = 0; i < input.blocks.size(); ++i) {
      size_t count = static_cast<size_t>(
          std::min<uint64_t>(epb, remaining));
      block_list.emplace_back(input.blocks[i], count);
      remaining -= count;
    }
    DEMSORT_CHECK_EQ(remaining, 0u);
  }
  if (config.randomize_blocks) {
    Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL *
                           (static_cast<uint64_t>(comm.rank()) + 1)));
    rng.Shuffle(block_list);
  }

  const uint64_t local_runs =
      (block_list.size() + blocks_per_run - 1) / blocks_per_run;
  const uint64_t num_runs =
      std::max<uint64_t>(1, comm.AllreduceMax<uint64_t>(local_runs));

  RunFormationResult<R> result;
  result.total_elements = comm.AllreduceSum<uint64_t>(input.num_elements);
  result.runs.pieces.resize(num_runs);
  result.samples.per_run.resize(num_runs);
  result.samples.sample_every_k = sample_k;

  // Pipeline state for overlapped operation.
  struct PendingRead {
    std::vector<AlignedBuffer> buffers;
    std::vector<io::Request> requests;
    std::vector<size_t> counts;
  };
  auto issue_reads = [&](uint64_t run) -> PendingRead {
    PendingRead pending;
    size_t begin = static_cast<size_t>(run) * blocks_per_run;
    size_t end = std::min(block_list.size(), begin + blocks_per_run);
    // Batch submission: every read of the run is enqueued before anything
    // waits, so the per-disk pumps run at their full queue depth.
    std::vector<std::pair<io::BlockId, void*>> ops;
    ops.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      pending.buffers.emplace_back(bm->block_size());
      ops.emplace_back(block_list[i].first, pending.buffers.back().data());
      pending.counts.push_back(block_list[i].second);
    }
    pending.requests = bm->ReadBatch(ops);
    return pending;
  };
  auto collect_read = [&](PendingRead& pending, uint64_t run) {
    // The read-wait span exposes the overlap win: with prefetch working,
    // this is near-zero for every run but the first.
    TRACE_SPAN1("run", "rf.read_wait", "run", run);
    size_t total = 0;
    for (size_t c : pending.counts) total += c;
    std::vector<R> data(total);
    size_t offset = 0;
    for (size_t i = 0; i < pending.requests.size(); ++i) {
      pending.requests[i].WaitOk();
      std::memcpy(data.data() + offset, pending.buffers[i].data(),
                  pending.counts[i] * sizeof(R));
      offset += pending.counts[i];
    }
    // In-place: return the consumed input blocks to the free list. Safe at
    // any queue depth: a block is freed only after its read COMPLETED, and
    // a write into a reused block is submitted only after the free — so the
    // two ops are never in flight together.
    size_t begin = static_cast<size_t>(run) * blocks_per_run;
    size_t end = std::min(block_list.size(), begin + blocks_per_run);
    for (size_t i = begin; i < end; ++i) bm->Free(block_list[i].first);
    return data;
  };

  std::vector<io::Request> pending_writes;
  std::vector<AlignedBuffer> write_buffers;  // kept alive across overlap

  PendingRead reads = issue_reads(0);
  for (uint64_t run = 0; run < num_runs; ++run) {
    std::vector<R> data = collect_read(reads, run);
    if (config.overlap_run_formation && run + 1 < num_runs) {
      reads = issue_reads(run + 1);
    }

    InternalSortResult<R> sorted;
    {
      TRACE_SPAN2("run", "rf.sort", "run", run, "elements", data.size());
      sorted = InternalParallelSort<R>(
          ctx, std::move(data), stats, config.StreamOptionsFor(sizeof(R)));
    }

    // Finish the previous run's writes before issuing new ones (two write
    // generations in flight at most — the paper's overlap scheme).
    {
      TRACE_SPAN1("run", "rf.write_drain", "run", run);
      io::WaitAllOk(pending_writes);
    }
    pending_writes.clear();
    write_buffers.clear();

    RunPiece<R>& piece = result.runs.pieces[run];
    piece.global_start = sorted.piece_start;
    piece.size = sorted.piece.size();
    size_t blocks_needed = (sorted.piece.size() + epb - 1) / epb;
    piece.blocks = bm->AllocateMany(blocks_needed);
    std::vector<std::pair<io::BlockId, const void*>> write_ops;
    write_ops.reserve(blocks_needed);
    for (size_t b = 0; b < blocks_needed; ++b) {
      size_t offset = b * epb;
      size_t count = std::min(epb, sorted.piece.size() - offset);
      write_buffers.emplace_back(bm->block_size());
      std::memcpy(write_buffers.back().data(), sorted.piece.data() + offset,
                  count * sizeof(R));
      // Zero the tail (partial last block, plus any block-size slack when
      // records do not divide the block): blocks are written full-size, and
      // uninitialized buffer bytes on disk would make the image
      // nondeterministic and trip MSAN.
      std::memset(write_buffers.back().data() + count * sizeof(R), 0,
                  bm->block_size() - count * sizeof(R));
      piece.block_first_records.push_back(sorted.piece[offset]);
      write_ops.emplace_back(piece.blocks[b], write_buffers.back().data());
    }
    for (io::Request& r : bm->WriteBatch(write_ops)) {
      pending_writes.push_back(std::move(r));
    }
    if (!config.overlap_run_formation) {
      {
        TRACE_SPAN1("run", "rf.write_drain", "run", run);
        io::WaitAllOk(pending_writes);
      }
      pending_writes.clear();
      write_buffers.clear();
    }

    // Sample every K-th element of the piece with exact run positions,
    // plus the closing element (exact tail counts for selection).
    auto& samples = result.samples.per_run[run];
    for (size_t idx = 0; idx < sorted.piece.size(); idx += sample_k) {
      samples.push_back(typename SampleTable<R>::Entry{
          sorted.piece[idx], piece.global_start + idx});
    }
    if (!sorted.piece.empty() && (sorted.piece.size() - 1) % sample_k != 0) {
      samples.push_back(typename SampleTable<R>::Entry{
          sorted.piece.back(),
          piece.global_start + sorted.piece.size() - 1});
    }
    if (!config.overlap_run_formation && run + 1 < num_runs) {
      reads = issue_reads(run + 1);
    }
  }
  {
    TRACE_SPAN("run", "rf.write_drain.final");
    io::WaitAllOk(pending_writes);
  }

  // Replicate piece boundaries: for each run, allgather piece sizes.
  result.table.piece_start.resize(num_runs);
  {
    std::vector<uint64_t> my_sizes(num_runs);
    for (uint64_t r = 0; r < num_runs; ++r) {
      my_sizes[r] = result.runs.pieces[r].size;
    }
    std::vector<std::vector<uint64_t>> all = comm.AllgatherV(my_sizes);
    for (uint64_t r = 0; r < num_runs; ++r) {
      auto& ps = result.table.piece_start[r];
      ps.assign(comm.size() + 1, 0);
      for (int p = 0; p < comm.size(); ++p) {
        ps[p + 1] = ps[p] + all[p][r];
      }
      DEMSORT_CHECK_EQ(result.runs.pieces[r].global_start,
                       ps[comm.rank()]);
    }
  }

  // Replicate the sample table (per run, merged in position order — pieces
  // are position-disjoint and the gather concatenates in PE order).
  // Streamed straight into the merged vector: no P per-source sample
  // payloads are materialized on the receive side.
  for (uint64_t r = 0; r < num_runs; ++r) {
    result.samples.per_run[r] = AllgatherConcatStreamed(
        comm, result.samples.per_run[r], config.StreamOptionsFor(1));
  }
  return result;
}

/// Checkpoint image of a completed phase 1: everything CANONICALMERGESORT
/// needs to re-enter phase 2 without touching the input — the local piece
/// addressing plus the replicated run table and sample table.
template <typename R>
void SaveRunFormation(ByteWriter& w, const RunFormationResult<R>& rf) {
  w.Pod<uint64_t>(rf.total_elements);
  w.Pod<uint64_t>(rf.samples.sample_every_k);
  w.Pod<uint64_t>(rf.runs.num_runs());
  for (const RunPiece<R>& piece : rf.runs.pieces) {
    w.Pod<uint64_t>(piece.global_start);
    w.Pod<uint64_t>(piece.size);
    SaveBlockIds(w, piece.blocks);
    w.PodVec(piece.block_first_records);
  }
  for (const auto& ps : rf.table.piece_start) w.PodVec(ps);
  for (const auto& samples : rf.samples.per_run) w.PodVec(samples);
}

template <typename R>
Status LoadRunFormation(ByteReader& r, int num_pes,
                        RunFormationResult<R>* rf) {
  DEMSORT_RETURN_IF_ERROR(r.Pod(&rf->total_elements));
  DEMSORT_RETURN_IF_ERROR(r.Pod(&rf->samples.sample_every_k));
  uint64_t num_runs = 0;
  DEMSORT_RETURN_IF_ERROR(r.Pod(&num_runs));
  rf->runs.pieces.resize(static_cast<size_t>(num_runs));
  for (RunPiece<R>& piece : rf->runs.pieces) {
    DEMSORT_RETURN_IF_ERROR(r.Pod(&piece.global_start));
    DEMSORT_RETURN_IF_ERROR(r.Pod(&piece.size));
    DEMSORT_RETURN_IF_ERROR(LoadBlockIds(r, &piece.blocks));
    DEMSORT_RETURN_IF_ERROR(r.PodVec(&piece.block_first_records));
  }
  rf->table.piece_start.resize(static_cast<size_t>(num_runs));
  for (auto& ps : rf->table.piece_start) {
    DEMSORT_RETURN_IF_ERROR(r.PodVec(&ps));
    if (ps.size() != static_cast<size_t>(num_pes) + 1) {
      return Status::InvalidArgument("run table row has wrong width");
    }
  }
  rf->samples.per_run.resize(static_cast<size_t>(num_runs));
  for (auto& samples : rf->samples.per_run) {
    DEMSORT_RETURN_IF_ERROR(r.PodVec(&samples));
  }
  return Status::OK();
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_RUN_FORMATION_H_
