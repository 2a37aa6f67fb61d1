// Phase 1 of CANONICALMERGESORT (§IV): form R = ceil(N/M) globally sorted
// runs, each written back to the PEs' *local* disks (no striping — this is
// what makes the algorithm communication-minimal), except the runs still in
// memory when the phase ends (see "Tail runs").
//
//  * Randomization: each PE shuffles its local input block IDs first, so
//    every run sees ≈ the global key distribution (the defence that turns
//    the worst case of Figs. 5/6 into Fig. 4).
//  * In-place, on disk: input blocks are freed as they are read; the
//    sorted pieces allocate from the free list, so disk usage stays ≈ the
//    input footprint.
//  * In-place, in memory: each run is read straight into a run buffer of
//    m/B blocks, sorted there (the receive buffer is the local sort's
//    scratch), exchanged into the receive buffer at offsets from the
//    replicated split matrix, merged back into the run buffer at block
//    stride and written from it. No staging copy, and no allocation per run
//    or per block: the buffers are allocated once per sort. Per PE that is
//    3 run buffers plus 1 receive buffer, about 4·m (2·m without overlap).
//  * Overlap: the run buffers rotate (run r uses buffer r mod 3). Reads of
//    run r+1 are issued into the next buffer before the cooperative sort of
//    run r starts, and run r's writes stay in flight across run r+1's
//    sort. A buffer's writes are drained only right before it is read into
//    again, and once at the end of FormRuns.
//  * Tail runs: the last K = min(#run buffers, R) runs (3, or 1 without
//    overlap) sit in buffers no later run reads into, so they are not
//    written. Their buffers go to the BlockManager, which keeps the blocks
//    in memory under their ids (BlockManager::Keep): phases 2-4 read them
//    through the same calls at no I/O cost, and each block's memory goes
//    back as it is freed. I/O volume is 4N - 2·K·N/R + o(N), and phase 1's
//    buffers carry into phases 2-4, shrinking as those consume the blocks.
//    A checkpoint's FlushAll writes the kept blocks to disk first.
//  * Sampling: the first record of each block of each piece, and the
//    piece's closing record, are recorded with their exact run positions:
//    one sample per block (App. B), the selection bootstrap.
#ifndef DEMSORT_CORE_RUN_FORMATION_H_
#define DEMSORT_CORE_RUN_FORMATION_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/internal_sort.h"
#include "core/local_input.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/run_index.h"
#include "core/sample_bounds.h"
#include "obs/trace.h"
#include "util/aligned_buffer.h"
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

  // Run r lives in run_buffers[r % size] (see "In-place, in memory" and
  // "Overlap" above); `recv` is the sort's scratch and landing buffer.
  struct RunBuffer {
    AlignedBuffer bytes;
    std::vector<io::Request> reads;
    std::vector<io::Request> writes;
  };
  const size_t bs = bm->block_size();
  const size_t run_capacity = blocks_per_run * epb;
  std::vector<RunBuffer> run_buffers(static_cast<size_t>(
      std::min<uint64_t>(num_runs, config.overlap_run_formation ? 3 : 1)));
  for (RunBuffer& buf : run_buffers) {
    buf.bytes = AlignedBuffer(blocks_per_run * bs);
  }
  AlignedBuffer recv(run_capacity * sizeof(R));
  const std::span<R> recv_records(reinterpret_cast<R*>(recv.data()),
                                  run_capacity);

  auto buffer_of = [&](uint64_t run) -> RunBuffer& {
    return run_buffers[run % run_buffers.size()];
  };
  auto blocks_of = [&](uint64_t run) {
    size_t begin = std::min(block_list.size(),
                            static_cast<size_t>(run) * blocks_per_run);
    return std::pair{begin, std::min(block_list.size(),
                                     begin + blocks_per_run)};
  };
  auto issue_reads = [&](uint64_t run) {
    RunBuffer& buf = buffer_of(run);
    if (!buf.writes.empty()) {
      TRACE_SPAN1("run", "rf.write_drain", "run", run);
      io::WaitAllOk(buf.writes);
      buf.writes.clear();
    }
    // Batch submission: every read of the run is enqueued before anything
    // waits, so the per-disk pumps run at their full queue depth. Block i
    // of the run lands at offset i*B of its buffer.
    TRACE_SPAN1("run", "rf.read_issue", "run", run);
    auto [begin, end] = blocks_of(run);
    std::vector<std::pair<io::BlockId, void*>> ops;
    ops.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      ops.emplace_back(block_list[i].first,
                       buf.bytes.data() + (i - begin) * bs);
    }
    buf.reads = bm->ReadBatch(ops);
  };
  // Waits for the run's reads and returns its record count.
  auto collect_reads = [&](uint64_t run) {
    RunBuffer& buf = buffer_of(run);
    {
      // The read-wait span exposes the overlap win: with prefetch working,
      // this is near-zero for every run but the first.
      TRACE_SPAN1("run", "rf.read_wait", "run", run);
      io::WaitAllOk(buf.reads);
    }
    buf.reads.clear();
    // In-place: return the consumed input blocks to the free list. Safe at
    // any queue depth: a block is freed only after its read COMPLETED, and
    // a write into a reused block is submitted only after the free — so the
    // two ops are never in flight together.
    auto [begin, end] = blocks_of(run);
    size_t n = 0;
    for (size_t i = begin; i < end; ++i) {
      bm->Free(block_list[i].first);
      n += block_list[i].second;
    }
    return n;
  };

  issue_reads(0);
  for (uint64_t run = 0; run < num_runs; ++run) {
    RunBuffer& buf = buffer_of(run);
    uint8_t* const base = buf.bytes.data();
    const std::span<R> records(reinterpret_cast<R*>(base), run_capacity);
    const size_t n = collect_reads(run);
    if (config.overlap_run_formation && run + 1 < num_runs) {
      issue_reads(run + 1);
    }

    SortedPiece sorted;
    {
      TRACE_SPAN2("run", "rf.sort", "run", run, "elements", n);
      // Records to the front of the buffer: drops the block slack of
      // records that do not divide B, and the gap a partial input block
      // leaves mid-run. Moves nothing for full blocks without slack.
      auto [begin, end] = blocks_of(run);
      size_t packed = 0;
      for (size_t i = begin; i < end; ++i) {
        const uint8_t* from = base + (i - begin) * bs;
        R* to = records.data() + packed;
        if (from != reinterpret_cast<const uint8_t*>(to)) {
          std::memmove(to, from, block_list[i].second * sizeof(R));
        }
        packed += block_list[i].second;
      }
      sorted = InternalParallelSort<R>(ctx, records.first(n), recv_records,
                                       records, stats,
                                       config.StreamOptionsFor(sizeof(R)));
    }

    RunPiece<R>& piece = result.runs.pieces[run];
    piece.global_start = sorted.piece_start;
    piece.size = sorted.piece_size;
    const size_t num_blocks = (piece.size + epb - 1) / epb;
    {
      TRACE_SPAN1("run", "rf.pack", "run", run);
      // Each block's first record is its index entry and a sample; the
      // closing record is sampled too (exact tail counts for selection).
      auto& samples = result.samples.per_run[run];
      piece.block_first_records.reserve(num_blocks);
      for (size_t b = 0; b < num_blocks; ++b) {
        piece.block_first_records.push_back(records[b * epb]);
        SampleTable<R>::Append(samples, records[b * epb],
                               piece.global_start + b * epb);
      }
      if (piece.size > 0 && (piece.size - 1) % epb != 0) {
        SampleTable<R>::Append(samples, records[piece.size - 1],
                               piece.global_start + piece.size - 1);
      }
      // Lay the merged piece out at block stride, last block first (a
      // block's records only move up, past every earlier block's), and
      // zero each tail: the partial last block, plus any block-size slack.
      // Blocks are written full-size, and uninitialized or stale bytes on
      // disk would make the image nondeterministic and trip MSAN.
      for (size_t b = num_blocks; b-- > 0;) {
        const size_t count = std::min<size_t>(epb, piece.size - b * epb);
        uint8_t* block = base + b * bs;
        const R* from = records.data() + b * epb;
        if (reinterpret_cast<const uint8_t*>(from) != block) {
          std::memmove(block, from, count * sizeof(R));
        }
        std::memset(block + count * sizeof(R), 0, bs - count * sizeof(R));
      }
    }
    {
      TRACE_SPAN1("run", "rf.write_issue", "run", run);
      piece.blocks = bm->AllocateMany(num_blocks);
      if (run + run_buffers.size() >= num_runs) {
        // A tail run: no later run reads into this buffer.
        bm->Keep(piece.blocks, std::move(buf.bytes));
      } else {
        std::vector<std::pair<io::BlockId, const void*>> ops;
        ops.reserve(num_blocks);
        for (size_t b = 0; b < num_blocks; ++b) {
          ops.emplace_back(piece.blocks[b], base + b * bs);
        }
        buf.writes = bm->WriteBatch(ops);
      }
    }
    if (!config.overlap_run_formation) {
      {
        TRACE_SPAN1("run", "rf.write_drain", "run", run);
        io::WaitAllOk(buf.writes);
      }
      buf.writes.clear();
      if (run + 1 < num_runs) issue_reads(run + 1);
    }
  }
  {
    TRACE_SPAN("run", "rf.write_drain.final");
    for (RunBuffer& buf : run_buffers) io::WaitAllOk(buf.writes);
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
