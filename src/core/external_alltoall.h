// Phase 2b of CANONICALMERGESORT: the external all-to-all (§IV-C).
//
// Every PE ships, for every run, the slice of its local piece that belongs
// to other PEs' output ranges, and receives its own range's remote parts.
// Following the paper:
//  * the exchange is split into k memory-bounded sub-steps by logically
//    cutting every (run, receiver) range into k nearly equal parts;
//  * within a sub-step, data is assembled run-major ("consuming all the
//    participating data of run i before switching to run i+1"), one open
//    buffer per destination;
//  * the receiver keeps one open buffer block per (run, source) across
//    sub-steps — the RP' partial-block overhead of §IV-E — and finishes
//    with position-contiguous Extents per run;
//  * data that is already in place (source == destination) is *not* moved
//    or rewritten: the local slice becomes a zero-copy extent over the run
//    piece's blocks (the in-place fast path that makes random/randomized
//    inputs nearly free — Figs. 2, 4, 5);
//  * piece blocks not referenced by the local extent are freed at the end
//    of the sub-step that shipped their last record;
//  * a received block's buffer is released as soon as its disk write
//    completes, so receive memory holds only the writes still in flight.
//
// The exchange itself runs as a streaming collective (Comm::AlltoallvStream):
// within a sub-step, each destination's frames are packed (disk reads) and
// chunked onto the wire immediately — so the network transfer to
// destination t overlaps the disk reads for destination t+1 — and the
// receiver assembles frames chunk by chunk AS THEY LAND, bulk-copying each
// contiguous span into the open (run, source) block and issuing async disk
// writes mid-transfer. No per-source sub-step payload is ever materialized:
// receive-side memory is O(stream chunk x active sources), and unpack +
// disk writes overlap the remainder of the transfer. This is the in-phase
// communication/I/O overlap the paper engineers for, minus the RP'
// assembly copy of a staged payload.
#ifndef DEMSORT_CORE_EXTERNAL_ALLTOALL_H_
#define DEMSORT_CORE_EXTERNAL_ALLTOALL_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/external_selection.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/run_formation.h"
#include "core/run_index.h"
#include "net/transport.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"

namespace demsort::core {

template <typename R>
struct AllToAllResult {
  /// Per run, the extents (sorted by start_pos) that exactly tile this PE's
  /// output range of that run.
  std::vector<std::vector<Extent<R>>> extents_per_run;
  uint64_t my_begin_rank = 0;
  uint64_t my_end_rank = 0;
  uint64_t substeps = 0;
};

namespace internal {

struct A2AFrameHeader {
  uint32_t run;
  uint64_t start_pos;
  uint32_t count;
};

/// Receiver-side assembly of one (run, source) stream into an Extent. The
/// open block is filled byte-wise (streamed chunks split records and even
/// frame headers at arbitrary offsets), so the fill level is tracked in
/// bytes and the block's first record is extracted once its first
/// sizeof(R) bytes have landed.
template <typename R>
struct ExtentAssembly {
  Extent<R> extent;
  AlignedBuffer open;
  size_t open_bytes = 0;
  bool need_first_record = true;
  bool started = false;
};

/// Per-source parse state of one sub-step's frame stream: a frame header
/// or record may straddle chunk boundaries, so partial header bytes are
/// carried here and the open frame's remaining record bytes steer the bulk
/// copies.
template <typename R>
struct FrameCursor {
  uint8_t header_buf[sizeof(A2AFrameHeader)];
  size_t header_fill = 0;
  uint64_t frame_bytes_left = 0;
  ExtentAssembly<R>* open_assembly = nullptr;
};

}  // namespace internal

template <typename R>
AllToAllResult<R> ExternalAllToAll(PeContext& ctx, const SortConfig& config,
                                   RunFormationResult<R>& rf,
                                   const SplitterMatrix& split,
                                   PhaseStats* stats = nullptr) {
  using Header = internal::A2AFrameHeader;
  net::Comm& comm = *ctx.comm;
  io::BlockManager* bm = ctx.bm;
  const int P = comm.size();
  const int me = comm.rank();
  const size_t num_runs = rf.table.num_runs();
  const size_t epb = config.ElementsPerBlock<R>();
  const size_t bs = bm->block_size();

  AllToAllResult<R> result;
  result.extents_per_run.resize(num_runs);
  {
    uint64_t total = rf.total_elements;
    result.my_begin_rank =
        total / P * me + std::min<uint64_t>(total % P, me);
    result.my_end_rank =
        total / P * (me + 1) + std::min<uint64_t>(total % P, me + 1);
  }

  // ---- plan: send ranges per (run, target), receive volume, local extents.
  // send_range[j][t] = [a, b) within run j from my piece.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> send_range(
      num_runs, std::vector<std::pair<uint64_t, uint64_t>>(P, {0, 0}));
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;

  for (size_t j = 0; j < num_runs; ++j) {
    const RunPiece<R>& piece = rf.runs.pieces[j];
    uint64_t ps = piece.global_start;
    uint64_t pe_end = ps + piece.size;
    for (int t = 0; t < P; ++t) {
      uint64_t a = std::max<uint64_t>(split.boundary[t][j], ps);
      uint64_t b = std::min<uint64_t>(split.boundary[t + 1][j], pe_end);
      if (a >= b) continue;
      send_range[j][t] = {a, b};
      if (t != me) bytes_out += (b - a) * sizeof(R);
    }
    // Incoming: my range of run j minus what I already hold.
    uint64_t ra = split.boundary[me][j];
    uint64_t rb = split.boundary[me + 1][j];
    if (rb > ra) {
      uint64_t held_a = std::max(ra, ps);
      uint64_t held_b = std::min(rb, pe_end);
      uint64_t held = held_b > held_a ? held_b - held_a : 0;
      bytes_in += (rb - ra - held) * sizeof(R);
    }
  }

  // ---- local zero-copy extents + retained-block bookkeeping.
  std::vector<std::vector<uint8_t>> retained(num_runs);
  for (size_t j = 0; j < num_runs; ++j) {
    const RunPiece<R>& piece = rf.runs.pieces[j];
    retained[j].assign(piece.blocks.size(), 0);
    auto [a, b] = send_range[j][me];
    if (a >= b) continue;
    Extent<R> ext;
    ext.run = static_cast<uint32_t>(j);
    ext.start_pos = a;
    ext.count = b - a;
    uint64_t rel_a = a - piece.global_start;
    uint64_t rel_b = b - piece.global_start;  // exclusive
    size_t first_block = static_cast<size_t>(rel_a / epb);
    size_t last_block = static_cast<size_t>((rel_b - 1) / epb);
    ext.first_block_offset = rel_a % epb;
    for (size_t bi = first_block; bi <= last_block; ++bi) {
      ext.blocks.push_back(piece.blocks[bi]);
      ext.block_first_records.push_back(piece.block_first_records[bi]);
      retained[j][bi] = 1;
    }
    result.extents_per_run[j].push_back(std::move(ext));
  }

  // ---- choose k sub-steps, each shipping at most m bytes per PE.
  const uint64_t budget = config.memory_per_pe;
  uint64_t max_vol = comm.AllreduceMax<uint64_t>(std::max(bytes_out, bytes_in));
  uint64_t k = std::max<uint64_t>(1, (max_vol + budget - 1) / budget);
  result.substeps = k;

  // Sub-step s ships offsets [substep_cut(len, s), substep_cut(len, s + 1))
  // of every (run, destination) range of len records.
  auto substep_cut = [k](uint64_t len, uint64_t s) { return len * s / k; };

  // ---- the sub-step after which each shipped piece block is freed: the
  // last one that ships a record of it.
  std::vector<std::vector<io::BlockId>> free_after(k);
  for (size_t j = 0; j < num_runs; ++j) {
    const RunPiece<R>& piece = rf.runs.pieces[j];
    std::vector<uint64_t> last_substep(piece.blocks.size(), 0);
    for (int t = 0; t < P; ++t) {
      auto [a, b] = send_range[j][t];
      if (t == me || a >= b) continue;
      for (uint64_t s = 0; s < k; ++s) {
        const uint64_t from = a + substep_cut(b - a, s);
        const uint64_t to = a + substep_cut(b - a, s + 1);
        if (from == to) continue;
        for (uint64_t bi = (from - piece.global_start) / epb;
             bi <= (to - 1 - piece.global_start) / epb; ++bi) {
          last_substep[bi] = std::max(last_substep[bi], s);
        }
      }
    }
    for (size_t bi = 0; bi < piece.blocks.size(); ++bi) {
      if (retained[j][bi]) continue;
      free_after[last_substep[bi]].push_back(piece.blocks[bi]);
    }
  }

  // ---- receiver assembly state, one per (run, source).
  std::vector<std::vector<internal::ExtentAssembly<R>>> assembly(num_runs);
  for (size_t j = 0; j < num_runs; ++j) {
    assembly[j].resize(P);
  }
  // Received blocks whose writes are in flight, oldest first, each with the
  // buffer the write reads from.
  std::deque<std::pair<io::Request, AlignedBuffer>> pending;
  // Releases the buffers of the oldest writes that completed and returns
  // the newest of them for reuse (a fresh buffer if none completed).
  auto reap_writes = [&] {
    AlignedBuffer spare;
    while (!pending.empty() && pending.front().first.done()) {
      pending.front().first.WaitOk();
      spare = std::move(pending.front().second);
      pending.pop_front();
    }
    return spare.empty() ? AlignedBuffer(bs) : std::move(spare);
  };

  // ---- sub-steps, each a streaming exchange on the transport layer.
  const size_t block_payload_bytes = epb * sizeof(R);
  for (uint64_t s = 0; s < k; ++s) {
    // One cached block per run, persisting across destinations: within a
    // run, consecutive destinations' ranges are position-adjacent, so the
    // block straddling a destination boundary is still cached when the
    // next destination's fragment starts — every piece block is read at
    // most once per sub-step, same read volume as run-major packing.
    // The cache is FIFO-bounded by the sub-step budget so its memory
    // stays within the invariant the sub-stepping exists to enforce;
    // runs beyond the bound fall back to at most one boundary re-read
    // per destination (the regime where fragments ≪ block anyway).
    const size_t cache_cap =
        std::max<size_t>(1, static_cast<size_t>(budget / bs));
    std::vector<AlignedBuffer> run_buf(num_runs);
    std::vector<size_t> run_cached(num_runs, SIZE_MAX);
    std::deque<size_t> resident;
    auto read_elements = [&](const RunPiece<R>& piece, size_t j,
                             uint64_t from, uint64_t to, R* dst) {
      // [from, to) are run positions inside my piece. All blocks of the
      // fragment are submitted as ONE batch so the per-disk pumps run at
      // their queue depth; the last block lands in the per-run cache slot
      // (it may straddle the next destination's boundary), interior blocks
      // go through transient scratch buffers.
      const uint64_t rel_from = from - piece.global_start;
      const uint64_t rel_to = to - piece.global_start;  // exclusive
      const size_t first_bi = static_cast<size_t>(rel_from / epb);
      const size_t last_bi = static_cast<size_t>((rel_to - 1) / epb);
      auto copy_out = [&](const uint8_t* block_data, size_t bi) {
        uint64_t lo = std::max<uint64_t>(rel_from, uint64_t{bi} * epb);
        uint64_t hi = std::min<uint64_t>(rel_to, uint64_t{bi + 1} * epb);
        std::memcpy(dst + (lo - rel_from),
                    block_data + (lo - uint64_t{bi} * epb) * sizeof(R),
                    (hi - lo) * sizeof(R));
      };
      // Drain the cache hit first: its buffer may be the read target of the
      // new boundary block below.
      if (run_cached[j] >= first_bi && run_cached[j] <= last_bi) {
        copy_out(run_buf[j].data(), run_cached[j]);
      }
      const size_t cached_bi = run_cached[j];
      const bool read_last = last_bi != cached_bi;
      if (read_last && run_buf[j].data() == nullptr) {
        if (resident.size() >= cache_cap) {
          size_t evict = resident.front();
          resident.pop_front();
          run_buf[j] = std::move(run_buf[evict]);
          run_cached[evict] = SIZE_MAX;
        } else {
          run_buf[j] = AlignedBuffer(bs);
        }
        resident.push_back(j);
      }
      std::vector<AlignedBuffer> scratch;
      std::vector<std::pair<io::BlockId, void*>> ops;
      std::vector<size_t> ops_bi;
      for (size_t bi = first_bi; bi < last_bi; ++bi) {
        if (bi == cached_bi) continue;
        scratch.emplace_back(bs);
        ops.emplace_back(piece.blocks[bi], scratch.back().data());
        ops_bi.push_back(bi);
      }
      if (read_last) {
        ops.emplace_back(piece.blocks[last_bi], run_buf[j].data());
        ops_bi.push_back(last_bi);
      }
      std::vector<io::Request> reqs = bm->ReadBatch(ops);
      size_t si = 0;
      for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].WaitOk();
        const bool is_last = read_last && i + 1 == reqs.size();
        copy_out(is_last ? run_buf[j].data() : scratch[si++].data(),
                 ops_bi[i]);
      }
      if (read_last) run_cached[j] = last_bi;
    };

    // Packs one destination, run-major, on demand: AlltoallvStream calls
    // this in rank-rotated order and puts the frames on the wire in
    // bounded chunks immediately, so the transfer to destination t rides
    // alongside the disk reads for destination t+1. The local range is
    // never packed — it became zero-copy extents above.
    std::vector<uint8_t> outgoing;
    auto provide = [&](int t) -> std::span<const uint8_t> {
      outgoing.clear();
      if (t == me) return {};
      for (size_t j = 0; j < num_runs; ++j) {
        const RunPiece<R>& piece = rf.runs.pieces[j];
        auto [a, b] = send_range[j][t];
        if (a >= b) continue;
        uint64_t from = a + substep_cut(b - a, s);
        uint64_t to = a + substep_cut(b - a, s + 1);
        // Header::count is 32-bit; a fragment beyond 2^32-1 elements is
        // split into consecutive frames (the receiver's contiguity check
        // accepts them as one range) — the >2 GiB count-overflow class
        // the paper re-implemented MPI_Alltoallv to escape must not creep
        // back in at the frame layer.
        constexpr uint64_t kMaxFrameCount =
            std::numeric_limits<uint32_t>::max();
        for (uint64_t f = from; f < to;) {
          uint64_t n = std::min(to - f, kMaxFrameCount);
          Header header{static_cast<uint32_t>(j), f,
                        static_cast<uint32_t>(n)};
          size_t old = outgoing.size();
          outgoing.resize(old + sizeof(header) + n * sizeof(R));
          std::memcpy(outgoing.data() + old, &header, sizeof(header));
          read_elements(piece, j, f, f + n,
                        reinterpret_cast<R*>(outgoing.data() + old +
                                             sizeof(header)));
          f += n;
        }
      }
      return std::span<const uint8_t>(outgoing.data(), outgoing.size());
    };

    // Assembles frames chunk by chunk as they land: headers (which may
    // straddle chunks) open the per-(run, source) extent, record bytes go
    // into the open block in bulk contiguous spans, and full blocks are
    // written to disk asynchronously mid-transfer — the next chunks of
    // every source overlap this block's write.
    std::vector<internal::FrameCursor<R>> cursors(P);
    auto consume = [&](int src, std::span<const uint8_t> data, bool last) {
      (void)last;
      internal::FrameCursor<R>& cur = cursors[src];
      const uint8_t* p = data.data();
      size_t left = data.size();
      while (left > 0) {
        if (cur.frame_bytes_left == 0) {
          size_t take = std::min(left, sizeof(Header) - cur.header_fill);
          std::memcpy(cur.header_buf + cur.header_fill, p, take);
          cur.header_fill += take;
          p += take;
          left -= take;
          if (cur.header_fill < sizeof(Header)) break;
          Header header;
          std::memcpy(&header, cur.header_buf, sizeof(header));
          cur.header_fill = 0;
          auto& as = assembly[header.run][src];
          if (!as.started) {
            as.started = true;
            as.extent.run = header.run;
            as.extent.start_pos = header.start_pos;
            as.open = AlignedBuffer(bs);
          }
          DEMSORT_CHECK_EQ(header.start_pos,
                           as.extent.start_pos + as.extent.count)
              << "non-contiguous all-to-all frames";
          as.extent.count += header.count;
          cur.frame_bytes_left = uint64_t{header.count} * sizeof(R);
          cur.open_assembly = &as;
          continue;
        }
        auto& as = *cur.open_assembly;
        size_t take = static_cast<size_t>(std::min<uint64_t>(
            std::min<uint64_t>(left, cur.frame_bytes_left),
            block_payload_bytes - as.open_bytes));
        std::memcpy(as.open.data() + as.open_bytes, p, take);
        as.open_bytes += take;
        p += take;
        left -= take;
        cur.frame_bytes_left -= take;
        if (as.need_first_record && as.open_bytes >= sizeof(R)) {
          R first;
          std::memcpy(&first, as.open.data(), sizeof(R));
          as.extent.block_first_records.push_back(first);
          as.need_first_record = false;
        }
        if (as.open_bytes == block_payload_bytes) {
          io::BlockId id = bm->Allocate();
          as.extent.blocks.push_back(id);
          // The block may be larger than its record payload (bs need not be
          // a record multiple); zero the slack so no uninitialized buffer
          // bytes reach disk.
          std::memset(as.open.data() + as.open_bytes, 0, bs - as.open_bytes);
          pending.emplace_back(bm->WriteAsync(id, as.open.data()),
                               std::move(as.open));
          as.open = reap_writes();
          as.open_bytes = 0;
          as.need_first_record = true;
        }
      }
    };

    // Frames are a byte stream whose cursor handles any chunk boundary, so
    // alignment is 1 and the chunk need not be a record multiple.
    comm.AlltoallvStream(provide, consume, /*on_size=*/nullptr,
                         config.StreamOptionsFor(/*align_bytes=*/1));
    for (int src = 0; src < P; ++src) {
      DEMSORT_CHECK_EQ(cursors[src].header_fill, 0u)
          << "truncated all-to-all frame header from " << src;
      DEMSORT_CHECK_EQ(cursors[src].frame_bytes_left, 0u)
          << "truncated all-to-all frame from " << src;
    }
    // Every write of the sub-step completes within it.
    for (auto& [req, buf] : pending) req.WaitOk();
    pending.clear();
    for (const io::BlockId& id : free_after[s]) bm->Free(id);
  }

  // ---- flush the RP' partial tail blocks.
  for (size_t j = 0; j < num_runs; ++j) {
    for (int src = 0; src < P; ++src) {
      auto& as = assembly[j][src];
      if (!as.started) continue;
      if (as.open_bytes > 0) {
        io::BlockId id = bm->Allocate();
        as.extent.blocks.push_back(id);
        // Partial tail block: only open_bytes of it were filled from the
        // stream — zero the rest so the on-disk image is deterministic
        // (and MSAN-clean) instead of leaking uninitialized memory.
        std::memset(as.open.data() + as.open_bytes, 0, bs - as.open_bytes);
        bm->WriteSync(id, as.open.data());
      }
      result.extents_per_run[j].push_back(std::move(as.extent));
    }
  }

  // Ownership of the piece blocks moved to the extents, or they are freed.
  for (RunPiece<R>& piece : rf.runs.pieces) piece.blocks.clear();

  // ---- order extents and verify they tile my output ranges exactly.
  for (size_t j = 0; j < num_runs; ++j) {
    auto& extents = result.extents_per_run[j];
    std::sort(extents.begin(), extents.end(),
              [](const Extent<R>& a, const Extent<R>& b) {
                return a.start_pos < b.start_pos;
              });
    uint64_t expect = split.boundary[me][j];
    for (const Extent<R>& e : extents) {
      DEMSORT_CHECK_EQ(e.start_pos, expect) << "extent gap in run " << j;
      expect += e.count;
    }
    DEMSORT_CHECK_EQ(expect, split.boundary[me + 1][j])
        << "extents do not cover run " << j;
  }
  if (stats != nullptr) {
    // substeps recorded via result; element counts visible in io/net stats.
  }
  return result;
}

/// Checkpoint image of a completed phase 3: the per-run extent chains the
/// final merge consumes, plus this PE's output rank window.
template <typename R>
void SaveAllToAll(ByteWriter& w, const AllToAllResult<R>& a2a) {
  w.Pod<uint64_t>(a2a.my_begin_rank);
  w.Pod<uint64_t>(a2a.my_end_rank);
  w.Pod<uint64_t>(a2a.substeps);
  w.Pod<uint64_t>(a2a.extents_per_run.size());
  for (const auto& extents : a2a.extents_per_run) {
    w.Pod<uint64_t>(extents.size());
    for (const Extent<R>& e : extents) {
      w.Pod<uint32_t>(e.run);
      w.Pod<uint64_t>(e.start_pos);
      w.Pod<uint64_t>(e.count);
      w.Pod<uint64_t>(e.first_block_offset);
      SaveBlockIds(w, e.blocks);
      w.PodVec(e.block_first_records);
    }
  }
}

template <typename R>
Status LoadAllToAll(ByteReader& r, AllToAllResult<R>* a2a) {
  DEMSORT_RETURN_IF_ERROR(r.Pod(&a2a->my_begin_rank));
  DEMSORT_RETURN_IF_ERROR(r.Pod(&a2a->my_end_rank));
  DEMSORT_RETURN_IF_ERROR(r.Pod(&a2a->substeps));
  uint64_t num_runs = 0;
  DEMSORT_RETURN_IF_ERROR(r.Pod(&num_runs));
  a2a->extents_per_run.resize(static_cast<size_t>(num_runs));
  for (auto& extents : a2a->extents_per_run) {
    uint64_t n = 0;
    DEMSORT_RETURN_IF_ERROR(r.Pod(&n));
    extents.resize(static_cast<size_t>(n));
    for (Extent<R>& e : extents) {
      DEMSORT_RETURN_IF_ERROR(r.Pod(&e.run));
      DEMSORT_RETURN_IF_ERROR(r.Pod(&e.start_pos));
      DEMSORT_RETURN_IF_ERROR(r.Pod(&e.count));
      DEMSORT_RETURN_IF_ERROR(r.Pod(&e.first_block_offset));
      DEMSORT_RETURN_IF_ERROR(LoadBlockIds(r, &e.blocks));
      DEMSORT_RETURN_IF_ERROR(r.PodVec(&e.block_first_records));
    }
  }
  return Status::OK();
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_EXTERNAL_ALLTOALL_H_
