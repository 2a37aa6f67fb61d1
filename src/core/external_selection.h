// Phase 2a of CANONICALMERGESORT (§IV-A, Appendix B): every PE i finds, for
// each of the R disk-resident sorted runs, the exact position of global rank
// r_i = i*N/P — the splitters that give PE i precisely the elements of ranks
// [i*N/P, (i+1)*N/P) under the (key, run, position) total order.
//
// Implementation follows the paper's optimized variant:
//  * The in-memory sample (one element per block of each run, kept with
//    exact run positions, replicated after run formation) bootstraps per-run
//    bounds without any I/O: a pivot's global rank is bracketed by sample
//    counts, and decisive brackets tighten the bounds exactly as the pivot
//    loop of par::MultiwaySelect does.
//  * Exact refinement runs the same pivot loop with exact counts; counts
//    touch at most the one or two blocks per run the sample leaves
//    uncertain. Blocks are fetched from their owner PEs in BSP rounds,
//    pipelined over the nonblocking transport (requests out, each peer's
//    frames served from local disk and Isent as they are packed, incoming
//    frames ingested as they land) and kept in a bounded cache, so repeated
//    probes are free ("we cache the most recently accessed disk blocks").
// All P selections proceed simultaneously, one per PE, sharing the fetch
// rounds; convergence is detected with an allreduce.
#ifndef DEMSORT_CORE_EXTERNAL_SELECTION_H_
#define DEMSORT_CORE_EXTERNAL_SELECTION_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "core/run_formation.h"
#include "core/run_index.h"
#include "net/transport.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"

namespace demsort::core {

/// boundary[t][r]: position in run r where PE t's output data begins;
/// boundary[P][r] is the run length. Replicated on all PEs.
struct SplitterMatrix {
  std::vector<std::vector<uint64_t>> boundary;

  int num_pes() const { return static_cast<int>(boundary.size()) - 1; }
  size_t num_runs() const { return boundary.empty() ? 0 : boundary[0].size(); }
};

template <typename R>
class ExternalSelector {
 public:
  using Less = typename RecordTraits<R>::Less;
  /// Capacity floor, in blocks, of the cache of fetched blocks (§IV-A "we
  /// cache the most recently accessed disk blocks").
  static constexpr size_t kMinCacheBlocks = 64;

  ExternalSelector(PeContext& ctx, const SortConfig& config,
                   const RunFormationResult<R>& rf)
      : ctx_(ctx),
        config_(config),
        rf_(rf),
        epb_(config.ElementsPerBlock<R>()),
        num_runs_(rf.table.num_runs()),
        // A pivot evaluation walks, per run, a deterministic binary-search
        // probe path of <= log2(window/B) + 2 blocks that must stay
        // resident simultaneously for the walk to complete; size the cache
        // so eviction can never livelock it (26 covers windows up to 2^24
        // blocks).
        cache_capacity_(std::max<size_t>(kMinCacheBlocks,
                                         26 * rf.table.num_runs() + 8)) {}

  /// Collective: every PE calls this once; PE i selects rank
  /// r_i = i*N/P (+remainder spread). Returns the full splitter matrix.
  SplitterMatrix SelectAllCollective(PhaseStats* stats) {
    net::Comm& comm = *ctx_.comm;
    const int P = comm.size();
    const uint64_t total = rf_.total_elements;
    const int me = comm.rank();
    uint64_t my_target =
        total / P * me + std::min<uint64_t>(total % P, me);

    std::vector<uint64_t> my_row = SelectCollective(my_target, stats);
    return GatherSplitterMatrix(my_row);
  }

  /// Collective: replicates every PE's boundary row into the full matrix
  /// through the streaming allgather — row chunks land directly in the
  /// matrix as they arrive, so the exchange never materializes P row
  /// payloads on the receive side (buffering stays at the streaming bound
  /// of O(credits x chunk x sources) however many runs there are). Public
  /// as its own step so the peak-buffer regression test can measure it in
  /// isolation from the block-fetch rounds.
  SplitterMatrix GatherSplitterMatrix(const std::vector<uint64_t>& my_row) {
    net::Comm& comm = *ctx_.comm;
    const int P = comm.size();
    DEMSORT_CHECK_EQ(my_row.size(), num_runs_);
    SplitterMatrix split;
    split.boundary.assign(P + 1, std::vector<uint64_t>());
    std::vector<size_t> filled(P, 0);
    comm.AllgatherVStream(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(my_row.data()),
            my_row.size() * sizeof(uint64_t)),
        [&](int src, std::span<const uint8_t> chunk, bool) {
          DEMSORT_CHECK_EQ(chunk.size() % sizeof(uint64_t), 0u);
          if (chunk.empty()) return;  // empty row: data() may be null
          std::memcpy(split.boundary[src].data() + filled[src], chunk.data(),
                      chunk.size());
          filled[src] += chunk.size() / sizeof(uint64_t);
        },
        [&](int src, uint64_t bytes) {
          DEMSORT_CHECK_EQ(bytes, num_runs_ * sizeof(uint64_t));
          split.boundary[src].resize(num_runs_);
        },
        config_.StreamOptionsFor(sizeof(uint64_t)));
    std::vector<uint64_t> lengths(num_runs_);
    for (size_t r = 0; r < num_runs_; ++r) {
      lengths[r] = rf_.table.RunLength(r);
    }
    split.boundary[P] = std::move(lengths);
    return split;
  }

  /// Collective: all PEs must call with their own target ranks.
  std::vector<uint64_t> SelectCollective(uint64_t target, PhaseStats* stats) {
    net::Comm& comm = *ctx_.comm;
    const int P = comm.size();

    lo_.assign(num_runs_, 0);
    hi_.resize(num_runs_);
    for (size_t r = 0; r < num_runs_; ++r) hi_[r] = rf_.table.RunLength(r);
    target_ = target;

    Bootstrap();

    std::set<BlockKey> needed;
    bool done = TryAdvance(&needed);
    uint64_t rounds = 0;
    while (true) {
      bool all_done = comm.AllreduceAnd(done);
      if (all_done) break;
      ++rounds;

      // Fetch round, pipelined on the nonblocking layer: my block requests
      // go out per owner, each peer's requests are served (local disk
      // reads) and the frames Isent the moment they are packed — so one
      // peer's frames cross the network while the next peer's blocks are
      // still being read — and incoming frames are ingested as they land.
      // My own blocks are served locally without touching the transport.
      const int me = comm.rank();
      int req_tag = comm.AllocateCollectiveTag();
      int frame_tag = comm.AllocateCollectiveTag();
      std::vector<std::vector<ReqEntry>> requests(P);
      for (const BlockKey& key : needed) {
        int owner = rf_.table.FindOwner(key.run, key.start_pos);
        requests[owner].push_back(ReqEntry{key.run, key.start_pos});
      }

      std::vector<net::RecvRequest> req_recvs(P), frame_recvs(P);
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        frame_recvs[src] = comm.Irecv(src, frame_tag);
        req_recvs[src] = comm.Irecv(src, req_tag);
      }
      std::vector<net::SendRequest> sends;
      sends.reserve(2 * (P - 1));
      for (int off = 1; off < P; ++off) {
        int owner = (me + off) % P;
        sends.push_back(comm.Isend(
            owner, req_tag, requests[owner].data(),
            requests[owner].size() * sizeof(ReqEntry)));
      }
      {
        std::vector<uint8_t> local_frames;
        for (const ReqEntry& req : requests[me]) {
          AppendBlockFrame(req, &local_frames);
        }
        IngestFrames(local_frames);
      }
      std::vector<uint8_t> response;
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        std::vector<uint8_t> bytes = req_recvs[src].Take();
        DEMSORT_CHECK_EQ(bytes.size() % sizeof(ReqEntry), 0u);
        response.clear();
        const ReqEntry* entries =
            reinterpret_cast<const ReqEntry*>(bytes.data());
        size_t count = bytes.size() / sizeof(ReqEntry);
        for (size_t i = 0; i < count; ++i) {
          AppendBlockFrame(entries[i], &response);
        }
        sends.push_back(
            comm.Isend(src, frame_tag, response.data(), response.size()));
      }
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        IngestFrames(frame_recvs[src].Take());
      }
      for (net::SendRequest& sr : sends) sr.Wait();

      needed.clear();
      if (!done) done = TryAdvance(&needed);
    }
    if (stats != nullptr) stats->selection_rounds += rounds;

    uint64_t sum = 0;
    for (size_t r = 0; r < num_runs_; ++r) sum += lo_[r];
    DEMSORT_CHECK_EQ(sum, target_) << "external selection drift";
    return lo_;
  }

 private:
  struct BlockKey {
    uint32_t run;
    uint64_t start_pos;
    bool operator<(const BlockKey& o) const {
      return run != o.run ? run < o.run : start_pos < o.start_pos;
    }
  };
  struct ReqEntry {
    uint32_t run;
    uint64_t start_pos;
  };
  static_assert(std::is_trivially_copyable_v<ReqEntry>);
  struct FrameHeader {
    uint32_t run;
    uint64_t start_pos;
    uint32_t count;
  };

  // ---------------------------------------------------------- sampling --
  /// True if sample/element `rec` of run `i` precedes pivot (xrec, jx) in
  /// the (key, run) total order (positions never compared across runs).
  bool PrecedesPivot(const R& rec, size_t i, const R& xrec, size_t jx) const {
    if (less_(rec, xrec)) return true;
    if (less_(xrec, rec)) return false;
    return i < jx;
  }

  /// Bracket of count(run i elements preceding pivot) from run i's samples.
  void SampleBounds(size_t i, const R& xrec, size_t jx, uint64_t* c_lo,
                    uint64_t* c_hi) const {
    const auto& samples = rf_.samples.per_run[i];
    // First sample NOT preceding the pivot.
    size_t si =
        std::partition_point(samples.begin(), samples.end(),
                             [&](const auto& s) {
                               return PrecedesPivot(s.record, i, xrec, jx);
                             }) -
        samples.begin();
    *c_lo = si == 0 ? 0 : samples[si - 1].pos + 1;
    *c_hi = si == samples.size() ? rf_.table.RunLength(i) : samples[si].pos;
    DEMSORT_CHECK_LE(*c_lo, *c_hi + 0);  // c_lo <= c_hi always holds here:
    // samples are in position==key order, adjacent samples bracket the run.
  }

  /// Sample-only pivot rounds: tighten [lo, hi] for free until fixpoint.
  void Bootstrap() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t j = 0; j < num_runs_; ++j) {
        if (lo_[j] >= hi_[j]) continue;
        const auto& samples = rf_.samples.per_run[j];
        if (samples.empty()) continue;
        uint64_t mid = lo_[j] + (hi_[j] - lo_[j]) / 2;
        // Sample of run j nearest below/at mid.
        size_t si = std::partition_point(samples.begin(), samples.end(),
                                         [&](const auto& s) {
                                           return s.pos <= mid;
                                         }) -
                    samples.begin();
        if (si == 0) continue;
        const auto& pivot = samples[si - 1];
        uint64_t rank_lo = 0, rank_hi = 0;
        for (size_t i = 0; i < num_runs_; ++i) {
          if (i == j) {
            rank_lo += pivot.pos;
            rank_hi += pivot.pos;
            continue;
          }
          uint64_t c_lo, c_hi;
          SampleBounds(i, pivot.record, j, &c_lo, &c_hi);
          rank_lo += c_lo;
          rank_hi += c_hi;
        }
        if (rank_hi < target_) {
          // Pivot definitely precedes the boundary element.
          for (size_t i = 0; i < num_runs_; ++i) {
            if (i == j) continue;
            uint64_t c_lo, c_hi;
            SampleBounds(i, pivot.record, j, &c_lo, &c_hi);
            if (c_lo > lo_[i]) {
              lo_[i] = c_lo;
              changed = true;
            }
          }
          if (pivot.pos + 1 > lo_[j]) {
            lo_[j] = pivot.pos + 1;
            changed = true;
          }
        } else if (rank_lo > target_) {
          for (size_t i = 0; i < num_runs_; ++i) {
            if (i == j) continue;
            uint64_t c_lo, c_hi;
            SampleBounds(i, pivot.record, j, &c_lo, &c_hi);
            if (c_hi < hi_[i]) {
              hi_[i] = c_hi;
              changed = true;
            }
          }
          if (pivot.pos < hi_[j]) {
            hi_[j] = pivot.pos;
            changed = true;
          }
        }
      }
    }
  }

  // ------------------------------------------------------ block access --
  /// Block (aligned to the owner piece's layout) containing position `pos`
  /// of `run`.
  BlockKey BlockContaining(uint32_t run, uint64_t pos) const {
    int owner = rf_.table.FindOwner(run, pos);
    uint64_t pstart = rf_.table.piece_start[run][owner];
    uint64_t rel = pos - pstart;
    return BlockKey{run, pstart + rel / epb_ * epb_};
  }

  const std::vector<R>* CacheLookup(const BlockKey& key) const {
    auto it = cache_.find(key);
    return it == cache_.end() ? nullptr : &it->second;
  }

  void CacheInsert(const BlockKey& key, std::vector<R> records) {
    if (cache_.count(key) > 0) return;
    cache_.emplace(key, std::move(records));
    cache_fifo_.push_back(key);
    while (cache_fifo_.size() > cache_capacity_) {
      cache_.erase(cache_fifo_.front());
      cache_fifo_.pop_front();
    }
  }

  /// Serve a request for one of *my* piece blocks from local disk.
  void AppendBlockFrame(const ReqEntry& req, std::vector<uint8_t>* out) {
    const RunPiece<R>& piece = rf_.runs.pieces[req.run];
    DEMSORT_CHECK_GE(req.start_pos, piece.global_start);
    uint64_t rel = req.start_pos - piece.global_start;
    DEMSORT_CHECK_EQ(rel % epb_, 0u);
    size_t block_index = static_cast<size_t>(rel / epb_);
    DEMSORT_CHECK_LT(block_index, piece.blocks.size());
    size_t count =
        static_cast<size_t>(std::min<uint64_t>(epb_, piece.size - rel));
    // FrameHeader::count is 32-bit; a block never holds that many records
    // today, but a silent truncation here would corrupt the fetch protocol
    // — the same overflow class the paper re-implemented MPI_Alltoallv to
    // escape. Fail loudly at the pack site.
    DEMSORT_CHECK_LE(count, uint64_t{std::numeric_limits<uint32_t>::max()})
        << "selection frame count overflows the 32-bit header";

    AlignedBuffer buffer(ctx_.bm->block_size());
    ctx_.bm->ReadSync(piece.blocks[block_index], buffer.data());

    FrameHeader header{req.run, req.start_pos, static_cast<uint32_t>(count)};
    size_t old = out->size();
    out->resize(old + sizeof(header) + count * sizeof(R));
    std::memcpy(out->data() + old, &header, sizeof(header));
    std::memcpy(out->data() + old + sizeof(header), buffer.data(),
                count * sizeof(R));
  }

  void IngestFrames(const std::vector<uint8_t>& frames) {
    size_t offset = 0;
    while (offset < frames.size()) {
      FrameHeader header;
      std::memcpy(&header, frames.data() + offset, sizeof(header));
      offset += sizeof(header);
      std::vector<R> records(header.count);
      std::memcpy(records.data(), frames.data() + offset,
                  header.count * sizeof(R));
      offset += header.count * sizeof(R);
      CacheInsert(BlockKey{header.run, header.start_pos},
                  std::move(records));
    }
    DEMSORT_CHECK_EQ(offset, frames.size());
  }

  /// Exact count of run-i elements preceding pivot (xrec from run jx at pos
  /// xpos), or nullopt with the next missing probe block added to `needed`.
  /// Binary search over the sample-bracketed window touches only
  /// O(log(window/B)) blocks — the probe path is deterministic, so repeated
  /// calls across fetch rounds walk the same (now cached) prefix and extend
  /// it by the freshly delivered block.
  std::optional<uint64_t> ExactCount(size_t i, const R& xrec, size_t jx,
                                     uint64_t xpos,
                                     std::set<BlockKey>* needed) {
    if (i == jx) return xpos;
    uint64_t c_lo, c_hi;
    SampleBounds(i, xrec, jx, &c_lo, &c_hi);
    uint64_t lo = c_lo, hi = c_hi;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      BlockKey key = BlockContaining(static_cast<uint32_t>(i), mid);
      const std::vector<R>* block = CacheLookup(key);
      if (block == nullptr) {
        needed->insert(key);
        return std::nullopt;
      }
      const R& rec = (*block)[mid - key.start_pos];
      if (PrecedesPivot(rec, i, xrec, jx)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Advances the pivot loop as far as the cache allows. Returns true when
  /// converged; otherwise `needed` holds the blocks to fetch next round.
  bool TryAdvance(std::set<BlockKey>* needed) {
    while (true) {
      // Pick the run with the widest open range as pivot source.
      size_t jp = num_runs_;
      uint64_t widest = 0;
      for (size_t j = 0; j < num_runs_; ++j) {
        if (hi_[j] > lo_[j] && hi_[j] - lo_[j] > widest) {
          widest = hi_[j] - lo_[j];
          jp = j;
        }
      }
      if (jp == num_runs_) return true;  // converged
      uint64_t mid = lo_[jp] + (hi_[jp] - lo_[jp]) / 2;

      BlockKey pivot_key = BlockContaining(static_cast<uint32_t>(jp), mid);
      const std::vector<R>* pivot_block = CacheLookup(pivot_key);
      if (pivot_block == nullptr) {
        needed->insert(pivot_key);
        return false;
      }
      const R xrec = (*pivot_block)[mid - pivot_key.start_pos];

      uint64_t pivot_rank = 0;
      std::vector<uint64_t> counts(num_runs_);
      bool blocked = false;
      for (size_t i = 0; i < num_runs_; ++i) {
        std::optional<uint64_t> c = ExactCount(i, xrec, jp, mid, needed);
        if (!c.has_value()) {
          blocked = true;
          continue;
        }
        counts[i] = *c;
        pivot_rank += *c;
      }
      if (blocked) return false;

      if (pivot_rank == target_) {
        for (size_t i = 0; i < num_runs_; ++i) {
          lo_[i] = counts[i];
          hi_[i] = counts[i];
        }
        return true;
      }
      if (pivot_rank < target_) {
        for (size_t i = 0; i < num_runs_; ++i) {
          lo_[i] = std::max(lo_[i], counts[i]);
        }
        lo_[jp] = std::max(lo_[jp], mid + 1);
      } else {
        for (size_t i = 0; i < num_runs_; ++i) {
          hi_[i] = std::min(hi_[i], counts[i]);
        }
        hi_[jp] = std::min(hi_[jp], mid);
      }
    }
  }

  PeContext& ctx_;
  const SortConfig& config_;
  const RunFormationResult<R>& rf_;
  const size_t epb_;
  const size_t num_runs_;
  const size_t cache_capacity_;
  Less less_;

  uint64_t target_ = 0;
  std::vector<uint64_t> lo_;
  std::vector<uint64_t> hi_;

  std::map<BlockKey, std::vector<R>> cache_;
  std::deque<BlockKey> cache_fifo_;
};

/// Checkpoint image of a completed phase 2: the replicated splitter matrix
/// is the ONLY selection output the rest of the pipeline consumes.
inline void SaveSplitterMatrix(ByteWriter& w, const SplitterMatrix& split) {
  w.Pod<uint64_t>(split.boundary.size());
  for (const auto& row : split.boundary) w.PodVec(row);
}

inline Status LoadSplitterMatrix(ByteReader& r, int num_pes,
                                 SplitterMatrix* split) {
  uint64_t rows = 0;
  DEMSORT_RETURN_IF_ERROR(r.Pod(&rows));
  if (rows != static_cast<uint64_t>(num_pes) + 1) {
    return Status::InvalidArgument("splitter matrix has wrong height");
  }
  split->boundary.resize(static_cast<size_t>(rows));
  for (auto& row : split->boundary) {
    DEMSORT_RETURN_IF_ERROR(r.PodVec(&row));
  }
  return Status::OK();
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_EXTERNAL_SELECTION_H_
