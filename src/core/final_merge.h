// Phase 3 of CANONICALMERGESORT: every PE merges the R sorted slices it now
// owns (one extent chain per run) into its final, locally striped output.
// Purely local: no communication, each element read and written exactly once.
//
// Block fetches are driven by a prediction sequence — the first record of
// every physical block, consumed in ascending key order ([11]'s variant of
// [14]'s technique) — through a bounded buffer pool; a reader that outruns
// the prediction demand-fetches, so the prediction quality affects only
// performance, never correctness. Consumed blocks are freed immediately,
// keeping the merge (nearly) in place.
//
// One driver (internal::MergePartitions) runs every final merge. It
// range-partitions the merge across the W workers its caller asks for:
// FinalMerge uses W = min(threads_per_pe, N/(2·blocks)), the record sink
// W = 1. Pivot keys are picked from the prediction sequence (the per-block
// first_record index, weighted by block fill) at output ranks t*N/W, then
// refined to EXACT per-run cuts: within each run, the single block possibly
// straddling the pivot is read once and lower-bound'ed by pure key order, so
// partition t receives exactly the records with key < pivot_{t+1} (ties all
// land right of the cut). Cuts are therefore globally consistent and
// concatenating the partitions reproduces the sequential merge record for
// record. W = 1 is the same loop over the trivial plan: one partition, no
// cuts. Each worker drives its own loser tree + prefetcher over its private
// slice of the segment lists; boundary blocks shared by adjacent workers are
// handed out as preloaded copies of the planner's read (never re-fetched,
// freed exactly once by the worker consuming the block's tail).
//
// The inner loop is par::MergeKernel, the same kernel as the in-memory
// merge of run formation: each run is a chain of segment spans fed through
// the prefetcher (SegmentSource), and the kernel copies winners straight
// into the window of an output policy. Galloping with hysteresis makes
// clustered runs cost one replay per span, not per record. The final merge
// has three output policies:
//  * PartitionBlockWriter (FinalMerge): a worker writes the grid-aligned
//    body of its partition as full blocks and keeps the head and tail spans
//    in memory; the main thread stitches head, adopted body blocks and tail
//    in partition order, so the output manifest (ordered block list + first
//    records) does not depend on W;
//  * io::StripedWriter: the body writer inside it, and the stitch;
//  * BlockSink (MergeExtentsToSink): one worker, the calling thread, merges
//    into a one-block window and hands each committed window to an ordered
//    record sink, so the sink stages nothing beyond that block.
#ifndef DEMSORT_CORE_FINAL_MERGE_H_
#define DEMSORT_CORE_FINAL_MERGE_H_

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "core/run_index.h"
#include "io/striped_writer.h"
#include "obs/trace.h"
#include "par/multiway_merge.h"
#include "par/thread_pool.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace demsort::core {

template <typename R>
struct MergeOutput {
  std::vector<io::BlockId> blocks;
  std::vector<R> block_first_records;
  uint64_t num_elements = 0;
  size_t last_block_fill = 0;
};

namespace internal {

/// One physical block's worth of a run's extent chain.
template <typename R>
struct MergeSegment {
  io::BlockId block;
  uint32_t skip = 0;  // leading elements belonging to another PE
  uint32_t take = 0;  // elements to consume
  R first_record{};   // prediction key (lower bound of the block's content)
  /// False for a boundary block whose tail is consumed by a later worker:
  /// only the tail consumer frees, so every block is freed exactly once.
  bool free_block = true;
  /// The planner already read this block; `buffer` is filled and `request`
  /// complete, so the prefetcher must neither fetch it nor count it against
  /// a pool slot it acquired itself.
  bool preloaded = false;
  // Fetch state.
  enum State : uint8_t { kNotIssued, kInFlight, kReleased } state = kNotIssued;
  AlignedBuffer buffer;
  io::Request request;
};

/// The prediction sequence over a segment set: every (run, segment) in
/// ascending first_record order, ties by (run, segment). The prefetcher
/// fetches in this order, and the planner places its pivots along it.
template <typename R>
std::vector<std::pair<size_t, size_t>> PredictionOrder(
    const std::vector<std::vector<MergeSegment<R>>>& segments) {
  using Less = typename RecordTraits<R>::Less;
  Less less;
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t j = 0; j < segments.size(); ++j) {
    for (size_t s = 0; s < segments[j].size(); ++s) order.emplace_back(j, s);
  }
  // Stable on (run, segment)-ordered input: ties keep that order.
  std::stable_sort(order.begin(), order.end(),
                   [&](const auto& a, const auto& b) {
                     return less(segments[a.first][a.second].first_record,
                                 segments[b.first][b.second].first_record);
                   });
  return order;
}

template <typename R>
class MergePrefetcher {
 public:
  MergePrefetcher(io::BlockManager* bm,
                  std::vector<std::vector<MergeSegment<R>>>* segments,
                  size_t pool_size)
      : bm_(bm),
        segments_(segments),
        pool_size_(pool_size),
        prediction_(PredictionOrder(*segments)) {
    // Preloaded segments arrive complete; count them so pool accounting
    // stays balanced when Release decrements.
    for (auto& run : *segments_) {
      for (auto& seg : run) {
        if (seg.preloaded) {
          DEMSORT_CHECK(seg.state == MergeSegment<R>::kInFlight);
          ++outstanding_;
        }
      }
    }
    FillFromPrediction();
  }

  /// Blocking access to segment (run, idx)'s records; demand-fetches if the
  /// prediction has not reached it yet.
  const R* Acquire(size_t run, size_t idx) {
    MergeSegment<R>& seg = (*segments_)[run][idx];
    DEMSORT_CHECK(seg.state != MergeSegment<R>::kReleased);
    if (seg.state == MergeSegment<R>::kNotIssued) {
      ++demand_fetches_;
      // A demand fetch means the prediction sequence fell behind the
      // consumer here — each instant marks a spot worth a bigger pool.
      TRACE_INSTANT2("merge", "merge.demand_fetch", "run", run, "segment",
                     idx);
      Issue(run, idx);
    }
    if (!seg.request.done()) {
      int64_t t0 = NowNanos();
      seg.request.WaitOk();
      io_wait_ns_ += NowNanos() - t0;
    } else {
      seg.request.WaitOk();
    }
    return reinterpret_cast<const R*>(seg.buffer.data()) + seg.skip;
  }

  /// Declares segment consumed: frees its buffer and (when this reader owns
  /// it) its disk block, and lets the prediction issue the next fetch.
  void Release(size_t run, size_t idx) {
    MergeSegment<R>& seg = (*segments_)[run][idx];
    DEMSORT_CHECK(seg.state == MergeSegment<R>::kInFlight);
    seg.state = MergeSegment<R>::kReleased;
    seg.buffer = AlignedBuffer();
    --outstanding_;
    if (seg.free_block) bm_->Free(seg.block);
    FillFromPrediction();
  }

  uint64_t demand_fetches() const { return demand_fetches_; }
  /// Time this reader spent blocked on reads that were not complete yet.
  uint64_t io_wait_ns() const { return io_wait_ns_; }

 private:
  void Issue(size_t run, size_t idx) {
    MergeSegment<R>& seg = (*segments_)[run][idx];
    if (seg.state != MergeSegment<R>::kNotIssued) return;
    seg.state = MergeSegment<R>::kInFlight;
    seg.buffer = AlignedBuffer(bm_->block_size());
    seg.request = bm_->ReadAsync(seg.block, seg.buffer.data());
    ++outstanding_;
  }

  void FillFromPrediction() {
    while (prediction_cursor_ < prediction_.size() &&
           outstanding_ < pool_size_) {
      auto [run, idx] = prediction_[prediction_cursor_++];
      if ((*segments_)[run][idx].state == MergeSegment<R>::kNotIssued) {
        Issue(run, idx);
      }
    }
  }

  io::BlockManager* bm_;
  std::vector<std::vector<MergeSegment<R>>>* segments_;
  size_t pool_size_;
  std::vector<std::pair<size_t, size_t>> prediction_;
  size_t prediction_cursor_ = 0;
  size_t outstanding_ = 0;
  uint64_t demand_fetches_ = 0;
  uint64_t io_wait_ns_ = 0;
};

/// Flattens extent chains into per-run physical segment lists.
template <typename R>
std::vector<std::vector<MergeSegment<R>>> BuildMergeSegments(
    std::vector<std::vector<Extent<R>>>& extents_per_run, size_t epb) {
  const size_t num_runs = extents_per_run.size();
  std::vector<std::vector<MergeSegment<R>>> segments(num_runs);
  for (size_t j = 0; j < num_runs; ++j) {
    for (const Extent<R>& ext : extents_per_run[j]) {
      uint64_t todo = ext.count;
      for (size_t bi = 0; bi < ext.blocks.size() && todo > 0; ++bi) {
        MergeSegment<R> seg;
        seg.block = ext.blocks[bi];
        seg.skip = bi == 0 ? static_cast<uint32_t>(ext.first_block_offset) : 0;
        seg.take = static_cast<uint32_t>(
            std::min<uint64_t>(epb - seg.skip, todo));
        seg.first_record = ext.block_first_records[bi];
        todo -= seg.take;
        segments[j].push_back(std::move(seg));
      }
      DEMSORT_CHECK_EQ(todo, 0u) << "extent blocks do not cover its count";
    }
  }
  return segments;
}

/// Per-run consumed-record prefix sums: prefix[j][s] = records of run j in
/// segments before s; prefix[j].back() = the run's total.
template <typename R>
std::vector<std::vector<uint64_t>> SegmentPrefixSums(
    const std::vector<std::vector<MergeSegment<R>>>& segments) {
  std::vector<std::vector<uint64_t>> prefix(segments.size());
  for (size_t j = 0; j < segments.size(); ++j) {
    prefix[j].resize(segments[j].size() + 1);
    prefix[j][0] = 0;
    for (size_t s = 0; s < segments[j].size(); ++s) {
      prefix[j][s + 1] = prefix[j][s] + segments[j][s].take;
    }
  }
  return prefix;
}

/// The range partition of a parallel merge: per-boundary, per-run cut
/// positions (in consumed-record coordinates) plus the boundary blocks read
/// while planning, to be handed to workers as preloaded buffers.
template <typename R>
struct MergePlan {
  /// cuts[t][j]: records of run j belonging to partitions < t. cuts[0] = 0,
  /// cuts[workers][j] = run j's total; elementwise non-decreasing in t.
  std::vector<std::vector<uint64_t>> cuts;
  /// offsets[t] = global output offset of partition t (= sum_j cuts[t][j]).
  std::vector<uint64_t> offsets;
  std::map<std::pair<size_t, size_t>, AlignedBuffer> preloads;
};

/// Exact range partitioning over the per-block first_record index. Pivot t
/// is the first_record of the prediction-sequence block containing output
/// rank t*N/W (block-granular, so pivots cost no I/O); the cut of run j is
/// then prefix[j][s] + lower_bound inside the single straddling segment s —
/// one synchronous block read per (boundary, run) at most, cached across
/// boundaries. Cuts use pure key order (every tie goes right), so they are
/// consistent across runs and the partitions concatenate to exactly the
/// sequential merge. Duplicate-heavy inputs collapse neighboring cuts:
/// still correct, just less parallel.
template <typename R>
MergePlan<R> PlanMergePartitions(
    io::BlockManager* bm,
    const std::vector<std::vector<MergeSegment<R>>>& segments,
    const std::vector<std::vector<uint64_t>>& prefix, size_t workers) {
  using Less = typename RecordTraits<R>::Less;
  Less less;
  const size_t num_runs = segments.size();
  uint64_t total = 0;
  for (size_t j = 0; j < num_runs; ++j) total += prefix[j].back();

  MergePlan<R> plan;
  plan.cuts.assign(workers + 1, std::vector<uint64_t>(num_runs, 0));
  for (size_t j = 0; j < num_runs; ++j) {
    plan.cuts[workers][j] = prefix[j].back();
  }

  // Pivots walk the prediction sequence, accumulating takes.
  const std::vector<std::pair<size_t, size_t>> order =
      PredictionOrder(segments);

  auto preload = [&](size_t j, size_t s) -> const AlignedBuffer& {
    auto key = std::make_pair(j, s);
    auto it = plan.preloads.find(key);
    if (it == plan.preloads.end()) {
      AlignedBuffer buf(bm->block_size());
      bm->ReadSync(segments[j][s].block, buf.data());
      it = plan.preloads.emplace(key, std::move(buf)).first;
    }
    return it->second;
  };

  size_t oi = 0;
  uint64_t cum = 0;
  for (size_t t = 1; t < workers; ++t) {
    uint64_t target = t * total / workers;
    while (oi < order.size() &&
           cum + segments[order[oi].first][order[oi].second].take <= target) {
      cum += segments[order[oi].first][order[oi].second].take;
      ++oi;
    }
    DEMSORT_CHECK_LT(oi, order.size());
    const R pivot = segments[order[oi].first][order[oi].second].first_record;

    for (size_t j = 0; j < num_runs; ++j) {
      const auto& segs = segments[j];
      // First segment whose first_record >= pivot. Everything in earlier
      // segments is <= that segment's first_record (sorted run), hence
      // < pivot; everything from later segments is >= pivot.
      size_t hi = std::partition_point(
                      segs.begin(), segs.end(),
                      [&](const MergeSegment<R>& sg) {
                        return less(sg.first_record, pivot);
                      }) -
                  segs.begin();
      uint64_t cut = 0;
      if (hi > 0) {
        size_t s = hi - 1;
        const AlignedBuffer& buf = preload(j, s);
        const R* recs =
            reinterpret_cast<const R*>(buf.data()) + segs[s].skip;
        cut = prefix[j][s] +
              (std::lower_bound(recs, recs + segs[s].take, pivot, less) -
               recs);
      }
      DEMSORT_CHECK_GE(cut, plan.cuts[t - 1][j]);
      plan.cuts[t][j] = cut;
    }
  }

  plan.offsets.assign(workers + 1, 0);
  for (size_t t = 1; t <= workers; ++t) {
    uint64_t sum = 0;
    for (size_t j = 0; j < num_runs; ++j) sum += plan.cuts[t][j];
    plan.offsets[t] = sum;
  }
  DEMSORT_CHECK_EQ(plan.offsets[workers], total);
  return plan;
}

/// Worker t's private view of the segment lists: the sub-range
/// [cuts[t], cuts[t+1]) of every run, with skip/take narrowed on boundary
/// segments. Any segment the planner read is handed over as a preloaded
/// copy, so blocks shared between adjacent workers are read once (by the
/// planner), never raced, and freed exactly once — by the worker consuming
/// the segment's last record.
template <typename R>
std::vector<std::vector<MergeSegment<R>>> SliceWorkerSegments(
    const std::vector<std::vector<MergeSegment<R>>>& segments,
    const std::vector<std::vector<uint64_t>>& prefix,
    const std::vector<uint64_t>& cut_lo, const std::vector<uint64_t>& cut_hi,
    const std::map<std::pair<size_t, size_t>, AlignedBuffer>& preloads,
    size_t block_size) {
  const size_t num_runs = segments.size();
  std::vector<std::vector<MergeSegment<R>>> out(num_runs);
  for (size_t j = 0; j < num_runs; ++j) {
    uint64_t lo = cut_lo[j];
    uint64_t hi = cut_hi[j];
    if (lo >= hi) continue;
    size_t s = std::upper_bound(prefix[j].begin(), prefix[j].end(), lo) -
               prefix[j].begin() - 1;
    for (; prefix[j][s] < hi; ++s) {
      const MergeSegment<R>& src = segments[j][s];
      uint64_t seg_begin = prefix[j][s];
      uint64_t seg_end = seg_begin + src.take;
      uint64_t from = std::max(lo, seg_begin);
      uint64_t to = std::min(hi, seg_end);
      MergeSegment<R> seg;
      seg.block = src.block;
      seg.first_record = src.first_record;
      seg.skip = src.skip + static_cast<uint32_t>(from - seg_begin);
      seg.take = static_cast<uint32_t>(to - from);
      seg.free_block = to == seg_end;
      auto pl = preloads.find({j, s});
      if (pl != preloads.end()) {
        seg.preloaded = true;
        seg.state = MergeSegment<R>::kInFlight;
        seg.buffer = AlignedBuffer(block_size);
        std::memcpy(seg.buffer.data(), pl->second.data(), block_size);
      }
      out[j].push_back(std::move(seg));
    }
  }
  return out;
}

/// Prefetch pool for one of W workers: double buffering for every live run
/// of its slice, or two generations per disk split across the workers,
/// whichever is larger, plus two blocks of slack. At W = 1 with every run
/// live that is max(2R, 2D) + 2.
inline size_t WorkerPrefetchPool(size_t live_runs, size_t num_disks,
                                 size_t workers) {
  return std::max<size_t>(2 * live_runs, 2 * num_disks / workers) + 2;
}

/// Workers the merge actually uses: the pool size, capped so every worker
/// owns at least a couple of blocks' worth of output.
inline size_t EffectiveMergeWorkers(const par::ThreadPool& pool,
                                    uint64_t total_elements, size_t epb) {
  return std::min<uint64_t>(pool.num_threads(),
                            std::max<uint64_t>(1, total_elements / (2 * epb)));
}

/// The kernel's source policy over one (slice of the) segment set: run j's
/// spans are its segments in order, acquired through the prefetcher. A
/// segment is released when the kernel asks for the next one, which is right
/// before its source's head is replaced or exhausted, as the tree's
/// pointer-lifetime contract allows.
template <typename R>
class SegmentSource {
 public:
  SegmentSource(MergePrefetcher<R>& prefetcher,
                std::vector<std::vector<MergeSegment<R>>>& segments)
      : prefetcher_(prefetcher),
        segments_(segments),
        current_(segments.size(), 0) {}

  size_t num_sources() const { return segments_.size(); }

  bool First(size_t j, const R** begin, const R** end) {
    if (segments_[j].empty()) return false;
    Open(j, begin, end);
    return true;
  }

  bool Next(size_t j, const R** begin, const R** end) {
    prefetcher_.Release(j, current_[j]);
    if (++current_[j] == segments_[j].size()) return false;
    Open(j, begin, end);
    return true;
  }

 private:
  void Open(size_t j, const R** begin, const R** end) {
    const uint32_t take = segments_[j][current_[j]].take;
    DEMSORT_CHECK_GT(take, 0u) << "the merge kernel needs non-empty spans";
    *begin = prefetcher_.Acquire(j, current_[j]);
    *end = *begin + take;
  }

  MergePrefetcher<R>& prefetcher_;
  std::vector<std::vector<MergeSegment<R>>>& segments_;
  std::vector<size_t> current_;
};

/// What one merge worker reports back for the phase gauges.
struct MergeWorkerMetrics {
  uint64_t merged = 0;
  int64_t wall_ns = 0;
  uint64_t io_wait_ns = 0;
  uint64_t demand_fetches = 0;
};

/// Accumulates worker metrics into the phase stats.
inline void AccumulateMergeMetrics(PhaseStats* stats, size_t workers,
                                   size_t num_runs,
                                   const std::vector<MergeWorkerMetrics>& ms) {
  if (stats == nullptr) return;
  stats->merge_workers =
      std::max<uint64_t>(stats->merge_workers, workers);
  stats->merge_ways = std::max<uint64_t>(stats->merge_ways, num_runs);
  for (const MergeWorkerMetrics& m : ms) {
    stats->elements_merged += m.merged;
    stats->demand_fetches += m.demand_fetches;
    stats->merge_io_wait_ms += m.io_wait_ns * 1e-6;
    int64_t cpu_ns = m.wall_ns - static_cast<int64_t>(m.io_wait_ns);
    if (cpu_ns > 0) stats->merge_cpu_ms += cpu_ns * 1e-6;
  }
}

/// Worker t's share of a merge over W workers: global output ranks
/// [offset, offset + count).
struct MergePartition {
  size_t worker = 0;
  size_t workers = 1;
  uint64_t offset = 0;
  uint64_t count = 0;
};

/// Writes one worker's output partition. The partition's global output range
/// is split on the global block grid: the span up to the first grid line
/// (head) and the one after the last (tail) stay in memory for the stitching
/// pass; the grid-aligned body in between is written as full blocks straight
/// from this worker, through its own striped writer with a window of
/// max(2, 2D/W) in-flight writes (at W = 1 the striped writer's default 2D).
/// It is the merge kernel's output policy: its windows cover the head, then
/// each body block, then the tail.
template <typename R>
class PartitionBlockWriter {
 public:
  PartitionBlockWriter(io::BlockManager* bm, size_t epb,
                       const MergePartition& part)
      : body_(bm, std::max<size_t>(2, 2 * bm->num_disks() / part.workers)) {
    uint64_t to_grid = (epb - part.offset % epb) % epb;
    head_.resize(std::min<uint64_t>(to_grid, part.count));
    body_target_ = (part.count - head_.size()) / epb * epb;
    tail_.resize(part.count - head_.size() - body_target_);
  }

  R* Window(size_t* room) {
    if (head_fill_ < head_.size()) {
      *room = head_.size() - head_fill_;
      return head_.data() + head_fill_;
    }
    if (body_.total_appended() < body_target_) return body_.Window(room);
    *room = tail_.size() - tail_fill_;
    return tail_.data() + tail_fill_;
  }

  void Commit(size_t n) {
    if (head_fill_ < head_.size()) {
      head_fill_ += n;
    } else if (body_.total_appended() < body_target_) {
      body_.Commit(n);
    } else {
      tail_fill_ += n;
    }
  }

  void Finish() {
    DEMSORT_CHECK_EQ(head_fill_, head_.size());
    DEMSORT_CHECK_EQ(tail_fill_, tail_.size());
    DEMSORT_CHECK_EQ(body_.pending_fill(), 0u)
        << "partition body not grid-aligned";
    body_.Finish();
  }

  const std::vector<R>& head() const { return head_; }
  const std::vector<R>& tail() const { return tail_; }
  const std::vector<io::BlockId>& blocks() const { return body_.blocks(); }
  const std::vector<R>& block_first_records() const {
    return body_.block_first_records();
  }
  uint64_t io_wait_ns() const { return body_.io_wait_ns(); }

 private:
  io::StripedWriter<R> body_;
  uint64_t body_target_ = 0;
  std::vector<R> head_;
  std::vector<R> tail_;
  size_t head_fill_ = 0;
  size_t tail_fill_ = 0;
};

/// The merge kernel's output policy for an ordered record sink: every
/// window is one block long, and each Commit hands it to `sink(span)` on the
/// merging thread. Run by a single worker, so the sink sees the records in
/// key order and nothing beyond the one block is staged.
template <typename R, typename Sink>
class BlockSink {
 public:
  BlockSink(size_t epb, Sink* sink) : sink_(sink), buffer_(epb) {}

  R* Window(size_t* room) {
    *room = buffer_.size();
    return buffer_.data();
  }

  void Commit(size_t n) { (*sink_)(std::span<const R>(buffer_.data(), n)); }

  void Finish() {}

  /// A sink does no I/O of its own.
  uint64_t io_wait_ns() const { return 0; }

 private:
  Sink* sink_;
  std::vector<R> buffer_;
};

/// The one final-merge driver. It plans `workers` range partitions (at
/// W = 1 the trivial plan: one partition, no cut reads, merged on the
/// calling thread), builds partition t's output policy with
/// `make_output(MergePartition)` on the calling thread, then merges every
/// partition on its own pool worker: the worker slices the segment lists,
/// runs a prefetcher, a SegmentSource and par::MergeKernel into its policy,
/// and calls the policy's Finish().
/// Returns the policies in partition order. An output policy implements
/// the kernel's Window/Commit plus `void Finish()` and
/// `uint64_t io_wait_ns() const`.
template <typename R, typename MakeOutput>
auto MergePartitions(PeContext& ctx, const SortConfig& config,
                     std::vector<std::vector<Extent<R>>>& extents_per_run,
                     size_t workers, PhaseStats* stats,
                     const MakeOutput& make_output) {
  using Out = std::invoke_result_t<const MakeOutput&, const MergePartition&>;
  io::BlockManager* bm = ctx.bm;
  const size_t epb = config.ElementsPerBlock<R>();
  const size_t num_runs = extents_per_run.size();

  const std::vector<std::vector<MergeSegment<R>>> segments =
      BuildMergeSegments(extents_per_run, epb);
  const std::vector<std::vector<uint64_t>> prefix =
      SegmentPrefixSums(segments);
  const MergePlan<R> plan =
      PlanMergePartitions(bm, segments, prefix, workers);

  std::vector<Out> outs;
  outs.reserve(workers);
  for (size_t t = 0; t < workers; ++t) {
    outs.push_back(make_output(MergePartition{
        t, workers, plan.offsets[t], plan.offsets[t + 1] - plan.offsets[t]}));
  }
  std::vector<MergeWorkerMetrics> metrics(workers);
  ctx.pool->ParallelFor(workers, [&](size_t t) {
    const uint64_t count = plan.offsets[t + 1] - plan.offsets[t];
    TRACE_SPAN2("merge", "merge.partition", "worker", t, "elements", count);
    std::vector<std::vector<MergeSegment<R>>> segs = SliceWorkerSegments(
        segments, prefix, plan.cuts[t], plan.cuts[t + 1], plan.preloads,
        bm->block_size());
    size_t live = 0;
    for (const auto& run : segs) {
      if (!run.empty()) ++live;
    }
    MergePrefetcher<R> prefetcher(
        bm, &segs, WorkerPrefetchPool(live, bm->num_disks(), workers));
    int64_t t0 = NowNanos();
    SegmentSource<R> src(prefetcher, segs);
    uint64_t merged = par::MergeKernel<R>(src, outs[t]);
    DEMSORT_CHECK_EQ(merged, count);
    outs[t].Finish();
    metrics[t] = {merged, NowNanos() - t0,
                  prefetcher.io_wait_ns() + outs[t].io_wait_ns(),
                  prefetcher.demand_fetches()};
  });
  AccumulateMergeMetrics(stats, workers, num_runs, metrics);
  return outs;
}

}  // namespace internal

/// Merges this PE's extent chains, delivering every record in sorted order
/// to `sink(std::span<const R>)`. Consumes the extents (their blocks are
/// freed as they are read). Returns the number of records delivered. This
/// is the engine behind the pipelined variant of §VII (sink = downstream
/// consumer).
///
/// One worker merges, on the calling thread, whatever threads_per_pe is:
/// the sink is called from that thread only, in global key order, with
/// spans of at most one block of records.
template <typename R, typename Sink>
uint64_t MergeExtentsToSink(PeContext& ctx, const SortConfig& config,
                            std::vector<std::vector<Extent<R>>>
                                extents_per_run,
                            Sink&& sink, PhaseStats* stats = nullptr) {
  using Policy = internal::BlockSink<R, std::remove_reference_t<Sink>>;
  const size_t epb = config.ElementsPerBlock<R>();
  uint64_t total = 0;
  internal::MergePartitions<R>(
      ctx, config, extents_per_run, /*workers=*/1, stats,
      [&](const internal::MergePartition& part) {
        total = part.count;
        return Policy(epb, &sink);
      });
  return total;
}

/// Merges this PE's extent chains into a locally striped sorted output.
/// Consumes the extents (their blocks are freed as they are read). Each
/// worker writes its partition's full blocks itself; the stitch then writes
/// the partition heads and tails around them through one striped writer, so
/// the output manifest (block order, first records, tail fill) is the same
/// for any worker count. At W = 1 the head is empty and only the last,
/// partial block goes through the stitch.
template <typename R>
MergeOutput<R> FinalMerge(PeContext& ctx, const SortConfig& config,
                          std::vector<std::vector<Extent<R>>> extents_per_run,
                          PhaseStats* stats = nullptr) {
  io::BlockManager* bm = ctx.bm;
  const size_t epb = config.ElementsPerBlock<R>();
  uint64_t total = 0;
  for (const std::vector<Extent<R>>& run : extents_per_run) {
    for (const Extent<R>& e : run) total += e.count;
  }
  std::vector<internal::PartitionBlockWriter<R>> parts =
      internal::MergePartitions<R>(
          ctx, config, extents_per_run,
          internal::EffectiveMergeWorkers(*ctx.pool, total, epb), stats,
          [&](const internal::MergePartition& part) {
            return internal::PartitionBlockWriter<R>(bm, epb, part);
          });

  // Stitch: head span, adopted body blocks, tail span — in partition order
  // the concatenation is exactly the sequential merge's stream, so the
  // writer reproduces the same manifest.
  io::StripedWriter<R> writer(bm);
  for (const internal::PartitionBlockWriter<R>& pw : parts) {
    if (!pw.head().empty()) {
      writer.AppendSpan(pw.head().data(), pw.head().size());
    }
    if (!pw.blocks().empty()) {
      writer.AdoptFullBlocks(pw.blocks().data(),
                             pw.block_first_records().data(),
                             pw.blocks().size());
    }
    if (!pw.tail().empty()) {
      writer.AppendSpan(pw.tail().data(), pw.tail().size());
    }
  }
  writer.Finish();

  MergeOutput<R> out;
  out.blocks = writer.blocks();
  out.block_first_records = writer.block_first_records();
  out.num_elements = writer.total_appended();
  out.last_block_fill = writer.last_block_fill();
  return out;
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_FINAL_MERGE_H_
