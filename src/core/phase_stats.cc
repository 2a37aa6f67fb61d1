#include "core/phase_stats.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace demsort::core {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kRunFormation:
      return "run_formation";
    case Phase::kMultiwaySelection:
      return "multiway_selection";
    case Phase::kAllToAll:
      return "all_to_all";
    case Phase::kFinalMerge:
      return "final_merge";
    default:
      return "unknown";
  }
}

void PhaseStats::Accumulate(const PhaseStats& other) {
  wall_s += other.wall_s;
  io += other.io;  // schema-driven (io_stats.cc)
  io_busy_max_disk_s += other.io_busy_max_disk_s;
  obs::SnapshotSchema<net::NetStatsSnapshot>::Get().Accumulate(&net,
                                                              other.net);
  elements_sorted += other.elements_sorted;
  elements_merged += other.elements_merged;
  merge_ways = std::max(merge_ways, other.merge_ways);
  selection_rounds += other.selection_rounds;
  demand_fetches += other.demand_fetches;
  merge_workers = std::max(merge_workers, other.merge_workers);
  merge_cpu_ms += other.merge_cpu_ms;
  merge_io_wait_ms += other.merge_io_wait_ms;
}

PhaseCollector::PhaseCollector(net::Comm* comm, io::BlockManager* bm)
    : comm_(comm),
      bm_(bm),
      stats_(static_cast<size_t>(Phase::kNumPhases)) {}

double PhaseCollector::MaxDiskBusyS() const {
  double max_s = 0;
  for (uint32_t d = 0; d < bm_->num_disks(); ++d) {
    max_s = std::max(max_s, bm_->DiskStats(d).model_busy_s());
  }
  return max_s;
}

void PhaseCollector::Begin(Phase phase) {
  bm_->DrainAll();
  phase_start_ns_ = NowNanos();
  // One boundary for every per-phase high-water gauge: the disks' queue
  // depth peak and the transport's receive-buffer peak restart here, so
  // each phase reports its own marks and consecutive phases cannot leak
  // peaks into each other. The epoch-level recovery gauges (restarts,
  // phases replayed, recovery wall) deliberately survive: they describe
  // the job, not a phase.
  bm_->ResetQueueDepthPeaks();
  io_at_begin_ = bm_->TotalStats();
  busy_at_begin_s_ = MaxDiskBusyS();
  comm_->stats().ResetRecvBufferPeak();
  net_at_begin_ = comm_->StatsSnapshot();
#if DEMSORT_TRACING
  // The phase track: one span per Begin/End pair on the PE's own thread,
  // stamped at the measured boundary so trace and PhaseStats.wall_s agree.
  obs::Emit(obs::EventType::kBegin, "phase", PhaseName(phase),
            phase_start_ns_, 0, nullptr, 0, nullptr, 0);
#endif
}

void PhaseCollector::End(Phase phase) {
  bm_->DrainAll();
  PhaseStats& s = stats_[static_cast<size_t>(phase)];
  s.wall_s += (NowNanos() - phase_start_ns_) * 1e-9;
  s.io += bm_->TotalStats() - io_at_begin_;
  s.io_busy_max_disk_s += MaxDiskBusyS() - busy_at_begin_s_;
  // Schema walk replaces the old hand-copied field list: counters fold
  // their interval delta, gauges (reset at Begin) max their level — the
  // stream chunk included, so a phase that never streams reports 0 and the
  // epoch-level recovery gauges survive untouched.
  obs::SnapshotSchema<net::NetStatsSnapshot>::Get().FoldDelta(
      &s.net, comm_->StatsSnapshot(), net_at_begin_);
#if DEMSORT_TRACING
  obs::Emit(obs::EventType::kEnd, "phase", PhaseName(phase), NowNanos(), 0,
            nullptr, 0, nullptr, 0);
#endif
}

PhaseStats PhaseCollector::Total() const {
  PhaseStats total;
  for (const auto& s : stats_) total.Accumulate(s);
  return total;
}

}  // namespace demsort::core
