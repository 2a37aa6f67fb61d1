// CANONICALMERGESORT (§IV): the paper's headline algorithm.
//
//   Phase 1  run formation      — R global runs, written locally, sampled
//   Phase 2a multiway selection — exact splitters for ranks i*N/P
//   Phase 2b external all-to-all— ship every element to its final PE
//   Phase 3  final merge        — local R-way merge, no communication
//
// Afterwards PE i holds, sorted and striped over its local disks, exactly
// the elements of global ranks [i*N/P, (i+1)*N/P) — the "canonical" output
// format. I/O volume 4N - 2·K·N/R + o(N), where phase 1 keeps its last
// K = min(3, R) runs in memory; communication volume N + o(N) (best case:
// only the internal sort of run formation moves data).
//
// With a RecoveryRuntime attached, every phase boundary is a durable
// checkpoint: completed phases are SKIPPED on a restarted epoch (their
// results restored from the manifest + reopened disk files), and block
// frees that would recycle a prior phase's disk blocks are deferred until
// the next checkpoint commits — see core/recovery.h for the protocol.
#ifndef DEMSORT_CORE_CANONICAL_MERGESORT_H_
#define DEMSORT_CORE_CANONICAL_MERGESORT_H_

#include <utility>
#include <vector>

#include "core/config.h"
#include "core/external_alltoall.h"
#include "core/external_selection.h"
#include "core/final_merge.h"
#include "core/local_input.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/recovery.h"
#include "core/run_formation.h"
#include "obs/trace.h"

namespace demsort::core {

template <typename R>
struct SortOutput {
  /// This PE's sorted share, striped over its local disks.
  std::vector<io::BlockId> blocks;
  std::vector<R> block_first_records;
  uint64_t num_elements = 0;
  size_t last_block_fill = 0;
  /// Global ranks [global_begin, global_end) live here.
  uint64_t global_begin = 0;
  uint64_t global_end = 0;
  uint64_t num_runs = 0;
  SortReport report;
};

/// Collective: every PE of ctx.comm calls this with its local input slice.
/// The input blocks are consumed (freed); the returned blocks are owned by
/// the caller. With `recovery` attached, phases up to the agreed resume
/// phase are restored instead of executed (the input is then unused — a
/// resumed epoch passes an empty LocalInput) and each completed phase is
/// checkpointed before its blocks can be recycled.
template <typename R>
SortOutput<R> CanonicalMergeSort(PeContext& ctx, const SortConfig& config,
                                 const LocalInput& input,
                                 RecoveryRuntime<R>* recovery = nullptr) {
  DEMSORT_CHECK_OK(config.Validate());
  net::Comm& comm = *ctx.comm;
  PhaseCollector collector(ctx.comm, ctx.bm);
  const int resume = recovery != nullptr ? recovery->resume_phase() : 0;
  SortOutput<R> out;
  out.report.rank = comm.rank();
  out.report.num_pes = comm.size();
  out.report.local_input_elements =
      resume > 0 ? recovery->local_input_elements() : input.num_elements;
  out.report.input_blocks = input.blocks.size();

  // Phase 1: run formation. The opening barrier doubles as the trace time
  // origin: every rank's clock is pinned here, so cross-rank skew in the
  // merged trace is bounded by barrier exit jitter.
  comm.Barrier();
  obs::Tracer::Get().MarkSessionStart();
  collector.Begin(Phase::kRunFormation);
  if (recovery != nullptr && recovery->restarts() > 0) {
    // Recovery telemetry, attributed to the first phase of the resumed
    // epoch so it shows up in per-phase snapshots and the CLI stats table.
    comm.stats().SetRestarts(recovery->restarts());
    comm.stats().SetPhasesReplayed(
        static_cast<uint64_t>(CheckpointManifest::kNumPhases - resume));
    comm.stats().SetRecoveryWallMs(recovery->recovery_wall_ms());
  }
  RunFormationResult<R> rf;
  if (resume >= 1) {
    if (resume <= 2) rf = recovery->TakeRunFormation();
  } else {
    rf = FormRuns<R>(ctx, config, input,
                     &collector.stats(Phase::kRunFormation));
  }
  comm.Barrier();
  if (recovery != nullptr && resume < 1) {
    recovery->CheckpointRunFormation(ctx, rf);
  }
  collector.End(Phase::kRunFormation);
  out.num_runs = rf.table.num_runs();
  out.report.num_runs = out.num_runs;

  // Phase 2a: multiway selection.
  collector.Begin(Phase::kMultiwaySelection);
  SplitterMatrix split;
  if (resume >= 2) {
    if (resume == 2) split = recovery->TakeSplitters();
  } else {
    ExternalSelector<R> selector(ctx, config, rf);
    split = selector.SelectAllCollective(
        &collector.stats(Phase::kMultiwaySelection));
  }
  comm.Barrier();
  if (recovery != nullptr && resume < 2) {
    recovery->CheckpointSplitters(ctx, split);
  }
  collector.End(Phase::kMultiwaySelection);

  // Phase 2b: external all-to-all redistribution. Frees of run-piece blocks
  // are deferred past the phase-3 checkpoint: a kill mid-exchange must find
  // every piece intact for the one-phase-back replay.
  collector.Begin(Phase::kAllToAll);
  AllToAllResult<R> redistributed;
  if (resume >= 3) {
    if (resume == 3) redistributed = recovery->TakeAllToAll();
  } else {
    if (recovery != nullptr) ctx.bm->SetDeferFrees(true);
    redistributed = ExternalAllToAll<R>(ctx, config, rf, split,
                                        &collector.stats(Phase::kAllToAll));
  }
  comm.Barrier();
  if (recovery != nullptr && resume < 3) {
    recovery->CheckpointAllToAll(ctx, redistributed);
  }
  collector.End(Phase::kAllToAll);
  if (resume == 3) {
    out.num_runs = redistributed.extents_per_run.size();
    out.report.num_runs = out.num_runs;
  }

  // Phase 3: local final merge. Extent-block frees are deferred likewise.
  collector.Begin(Phase::kFinalMerge);
  MergeOutput<R> merged;
  uint64_t global_begin = redistributed.my_begin_rank;
  uint64_t global_end = redistributed.my_end_rank;
  if (resume >= 4) {
    uint64_t restored_runs = 0;
    recovery->TakeFinal(&merged, &global_begin, &global_end, &restored_runs);
    out.num_runs = restored_runs;
    out.report.num_runs = restored_runs;
  } else {
    if (recovery != nullptr) ctx.bm->SetDeferFrees(true);
    merged = FinalMerge<R>(ctx, config,
                           std::move(redistributed.extents_per_run),
                           &collector.stats(Phase::kFinalMerge));
  }
  comm.Barrier();
  if (recovery != nullptr && resume < 4) {
    recovery->CheckpointFinal(ctx, merged, global_begin, global_end,
                              out.num_runs);
  }
  collector.End(Phase::kFinalMerge);

  out.blocks = std::move(merged.blocks);
  out.block_first_records = std::move(merged.block_first_records);
  out.num_elements = merged.num_elements;
  out.last_block_fill = merged.last_block_fill;
  out.global_begin = global_begin;
  out.global_end = global_end;
  DEMSORT_CHECK_EQ(out.num_elements, out.global_end - out.global_begin);

  out.report.local_output_elements = out.num_elements;
  out.report.peak_blocks = ctx.bm->peak_blocks_in_use();
  for (int p = 0; p < static_cast<int>(Phase::kNumPhases); ++p) {
    out.report.phase[p] = collector.stats(static_cast<Phase>(p));
  }
  return out;
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_CANONICAL_MERGESORT_H_
