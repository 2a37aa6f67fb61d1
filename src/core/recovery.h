// RecoveryRuntime: the per-rank driver of checkpointed, restartable sorts.
//
// Protocol (one manifest per rank, one checkpoint per phase boundary):
//
//   phase work -> Barrier -> write manifest (temp+fsync+rename, CRC)
//              -> Barrier -> commit deferred block frees -> next phase
//
// The first barrier makes every rank's phase results durable before any
// manifest claims them; the second makes every manifest durable before any
// rank recycles blocks the previous phase still references. A kill at any
// point therefore leaves completed_phase diverging by at most one across
// ranks, and the rank that is ahead can always resume one phase back: the
// blocks that phase needs are still intact because their frees were
// deferred past the checkpoint it never finished.
//
// On restart every rank votes its validated completed_phase; the cluster
// resumes from the MINIMUM (a rank with a torn or stale manifest votes 0,
// conservatively restarting the job from scratch rather than trusting it).
// The failure model is rank/process death — manifests are fsynced, run data
// rides the OS page cache — not whole-machine power loss.
#ifndef DEMSORT_CORE_RECOVERY_H_
#define DEMSORT_CORE_RECOVERY_H_

#include <sys/stat.h>

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/external_alltoall.h"
#include "core/external_selection.h"
#include "core/final_merge.h"
#include "core/pe_context.h"
#include "core/run_formation.h"
#include "net/comm.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace demsort::core {

template <typename R>
class RecoveryRuntime {
 public:
  /// Phase numbers used by manifests: 1 = run formation, 2 = selection,
  /// 3 = external all-to-all, 4 = final merge.
  RecoveryRuntime(const SortConfig& config, int rank, int num_pes)
      : config_(config), rank_(rank), num_pes_(num_pes) {
    DEMSORT_CHECK(!config.checkpoint_dir.empty());
    DEMSORT_CHECK(io::IsFileBacked(config.backend))
        << "recovery requires a file-backed storage backend";
    manifest_.durable_disk_bytes.assign(config.disks_per_pe, 0);
  }

  /// Collective, called before any per-epoch resources exist: loads and
  /// validates this rank's manifest, agrees on the cluster-wide resume
  /// phase (min over validated votes), counts this epoch against the
  /// restart budget, and durably re-publishes the clamped manifest so a
  /// kill during THIS epoch still finds the restart count. Returns the
  /// resume phase (0 = from scratch).
  int Prepare(net::Comm& comm, uint64_t local_input_elements) {
    prepare_start_ = std::chrono::steady_clock::now();
    local_input_elements_ = local_input_elements;
    fingerprint_ = Fingerprint(local_input_elements);

    auto loaded = CheckpointManifest::Load(config_.checkpoint_dir, rank_);
    bool valid = loaded.ok() &&
                 loaded.value().config_fingerprint == fingerprint_ &&
                 DiskFilesCover(loaded.value());
    uint64_t vote = valid
        ? static_cast<uint64_t>(loaded.value().completed_phase) : 0;
    resume_phase_ = static_cast<int>(comm.AllreduceMin<uint64_t>(vote));
    restarts_ = comm.AllreduceMax<uint64_t>(
        valid ? static_cast<uint64_t>(loaded.value().restarts) + 1 : 0);

    if (valid) manifest_ = std::move(loaded).value();
    // Clamp to the agreed resume phase: a rank that got one phase ahead of
    // the cluster min replays that phase, so its newer section is dead.
    manifest_.completed_phase = resume_phase_;
    for (int p = resume_phase_ + 1; p <= CheckpointManifest::kNumPhases; ++p) {
      manifest_.sections[p].clear();
    }
    manifest_.restarts = static_cast<uint32_t>(restarts_);
    manifest_.config_fingerprint = fingerprint_;
    if (manifest_.durable_disk_bytes.size() != config_.disks_per_pe) {
      manifest_.durable_disk_bytes.assign(config_.disks_per_pe, 0);
    }
    auto written = manifest_.WriteAtomic(config_.checkpoint_dir, rank_);
    DEMSORT_CHECK(written.ok()) << written.status().ToString();
    comm.stats().AddCheckpointBytes(written.value());
    return resume_phase_;
  }

  /// Per-epoch, after PeResources (built with reuse_files = resuming()):
  /// deserializes the sections the resume phase consumes and resets the
  /// block allocator so exactly the checkpointed blocks are live — every
  /// other index is recycled and, crucially, DISTRUSTED in the reopened
  /// files (a torn block from the kill must read as never-written).
  void Bind(PeContext& ctx) {
    if (resume_phase_ > 0) {
      ByteReader s1(manifest_.sections[1]);
      uint64_t sum = 0, xf = 0, cnt = 0;
      DEMSORT_CHECK_OK(s1.Pod(&local_input_elements_));
      DEMSORT_CHECK_OK(s1.Pod(&sum));
      DEMSORT_CHECK_OK(s1.Pod(&xf));
      DEMSORT_CHECK_OK(s1.Pod(&cnt));
      input_checksum_ = MultisetChecksum::FromParts(sum, xf, cnt);

      std::vector<io::BlockId> live;
      if (resume_phase_ <= 2) {
        DEMSORT_CHECK_OK(LoadRunFormation(s1, num_pes_, &rf_));
        for (const RunPiece<R>& piece : rf_.runs.pieces) {
          live.insert(live.end(), piece.blocks.begin(), piece.blocks.end());
        }
      }
      if (resume_phase_ == 2) {
        ByteReader s2(manifest_.sections[2]);
        DEMSORT_CHECK_OK(LoadSplitterMatrix(s2, num_pes_, &split_));
      }
      if (resume_phase_ == 3) {
        ByteReader s3(manifest_.sections[3]);
        DEMSORT_CHECK_OK(LoadAllToAll(s3, &a2a_));
        for (const auto& extents : a2a_.extents_per_run) {
          for (const Extent<R>& e : extents) {
            live.insert(live.end(), e.blocks.begin(), e.blocks.end());
          }
        }
      }
      if (resume_phase_ == 4) {
        ByteReader s4(manifest_.sections[4]);
        DEMSORT_CHECK_OK(s4.Pod(&final_.num_elements));
        uint64_t fill = 0;
        DEMSORT_CHECK_OK(s4.Pod(&fill));
        final_.last_block_fill = static_cast<size_t>(fill);
        DEMSORT_CHECK_OK(s4.Pod(&final_global_begin_));
        DEMSORT_CHECK_OK(s4.Pod(&final_global_end_));
        DEMSORT_CHECK_OK(s4.Pod(&final_num_runs_));
        DEMSORT_CHECK_OK(LoadBlockIds(s4, &final_.blocks));
        DEMSORT_CHECK_OK(s4.PodVec(&final_.block_first_records));
        live = final_.blocks;
      }
      ctx.bm->RestoreAllocator(live);
    }
    recovery_wall_ms_ = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - prepare_start_)
            .count());
  }

  int resume_phase() const { return resume_phase_; }
  bool resuming() const { return resume_phase_ > 0; }
  uint64_t restarts() const { return restarts_; }
  uint64_t recovery_wall_ms() const { return recovery_wall_ms_; }
  uint64_t local_input_elements() const { return local_input_elements_; }
  const MultisetChecksum& input_checksum() const { return input_checksum_; }
  /// Scratch epochs record the freshly generated input's digest here so the
  /// phase-1 checkpoint can persist it for resumed epochs to validate with.
  void SetInputChecksum(const MultisetChecksum& c) { input_checksum_ = c; }

  // ---- phase seams, called by CanonicalMergeSort ----

  RunFormationResult<R> TakeRunFormation() { return std::move(rf_); }
  SplitterMatrix TakeSplitters() { return std::move(split_); }
  AllToAllResult<R> TakeAllToAll() { return std::move(a2a_); }
  void TakeFinal(MergeOutput<R>* merged, uint64_t* global_begin,
                 uint64_t* global_end, uint64_t* num_runs) {
    *merged = std::move(final_);
    *global_begin = final_global_begin_;
    *global_end = final_global_end_;
    *num_runs = final_num_runs_;
  }

  void CheckpointRunFormation(PeContext& ctx,
                              const RunFormationResult<R>& rf) {
    ByteWriter w;
    w.Pod<uint64_t>(local_input_elements_);
    w.Pod<uint64_t>(input_checksum_.sum());
    w.Pod<uint64_t>(input_checksum_.xor_fold());
    w.Pod<uint64_t>(input_checksum_.count());
    SaveRunFormation(w, rf);
    std::vector<io::BlockId> live;
    for (const RunPiece<R>& piece : rf.runs.pieces) {
      live.insert(live.end(), piece.blocks.begin(), piece.blocks.end());
    }
    CommitPhase(ctx, 1, w.Take(), live);
  }

  void CheckpointSplitters(PeContext& ctx, const SplitterMatrix& split) {
    ByteWriter w;
    SaveSplitterMatrix(w, split);
    CommitPhase(ctx, 2, w.Take(), {});
  }

  void CheckpointAllToAll(PeContext& ctx, const AllToAllResult<R>& a2a) {
    ByteWriter w;
    SaveAllToAll(w, a2a);
    std::vector<io::BlockId> live;
    for (const auto& extents : a2a.extents_per_run) {
      for (const Extent<R>& e : extents) {
        live.insert(live.end(), e.blocks.begin(), e.blocks.end());
      }
    }
    CommitPhase(ctx, 3, w.Take(), live);
  }

  void CheckpointFinal(PeContext& ctx, const MergeOutput<R>& merged,
                       uint64_t global_begin, uint64_t global_end,
                       uint64_t num_runs) {
    ByteWriter w;
    w.Pod<uint64_t>(merged.num_elements);
    w.Pod<uint64_t>(static_cast<uint64_t>(merged.last_block_fill));
    w.Pod<uint64_t>(global_begin);
    w.Pod<uint64_t>(global_end);
    w.Pod<uint64_t>(num_runs);
    SaveBlockIds(w, merged.blocks);
    w.PodVec(merged.block_first_records);
    CommitPhase(ctx, 4, w.Take(), merged.blocks);
  }

  /// Test seam: fired on every rank right after phase `p`'s checkpoint
  /// fully commits (manifest durable everywhere, deferred frees released).
  std::function<void(int phase)> on_phase_checkpoint;

 private:
  uint64_t Fingerprint(uint64_t local_input_elements) const {
    uint64_t fields[] = {static_cast<uint64_t>(num_pes_),
                         static_cast<uint64_t>(rank_),
                         sizeof(R),
                         config_.block_size,
                         config_.memory_per_pe,
                         config_.disks_per_pe,
                         config_.seed,
                         config_.randomize_blocks ? 1u : 0u,
                         local_input_elements};
    return HashBytes(fields, sizeof(fields), /*seed=*/0xC0FFEEULL);
  }

  /// The reopened disk files must be at least as long as the bytes the
  /// manifest checkpointed; a shorter (or missing) file means the blocks
  /// the manifest vouches for are not all there — fall back to scratch.
  bool DiskFilesCover(const CheckpointManifest& m) const {
    if (m.durable_disk_bytes.size() != config_.disks_per_pe) return false;
    for (uint32_t d = 0; d < config_.disks_per_pe; ++d) {
      if (m.durable_disk_bytes[d] == 0) continue;
      struct ::stat st;
      std::string path =
          io::BlockManager::DiskFilePath(config_.file_dir, rank_, d);
      if (::stat(path.c_str(), &st) != 0 ||
          static_cast<uint64_t>(st.st_size) < m.durable_disk_bytes[d]) {
        return false;
      }
    }
    return true;
  }

  /// The two-barrier commit described at the top of the file.
  void CommitPhase(PeContext& ctx, int phase, std::string section,
                   const std::vector<io::BlockId>& live) {
    // Drain every in-flight write, then push the phase's blocks through the
    // backend's durability barrier (fsync) before the manifest can
    // vouch for them.
    DEMSORT_CHECK_OK(ctx.bm->FlushAll());
    ctx.comm->Barrier();  // every rank's phase results are durable
    manifest_.sections[phase] = std::move(section);
    manifest_.completed_phase = phase;
    for (const io::BlockId& id : live) {
      uint64_t end = (id.block + 1) * config_.block_size;
      manifest_.durable_disk_bytes[id.disk] =
          std::max(manifest_.durable_disk_bytes[id.disk], end);
    }
    auto written = manifest_.WriteAtomic(config_.checkpoint_dir, rank_);
    DEMSORT_CHECK(written.ok()) << written.status().ToString();
    ctx.comm->stats().AddCheckpointBytes(written.value());
    ctx.comm->Barrier();  // every rank's manifest is durable
    ctx.bm->CommitDeferredFrees();
    ctx.bm->SetDeferFrees(false);
    if (on_phase_checkpoint) on_phase_checkpoint(phase);
  }

  const SortConfig& config_;
  int rank_;
  int num_pes_;
  uint64_t fingerprint_ = 0;
  int resume_phase_ = 0;
  uint64_t restarts_ = 0;
  uint64_t recovery_wall_ms_ = 0;
  uint64_t local_input_elements_ = 0;
  MultisetChecksum input_checksum_;
  std::chrono::steady_clock::time_point prepare_start_;

  CheckpointManifest manifest_;

  // Restored phase state (populated by Bind for the resume phase).
  RunFormationResult<R> rf_;
  SplitterMatrix split_;
  AllToAllResult<R> a2a_;
  MergeOutput<R> final_;
  uint64_t final_global_begin_ = 0;
  uint64_t final_global_end_ = 0;
  uint64_t final_num_runs_ = 0;
};

}  // namespace demsort::core

#endif  // DEMSORT_CORE_RECOVERY_H_
