// VirtualDisk: one emulated disk over the async StorageBackend seam. It
// serves requests in one of two ways, with identical FIFO semantics and seek
// model:
//   - Inline, on the submitting thread under the disk's lock, when the
//     backend completes in memory (memory, buffered file) and the
//     DiskModel does not throttle. A per-disk I/O thread would hide no
//     device latency there; it would only add a thread hand-off per block.
//   - On a pump thread otherwise (O_DIRECT, io_uring, throttled disks). The
//     pump keeps up to the effective queue depth (min of the configured
//     depth and the backend's own capacity) in flight, reaps completions and
//     settles Request handles: the STXXL-style per-disk I/O thread at depth
//     1, a full device queue on a real ring.
// Tracks exact operation counts, a modeled busy clock (seek-aware: an access
// to block i+1 right after block i is sequential), and queue-depth /
// submit→complete gauges. Each op's submit→reap life is an io.read /
// io.write span on the disk's own trace track, whichever thread reaps it.
#ifndef DEMSORT_IO_DISK_H_
#define DEMSORT_IO_DISK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/backend.h"
#include "io/io_stats.h"
#include "io/request.h"
#include "obs/trace.h"

namespace demsort::io {

class VirtualDisk {
 public:
  struct Options {
    /// Let a pump thread serve the backends that wait on a device (true),
    /// or serve every backend inline in the submitting call (false).
    /// Semantics are identical. Backends that complete in memory on an
    /// unthrottled model run inline either way.
    bool async = true;
    /// Max operations kept in flight at the backend. 0 = the backend's own
    /// queue_capacity(); any other value is clamped to that capacity, so an
    /// inline backend always runs at depth 1 and a uring backend at up to
    /// its SQ depth.
    size_t queue_depth = 0;
    DiskModel model;
    /// Owning PE's rank, stamped on the disk's trace track so its io.*
    /// spans land under that rank (-1: unattributed).
    int trace_rank = -1;
  };

  VirtualDisk(std::unique_ptr<StorageBackend> backend, Options options);
  ~VirtualDisk();

  VirtualDisk(const VirtualDisk&) = delete;
  VirtualDisk& operator=(const VirtualDisk&) = delete;

  /// `buf` must stay valid until the request completes.
  Request ReadAsync(uint64_t block, void* buf);
  Request WriteAsync(uint64_t block, const void* buf);

  /// Blocks until every submitted request has completed.
  void Drain();

  /// Durability barrier: Drain() + StorageBackend::Flush(). Everything
  /// completed before this call is on stable storage when it returns OK.
  Status Flush();

  /// Recovery re-entry (see StorageBackend::TrustOnly). Only valid while no
  /// request is queued or in flight — the restore path runs before the
  /// epoch's first I/O.
  void TrustOnly(const std::vector<uint64_t>& blocks) {
    backend_->TrustOnly(blocks);
  }

  size_t block_size() const { return backend_->block_size(); }
  IoStatsSnapshot Stats() const { return stats_.Snapshot(); }
  /// Phase boundary for the depth gauge (see IoStats::ResetQueueDepthPeak).
  void ResetQueueDepthPeak() { stats_.ResetQueueDepthPeak(); }
  /// Requests submitted but not yet completed (queued + in flight).
  size_t queue_depth() const;
  /// The depth the pump actually drives the backend at.
  size_t effective_queue_depth() const { return depth_; }
  /// True when requests complete on the submitting thread, before
  /// ReadAsync / WriteAsync return; false when a pump thread serves them.
  bool serves_inline() const { return inline_; }

 private:
  struct Op {
    bool is_write = false;
    uint64_t block = 0;
    void* read_buf = nullptr;
    const void* write_buf = nullptr;
    std::shared_ptr<internal::RequestState> state;
  };
  /// Bookkeeping for one op between backend Submit and completion reap.
  struct InFlight {
    Op op;
    bool seek = false;
    int64_t issue_ns = 0;
    uint64_t model_ns = 0;
    uint64_t depth_at_issue = 0;
  };

  Request Enqueue(Op op);
  /// Seek accounting + backend submit; reaps when the device queue is full.
  /// Pump thread (or inline caller) only.
  void Issue(Op op);
  /// Reaps completions (blocking when `wait`), settles their Requests,
  /// applies throttle sleeps, records stats and trace spans. Returns
  /// #completed.
  size_t ReapSome(bool wait);
  void PumpLoop();

  std::unique_ptr<StorageBackend> backend_;
  Options options_;
  size_t depth_ = 1;
  bool inline_ = false;
  IoStats stats_;
  std::shared_ptr<internal::CompletionSignal> signal_;

  // Pump-thread-only state (inline mode: caller thread under mu_).
  obs::TraceTrack trace_track_;
  uint64_t next_token_ = 0;
  std::unordered_map<uint64_t, InFlight> in_flight_;
  uint64_t last_block_ = UINT64_MAX;
  bool has_last_block_ = false;
  uint64_t throttle_debt_ns_ = 0;
  std::vector<IoCompletion> completions_;  // reap scratch

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Op> queue_;
  /// Submitted to this disk and not yet completed (queued + in flight) —
  /// what Drain() waits on. Atomic: decremented by the pump off-lock.
  std::atomic<size_t> outstanding_{0};
  bool shutdown_ = false;
  std::thread pump_;
};

}  // namespace demsort::io

#endif  // DEMSORT_IO_DISK_H_
