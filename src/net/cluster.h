// Cluster: spawns P processing elements (PEs) as OS threads and gives each a
// Comm handle onto a shared in-process Fabric of byte-copying mailboxes.
//
// This is the distributed-memory emulation substrate: the algorithms written
// against Comm run unchanged over any net::Transport — Fabric here, real
// sockets via net::TcpTransport (tcp_transport.h) — because nothing except
// explicit messages crosses PE boundaries.
#ifndef DEMSORT_NET_CLUSTER_H_
#define DEMSORT_NET_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/message.h"
#include "net/net_stats.h"
#include "net/transport.h"

namespace demsort::net {

class Comm;

/// The in-process Transport: P*P FIFO channels with MPI-style (source, tag)
/// matching, plus per-PE traffic counters.
///
/// Mailboxes are unbounded: a send is admitted instantly, and the sorting
/// algorithms bound in-flight volume themselves, exactly as the paper's
/// external all-to-all does (sub-steps, and the streaming credits of
/// Comm::AlltoallvStream).
class Fabric : public Transport {
 public:
  explicit Fabric(int num_pes);

  int num_pes() const override { return num_pes_; }
  SendRequest Isend(int src, int dst, int tag, const void* data,
                    size_t bytes) override;
  SendRequest IsendGather(int src, int dst, int tag, const void* header,
                          size_t header_bytes, const void* data,
                          size_t bytes) override;
  SendRequest IsendFrame(int src, int dst, int tag, Frame frame) override;
  RecvRequest Irecv(int dst, int src, int tag) override;

  /// Poisons every channel from or to `pe`: peers' posted and future
  /// receives from it fail with CommError(status) and sends to it fail.
  /// Called by
  /// Cluster::Run when a PE body throws — the survivors' waits become
  /// errors instead of a join() deadlock — and by net::FaultTransport.
  void KillPe(int pe, const Status& status) override;
  /// Poisons both directions of the (a, b) channel pair only.
  void KillLink(int a, int b, const Status& status) override;

  NetStats& stats(int pe) override { return *stats_[pe]; }

  /// Blocking conveniences (Isend admission wait / Irecv payload wait).
  void Send(int src, int dst, int tag, const void* data, size_t bytes);
  std::vector<uint8_t> Recv(int dst, int src, int tag);

 private:
  internal::TagChannel& channel(int src, int dst) {
    return *channels_[static_cast<size_t>(src) * num_pes_ + dst];
  }

  int num_pes_;
  /// Shared recycling pool for message frames; shared_ptr because frames
  /// sitting in mailboxes may outlive the Fabric (see buffer_pool.h).
  std::shared_ptr<BufferPool> pool_;
  std::vector<std::unique_ptr<internal::TagChannel>> channels_;
  std::vector<std::unique_ptr<NetStats>> stats_;
};

/// Restart policy of the supervised harnesses (Cluster::RunSupervised,
/// TcpCluster::RunSupervised, HierCluster::RunSupervised): how many times a
/// CommError — a contained rank failure — may be answered by tearing the
/// epoch down and relaunching, and how long to back off in between.
struct RecoveryOptions {
  /// Relaunch budget. Once spent, the CommError escalates to the caller —
  /// the same clean containment error an unsupervised run raises.
  int max_restarts = 3;
  /// Backoff before restart r is base * 2^(r-1) milliseconds, scaled by a
  /// deterministic multiplicative jitter in [1 - jitter, 1 + jitter].
  int64_t backoff_base_ms = 50;
  double jitter = 0.5;
  uint64_t jitter_seed = 0x5eedULL;
  /// Observation seam: fired before each backoff sleep with the epoch about
  /// to launch (1-based restart number) and the failure that caused it.
  std::function<void(int next_epoch, const Status& cause)> on_restart;
};

namespace internal {
/// The generic retry loop behind every supervised harness: run_epoch(0),
/// then on CommError back off (exponential + jitter per `options`) and
/// relaunch as run_epoch(restarts) until the budget is spent. The budget-
/// exhausting CommError and every non-CommError propagate unchanged.
/// Returns the number of restarts consumed.
int SuperviseEpochs(const RecoveryOptions& options,
                    const std::function<void(int epoch)>& run_epoch);
}  // namespace internal

/// Runs `body(comm)` on P PE threads and joins them. A PE that throws
/// poisons its fabric channels first (Fabric::KillPe), so peers blocked on
/// it fail with net::CommError instead of deadlocking the join; Run then
/// rethrows the FIRST PE's exception — the root cause, not the secondary
/// CommErrors it provoked. A failed DEMSORT_CHECK still aborts the whole
/// process (logic errors are not containable). The `body` must follow SPMD
/// discipline for collectives.
class Cluster {
 public:
  using PeBody = std::function<void(Comm&)>;

  struct Options {
    int num_pes = 1;
    /// TCP only (used by RunOverTransport with TransportKind::kTcp):
    /// mesh-setup deadline, forwarded to
    /// TcpTransport::Options::connect_timeout_ms (0 = wait forever).
    int64_t tcp_connect_timeout_ms = 30'000;
    /// Hier only (RunOverTransport with TransportKind::kHier): PEs per
    /// node of the emulated two-level machine; 0 = the default of 2 (the
    /// paper's geometry). Ignored when `node_sizes` is set.
    int pes_per_node = 0;
    /// Hier only: explicit (possibly uneven) node sizes; must sum to
    /// num_pes when non-empty.
    std::vector<int> node_sizes;
    /// Test seam: wraps the epoch's transport (e.g. in net::FaultTransport)
    /// before any Comm is built over it. Called once per fabric with the
    /// supervised epoch number; the returned transport must outlive the
    /// epoch (return nullptr or leave unset to use the base unchanged).
    std::function<Transport*(Transport* base, int epoch)> wrap_transport;
    /// Supervised-restart attempt number (0 = first launch); set by
    /// RunSupervised and forwarded to wrap_transport.
    int epoch = 0;
  };

  struct Result {
    std::vector<NetStatsSnapshot> stats;
  };

  struct SupervisedResult {
    /// The successful epoch's result.
    Result result;
    int restarts = 0;
  };

  /// Blocks until all PEs finish. Rethrows the first PE exception.
  static void Run(int num_pes, const PeBody& body);

  /// As Run, but also returns each PE's final traffic counters.
  static std::vector<NetStatsSnapshot> RunWithStats(int num_pes,
                                                    const PeBody& body);

  /// Full-control variant: options in, per-PE traffic counters out.
  static Result Run(const Options& options, const PeBody& body);

  /// Supervised restart: when an epoch dies of a contained rank failure
  /// (CommError), tears the whole fabric down — poisoned channels die with
  /// it, so a re-joining epoch never sees stale poison — and relaunches
  /// `body` on a FRESH fabric per RecoveryOptions. The body is responsible
  /// for resuming from its own checkpoints (see core/recovery.h); the
  /// harness guarantees only clean teardown, fresh rendezvous, backoff, and
  /// escalation of the original error once the budget is spent.
  static SupervisedResult RunSupervised(const Options& options,
                                        const RecoveryOptions& recovery,
                                        const PeBody& body);
};

}  // namespace demsort::net

#endif  // DEMSORT_NET_CLUSTER_H_
