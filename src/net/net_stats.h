// Per-PE communication counters.
//
// The paper's central claim for CANONICALMERGESORT is "communication volume
// N + o(N)"; these counters are how the benches and tests check it. Beyond
// the monotone volume counters, a receive-buffer gauge tracks how many
// delivered-but-unconsumed payload bytes the transport is holding for this
// PE — the number the streaming Alltoallv exists to keep at
// O(chunk x active sources) instead of O(sub-step payload).
#ifndef DEMSORT_NET_NET_STATS_H_
#define DEMSORT_NET_NET_STATS_H_

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"

namespace demsort::net {

struct NetStatsSnapshot {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
  /// Peak bytes held receiver-side by the transport (payloads delivered into
  /// the mailbox or into completed-but-untaken receives, excluding
  /// self-sends) since the last ResetRecvBufferPeak(). A gauge, not a
  /// counter: snapshot subtraction keeps the minuend's value.
  uint64_t recv_buffer_peak_bytes = 0;
  /// Standalone flow-control credit messages this PE sent (including the
  /// per-stream close message of the streaming collectives).
  uint64_t credit_msgs = 0;
  /// Credits this PE returned by riding them on outgoing data frames
  /// instead of dedicated messages — what credit piggybacking saves.
  uint64_t piggybacked_credits = 0;
  /// Send-side classification by the node topology (hierarchical transport
  /// only; flat transports have no node map and leave both at zero):
  /// traffic to a same-node PE travels over shared memory, traffic to a
  /// remote PE crosses the node's one uplink. Self-sends count in neither,
  /// like the volume counters.
  uint64_t intra_node_msgs = 0;
  uint64_t intra_node_bytes = 0;
  uint64_t inter_node_msgs = 0;
  uint64_t inter_node_bytes = 0;
  /// Buffer-pool counters (net::BufferPool): every Lease() this PE's sends
  /// and receives triggered, how many were served from the free list, and
  /// how many payload bytes rode recycled buffers instead of fresh
  /// allocations. pool_hits / pool_leases is the steady-state recycling
  /// rate the zero-copy data path is judged by.
  uint64_t pool_leases = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_recycled_bytes = 0;
  /// Supervised-restart telemetry (core/recovery.h). `restarts` and
  /// `phases_replayed` are gauges: how many relaunches this job has
  /// absorbed and how many of the four phases the recovered epoch had to
  /// re-execute (0 on a failure-free run). `checkpoint_bytes` is a counter
  /// of manifest bytes made durable; `recovery_wall_ms` a gauge of the
  /// wall time the resume path spent loading and validating state.
  uint64_t restarts = 0;
  uint64_t phases_replayed = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t recovery_wall_ms = 0;

  /// Phase delta via the field schema: counters subtract, gauges keep the
  /// minuend's value. The schema below is the single list of fields —
  /// adding a stat means adding the member and one Register line.
  NetStatsSnapshot operator-(const NetStatsSnapshot& rhs) const {
    return obs::SnapshotSchema<NetStatsSnapshot>::Get().Delta(*this, rhs);
  }
};

/// One-place field registry for NetStatsSnapshot. PhaseCollector's delta,
/// PhaseStats accumulation, and every exporter walk this schema instead of
/// hand-copying the field list.
inline const bool kNetStatsSchemaRegistered = [] {
  using obs::MetricKind;
  auto& s = obs::SnapshotSchema<NetStatsSnapshot>::Mutable();
  using N = NetStatsSnapshot;
  s.Register("net.messages_sent", MetricKind::kCounter, &N::messages_sent);
  s.Register("net.bytes_sent", MetricKind::kCounter, &N::bytes_sent);
  s.Register("net.messages_received", MetricKind::kCounter,
             &N::messages_received);
  s.Register("net.bytes_received", MetricKind::kCounter, &N::bytes_received);
  s.Register("net.recv_buffer_peak_bytes", MetricKind::kGaugeMax,
             &N::recv_buffer_peak_bytes);
  s.Register("net.credit_msgs", MetricKind::kCounter, &N::credit_msgs);
  s.Register("net.piggybacked_credits", MetricKind::kCounter,
             &N::piggybacked_credits);
  s.Register("net.intra_node_msgs", MetricKind::kCounter, &N::intra_node_msgs);
  s.Register("net.intra_node_bytes", MetricKind::kCounter,
             &N::intra_node_bytes);
  s.Register("net.inter_node_msgs", MetricKind::kCounter, &N::inter_node_msgs);
  s.Register("net.inter_node_bytes", MetricKind::kCounter,
             &N::inter_node_bytes);
  s.Register("net.pool_leases", MetricKind::kCounter, &N::pool_leases);
  s.Register("net.pool_hits", MetricKind::kCounter, &N::pool_hits);
  s.Register("net.pool_recycled_bytes", MetricKind::kCounter,
             &N::pool_recycled_bytes);
  s.Register("recovery.restarts", MetricKind::kGaugeMax, &N::restarts);
  s.Register("recovery.phases_replayed", MetricKind::kGaugeMax,
             &N::phases_replayed);
  s.Register("recovery.checkpoint_bytes", MetricKind::kCounter,
             &N::checkpoint_bytes);
  s.Register("recovery.wall_ms", MetricKind::kGaugeMax, &N::recovery_wall_ms);
  return true;
}();

class NetStats {
 public:
  void RecordSend(uint64_t bytes) {
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordRecv(uint64_t bytes) {
    messages_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// A payload entered the transport's receiver-side buffering for this PE.
  void AddRecvBuffered(uint64_t bytes) {
    uint64_t now =
        recv_buffered_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = recv_buffer_peak_.load(std::memory_order_relaxed);
    while (now > peak && !recv_buffer_peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  /// A payload left the transport (taken by the application or dropped).
  void SubRecvBuffered(uint64_t bytes) {
    recv_buffered_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  /// Restarts the peak from the current level (per-phase measurements).
  void ResetRecvBufferPeak() {
    recv_buffer_peak_.store(recv_buffered_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  }

  /// One standalone credit message left this PE.
  void RecordCreditMsg() {
    credit_msgs_.fetch_add(1, std::memory_order_relaxed);
  }
  /// `credits` rode an outgoing data frame instead of a dedicated message.
  void RecordPiggybackedCredits(uint64_t credits) {
    piggybacked_credits_.fetch_add(credits, std::memory_order_relaxed);
  }

  /// One message left this PE for a same-node peer (shared-memory path).
  void RecordIntraNode(uint64_t bytes) {
    intra_node_msgs_.fetch_add(1, std::memory_order_relaxed);
    intra_node_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// One message left this PE for a remote node (through the uplink).
  void RecordInterNode(uint64_t bytes) {
    inter_node_msgs_.fetch_add(1, std::memory_order_relaxed);
    inter_node_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// One BufferPool::Lease on this PE's behalf; `hit` when it reused a
  /// recycled buffer, `recycled_bytes` the payload bytes it covered.
  void RecordPoolLease(bool hit, uint64_t recycled_bytes) {
    pool_leases_.fetch_add(1, std::memory_order_relaxed);
    if (hit) {
      pool_hits_.fetch_add(1, std::memory_order_relaxed);
      pool_recycled_bytes_.fetch_add(recycled_bytes,
                                     std::memory_order_relaxed);
    }
  }

  /// Supervised-restart telemetry (see the snapshot fields): gauges are
  /// set once per epoch by the recovery runtime, the byte counter grows at
  /// every manifest write.
  void SetRestarts(uint64_t n) {
    restarts_.store(n, std::memory_order_relaxed);
  }
  void SetPhasesReplayed(uint64_t n) {
    phases_replayed_.store(n, std::memory_order_relaxed);
  }
  void AddCheckpointBytes(uint64_t bytes) {
    checkpoint_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void SetRecoveryWallMs(uint64_t ms) {
    recovery_wall_ms_.store(ms, std::memory_order_relaxed);
  }

  NetStatsSnapshot Snapshot() const {
    return NetStatsSnapshot{
        messages_sent_.load(std::memory_order_relaxed),
        bytes_sent_.load(std::memory_order_relaxed),
        messages_received_.load(std::memory_order_relaxed),
        bytes_received_.load(std::memory_order_relaxed),
        recv_buffer_peak_.load(std::memory_order_relaxed),
        credit_msgs_.load(std::memory_order_relaxed),
        piggybacked_credits_.load(std::memory_order_relaxed),
        intra_node_msgs_.load(std::memory_order_relaxed),
        intra_node_bytes_.load(std::memory_order_relaxed),
        inter_node_msgs_.load(std::memory_order_relaxed),
        inter_node_bytes_.load(std::memory_order_relaxed),
        pool_leases_.load(std::memory_order_relaxed),
        pool_hits_.load(std::memory_order_relaxed),
        pool_recycled_bytes_.load(std::memory_order_relaxed),
        restarts_.load(std::memory_order_relaxed),
        phases_replayed_.load(std::memory_order_relaxed),
        checkpoint_bytes_.load(std::memory_order_relaxed),
        recovery_wall_ms_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> messages_received_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> recv_buffered_{0};
  std::atomic<uint64_t> recv_buffer_peak_{0};
  std::atomic<uint64_t> credit_msgs_{0};
  std::atomic<uint64_t> piggybacked_credits_{0};
  std::atomic<uint64_t> intra_node_msgs_{0};
  std::atomic<uint64_t> intra_node_bytes_{0};
  std::atomic<uint64_t> inter_node_msgs_{0};
  std::atomic<uint64_t> inter_node_bytes_{0};
  std::atomic<uint64_t> pool_leases_{0};
  std::atomic<uint64_t> pool_hits_{0};
  std::atomic<uint64_t> pool_recycled_bytes_{0};
  std::atomic<uint64_t> restarts_{0};
  std::atomic<uint64_t> phases_replayed_{0};
  std::atomic<uint64_t> checkpoint_bytes_{0};
  std::atomic<uint64_t> recovery_wall_ms_{0};
};

}  // namespace demsort::net

#endif  // DEMSORT_NET_NET_STATS_H_
