// Comm: the per-PE handle onto the message-passing substrate (the MPI role),
// layered over a pluggable net::Transport (in-process Fabric, TCP, or the
// node-aware HierarchicalTransport). Every transport runs the same flat
// collective schedules: a node hierarchy is routing inside the transport,
// never a second schedule here.
//
// Semantics follow MPI where it matters to the algorithms:
//  * Isend(dst, tag, data, bytes) copies the payload before returning (the
//    caller's buffer is immediately reusable) and returns a SendRequest
//    that completes when the transport has accepted the bytes (the
//    in-process fabrics accept at once; TCP when the socket takes them).
//  * Irecv(src, tag) posts a receive and returns a RecvRequest carrying the
//    payload on completion; messages from the same (src, tag) pair are
//    delivered in send order.
//  * Send/Recv are the blocking forms (admission wait / payload wait). On
//    the in-process fabrics Send never blocks.
//  * Collectives must be called by all PEs of the cluster in the same order
//    (SPMD discipline); each call internally uses a fresh reserved tag.
//    They are built on Isend/Irecv with receives posted before sends and a
//    bounded volume of in-flight sends (the send window), so a collective's
//    un-completed sends never exceed the window.
//
// Unlike MPI's int counts (the paper had to re-implement MPI_Alltoallv to
// move >2 GiB), all sizes here are 64-bit native.
//
// Failure semantics: a peer or link failure fails the affected requests at
// the transport layer, and every blocking Comm operation (Send/Recv, the
// collectives, the streaming exchange) surfaces it by throwing
// net::CommError — the sort on a surviving PE unwinds with a per-rank
// error instead of hanging or aborting the process. See the README's
// "Failure model" section.
#ifndef DEMSORT_NET_COMM_H_
#define DEMSORT_NET_COMM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/net_stats.h"
#include "net/transport.h"
#include "util/logging.h"

namespace demsort::net {

class Comm {
 public:
  /// Contributions above this size use the bandwidth-balanced direct
  /// allgather instead of the latency-optimized tree (see comm.cc).
  static constexpr size_t kAllgatherDirectThresholdBytes = 1024;

  /// Default bound on un-completed Isend bytes inside one collective: large
  /// enough to keep every link busy, small enough that a collective's
  /// un-flushed send footprint stays bounded on socket transports.
  static constexpr size_t kDefaultSendWindowBytes = size_t{64} << 20;

  /// Default chunk of the streaming Alltoallv: large enough to amortize
  /// per-message overhead, small enough that receive-side buffering
  /// (chunk x active sources) stays far below a sub-step payload.
  static constexpr size_t kDefaultStreamChunkBytes = size_t{256} << 10;

  /// Un-credited chunks a streaming sender may have in flight per
  /// destination. The receiver grants this first window in its size header
  /// when it enters the round and returns one credit per consumed chunk,
  /// so receive-side buffering is bounded by roughly this many chunks per
  /// active source (see AlltoallvStream).
  static constexpr uint64_t kStreamSendCreditChunks = 4;

  Comm(int rank, int size, Transport* transport)
      : rank_(rank), size_(size), transport_(transport) {}

  int rank() const { return rank_; }
  int size() const { return size_; }

  // ------------------------------------------------------------ pt2pt ----
  /// Nonblocking send; the payload is copied out before return.
  SendRequest Isend(int dst, int tag, const void* data, size_t bytes) {
    return transport_->Isend(rank_, dst, tag, data, bytes);
  }
  /// Gathering Isend: one message of header-then-payload, assembled by the
  /// transport in a single copy (the streaming chunk-frame hot path).
  SendRequest IsendGather(int dst, int tag, const void* header,
                          size_t header_bytes, const void* data,
                          size_t bytes) {
    return transport_->IsendGather(rank_, dst, tag, header, header_bytes,
                                   data, bytes);
  }

  /// Nonblocking posted receive for the next (src, tag) message.
  RecvRequest Irecv(int src, int tag) {
    return transport_->Irecv(rank_, src, tag);
  }

  /// Blocking send: waits for transport admission (never blocks on an
  /// unbounded fabric).
  void Send(int dst, int tag, const void* data, size_t bytes);
  /// Blocking receive of the next message from (src, tag), in send order.
  std::vector<uint8_t> Recv(int src, int tag);

  /// Typed conveniences for trivially copyable T.
  template <typename T>
  void SendValue(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Send(dst, tag, &value, sizeof(T));
  }
  template <typename T>
  T RecvValue(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<uint8_t> bytes = Recv(src, tag);
    DEMSORT_CHECK_EQ(bytes.size(), sizeof(T));
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }

  // ------------------------------------------------------ collectives ----
  /// Dissemination barrier, O(log P) rounds.
  void Barrier();

  /// Binomial-tree broadcast of a byte vector from `root`.
  void Broadcast(int root, std::vector<uint8_t>& data);

  template <typename T>
  T BroadcastValue(int root, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<uint8_t> bytes(sizeof(T));
    if (rank_ == root) std::memcpy(bytes.data(), &value, sizeof(T));
    Broadcast(root, bytes);
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }

  /// Allreduce with a user-supplied associative+commutative combiner.
  template <typename T>
  T Allreduce(const T& local, const std::function<T(const T&, const T&)>& op);

  template <typename T>
  T AllreduceSum(const T& local) {
    return Allreduce<T>(local, [](const T& a, const T& b) { return a + b; });
  }
  template <typename T>
  T AllreduceMax(const T& local) {
    return Allreduce<T>(local,
                        [](const T& a, const T& b) { return a < b ? b : a; });
  }
  template <typename T>
  T AllreduceMin(const T& local) {
    return Allreduce<T>(local,
                        [](const T& a, const T& b) { return b < a ? b : a; });
  }
  bool AllreduceAnd(bool local) {
    return Allreduce<uint8_t>(local ? 1 : 0,
                              [](const uint8_t& a, const uint8_t& b) {
                                return static_cast<uint8_t>(a & b);
                              }) != 0;
  }

  /// Every PE contributes one T; everyone gets the vector indexed by rank.
  template <typename T>
  std::vector<T> Allgather(const T& local) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<uint8_t>> parts = AllgatherBytes(
        std::vector<uint8_t>(reinterpret_cast<const uint8_t*>(&local),
                             reinterpret_cast<const uint8_t*>(&local) +
                                 sizeof(T)));
    std::vector<T> out(size_);
    for (int p = 0; p < size_; ++p) {
      DEMSORT_CHECK_EQ(parts[p].size(), sizeof(T));
      std::memcpy(&out[p], parts[p].data(), sizeof(T));
    }
    return out;
  }

  /// Variable-length allgather: every PE contributes a vector<T> (possibly
  /// empty, different sizes); everyone gets all P vectors.
  template <typename T>
  std::vector<std::vector<T>> AllgatherV(const std::vector<T>& local) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<uint8_t> bytes(local.size() * sizeof(T));
    if (!bytes.empty()) std::memcpy(bytes.data(), local.data(), bytes.size());
    std::vector<std::vector<uint8_t>> parts = AllgatherBytes(bytes);
    std::vector<std::vector<T>> out(size_);
    for (int p = 0; p < size_; ++p) {
      DEMSORT_CHECK_EQ(parts[p].size() % sizeof(T), 0u);
      out[p].resize(parts[p].size() / sizeof(T));
      if (!parts[p].empty()) {
        std::memcpy(out[p].data(), parts[p].data(), parts[p].size());
      }
    }
    return out;
  }

  /// 64-bit all-to-all: element `sends[p]` goes to PE p; returns the vector
  /// of payloads received, indexed by source PE. This is the primitive the
  /// paper re-implemented over MPI to escape the 31-bit count limit.
  ///
  /// A typed wrapper over AlltoallvStream, on every topology: each source's
  /// payload is appended to its result vector chunk by chunk as it lands
  /// (pre-sized from the stream header), so the transport never stages a
  /// whole payload per peer — receive-side buffering is O(credit x chunk)
  /// per active source. Chunks are aligned to sizeof(T), so none splits an
  /// element; all other tuning comes from `options` (SPMD: equal on every
  /// PE) and the Comm defaults.
  template <typename T>
  std::vector<std::vector<T>> Alltoallv(
      const std::vector<std::vector<T>>& sends, StreamOptions options = {}) {
    DEMSORT_CHECK_EQ(sends.size(), static_cast<size_t>(size_));
    options.align_bytes = sizeof(T);
    return StreamIntoVectors<T>(
        [&](int dst) {
          return std::span<const uint8_t>(
              reinterpret_cast<const uint8_t*>(sends[dst].data()),
              sends[dst].size() * sizeof(T));
        },
        options);
  }

  // ------------------------------------------- streaming collectives ------
  /// Consumes one landed chunk: `chunk` is valid only for the duration of
  /// the call; `last` marks the final chunk from `src` (an empty payload
  /// still yields exactly one call with an empty span and last == true).
  using ChunkConsumer =
      std::function<void(int src, std::span<const uint8_t> chunk, bool last)>;
  /// Supplies the payload for one destination. Called exactly once per
  /// destination, in the pairwise schedule's round order (self in this
  /// PE's idle round); the returned span must stay valid until the next
  /// provider call (remote payloads are copied out chunk by chunk during
  /// the round; the self payload is handed to the consumer zero-copy).
  using StreamSendProvider = std::function<std::span<const uint8_t>(int dst)>;
  /// Optional: told each source's total payload size as soon as its stream
  /// header lands (lets consumers pre-size their assembly).
  using StreamSizeCallback = std::function<void(int src, uint64_t bytes)>;

  /// Streaming 64-bit all-to-all with receiver-driven flow control: each
  /// destination's payload travels as a size header plus bounded chunks,
  /// receives are posted chunk-granular, and `consumer` runs as each chunk
  /// lands — so unpacking, disk writes, and the tail of the network
  /// transfer overlap. The receiver returns one credit per consumed chunk
  /// and a sender keeps at most kStreamSendCreditChunks un-credited chunks
  /// in flight per destination — none before the destination has entered
  /// the round and granted the first window — so receive-side buffering is
  /// O(credit x chunk) per active source ON EVERY TRANSPORT — no transport
  /// throttles its receiver, so chunking alone would not bound it —
  /// instead of O(payload) per source.
  ///
  /// The exchange runs as P-1 SYMMETRIC pairwise rounds (XOR partners when
  /// P is a power of two, tournament pairing (round - rank) mod P
  /// otherwise): in each round the PE streams to exactly the partner that
  /// is streaming to it, so flow-control credits ride the reverse data
  /// frames (StreamChunkHeader::credits) instead of costing a message per
  /// chunk. A standalone credit message returns a whole window, in the
  /// tail and liveness cases, plus one close per stream; a sender keeps
  /// its window's last credit for a frame that can carry credit back. So
  /// the chunk count bounds the number of standalone messages; only how
  /// many credits fall into a stream's tail depends on scheduling (see
  /// message.h and the README's collective-tuning section).
  /// Every chunk is StreamChunkBytes(options) bytes except each stream's
  /// last. Chunks from one source arrive in order; sources complete in
  /// round order. SPMD discipline as for every collective: all PEs must
  /// pass equal options.
  void AlltoallvStream(const StreamSendProvider& send_for,
                       const ChunkConsumer& consumer,
                       const StreamSizeCallback& on_size,
                       const StreamOptions& options);

  /// Convenience overload for payloads that already exist in memory.
  void AlltoallvStream(const std::vector<std::span<const uint8_t>>& sends,
                       const ChunkConsumer& consumer,
                       const StreamSizeCallback& on_size = nullptr,
                       const StreamOptions& options = {}) {
    DEMSORT_CHECK_EQ(sends.size(), static_cast<size_t>(size_));
    AlltoallvStream([&](int dst) { return sends[dst]; }, consumer, on_size,
                    options);
  }

  /// Streaming variable-length allgather: every PE contributes `mine` and
  /// `consumer` sees every PE's contribution (own included, zero-copy) in
  /// bounded chunks — no P payload vectors are ever materialized on the
  /// receive side. Dissemination is the bandwidth-balanced direct exchange
  /// (each PE ships its contribution to every peer over the pairwise round
  /// schedule) — consistent with AllgatherBytes' large-payload path, which
  /// is exactly the regime where streaming matters; the latency-optimized
  /// tree remains the buffered AllgatherV's small-payload path. Because
  /// the rounds are symmetric, credit piggybacking applies here too.
  /// Volume: (P-1) * |mine| sent per PE, perfectly balanced.
  void AllgatherVStream(std::span<const uint8_t> mine,
                        const ChunkConsumer& consumer,
                        const StreamSizeCallback& on_size = nullptr,
                        const StreamOptions& options = {}) {
    AlltoallvStream([mine](int) { return mine; }, consumer, on_size, options);
  }

  /// Typed streaming allgather: returns the P contribution vectors (the
  /// result itself is materialized — it is the caller's output — but the
  /// transport side streams in O(credit x chunk) instead of staging P
  /// payload copies). align_bytes <= 1 defaults to sizeof(T) so chunks
  /// never split an element.
  template <typename T>
  std::vector<std::vector<T>> AllgatherVStreamed(const std::vector<T>& local,
                                                 StreamOptions options = {}) {
    if (options.align_bytes <= 1) options.align_bytes = sizeof(T);
    const std::span<const uint8_t> mine(
        reinterpret_cast<const uint8_t*>(local.data()),
        local.size() * sizeof(T));
    return StreamIntoVectors<T>([mine](int) { return mine; }, options);
  }

  /// Collective tags live in [kCollectiveTagBase, kCollectiveTagBase +
  /// kCollectiveTagSpace); silently wrapping within that window would let a
  /// new collective alias a live exchange from 2^23 collectives ago, so
  /// exhaustion fails loudly instead.
  static constexpr uint32_t kCollectiveTagSpace = 1u << 23;

  /// Reserves a fresh collective tag. Public so phase implementations can
  /// run their own request-based exchanges (external all-to-all, selection
  /// fetch rounds) under SPMD discipline without colliding with the
  /// built-in collectives.
  int AllocateCollectiveTag() {
    // SPMD discipline keeps per-PE counters aligned across the cluster, and
    // one Comm per PE owns the whole window.
    DEMSORT_CHECK_LT(collective_seq_, kCollectiveTagSpace)
        << "collective tag space exhausted; widen kCollectiveTagSpace "
           "(tags are plain ints) before reuse can alias a live exchange";
    int tag = kCollectiveTagBase + static_cast<int>(collective_seq_);
    ++collective_seq_;
    return tag;
  }

  /// Bound on un-completed collective send bytes; 0 = unlimited.
  size_t send_window_bytes() const { return send_window_bytes_; }
  void set_send_window_bytes(size_t bytes) { send_window_bytes_ = bytes; }

  /// The size of every chunk a streaming collective puts on the wire under
  /// `options`, except each stream's last (which may be smaller): the
  /// per-call chunk or kDefaultStreamChunkBytes, aligned down to
  /// align_bytes and at least one alignment unit. Tests and benches derive
  /// the receiver-side buffering bound (credits x chunk per source) from it.
  static uint64_t StreamChunkBytes(const StreamOptions& options = {});

  /// Restarts this PE's receive-buffer peak gauge (per-phase measurements).
  void ResetRecvBufferPeak() {
    transport_->stats(rank_).ResetRecvBufferPeak();
  }

  /// This PE's raw transport counters. The recovery runtime writes its
  /// telemetry (restarts, replayed phases, checkpoint bytes) through this
  /// handle so the per-phase snapshot deltas attribute them to the phase
  /// that recovered.
  NetStats& stats() { return transport_->stats(rank_); }

  /// Per-PE communication counters (volume excludes self-sends, which are
  /// local memory traffic in a real cluster too... they are counted
  /// separately so analyses can include or exclude them).
  NetStatsSnapshot StatsSnapshot() const;

 private:
  /// The typed collectives' engine: AlltoallvStream with each source's
  /// payload appended to its own vector<T> as the chunks land (reserved
  /// from the stream header). `options.align_bytes` must be a multiple of
  /// sizeof(T), so no chunk splits an element.
  template <typename T>
  std::vector<std::vector<T>> StreamIntoVectors(
      const StreamSendProvider& send_for, const StreamOptions& options) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<T>> received(size_);
    AlltoallvStream(
        send_for,
        [&](int src, std::span<const uint8_t> chunk, bool) {
          DEMSORT_CHECK_EQ(chunk.size() % sizeof(T), 0u);
          const T* first = reinterpret_cast<const T*>(chunk.data());
          received[src].insert(received[src].end(), first,
                               first + chunk.size() / sizeof(T));
        },
        [&](int src, uint64_t bytes) {
          DEMSORT_CHECK_EQ(bytes % sizeof(T), 0u);
          received[src].reserve(bytes / sizeof(T));
        },
        options);
    return received;
  }

  std::vector<std::vector<uint8_t>> AllgatherBytes(
      const std::vector<uint8_t>& local);
  std::vector<std::vector<uint8_t>> TreeAllgatherBytes(
      const std::vector<uint8_t>& local);

  int rank_;
  int size_;
  Transport* transport_;
  uint32_t collective_seq_ = 0;
  size_t send_window_bytes_ = kDefaultSendWindowBytes;
};

template <typename T>
T Comm::Allreduce(const T& local,
                  const std::function<T(const T&, const T&)>& op) {
  // Tree-structured via Allgather (binomial gather + broadcast), then a
  // deterministic rank-order fold — identical result on every PE.
  std::vector<T> all = Allgather(local);
  T acc = all[0];
  for (int p = 1; p < size_; ++p) acc = op(acc, all[p]);
  return acc;
}

}  // namespace demsort::net

#endif  // DEMSORT_NET_COMM_H_
