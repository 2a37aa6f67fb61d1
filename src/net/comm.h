// Comm: the per-PE handle onto the message-passing substrate (the MPI role),
// layered over a pluggable net::Transport (in-process Fabric or TCP).
//
// Semantics follow MPI where it matters to the algorithms:
//  * Isend(dst, tag, data, bytes) copies the payload before returning (the
//    caller's buffer is immediately reusable) and returns a SendRequest
//    that completes when the transport has accepted the bytes — the
//    flow-control credit under bounded channels.
//  * Irecv(src, tag) posts a receive and returns a RecvRequest carrying the
//    payload on completion; messages from the same (src, tag) pair are
//    delivered in send order.
//  * Send/Recv are the blocking forms (admission wait / payload wait). With
//    an unbounded fabric, Send never blocks — the compatible default.
//  * Collectives must be called by all PEs of the cluster in the same order
//    (SPMD discipline); each call internally uses a fresh reserved tag.
//    They are built on Isend/Irecv with receives posted before sends and a
//    bounded volume of in-flight sends, so they neither deadlock under
//    capped channels nor buffer more than the window per peer.
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
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/net_stats.h"
#include "net/topology.h"
#include "net/transport.h"
#include "util/logging.h"

namespace demsort::net {

/// Which exchange schedule Alltoallv uses.
enum class AlltoallAlgo {
  /// Full mesh below the pairwise threshold, pairwise at or above it.
  /// Opt-in (the default is kFullMesh): the pairwise rounds serialize on
  /// each partner and bypass the send-window discipline, a semantics
  /// change callers should choose deliberately.
  kAuto,
  /// All receives posted, rank-rotated sends — minimal latency, but every
  /// PE buffers up to P-1 payloads at once. The default.
  kFullMesh,
  /// P-1 rounds of single-partner exchanges (XOR partners when P is a
  /// power of two, rotation otherwise): one payload in flight per PE, the
  /// schedule for large P.
  kPairwise,
};

class Comm {
 public:
  /// Contributions above this size use the bandwidth-balanced direct
  /// allgather instead of the latency-optimized tree (see comm.cc).
  static constexpr size_t kAllgatherDirectThresholdBytes = 1024;

  /// Default bound on un-completed Isend bytes inside one collective: large
  /// enough to keep every link busy, small enough that a collective's
  /// buffering footprint stays bounded on capped/socket transports.
  static constexpr size_t kDefaultSendWindowBytes = size_t{64} << 20;

  /// Default chunk of the streaming Alltoallv: large enough to amortize
  /// per-message overhead, small enough that receive-side buffering
  /// (chunk x active sources) stays far below a sub-step payload.
  static constexpr size_t kDefaultStreamChunkBytes = size_t{256} << 10;

  /// P at or above which AlltoallAlgo::kAuto (opt-in via
  /// set_alltoallv_algo) switches the buffered Alltoallv to the pairwise
  /// schedule.
  static constexpr int kDefaultPairwiseThreshold = 32;

  /// Un-credited chunks a streaming sender may have in flight per
  /// destination; the receiver's consumption returns the credits, so
  /// receive-side buffering is bounded by roughly this many chunks per
  /// active source (see AlltoallvStream).
  static constexpr uint64_t kStreamSendCreditChunks = 4;

  /// With a hierarchical `topology` (node-local PE groups; see
  /// net::Topology) the collectives run their two-level schedules:
  /// node-local traffic stays on the shared-memory path and only the node
  /// leaders exchange across nodes. A null or flat topology keeps the
  /// classic flat schedules. The topology must outlive the Comm and must
  /// describe exactly `size` PEs.
  Comm(int rank, int size, Transport* transport,
       const Topology* topology = nullptr)
      : rank_(rank), size_(size), transport_(transport), topology_(topology) {
    if (TwoLevelActive()) {
      // The leader sub-communicator allocates its collective tags from the
      // upper half of the window, so a leader's two tag sequences can never
      // alias each other's live exchanges.
      tag_limit_ = kCollectiveTagSpace / 2;
    }
  }

  int rank() const { return rank_; }
  int size() const { return size_; }

  const Topology* topology() const { return topology_; }
  /// True when the collectives run their two-level (node-aware) schedules.
  bool TwoLevelActive() const {
    return topology_ != nullptr && topology_->num_pes() == size_ &&
           topology_->hierarchical();
  }

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
  template <typename T>
  void SendVector(int dst, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Send(dst, tag, v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  std::vector<T> RecvVector(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<uint8_t> bytes = Recv(src, tag);
    DEMSORT_CHECK_EQ(bytes.size() % sizeof(T), 0u);
    std::vector<T> v(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
    return v;
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
  /// Built on the nonblocking layer. Full-mesh schedule: all receives are
  /// posted first, sends go out in rank-rotated order (PE i starts with
  /// i+1, avoiding the everyone-hits-PE-0 hotspot) with at most
  /// `send_window_bytes()` of un-admitted data in flight, then payloads are
  /// drained in rotated order. Full mesh is the default; opting in to
  /// kPairwise or kAuto (set_alltoallv_algo) swaps in the pairwise
  /// schedule — always, or at large P respectively.
  template <typename T>
  std::vector<std::vector<T>> Alltoallv(
      const std::vector<std::vector<T>>& sends) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEMSORT_CHECK_EQ(sends.size(), static_cast<size_t>(size_));
    if (UsePairwiseAlltoallv()) return AlltoallvPairwise(sends);
    if (TwoLevelActive()) return AlltoallvTwoLevelBuffered(sends);
    int tag = AllocateCollectiveTag();

    std::vector<RecvRequest> recvs(size_);
    for (int p = 0; p < size_; ++p) recvs[p] = Irecv(p, tag);

    WindowedSends window(send_window_bytes_);
    for (int off = 1; off <= size_; ++off) {
      int p = (rank_ + off) % size_;
      size_t bytes = sends[p].size() * sizeof(T);
      window.Add(Isend(p, tag, sends[p].data(), bytes), bytes);
    }

    std::vector<std::vector<T>> received(size_);
    for (int off = 1; off <= size_; ++off) {
      // off runs up to size_ inclusive (the self payload), so the index
      // must be (rank_ - off) mod size_ — off is NOT reduced first, which
      // would only be correct while off < size_.
      int p = (rank_ - off + size_) % size_;
      std::vector<uint8_t> bytes = recvs[p].Take();
      DEMSORT_CHECK_EQ(bytes.size() % sizeof(T), 0u);
      received[p].resize(bytes.size() / sizeof(T));
      if (!bytes.empty()) {
        std::memcpy(received[p].data(), bytes.data(), bytes.size());
      }
    }
    window.WaitAll();
    return received;
  }

  /// Buffered all-to-all over the two-level exchange: same result as the
  /// full mesh, but built on the node-aware streaming path — intra-node
  /// payloads travel over shared memory, cross-node payloads ride the
  /// node-local pack → leader-to-leader streaming rounds → local scatter
  /// pipeline, so the uplink carries N*(N-1) aggregate streams instead of
  /// one message per PE pair.
  template <typename T>
  std::vector<std::vector<T>> AlltoallvTwoLevelBuffered(
      const std::vector<std::vector<T>>& sends) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::vector<T>> received(size_);
    StreamOptions options;
    options.align_bytes = sizeof(T);
    AlltoallvStream(
        [&](int dst) {
          return std::span<const uint8_t>(
              reinterpret_cast<const uint8_t*>(sends[dst].data()),
              sends[dst].size() * sizeof(T));
        },
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

  /// Pairwise-exchange Alltoallv: P-1 rounds, one partner each. Every
  /// (src, dst) channel carries exactly one message for the whole
  /// collective and at most one payload per PE is in flight, so buffering
  /// stays O(payload) instead of O(P x payload) — the schedule of choice
  /// when P is large. XOR partnering (power-of-two P) pairs the rounds
  /// perfectly; otherwise a rotation schedule is used.
  template <typename T>
  std::vector<std::vector<T>> AlltoallvPairwise(
      const std::vector<std::vector<T>>& sends) {
    static_assert(std::is_trivially_copyable_v<T>);
    DEMSORT_CHECK_EQ(sends.size(), static_cast<size_t>(size_));
    int tag = AllocateCollectiveTag();
    std::vector<std::vector<T>> received(size_);
    received[rank_] = sends[rank_];
    const bool pow2 = (size_ & (size_ - 1)) == 0;
    for (int r = 1; r < size_; ++r) {
      int to = pow2 ? (rank_ ^ r) : (rank_ + r) % size_;
      int from = pow2 ? to : (rank_ - r + size_) % size_;
      RecvRequest rr = Irecv(from, tag);
      SendRequest sr =
          Isend(to, tag, sends[to].data(), sends[to].size() * sizeof(T));
      std::vector<uint8_t> bytes = rr.Take();
      DEMSORT_CHECK_EQ(bytes.size() % sizeof(T), 0u);
      received[from].resize(bytes.size() / sizeof(T));
      if (!bytes.empty()) {
        std::memcpy(received[from].data(), bytes.data(), bytes.size());
      }
      sr.Wait();
    }
    return received;
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
  /// in flight per destination, so receive-side buffering is
  /// O(credit x max chunk) per active source ON EVERY TRANSPORT — chunking
  /// alone would not bound it on an uncapped fabric — instead of
  /// O(payload) per source.
  ///
  /// The exchange runs as P-1 SYMMETRIC pairwise rounds (XOR partners when
  /// P is a power of two, tournament pairing (round - rank) mod P
  /// otherwise): in each round the PE streams to exactly the partner that
  /// is streaming to it, so flow-control credits ride the reverse data
  /// frames (StreamChunkHeader::credits) instead of costing a message per
  /// chunk; standalone credit messages remain for the tail and liveness
  /// cases (see message.h and the README's collective-tuning section).
  /// In kAdaptive chunk mode a per-destination controller resizes chunks
  /// within [min, max] from the measured credit turnaround. Chunks from
  /// one source arrive in order; sources complete in round order. SPMD
  /// discipline as for every collective: all PEs must pass equal options.
  void AlltoallvStream(const StreamSendProvider& send_for,
                       const ChunkConsumer& consumer,
                       const StreamSizeCallback& on_size,
                       const StreamOptions& options);

  /// Back-compat overload: `chunk_bytes` == 0 uses stream_chunk_bytes();
  /// all other tuning comes from the Comm-level defaults.
  void AlltoallvStream(const StreamSendProvider& send_for,
                       const ChunkConsumer& consumer,
                       const StreamSizeCallback& on_size = nullptr,
                       size_t chunk_bytes = 0) {
    StreamOptions options;
    options.chunk_bytes = chunk_bytes;
    AlltoallvStream(send_for, consumer, on_size, options);
  }

  /// Convenience overloads for payloads that already exist in memory.
  void AlltoallvStream(const std::vector<std::span<const uint8_t>>& sends,
                       const ChunkConsumer& consumer,
                       const StreamSizeCallback& on_size,
                       const StreamOptions& options) {
    DEMSORT_CHECK_EQ(sends.size(), static_cast<size_t>(size_));
    AlltoallvStream([&](int dst) { return sends[dst]; }, consumer, on_size,
                    options);
  }
  void AlltoallvStream(const std::vector<std::span<const uint8_t>>& sends,
                       const ChunkConsumer& consumer,
                       const StreamSizeCallback& on_size = nullptr,
                       size_t chunk_bytes = 0) {
    StreamOptions options;
    options.chunk_bytes = chunk_bytes;
    AlltoallvStream(sends, consumer, on_size, options);
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
    static_assert(std::is_trivially_copyable_v<T>);
    if (options.align_bytes <= 1) options.align_bytes = sizeof(T);
    std::vector<std::vector<T>> out(size_);
    AllgatherVStream(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(local.data()),
            local.size() * sizeof(T)),
        [&](int src, std::span<const uint8_t> chunk, bool) {
          DEMSORT_CHECK_EQ(chunk.size() % sizeof(T), 0u);
          const T* first = reinterpret_cast<const T*>(chunk.data());
          out[src].insert(out[src].end(), first,
                          first + chunk.size() / sizeof(T));
        },
        [&](int src, uint64_t bytes) {
          DEMSORT_CHECK_EQ(bytes % sizeof(T), 0u);
          out[src].reserve(bytes / sizeof(T));
        },
        options);
    return out;
  }

  /// Exclusive prefix sum over one uint64 per PE.
  uint64_t ExclusiveScanSum(uint64_t local);

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
    // SPMD discipline keeps per-PE counters aligned across the cluster.
    // (Hierarchical Comms run in half the window: the leader
    // sub-communicator owns the other half — see the constructor.)
    DEMSORT_CHECK_LT(collective_seq_, tag_limit_)
        << "collective tag space exhausted; widen kCollectiveTagSpace "
           "(tags are plain ints) before reuse can alias a live exchange";
    int tag =
        kCollectiveTagBase + static_cast<int>(tag_offset_ + collective_seq_);
    ++collective_seq_;
    return tag;
  }

  /// Bound on un-completed collective send bytes; 0 = unlimited.
  size_t send_window_bytes() const { return send_window_bytes_; }
  void set_send_window_bytes(size_t bytes) { send_window_bytes_ = bytes; }

  /// Chunk of the streaming Alltoallv (must be > 0).
  size_t stream_chunk_bytes() const { return stream_chunk_bytes_; }
  void set_stream_chunk_bytes(size_t bytes) {
    DEMSORT_CHECK_GT(bytes, 0u);
    stream_chunk_bytes_ = bytes;
  }

  /// Comm-level defaults behind StreamOptions' kAuto modes.
  StreamChunkMode stream_chunk_mode() const { return stream_chunk_mode_; }
  void set_stream_chunk_mode(StreamChunkMode mode) {
    stream_chunk_mode_ = mode;
  }
  StreamCreditMode stream_credit_mode() const { return stream_credit_mode_; }
  void set_stream_credit_mode(StreamCreditMode mode) {
    stream_credit_mode_ = mode;
  }

  /// Consecutive no-stall credit checks before the adaptive controller
  /// doubles the chunk, and the credit-stall duration above which it
  /// halves it (a stall that long means the consumer, not the wire, is
  /// the bottleneck — finer pacing, smaller bursts).
  static constexpr int kStreamGrowStreak = 4;
  static constexpr int64_t kStreamShrinkStallNs = 500'000;  // 0.5 ms

  /// The tuning a streaming collective actually runs with, resolved from
  /// per-call options + Comm defaults. Exposed so tests and benches can
  /// derive the receiver-side buffering bound (credits x max_chunk_bytes
  /// per source) and the exact chunk-size envelope.
  struct ResolvedStreamTuning {
    uint64_t align_bytes = 1;
    uint64_t base_chunk_bytes = 0;
    uint64_t min_chunk_bytes = 0;
    uint64_t max_chunk_bytes = 0;
    bool adaptive = false;
    bool piggyback = true;
    uint64_t credit_unit = 1;
  };
  ResolvedStreamTuning ResolveStreamTuning(const StreamOptions& options) const;

  /// Largest chunk the streaming engine may put on the wire under
  /// `options` (every receiver's per-message upper bound).
  uint64_t StreamMaxChunkBytes(const StreamOptions& options = {}) const {
    return ResolveStreamTuning(options).max_chunk_bytes;
  }

  /// The adaptive controller's current chunk size for `peer` (0 before the
  /// first streaming exchange with it).
  uint64_t StreamPeerChunkBytes(int peer) const {
    return peer < static_cast<int>(stream_tuning_.size())
               ? stream_tuning_[peer].chunk_bytes
               : 0;
  }

  /// Exchange-schedule selection for the buffered Alltoallv.
  AlltoallAlgo alltoallv_algo() const { return alltoallv_algo_; }
  void set_alltoallv_algo(AlltoallAlgo algo) { alltoallv_algo_ = algo; }
  int pairwise_threshold() const { return pairwise_threshold_; }
  void set_pairwise_threshold(int pes) { pairwise_threshold_ = pes; }
  bool UsePairwiseAlltoallv() const {
    if (size_ <= 2) return false;  // schedules coincide
    return alltoallv_algo_ == AlltoallAlgo::kPairwise ||
           (alltoallv_algo_ == AlltoallAlgo::kAuto &&
            size_ >= pairwise_threshold_);
  }

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
  std::vector<std::vector<uint8_t>> AllgatherBytes(
      const std::vector<uint8_t>& local);
  std::vector<std::vector<uint8_t>> TreeAllgatherBytes(
      const std::vector<uint8_t>& local);

  // ---- two-level (node-aware) schedules; see the "Topology & hierarchy"
  // section of the README. Active when TwoLevelActive().
  void BarrierTwoLevel();
  void BroadcastTwoLevel(int root, std::vector<uint8_t>& data);
  std::vector<std::vector<uint8_t>> AllgatherBytesTwoLevel(
      const std::vector<uint8_t>& local);
  /// Frame-granular delivery of the internal streaming engine: the landed
  /// chunk arrives as the pooled transport frame itself (chunk header
  /// already consumed into headroom), MOVED — the two-level demux forwards
  /// it onward without a copy. Engine-internal; the public API stays
  /// span-based.
  using FrameConsumer = std::function<void(int src, Frame chunk, bool last)>;
  /// Segmented send payload: the stream for one destination is the
  /// concatenation of these spans, walked in order by the sender — chunks
  /// are cut at segment boundaries, so no segment is ever coalesced into
  /// a scratch buffer. Unlike StreamSendProvider's until-next-call rule,
  /// every span (and the returned outer span) must stay valid until the
  /// exchange returns: the two-level leader streams straight out of the
  /// landed pack frames. The self stream must be empty.
  using StreamSegments = std::span<const std::span<const uint8_t>>;
  using SegmentedSendProvider = std::function<StreamSegments(int dst)>;
  /// `frame_consumer`, when set, replaces `consumer` entirely (which may
  /// then be null); the self stream must be empty under framed delivery.
  /// `seg_send_for`, when set, replaces `send_for` (which may then be
  /// null).
  void AlltoallvStreamFlat(const StreamSendProvider& send_for,
                           const ChunkConsumer& consumer,
                           const StreamSizeCallback& on_size,
                           const StreamOptions& options,
                           const FrameConsumer& frame_consumer = nullptr,
                           const SegmentedSendProvider& seg_send_for = nullptr);
  /// Store-and-forward sends (this PE moving another PE's bytes): same
  /// delivery semantics as IsendGather/IsendFrame, but a transport that
  /// knows the hop is internal (the hierarchical leader path) exempts it
  /// from the per-PE traffic counters like a self-send — each logical byte
  /// is counted once, at its real hop.
  SendRequest IsendGatherForward(int dst, int tag, const void* header,
                                 size_t header_bytes, const void* data,
                                 size_t bytes) {
    return transport_->IsendGatherForward(rank_, dst, tag, header,
                                          header_bytes, data, bytes);
  }
  SendRequest IsendFrameForward(int dst, int tag, Frame frame) {
    return transport_->IsendFrameForward(rank_, dst, tag, std::move(frame));
  }
  void AlltoallvStreamTwoLevel(const StreamSendProvider& send_for,
                               const ChunkConsumer& consumer,
                               const StreamSizeCallback& on_size,
                               const StreamOptions& options);
  /// The node-leader sub-communicator (leaders only; lazily built): sub
  /// rank n == node n, mapped onto the full transport by leader rank. Its
  /// adaptive-chunk controller state persists across collectives like the
  /// parent's.
  Comm& LeaderComm();

  /// Adaptive-chunk controller state, persistent across collectives so a
  /// converged size carries over to the next exchange with the same peer.
  struct StreamPeerTuning {
    uint64_t chunk_bytes = 0;  // 0 = start from the call's base chunk
    int fast_streak = 0;
  };

  int rank_;
  int size_;
  Transport* transport_;
  const Topology* topology_ = nullptr;
  std::unique_ptr<Transport> leader_transport_;
  std::unique_ptr<Comm> leader_comm_;
  uint32_t collective_seq_ = 0;
  uint32_t tag_offset_ = 0;
  uint32_t tag_limit_ = kCollectiveTagSpace;
  size_t send_window_bytes_ = kDefaultSendWindowBytes;
  size_t stream_chunk_bytes_ = kDefaultStreamChunkBytes;
  StreamChunkMode stream_chunk_mode_ = StreamChunkMode::kAdaptive;
  StreamCreditMode stream_credit_mode_ = StreamCreditMode::kPiggyback;
  std::vector<StreamPeerTuning> stream_tuning_;
  AlltoallAlgo alltoallv_algo_ = AlltoallAlgo::kFullMesh;
  int pairwise_threshold_ = kDefaultPairwiseThreshold;
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
