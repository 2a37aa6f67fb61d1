// Transport: the pluggable point-to-point byte layer under net::Comm.
//
// A Transport moves tagged byte payloads between PEs with MPI-style
// (source, tag) matching and per-(source, tag) FIFO order. Both primitives
// are nonblocking and return Request-style completion handles, mirroring
// io::Request, so network transfers can overlap with disk I/O and
// computation inside a phase:
//
//  * Isend copies the payload out of the caller's buffer BEFORE returning,
//    so the buffer is immediately reusable. The returned SendRequest
//    completes when the bytes have been admitted into the channel (in
//    process) or flushed to the socket (TCP) — completion is a SENDER-side
//    credit, not delivery. Both backends can turn that credit into
//    receiver-side backpressure: the capped in-process fabric parks sends
//    at the channel cap, and the TCP reader thread pauses at a configurable
//    mailbox byte watermark (TcpTransport::Options::recv_watermark_bytes),
//    so the socket fills and the sender's credit stalls until the consumer
//    actually drains.
//  * Irecv posts a receive for (src, tag); the returned RecvRequest
//    completes when a matching message arrives and carries the payload.
//  * Requests complete with a Status. A peer or link failure fails the
//    affected requests (posted and future) instead of hanging or aborting:
//    Wait/Take throw net::CommError, which unwinds the PE's sort and lets
//    the cluster harness report a per-rank error while the survivors'
//    waits are cancelled (see Transport::KillPe, internal::TagChannel::
//    Poison, and the fault model section of the README).
//
// Implementations:
//  * net::Fabric (cluster.h)       — in-process byte-copying mailboxes,
//    one object serving all PEs of an emulated cluster; optional bounded
//    per-channel in-flight volume (backpressure).
//  * net::TcpTransport (tcp_transport.h) — real sockets, one endpoint per
//    OS process (or per thread in the loopback test harness).
#ifndef DEMSORT_NET_TRANSPORT_H_
#define DEMSORT_NET_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/net_stats.h"
#include "util/status.h"

namespace demsort::net {

/// Thrown when a transfer cannot complete because a peer (or the link to
/// it) failed: the request layer completes requests with a non-OK Status
/// and Wait/Take convert it into this exception, so a dead PE surfaces as
/// a catchable per-rank error instead of a process abort or an indefinite
/// hang. Logic errors (protocol violations, size mismatches) remain
/// DEMSORT_CHECK aborts — only environment failures travel this channel.
class CommError : public std::runtime_error {
 public:
  explicit CommError(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

namespace internal {

struct SendState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;  // set before done; non-OK = the transfer failed
};

struct RecvState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;  // set before done; non-OK = the message will never arrive
  Frame payload;
  /// Invoked exactly once at completion (success or failure), after the cv
  /// notify. May run on the completing thread while it holds channel-level
  /// locks: keep it cheap and lock-light (an eventcount bump, not work).
  std::function<void()> on_done;
  /// Receiver-side buffering accounting: while a delivered payload sits in
  /// this state un-taken, it still occupies transport memory. Set by the
  /// channel at delivery; cleared when the payload is taken (or the state
  /// dies untaken).
  NetStats* buffered_stats = nullptr;
  uint64_t buffered_bytes = 0;

  ~RecvState() {
    if (buffered_stats != nullptr) {
      buffered_stats->SubRecvBuffered(buffered_bytes);
    }
  }
};

}  // namespace internal

/// Completion handle for a nonblocking send. Copyable; default-constructed
/// handles are already complete (used for self-sends and the uncapped
/// in-process fast path).
class SendRequest {
 public:
  SendRequest() = default;
  explicit SendRequest(std::shared_ptr<internal::SendState> state)
      : state_(std::move(state)) {}

  /// An already-failed request (dead link at Isend time).
  static SendRequest Failed(Status status) {
    auto state = std::make_shared<internal::SendState>();
    state->status = std::move(status);
    state->done = true;
    return SendRequest(std::move(state));
  }

  /// Blocks until the transport has accepted the bytes (flow control).
  /// Throws CommError if the transfer failed (peer or link death).
  void Wait() const {
    if (state_ == nullptr) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (!state_->status.ok()) throw CommError(state_->status);
  }

  bool done() const {
    if (state_ == nullptr) return true;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

  /// Completion status; OK while still in flight.
  Status status() const {
    if (state_ == nullptr) return Status::OK();
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->status;
  }

  static void Complete(const std::shared_ptr<internal::SendState>& state) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
    }
    state->cv.notify_all();
  }

  /// Completes the request with a failure; Wait() will throw. Idempotence
  /// is the caller's job: a state must be completed exactly once.
  static void Fail(const std::shared_ptr<internal::SendState>& state,
                   Status status) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->status = std::move(status);
      state->done = true;
    }
    state->cv.notify_all();
  }

 private:
  std::shared_ptr<internal::SendState> state_;
};

/// Completion handle for a nonblocking receive; carries the payload once
/// complete. Copyable, but the payload can be Take()n only once.
class RecvRequest {
 public:
  RecvRequest() = default;
  explicit RecvRequest(std::shared_ptr<internal::RecvState> state)
      : state_(std::move(state)) {}

  /// An already-failed request (poisoned channel at Irecv time).
  static RecvRequest Failed(Status status) {
    auto state = std::make_shared<internal::RecvState>();
    state->status = std::move(status);
    state->done = true;
    return RecvRequest(std::move(state));
  }

  /// Blocks until the message arrives. Throws CommError if it never will
  /// (the source PE or link failed).
  void Wait() const {
    if (state_ == nullptr) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (!state_->status.ok()) throw CommError(state_->status);
  }

  bool done() const {
    if (state_ == nullptr) return true;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
  }

  /// Completion status; OK while still in flight.
  Status status() const {
    if (state_ == nullptr) return Status::OK();
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->status;
  }

  /// Blocks until the message arrives, then moves the payload out as a
  /// plain vector (detaching it from any buffer pool). Throws CommError if
  /// the message will never arrive.
  std::vector<uint8_t> Take() {
    return std::move(TakeFrame()).IntoVector();
  }

  /// As Take(), but keeps the payload in its (possibly pooled) Frame: hot
  /// paths Consume() headers in place and let the buffer recycle instead
  /// of copying it out.
  Frame TakeFrame() {
    if (state_ == nullptr) return {};
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (!state_->status.ok()) throw CommError(state_->status);
    if (state_->buffered_stats != nullptr) {
      state_->buffered_stats->SubRecvBuffered(state_->buffered_bytes);
      state_->buffered_stats = nullptr;
    }
    return std::move(state_->payload);
  }

  /// Registers a callback invoked when the request completes (or
  /// immediately, if it already has). One callback per request; used by the
  /// hierarchical demux reactor to sleep until ANY posted uplink receive
  /// lands instead of polling. See RecvState::on_done for the contract.
  void OnDone(std::function<void()> fn) const {
    if (state_ == nullptr) {
      fn();
      return;
    }
    bool already;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      already = state_->done;
      if (!already) state_->on_done = std::move(fn);
    }
    if (already) fn();
  }

  static void Complete(const std::shared_ptr<internal::RecvState>& state,
                       Frame payload) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->payload = std::move(payload);
      state->done = true;
      fn = std::move(state->on_done);
    }
    state->cv.notify_all();
    if (fn) fn();
  }

  /// Fails the posted receive; Wait()/Take() will throw.
  static void Fail(const std::shared_ptr<internal::RecvState>& state,
                   Status status) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->status = std::move(status);
      state->done = true;
      fn = std::move(state->on_done);
    }
    state->cv.notify_all();
    if (fn) fn();
  }

 private:
  std::shared_ptr<internal::RecvState> state_;
};

/// Abstract point-to-point byte transport. All sizes are 64-bit: unlike
/// MPI's int counts (the paper re-implemented MPI_Alltoallv to move >2 GiB),
/// a single message may exceed 4 GiB on every implementation.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_pes() const = 0;

  /// Nonblocking tagged send from PE `src` to PE `dst`. The payload is
  /// copied before return; the request completes when the transport has
  /// accepted the bytes (see file comment).
  virtual SendRequest Isend(int src, int dst, int tag, const void* data,
                            size_t bytes) = 0;

  /// Gathering variant: ONE message whose payload is `header_bytes` of
  /// `header` immediately followed by `bytes` of `data`. Transports
  /// override it to build the wire frame in a single copy — the streaming
  /// collectives prepend per-chunk headers through this, keeping the hot
  /// path at one copy instead of scratch-assembly plus the Isend copy.
  /// The default (for wrappers that only intercept) assembles and
  /// delegates to this->Isend.
  virtual SendRequest IsendGather(int src, int dst, int tag,
                                  const void* header, size_t header_bytes,
                                  const void* data, size_t bytes) {
    std::vector<uint8_t> frame(header_bytes + bytes);
    std::memcpy(frame.data(), header, header_bytes);
    if (bytes != 0) std::memcpy(frame.data() + header_bytes, data, bytes);
    return Isend(src, dst, tag, frame.data(), frame.size());
  }

  /// Move-in variant of Isend: the transport takes ownership of the frame
  /// (typically a pooled buffer already holding the complete wire payload)
  /// and moves it to the destination without copying. The default copies
  /// through Isend, so wrappers and transports without a zero-copy path
  /// stay correct.
  virtual SendRequest IsendFrame(int src, int dst, int tag, Frame frame) {
    return Isend(src, dst, tag, frame.data(), frame.size());
  }

  /// Forwarding variants: identical delivery semantics to IsendGather /
  /// IsendFrame, but the transfer is transport-internal store-and-forward
  /// traffic (a leader moving another PE's bytes), NOT application traffic
  /// originated by `src`. Node-aware transports override these to skip the
  /// per-PE traffic counters — like self-sends — so `--stats` reports each
  /// logical byte once, at the hop that really moved it. Defaults delegate
  /// to the normal (counted) path.
  virtual SendRequest IsendGatherForward(int src, int dst, int tag,
                                         const void* header,
                                         size_t header_bytes,
                                         const void* data, size_t bytes) {
    return IsendGather(src, dst, tag, header, header_bytes, data, bytes);
  }
  virtual SendRequest IsendFrameForward(int src, int dst, int tag,
                                        Frame frame) {
    return IsendFrame(src, dst, tag, std::move(frame));
  }

  /// Nonblocking posted receive at PE `dst` for the next message from
  /// (src, tag), in send order.
  virtual RecvRequest Irecv(int dst, int src, int tag) = 0;

  /// Marks PE `pe` as failed: every posted and future receive from it
  /// completes with `status` (already-delivered messages stay receivable),
  /// parked and future sends to it fail, and any blocked internal machinery
  /// touching it is released. Used by fault injection (net::FaultTransport)
  /// and by the cluster harnesses to cancel peers' waits when a PE throws —
  /// survivors observe the death as CommError from Wait/Take, never as a
  /// hang. Idempotent; the first status wins.
  virtual void KillPe(int pe, const Status& status) = 0;

  /// Severs the (a, b) link in both directions with the same semantics as
  /// KillPe, but scoped to that one pair; traffic between other pairs is
  /// unaffected. On single-rank transports (TCP), a no-op unless this
  /// endpoint's rank is `a` or `b`.
  virtual void KillLink(int a, int b, const Status& status) = 0;

  /// Traffic counters for PE `pe`. In-process transports serve every PE;
  /// socket transports only their own rank.
  virtual NetStats& stats(int pe) = 0;
};

// ---------------------------------------------------------------------------
// Transport selection (CLI flags, bench harnesses).

enum class TransportKind {
  kInProc,  ///< net::Fabric mailboxes, PEs are threads of one process
  kTcp,     ///< net::TcpTransport sockets, PEs may be separate processes
  kHier,    ///< net::HierarchicalTransport: node-local shared-memory PE
            ///< groups behind one uplink endpoint per node
};

inline const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kTcp:
      return "tcp";
    case TransportKind::kHier:
      return "hier";
    default:
      return "inproc";
  }
}

inline StatusOr<TransportKind> ParseTransportKind(const std::string& name) {
  if (name == "inproc" || name == "fabric" || name == "thread") {
    return TransportKind::kInProc;
  }
  if (name == "tcp" || name == "socket") return TransportKind::kTcp;
  if (name == "hier" || name == "hierarchical") return TransportKind::kHier;
  return Status::InvalidArgument("unknown transport '" + name +
                                 "' (expected inproc|tcp|hier)");
}

namespace internal {

/// One ordered (source → destination) stream: MPI-style per-tag FIFO
/// matching between delivered messages and posted receives, plus an
/// optional cap on queued (delivered but not yet received) bytes.
///
/// Shared by both transports: Fabric uses Offer() as the send path itself
/// (the cap is the backpressure), the TCP receiver thread uses Offer() to
/// park already-transferred bytes and pauses itself at a mailbox watermark
/// (WaitQueuedBelow) — receiver-driven backpressure through the socket.
///
/// If `recv_stats` is given, every payload delivered through this channel
/// is charged to the receiving PE's buffering gauge from delivery until
/// the application takes it (see NetStats::AddRecvBuffered).
class TagChannel {
 public:
  explicit TagChannel(size_t cap_bytes = 0, NetStats* recv_stats = nullptr)
      : cap_bytes_(cap_bytes), recv_stats_(recv_stats) {}

  /// Delivers a message: hands it to the earliest posted receive with this
  /// tag, else queues it — unless a cap is set and the queue is full, in
  /// which case the message parks and the returned request stays pending
  /// until a receive drains the queue. `exempt_from_cap` admits
  /// unconditionally (self-sends: local memory traffic in a real cluster).
  SendRequest Offer(int tag, Frame payload, bool exempt_from_cap) {
    std::lock_guard<std::mutex> lock(mu_);
    if (poisoned_) return SendRequest::Failed(poison_);
    if (exempt_from_cap) {
      // Exempt messages (self-sends; TCP delivery, where the socket already
      // provided the backpressure) bypass the cap and the park queue.
      DeliverUnconditionallyLocked(tag, std::move(payload));
      return SendRequest();
    }
    // Fast path: nothing parked, delivery fits → done, no allocation.
    if (parked_.empty() && TryDeliverLocked(tag, payload, /*exempt=*/false)) {
      return SendRequest();
    }
    // Park behind any same-tag predecessor; the admission scan delivers
    // whatever the per-tag FIFO and the cap allow.
    auto state = std::make_shared<SendState>();
    parked_.push_back(Parked{tag, std::move(payload), state});
    AdmitParkedLocked();
    return SendRequest(state);
  }

  /// Posts a receive for (this source, tag). Completes immediately if a
  /// matching message is queued (admitting parked senders into the freed
  /// space), else when one arrives.
  RecvRequest PostRecv(int tag) {
    RecvRequest out;
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out = PostRecvLocked(tag, &drained);
    }
    // Outside the lock: a paused demux reactor sleeping for this channel
    // to drain wakes without a lock-order entanglement.
    if (drained && drain_listener_) drain_listener_();
    return out;
  }

  /// Fails the channel permanently with `status`: every posted receive and
  /// every parked send completes with the status, future receives that no
  /// already-delivered message can satisfy fail immediately, future sends
  /// fail, and any WaitQueuedBelow() waiter is released. Messages that were
  /// delivered BEFORE the poison stay receivable — a PE that exits cleanly
  /// after sending its last data must not invalidate that data (the
  /// legitimate-early-finisher case). Idempotent; the first status wins.
  void Poison(Status status) {
    std::deque<Waiter> waiters;
    std::deque<Parked> parked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (poisoned_) return;
      poisoned_ = true;
      poison_ = std::move(status);
      waiters.swap(waiters_);
      parked.swap(parked_);
      canceled_ = true;  // release any reader parked at its watermark
    }
    drain_cv_.notify_all();
    if (drain_listener_) drain_listener_();
    for (Waiter& w : waiters) RecvRequest::Fail(w.state, poison_);
    for (Parked& p : parked) SendRequest::Fail(p.state, poison_);
  }

  bool poisoned() const {
    std::lock_guard<std::mutex> lock(mu_);
    return poisoned_;
  }

  /// High-water mark of queued (unreceived) bytes on this channel.
  uint64_t max_queued_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_queued_bytes_;
  }

  /// Currently queued (delivered but unmatched) bytes.
  size_t queued_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queued_bytes_;
  }

  /// Blocks until the queued bytes drop below `low_bytes` (or CancelWaits).
  /// The TCP reader thread parks here at its mailbox watermark, so the
  /// socket backs up and the sender's credit stalls — receiver-driven flow
  /// control.
  void WaitQueuedBelow(size_t low_bytes) {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] {
      return canceled_ || queued_bytes_ < low_bytes;
    });
  }

  /// Non-blocking WaitQueuedBelow: whether a reader paused at its
  /// watermark may resume. The event-driven demux reactor polls this
  /// instead of parking a dedicated thread per peer.
  bool DrainedBelow(size_t low_bytes) const {
    std::lock_guard<std::mutex> lock(mu_);
    return canceled_ || queued_bytes_ < low_bytes;
  }

  /// Releases any WaitQueuedBelow() waiter permanently (teardown).
  void CancelWaits() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      canceled_ = true;
    }
    drain_cv_.notify_all();
    if (drain_listener_) drain_listener_();
  }

  /// Registers a callback invoked (outside the channel lock) whenever the
  /// queue drains or the channel is poisoned/canceled — the conditions a
  /// watermark-paused demux reactor sleeps on. NOT thread-safe against
  /// concurrent channel use: set once, before the channel carries traffic.
  void SetDrainListener(std::function<void()> fn) {
    drain_listener_ = std::move(fn);
  }

 private:
  struct Waiter {
    int tag;
    std::shared_ptr<RecvState> state;
  };
  struct Parked {
    int tag;
    Frame payload;
    std::shared_ptr<SendState> state;
  };

  RecvRequest PostRecvLocked(int tag, bool* drained) {
    for (auto it = messages_.begin(); it != messages_.end(); ++it) {
      if (it->tag == tag) {
        size_t n = it->payload.size();
        auto state = std::make_shared<RecvState>();
        // The payload stays charged to the buffering gauge (it moved from
        // the queue into the un-taken state, not out of the transport).
        state->buffered_stats = recv_stats_;
        state->buffered_bytes = n;
        RecvRequest::Complete(state, std::move(it->payload));
        messages_.erase(it);
        queued_bytes_ -= n;
        drain_cv_.notify_all();
        *drained = true;
        AdmitParkedLocked();
        return RecvRequest(state);
      }
    }
    // No queued match: a poisoned channel will never produce one.
    if (poisoned_) return RecvRequest::Failed(poison_);
    auto state = std::make_shared<RecvState>();
    waiters_.push_back(Waiter{tag, state});
    // The new waiter may be exactly what a parked message (blocked on the
    // cap) is waiting for — hand it over directly, or receivers that take
    // tags out of send order would deadlock against a full channel.
    AdmitParkedLocked();
    return RecvRequest(state);
  }

  void DeliverUnconditionallyLocked(int tag, Frame payload) {
    // Exempt delivery never parks: the cap check is skipped entirely.
    (void)TryDeliverLocked(tag, payload, /*exempt=*/true);
  }

  /// Matches a waiter or queues the message if the cap allows. Returns
  /// false when the message must park (payload left intact).
  bool TryDeliverLocked(int tag, Frame& payload, bool exempt) {
    size_t n = payload.size();
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (it->tag == tag) {
        auto state = it->state;
        waiters_.erase(it);
        if (recv_stats_ != nullptr) {
          recv_stats_->AddRecvBuffered(n);
          state->buffered_stats = recv_stats_;
          state->buffered_bytes = n;
        }
        RecvRequest::Complete(state, std::move(payload));
        return true;
      }
    }
    if (!exempt && cap_bytes_ != 0 && queued_bytes_ != 0 &&
        queued_bytes_ + n > cap_bytes_) {
      return false;  // full: an empty queue always admits (no livelock on
                     // messages larger than the cap)
    }
    if (recv_stats_ != nullptr) recv_stats_->AddRecvBuffered(n);
    messages_.push_back(Message{tag, std::move(payload)});
    queued_bytes_ += n;
    if (queued_bytes_ > max_queued_bytes_) max_queued_bytes_ = queued_bytes_;
    return true;
  }

  /// Delivers every parked message the contract allows: an entry may go
  /// only if no EARLIER parked entry shares its tag (per-(src, tag) FIFO;
  /// cross-tag order is not a contract) and a waiter or cap space exists.
  void AdmitParkedLocked() {
    std::vector<int> blocked_tags;
    auto tag_blocked = [&](int tag) {
      for (int t : blocked_tags) {
        if (t == tag) return true;
      }
      return false;
    };
    for (auto it = parked_.begin(); it != parked_.end();) {
      if (!tag_blocked(it->tag) &&
          TryDeliverLocked(it->tag, it->payload, /*exempt=*/false)) {
        SendRequest::Complete(it->state);
        it = parked_.erase(it);
      } else {
        blocked_tags.push_back(it->tag);
        ++it;
      }
    }
  }

  mutable std::mutex mu_;
  size_t cap_bytes_;
  NetStats* recv_stats_;
  std::function<void()> drain_listener_;
  std::condition_variable drain_cv_;
  bool canceled_ = false;
  bool poisoned_ = false;
  Status poison_;
  std::deque<Message> messages_;
  std::deque<Waiter> waiters_;
  std::deque<Parked> parked_;
  uint64_t queued_bytes_ = 0;
  uint64_t max_queued_bytes_ = 0;
};

}  // namespace internal

}  // namespace demsort::net

#endif  // DEMSORT_NET_TRANSPORT_H_
