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
//    credit, not delivery. No transport throttles the receiver: what
//    bounds receive-side buffering is the protocol above it
//    (Comm::AlltoallvStream's per-source credits, Comm::Alltoallv's
//    bounded sub-steps).
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
//    one object serving all PEs of an emulated cluster.
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
/// handles are already complete (every in-process delivery).
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

  /// Blocks until the transport has accepted the bytes (for TCP: until the
  /// socket took them).
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

  /// Nonblocking posted receive at PE `dst` for the next message from
  /// (src, tag), in send order.
  virtual RecvRequest Irecv(int dst, int src, int tag) = 0;

  /// Marks PE `pe` as failed: every posted and future receive from it
  /// completes with `status` (already-delivered messages stay receivable),
  /// pending and future sends to it fail, and any blocked internal machinery
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
/// matching between delivered messages and posted receives.
///
/// Shared by every transport: Fabric uses Offer() as the send path itself,
/// the TCP reader thread and the hierarchical demux reactor use it to hand
/// already-transferred bytes to the receiving PE. The channel never
/// throttles: what bounds its queue is the sender's protocol
/// (Comm::AlltoallvStream's credits).
///
/// If `recv_stats` is given, every payload delivered through this channel
/// is charged to the receiving PE's buffering gauge from delivery until
/// the application takes it (see NetStats::AddRecvBuffered).
class TagChannel {
 public:
  explicit TagChannel(NetStats* recv_stats = nullptr)
      : recv_stats_(recv_stats) {}

  /// Delivers a message: hands it to the earliest posted receive with this
  /// tag, else queues it. The returned request is already complete — OK,
  /// or failed if the channel is poisoned.
  SendRequest Offer(int tag, Frame payload) {
    std::lock_guard<std::mutex> lock(mu_);
    if (poisoned_) return SendRequest::Failed(poison_);
    size_t n = payload.size();
    if (recv_stats_ != nullptr) recv_stats_->AddRecvBuffered(n);
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (it->tag == tag) {
        auto state = it->state;
        waiters_.erase(it);
        if (recv_stats_ != nullptr) {
          state->buffered_stats = recv_stats_;
          state->buffered_bytes = n;
        }
        RecvRequest::Complete(state, std::move(payload));
        return SendRequest();
      }
    }
    messages_.push_back(Message{tag, std::move(payload)});
    return SendRequest();
  }

  /// Posts a receive for (this source, tag). Completes immediately if a
  /// matching message is queued, else when one arrives.
  RecvRequest PostRecv(int tag) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = messages_.begin(); it != messages_.end(); ++it) {
      if (it->tag == tag) {
        auto state = std::make_shared<RecvState>();
        // The payload stays charged to the buffering gauge (it moved from
        // the queue into the un-taken state, not out of the transport).
        state->buffered_stats = recv_stats_;
        state->buffered_bytes = it->payload.size();
        RecvRequest::Complete(state, std::move(it->payload));
        messages_.erase(it);
        return RecvRequest(state);
      }
    }
    // No queued match: a poisoned channel will never produce one.
    if (poisoned_) return RecvRequest::Failed(poison_);
    auto state = std::make_shared<RecvState>();
    waiters_.push_back(Waiter{tag, state});
    return RecvRequest(state);
  }

  /// Fails the channel permanently with `status`: every posted receive
  /// completes with the status, future receives that no already-delivered
  /// message can satisfy fail immediately, and future sends fail. Messages
  /// that were delivered BEFORE the poison stay receivable — a PE that
  /// exits cleanly after sending its last data must not invalidate that
  /// data (the legitimate-early-finisher case). Idempotent; the first
  /// status wins.
  void Poison(Status status) {
    std::deque<Waiter> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (poisoned_) return;
      poisoned_ = true;
      poison_ = std::move(status);
      waiters.swap(waiters_);
    }
    for (Waiter& w : waiters) RecvRequest::Fail(w.state, poison_);
  }

  bool poisoned() const {
    std::lock_guard<std::mutex> lock(mu_);
    return poisoned_;
  }

 private:
  struct Waiter {
    int tag;
    std::shared_ptr<RecvState> state;
  };

  mutable std::mutex mu_;
  NetStats* recv_stats_;
  bool poisoned_ = false;
  Status poison_;
  std::deque<Message> messages_;
  std::deque<Waiter> waiters_;
};

}  // namespace internal

}  // namespace demsort::net

#endif  // DEMSORT_NET_TRANSPORT_H_
