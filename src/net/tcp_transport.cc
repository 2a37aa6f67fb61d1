#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <thread>

#include "net/cluster.h"
#include "net/comm.h"
#include "net/hierarchical_transport.h"
#include "util/logging.h"
#include "util/timer.h"

namespace demsort::net {

namespace {

// 12 bytes on the wire: {int32 tag, uint64 len}, serialized field by field
// so no struct padding (uninitialized stack bytes) ever reaches a socket.
constexpr size_t kFrameHeaderBytes = sizeof(int32_t) + sizeof(uint64_t);

// Connection handshake: {uint32 magic, uint32 version, uint32 rank}. The
// magic rejects stray clients (port scanners, mis-addressed peers) before
// they can corrupt the mesh; the version turns a mixed-build cluster into
// a clean error instead of silent frame misparses.
constexpr uint32_t kWireMagic = 0x444d5331;  // "DMS1"
constexpr uint32_t kWireVersion = 2;         // v2: magic+version handshake
constexpr size_t kHandshakeBytes = 3 * sizeof(uint32_t);

void EncodeFrameHeader(int32_t tag, uint64_t bytes,
                       uint8_t out[kFrameHeaderBytes]) {
  std::memcpy(out, &tag, sizeof(tag));
  std::memcpy(out + sizeof(tag), &bytes, sizeof(bytes));
}

void DecodeFrameHeader(const uint8_t in[kFrameHeaderBytes], int32_t* tag,
                       uint64_t* bytes) {
  std::memcpy(tag, in, sizeof(*tag));
  std::memcpy(bytes, in + sizeof(*tag), sizeof(*bytes));
}

Status WriteFull(int fd, const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (bytes > 0) {
    ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    p += n;
    bytes -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Returns NotFound on clean EOF before the first byte, IoError otherwise.
Status ReadFull(int fd, void* data, size_t bytes) {
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  while (got < bytes) {
    ssize_t n = ::recv(fd, p + got, bytes - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return got == 0 ? Status::NotFound("eof")
                      : Status::IoError("eof mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// ReadFull against an ABSOLUTE NowMillis() deadline (poll + recv). Unlike
/// SO_RCVTIMEO — which restarts on every byte, so a slow dripper could
/// stretch a 12-byte read almost indefinitely — the total wall time is
/// bounded regardless of how the sender paces its bytes.
Status ReadFullByDeadline(int fd, void* data, size_t bytes,
                          int64_t deadline_ms_instant) {
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t got = 0;
  while (got < bytes) {
    int64_t remaining = deadline_ms_instant - NowMillis();
    if (remaining <= 0) return Status::IoError("read timed out");
    pollfd pf{fd, POLLIN, 0};
    int pr =
        ::poll(&pf, 1, static_cast<int>(std::min<int64_t>(remaining, INT_MAX)));
    if (pr == 0) continue;  // re-check the deadline
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    ssize_t n = ::recv(fd, p + got, bytes - got, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("eof");
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Milliseconds left before `deadline_ms` (a NowMillis() instant);
/// deadline 0 means no deadline and yields a large-but-pollable value.
int64_t RemainingMs(int64_t deadline_ms) {
  if (deadline_ms == 0) return INT_MAX;
  return deadline_ms - NowMillis();
}

/// Resolves `host` (an IPv4 literal or a DNS name — hosts files name real
/// machines) to an AF_INET address.
Status ResolveHost(const std::string& host, in_addr* out) {
  if (::inet_pton(AF_INET, host.c_str(), out) == 1) return Status::OK();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve peer host '" + host +
                                   "': " + ::gai_strerror(rc));
  }
  *out = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return Status::OK();
}

/// Connects to `peer` with retry-and-backoff until `deadline_ms` (0 = keep
/// retrying forever). A peer whose listener is not up yet (refused) or not
/// reachable yet is retried; the connect itself is nonblocking + poll so a
/// black-holed host cannot overshoot the deadline by the kernel's SYN
/// timeout. Returns the connected (blocking) fd.
StatusOr<int> ConnectWithDeadline(const TcpTransport::Peer& peer,
                                  int64_t deadline_ms, int64_t backoff_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  DEMSORT_RETURN_IF_ERROR(ResolveHost(peer.host, &addr.sin_addr));
  backoff_ms = std::max<int64_t>(1, backoff_ms);
  std::string last_error = "no attempt";
  while (true) {
    int64_t remaining = RemainingMs(deadline_ms);
    if (remaining <= 0) {
      return Status::IoError("connect to " + peer.host + ":" +
                             std::to_string(peer.port) +
                             " timed out (last error: " + last_error + ")");
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IoError(std::string("socket: ") + std::strerror(errno));
    }
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    bool connected = rc == 0;
    if (!connected && errno == EINPROGRESS) {
      pollfd p{fd, POLLOUT, 0};
      int pr = ::poll(&p, 1,
                      static_cast<int>(std::min<int64_t>(remaining, INT_MAX)));
      if (pr > 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) {
          connected = true;
        } else {
          last_error = std::strerror(err);
        }
      } else if (pr == 0) {
        last_error = "connect timed out";
      } else {
        last_error = std::string("poll: ") + std::strerror(errno);
      }
    } else if (!connected) {
      last_error = std::strerror(errno);
    }
    if (connected) {
      ::fcntl(fd, F_SETFL, flags);
      return fd;
    }
    ::close(fd);
    int64_t nap = std::min(backoff_ms, RemainingMs(deadline_ms));
    if (nap <= 0) continue;  // deadline check at loop head reports
    std::this_thread::sleep_for(std::chrono::milliseconds(nap));
    backoff_ms = std::min<int64_t>(backoff_ms * 2, 500);
  }
}

}  // namespace

TcpTransport::TcpTransport(int rank, int num_pes)
    : rank_(rank), num_pes_(num_pes) {
  pool_ = std::make_shared<BufferPool>();
  links_.resize(num_pes);
  for (auto& link : links_) link = std::make_unique<PeerLink>();
  mailbox_.resize(num_pes);
  for (int src = 0; src < num_pes; ++src) {
    // The self mailbox is local memory traffic and stays off the
    // buffering gauge.
    mailbox_[src] = std::make_unique<internal::TagChannel>(
        src == rank ? nullptr : &stats_);
  }
}

StatusOr<std::unique_ptr<TcpTransport>> TcpTransport::Connect(
    int rank, int num_pes, int listen_fd, const std::vector<Peer>& peers,
    const Options& options) {
  DEMSORT_CHECK_EQ(peers.size(), static_cast<size_t>(num_pes));
  DEMSORT_CHECK_GE(rank, 0);
  DEMSORT_CHECK_LT(rank, num_pes);
  std::unique_ptr<TcpTransport> t(new TcpTransport(rank, num_pes));
  const int64_t deadline =
      options.connect_timeout_ms > 0 ? NowMillis() + options.connect_timeout_ms
                                     : 0;
  // Ownership of listen_fd includes the error paths: already-connected
  // link fds are reclaimed by ~TcpTransport, the listener here.
  auto fail = [listen_fd](Status status) {
    ::close(listen_fd);
    return status;
  };

  // Deterministic mesh: connect to every lower rank, accept from every
  // higher rank. Start order is arbitrary — outbound connects retry with
  // backoff until the deadline, so a peer whose listener is not up yet is
  // simply tried again. Each accepted connection is identified (and
  // vetted) by the magic+version+rank handshake.
  for (int peer = 0; peer < rank; ++peer) {
    StatusOr<int> fd = ConnectWithDeadline(peers[peer], deadline,
                                           options.connect_retry_initial_ms);
    if (!fd.ok()) {
      return fail(Status::IoError("connect to rank " + std::to_string(peer) +
                                  ": " + fd.status().message()));
    }
    uint8_t hs[kHandshakeBytes];
    uint32_t my_rank = static_cast<uint32_t>(rank);
    std::memcpy(hs, &kWireMagic, sizeof(uint32_t));
    std::memcpy(hs + sizeof(uint32_t), &kWireVersion, sizeof(uint32_t));
    std::memcpy(hs + 2 * sizeof(uint32_t), &my_rank, sizeof(uint32_t));
    Status handshake = WriteFull(fd.value(), hs, sizeof(hs));
    if (!handshake.ok()) {
      ::close(fd.value());
      return fail(std::move(handshake));
    }
    SetNoDelay(fd.value());
    t->links_[peer]->fd = fd.value();
  }

  int needed = num_pes - 1 - rank;
  while (needed > 0) {
    int64_t remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      std::string missing;
      for (int peer = rank + 1; peer < num_pes; ++peer) {
        if (t->links_[peer]->fd == -1) {
          missing += (missing.empty() ? "" : ", ") + std::to_string(peer);
        }
      }
      return fail(Status::IoError("accept timed out after " +
                                  std::to_string(options.connect_timeout_ms) +
                                  " ms; missing rank(s) " + missing));
    }
    pollfd p{listen_fd, POLLIN, 0};
    int pr =
        ::poll(&p, 1, static_cast<int>(std::min<int64_t>(remaining, INT_MAX)));
    if (pr == 0) continue;  // recheck the deadline
    if (pr < 0) {
      if (errno == EINTR) continue;
      return fail(
          Status::IoError(std::string("poll: ") + std::strerror(errno)));
    }
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return fail(
          Status::IoError(std::string("accept: ") + std::strerror(errno)));
    }
    // Handshake under a SHORT absolute deadline (capped below the mesh
    // deadline): a connection that stalls — or drips bytes slowly — or
    // carries the wrong magic is a stray client, not a mesh peer; drop it
    // and resume accepting. Waiting the full remaining mesh deadline here
    // would let one silent stray starve the accept loop while genuine
    // peers sit in the backlog.
    constexpr int64_t kHandshakeTimeoutMs = 2000;
    uint8_t hs[kHandshakeBytes];
    Status handshake = ReadFullByDeadline(
        fd, hs, sizeof(hs),
        NowMillis() + std::max<int64_t>(
                          1, std::min(RemainingMs(deadline),
                                      kHandshakeTimeoutMs)));
    if (!handshake.ok()) {
      DEMSORT_LOG(kWarning) << "rank " << rank
                            << ": dropping connection with failed handshake: "
                            << handshake.ToString();
      ::close(fd);
      continue;
    }
    uint32_t magic, version, peer_rank;
    std::memcpy(&magic, hs, sizeof(uint32_t));
    std::memcpy(&version, hs + sizeof(uint32_t), sizeof(uint32_t));
    std::memcpy(&peer_rank, hs + 2 * sizeof(uint32_t), sizeof(uint32_t));
    if (magic != kWireMagic) {
      DEMSORT_LOG(kWarning) << "rank " << rank
                            << ": dropping connection with bad magic (not a "
                               "demsort peer)";
      ::close(fd);
      continue;
    }
    if (version != kWireVersion) {
      ::close(fd);
      return fail(Status::FailedPrecondition(
          "peer wire version " + std::to_string(version) + " != " +
          std::to_string(kWireVersion) + " (mixed builds in one mesh?)"));
    }
    if (peer_rank >= static_cast<uint32_t>(num_pes) ||
        static_cast<int>(peer_rank) <= rank ||
        t->links_[peer_rank]->fd != -1) {
      ::close(fd);
      return fail(Status::Internal("bad handshake rank " +
                                   std::to_string(peer_rank)));
    }
    SetNoDelay(fd);
    t->links_[peer_rank]->fd = fd;
    --needed;
  }
  ::close(listen_fd);

  for (int peer = 0; peer < num_pes; ++peer) {
    if (peer == rank) continue;
    TcpTransport* raw = t.get();
    t->links_[peer]->writer = std::thread([raw, peer] {
      raw->WriterLoop(peer);
    });
    t->links_[peer]->reader = std::thread([raw, peer] {
      raw->ReaderLoop(peer);
    });
  }
  return t;
}

TcpTransport::~TcpTransport() {
  // Phase 1: flush and stop writers, then half-close so peers see EOF only
  // after every queued byte. Dead links' threads have already exited; their
  // fds were shut down when the link was severed.
  for (auto& link : links_) {
    if (link->fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(link->mu);
      link->closing = true;
    }
    link->cv.notify_all();
  }
  for (auto& link : links_) {
    if (link->writer.joinable()) link->writer.join();
    if (link->fd >= 0) ::shutdown(link->fd, SHUT_WR);
  }
  // Phase 2: readers drain inbound data until the peer's own half-close.
  for (auto& link : links_) {
    if (link->reader.joinable()) link->reader.join();
    if (link->fd >= 0) ::close(link->fd);
  }
}

void TcpTransport::SeverLink(int peer, const Status& status) {
  if (peer == rank_ || peer < 0 || peer >= num_pes_) return;
  PeerLink& link = *links_[peer];
  std::deque<Outgoing> pending;
  {
    std::lock_guard<std::mutex> lock(link.mu);
    if (link.dead) {
      // Already severed; poison is idempotent but must still run for the
      // callers that reach here first through a different thread.
      mailbox_[peer]->Poison(status);
      return;
    }
    link.dead = true;
    link.error = status;
    pending.swap(link.queue);
  }
  link.cv.notify_all();
  // Both directions: a blocked writer's send and a blocked reader's recv
  // return immediately with an error/EOF and the threads exit. The fd is
  // only CLOSED by the destructor (closing here would race the loops).
  if (link.fd >= 0) ::shutdown(link.fd, SHUT_RDWR);
  for (Outgoing& out : pending) SendRequest::Fail(out.state, status);
  mailbox_[peer]->Poison(status);
}

void TcpTransport::KillPe(int pe, const Status& status) {
  if (pe == rank_) {
    // Abort this endpoint: sever every link (peers observe EOF/reset and
    // poison their own side) and poison every mailbox, self included, so
    // the destructor cannot block on a peer that outlives us.
    for (int peer = 0; peer < num_pes_; ++peer) SeverLink(peer, status);
    for (auto& ch : mailbox_) ch->Poison(status);
    return;
  }
  SeverLink(pe, status);
}

void TcpTransport::KillLink(int a, int b, const Status& status) {
  if (a == rank_) {
    SeverLink(b, status);
  } else if (b == rank_) {
    SeverLink(a, status);
  }
}

void TcpTransport::WriterLoop(int peer) {
  PeerLink& link = *links_[peer];
  while (true) {
    Outgoing out;
    {
      std::unique_lock<std::mutex> lock(link.mu);
      link.cv.wait(lock, [&] {
        return !link.queue.empty() || link.closing || link.dead;
      });
      if (link.dead) {
        std::deque<Outgoing> rest;
        rest.swap(link.queue);
        Status error = link.error;
        lock.unlock();
        for (Outgoing& o : rest) SendRequest::Fail(o.state, error);
        return;
      }
      if (link.queue.empty()) return;  // closing and drained
      out = std::move(link.queue.front());
      link.queue.pop_front();
    }
    uint8_t header[kFrameHeaderBytes];
    EncodeFrameHeader(out.tag, out.payload.size(), header);
    Status s = WriteFull(link.fd, header, sizeof(header));
    if (s.ok() && !out.payload.empty()) {
      s = WriteFull(link.fd, out.payload.data(), out.payload.size());
    }
    if (!s.ok()) {
      // A dead peer mid-sort: fail this send, sever the link (queued and
      // future sends fail, the mailbox poisons so pending receives from
      // the peer fail too) and let the application observe CommError.
      Status error = Status::IoError("send to rank " + std::to_string(peer) +
                                     " failed: " + s.message());
      SendRequest::Fail(out.state, error);
      SeverLink(peer, error);
      return;
    }
    SendRequest::Complete(out.state);
  }
}

void TcpTransport::ReaderLoop(int peer) {
  PeerLink& link = *links_[peer];
  while (true) {
    uint8_t header[kFrameHeaderBytes];
    Status s = ReadFull(link.fd, header, sizeof(header));
    if (s.code() == StatusCode::kNotFound) {
      // Clean peer EOF: everything the peer sent has been delivered (TCP
      // is ordered), so anything still awaited from it will never come.
      // Poison fails those waits while keeping delivered-but-untaken
      // messages receivable — the legitimate-early-finisher contract.
      mailbox_[peer]->Poison(
          Status::IoError("rank " + std::to_string(peer) +
                          " closed the connection"));
      return;
    }
    uint64_t bytes = 0;
    if (s.ok()) {
      int32_t tag;
      DecodeFrameHeader(header, &tag, &bytes);
      std::vector<uint8_t> buf = pool_->Lease(bytes, &stats_);
      if (bytes > 0) {
        s = ReadFull(link.fd, buf.data(), buf.size());
        if (s.code() == StatusCode::kNotFound) s = Status::IoError("eof");
      }
      if (s.ok()) {
        Frame payload(std::move(buf), pool_);
        stats_.RecordRecv(bytes);
        (void)mailbox_[peer]->Offer(tag, std::move(payload));
        continue;
      }
    }
    // Mid-frame EOF or a socket error: the link is unusable in both
    // directions — sever it so senders fail too, and poison the mailbox.
    SeverLink(peer, Status::IoError("recv from rank " + std::to_string(peer) +
                                    " failed: " + s.message()));
    return;
  }
}

SendRequest TcpTransport::Isend(int src, int dst, int tag, const void* data,
                                size_t bytes) {
  // Self-sends are local memory traffic: off the pool counters, like the
  // volume counters.
  std::vector<uint8_t> buf =
      pool_->Lease(bytes, dst == rank_ ? nullptr : &stats_);
  if (bytes != 0) std::memcpy(buf.data(), data, bytes);
  return IsendPayload(src, dst, tag, Frame(std::move(buf), pool_));
}

SendRequest TcpTransport::IsendGather(int src, int dst, int tag,
                                      const void* header, size_t header_bytes,
                                      const void* data, size_t bytes) {
  // Single-copy frame assembly (see Transport::IsendGather).
  const size_t total = header_bytes + bytes;
  std::vector<uint8_t> buf =
      pool_->Lease(total, dst == rank_ ? nullptr : &stats_);
  std::memcpy(buf.data(), header, header_bytes);
  if (bytes != 0) std::memcpy(buf.data() + header_bytes, data, bytes);
  return IsendPayload(src, dst, tag, Frame(std::move(buf), pool_));
}

SendRequest TcpTransport::IsendFrame(int src, int dst, int tag, Frame frame) {
  // An already-assembled (possibly pooled) frame moves straight into the
  // writer queue — no copy; the writer recycles it after the socket write.
  return IsendPayload(src, dst, tag, std::move(frame));
}

SendRequest TcpTransport::IsendPayload(int src, int dst, int tag,
                                       Frame payload) {
  DEMSORT_CHECK_EQ(src, rank_) << "TcpTransport endpoint serves one rank";
  DEMSORT_CHECK_GE(dst, 0);
  DEMSORT_CHECK_LT(dst, num_pes_);
  const size_t bytes = payload.size();
  if (dst == rank_) {
    return mailbox_[rank_]->Offer(tag, std::move(payload));
  }
  stats_.RecordSend(bytes);
  auto state = std::make_shared<internal::SendState>();
  PeerLink& link = *links_[dst];
  {
    std::lock_guard<std::mutex> lock(link.mu);
    DEMSORT_CHECK(!link.closing) << "Isend after transport shutdown";
    if (link.dead) return SendRequest::Failed(link.error);
    link.queue.push_back(Outgoing{tag, std::move(payload), state});
  }
  link.cv.notify_all();
  return SendRequest(state);
}

RecvRequest TcpTransport::Irecv(int dst, int src, int tag) {
  DEMSORT_CHECK_EQ(dst, rank_) << "TcpTransport endpoint serves one rank";
  DEMSORT_CHECK_GE(src, 0);
  DEMSORT_CHECK_LT(src, num_pes_);
  return mailbox_[src]->PostRecv(tag);
}

NetStats& TcpTransport::stats(int pe) {
  DEMSORT_CHECK_EQ(pe, rank_);
  return stats_;
}

// ---------------------------------------------------------------------------

StatusOr<std::vector<TcpListener>> CreateLoopbackListeners(int num_pes) {
  std::vector<TcpListener> listeners(num_pes);
  auto fail = [&](const std::string& what) -> Status {
    // Build the message before cleanup: close() may clobber errno.
    Status status = Status::IoError(what + ": " + std::strerror(errno));
    for (TcpListener& l : listeners) {
      if (l.fd >= 0) ::close(l.fd);
    }
    return status;
  };
  for (int i = 0; i < num_pes; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return fail("socket");
    listeners[i].fd = fd;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return fail("bind");
    }
    if (::listen(fd, num_pes) < 0) return fail("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      return fail("getsockname");
    }
    listeners[i].port = ntohs(addr.sin_port);
  }
  return listeners;
}

StatusOr<TcpListener> CreateListener(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  auto fail = [fd](const std::string& what) -> Status {
    Status status = Status::IoError(what + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  };
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind to port " + std::to_string(port));
  }
  if (::listen(fd, std::max(backlog, 1)) < 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return fail("getsockname");
  }
  return TcpListener{fd, ntohs(addr.sin_port)};
}

StatusOr<std::vector<TcpTransport::Peer>> ParseHostsFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open hosts file '" + path + "'");
  }
  std::vector<TcpTransport::Peer> peers;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    size_t end = line.find_last_not_of(" \t\r");
    std::string entry = line.substr(begin, end - begin + 1);
    size_t colon = entry.rfind(':');
    auto bad = [&](const std::string& why) -> Status {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + why + " (expected host:port)");
    };
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return bad("malformed entry '" + entry + "'");
    }
    char* parse_end = nullptr;
    long port = std::strtol(entry.c_str() + colon + 1, &parse_end, 10);
    if (parse_end == entry.c_str() + colon + 1 || port < 1 || port > 65535) {
      return bad("bad port in '" + entry + "'");
    }
    // Optional per-node slot count: "host:port xK" declares K PEs sharing
    // this endpoint's node (the hierarchical transport's uplink). Default 1.
    long slots = 1;
    const char* rest = parse_end;
    while (*rest == ' ' || *rest == '\t') ++rest;
    if (*rest != '\0') {
      if (*rest != 'x') {
        return bad("trailing junk in '" + entry +
                   "' (expected a ' xK' slot count)");
      }
      char* slots_end = nullptr;
      slots = std::strtol(rest + 1, &slots_end, 10);
      if (slots_end == rest + 1 || *slots_end != '\0' || slots < 1) {
        return bad("bad slot count in '" + entry + "'");
      }
    }
    peers.push_back(TcpTransport::Peer{entry.substr(0, colon),
                                       static_cast<uint16_t>(port),
                                       static_cast<int>(slots)});
  }
  if (peers.empty()) {
    return Status::InvalidArgument("hosts file '" + path +
                                   "' names no ranks");
  }
  return peers;
}

Topology TopologyFromPeers(const std::vector<TcpTransport::Peer>& peers) {
  std::vector<int> sizes;
  sizes.reserve(peers.size());
  for (const TcpTransport::Peer& p : peers) sizes.push_back(p.slots);
  return Topology(std::move(sizes));
}

std::vector<TcpTransport::Peer> LoopbackPeers(
    const std::vector<TcpListener>& listeners) {
  std::vector<TcpTransport::Peer> peers(listeners.size());
  for (size_t i = 0; i < listeners.size(); ++i) {
    peers[i] = TcpTransport::Peer{"127.0.0.1", listeners[i].port};
  }
  return peers;
}

void TcpCluster::Run(int num_pes, const PeBody& body) {
  RunWithStats(num_pes, body);
}

std::vector<NetStatsSnapshot> TcpCluster::RunWithStats(
    int num_pes, const PeBody& body, const TcpTransport::Options& options,
    const WrapFn& wrap, int epoch) {
  auto listeners = CreateLoopbackListeners(num_pes);
  DEMSORT_CHECK_OK(listeners.status());
  std::vector<TcpTransport::Peer> peers = LoopbackPeers(listeners.value());

  std::vector<std::thread> threads;
  threads.reserve(num_pes);
  std::vector<std::exception_ptr> errors(num_pes);
  std::vector<NetStatsSnapshot> stats(num_pes);
  std::atomic<int> first_failed{-1};
  for (int pe = 0; pe < num_pes; ++pe) {
    int listen_fd = listeners.value()[pe].fd;
    threads.emplace_back([&, pe, listen_fd] {
      std::unique_ptr<TcpTransport> transport;
      Transport* endpoint = nullptr;
      auto record_failure = [&](const Status& status) {
        errors[pe] = std::current_exception();
        int expect = -1;
        first_failed.compare_exchange_strong(expect, pe);
        // Abort this endpoint BEFORE its destructor runs: every link is
        // severed, so peers observe the failure (EOF → poison → CommError)
        // and this endpoint's teardown cannot block on them — the ordering
        // fix that lets join() complete and the real exception surface.
        if (endpoint != nullptr) endpoint->KillPe(pe, status);
      };
      try {
        auto connected =
            TcpTransport::Connect(pe, num_pes, listen_fd, peers, options);
        if (!connected.ok()) throw CommError(connected.status());
        transport = std::move(connected).value();
        endpoint = transport.get();
        if (wrap) {
          Transport* wrapped = wrap(transport.get(), epoch);
          if (wrapped != nullptr) endpoint = wrapped;
        }
        Comm comm(pe, num_pes, endpoint);
        body(comm);
        stats[pe] = endpoint->stats(pe).Snapshot();
      } catch (const std::exception& e) {
        record_failure(Status::Internal("PE " + std::to_string(pe) +
                                        " failed: " + e.what()));
      } catch (...) {
        record_failure(
            Status::Internal("PE " + std::to_string(pe) + " failed"));
      }
    });
  }
  for (auto& t : threads) t.join();
  int failed = first_failed.load();
  if (failed >= 0) {
    DEMSORT_LOG(kError) << "PE " << failed << " failed first; rethrowing";
    std::rethrow_exception(errors[failed]);
  }
  return stats;
}

TcpCluster::SupervisedResult TcpCluster::RunSupervised(
    int num_pes, const PeBody& body, const RecoveryOptions& recovery,
    const TcpTransport::Options& options, const WrapFn& wrap) {
  SupervisedResult sr;
  sr.restarts = internal::SuperviseEpochs(recovery, [&](int epoch) {
    // Fresh listeners + full connect rendezvous per epoch: the dead
    // epoch's sockets are gone, so the re-join starts from a clean mesh.
    sr.stats = RunWithStats(num_pes, body, options, wrap, epoch);
  });
  return sr;
}

namespace {

HierCluster::Options HierOptionsFor(const Cluster::Options& options) {
  HierCluster::Options hier_options;
  if (!options.node_sizes.empty()) {
    auto topo = Topology::FromNodeSizes(options.node_sizes);
    DEMSORT_CHECK_OK(topo.status());
    DEMSORT_CHECK_EQ(topo.value().num_pes(), options.num_pes)
        << "node sizes must sum to num_pes";
    hier_options.topology = std::move(topo).value();
  } else {
    hier_options.topology = Topology::Uniform(
        options.num_pes, options.pes_per_node > 0 ? options.pes_per_node : 2);
  }
  return hier_options;
}

TcpTransport::Options TcpOptionsFor(const Cluster::Options& options) {
  TcpTransport::Options tcp_options;
  tcp_options.connect_timeout_ms = options.tcp_connect_timeout_ms;
  return tcp_options;
}

}  // namespace

void RunOverTransport(TransportKind kind, const Cluster::Options& options,
                      const TcpCluster::PeBody& body) {
  if (kind == TransportKind::kTcp) {
    TcpCluster::RunWithStats(options.num_pes, body, TcpOptionsFor(options));
  } else if (kind == TransportKind::kHier) {
    HierCluster::Run(HierOptionsFor(options), body);
  } else {
    Cluster::Run(options, body);
  }
}

int RunSupervisedOverTransport(TransportKind kind,
                               const Cluster::Options& options,
                               const RecoveryOptions& recovery,
                               const TcpCluster::PeBody& body) {
  if (kind == TransportKind::kTcp) {
    return TcpCluster::RunSupervised(options.num_pes, body, recovery,
                                     TcpOptionsFor(options))
        .restarts;
  }
  if (kind == TransportKind::kHier) {
    return HierCluster::RunSupervised(HierOptionsFor(options), recovery, body)
        .restarts;
  }
  return Cluster::RunSupervised(options, recovery, body).restarts;
}

}  // namespace demsort::net
