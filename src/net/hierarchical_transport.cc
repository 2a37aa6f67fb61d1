#include "net/hierarchical_transport.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <string>

#include "net/comm.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace demsort::net {

HierarchicalTransport::HierarchicalTransport(const Topology& topo, int node,
                                             Transport* uplink)
    : topo_(topo),
      node_(node),
      uplink_(uplink),
      first_(topo_.node_first(node)),
      k_(topo_.node_size(node)) {
  DEMSORT_CHECK_GE(node_, 0);
  DEMSORT_CHECK_LT(node_, topo_.num_nodes());
  DEMSORT_CHECK(uplink_ != nullptr);
  DEMSORT_CHECK_EQ(uplink_->num_pes(), topo_.num_nodes());
  const int P = topo_.num_pes();
  pool_ = std::make_shared<BufferPool>();
  stats_.resize(k_);
  for (auto& s : stats_) s = std::make_unique<NetStats>();
  mailbox_.resize(static_cast<size_t>(k_) * P);
  for (int ld = 0; ld < k_; ++ld) {
    for (int src = 0; src < P; ++src) {
      // Intra-node sources (self included) are shared memory: off the
      // receive-buffering gauge, like self-sends on the flat transports.
      NetStats* recv_stats =
          topo_.node_of(src) == node_ ? nullptr : stats_[ld].get();
      mailbox_[static_cast<size_t>(ld) * P + src] =
          std::make_unique<internal::TagChannel>(recv_stats);
    }
  }
  if (topo_.num_nodes() > 1) {
    reactor_ = std::thread([this] {
      // The reactor serves the whole node; its trace track is attributed to
      // the node-leader rank (the node's first PE).
      TRACE_THREAD_RANK(first_);
      TRACE_THREAD_NAME("uplink-reactor");
      ReactorLoop();
    });
  }
}

void HierarchicalTransport::Shutdown() {
  bool send_closes;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    send_closes = !shutdown_ && !node_dead_;
    shutdown_ = true;
  }
  if (send_closes) {
    for (int n = 0; n < topo_.num_nodes(); ++n) {
      if (n != node_) SendControl(n, kHierClose, 0, 0);
    }
  }
}

HierarchicalTransport::~HierarchicalTransport() {
  Shutdown();
  if (reactor_.joinable()) reactor_.join();
}

void HierarchicalTransport::SendControl(int dst_node, HierFrameKind kind,
                                        int a, int b) {
  HierFrameHeader hdr{static_cast<uint32_t>(kind), a, b, 0};
  // Best effort: a dead uplink means the peer already observes the failure
  // through its own poisoned channels.
  (void)uplink_->Isend(node_, dst_node, kHierUplinkTag, &hdr, sizeof(hdr));
}

void HierarchicalTransport::PoisonFrom(int pe, const Status& status) {
  for (int ld = 0; ld < k_; ++ld) mailbox(ld, pe).Poison(status);
}

bool HierarchicalTransport::RouteDead(int src, int dst, Status* status) {
  std::lock_guard<std::mutex> lock(route_mu_);
  if (node_dead_) {
    *status = node_dead_status_;
    return true;
  }
  if (dead_pes_.count(src) != 0 || dead_pes_.count(dst) != 0) {
    int dead = dead_pes_.count(dst) != 0 ? dst : src;
    *status = Status::IoError("PE " + std::to_string(dead) + " is dead");
    return true;
  }
  if (dead_links_.count({std::min(src, dst), std::max(src, dst)}) != 0) {
    *status = Status::IoError("link " + std::to_string(src) + "<->" +
                              std::to_string(dst) + " is severed");
    return true;
  }
  return false;
}

void HierarchicalTransport::FailPeerNode(int src_node, const Status& status) {
  // The peer node's uplink endpoint died (or ours was killed): every PE of
  // that node is unreachable — poison per-rank, like the TCP reader
  // severing its peer.
  const int src_first = topo_.node_first(src_node);
  const int src_count = topo_.node_size(src_node);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    for (int src = src_first; src < src_first + src_count; ++src) {
      dead_pes_.insert(src);
    }
  }
  for (int src = src_first; src < src_first + src_count; ++src) {
    PoisonFrom(src, status);
  }
}

void HierarchicalTransport::ReactorLoop() {
  // One posted receive per open peer; a dead peer is failed over per-rank
  // while the rest keep flowing (the thread-per-peer demux got that for
  // free; the reactor must do it explicitly).
  //
  // Event-driven, not polled: a scan pass that makes no progress sleeps on
  // the eventcount, which every posted receive's completion (OnDone)
  // signals. The Snapshot-before-scan ordering makes
  // the sleep race-free — anything that fires mid-scan bumps the count and
  // the Wait returns immediately. Sleeping (instead of a backoff poll)
  // matters beyond CPU: demux latency quantizes every cross-node credit
  // loop, and a sleep-polled reactor visibly starves credit piggybacking.
  struct Peer {
    int node = -1;
    RecvRequest rr;
    bool posted = false;
    bool open = true;
  };
  std::vector<Peer> peers;
  peers.reserve(topo_.num_nodes() - 1);
  for (int n = 0; n < topo_.num_nodes(); ++n) {
    if (n == node_) continue;
    Peer p;
    p.node = n;
    peers.push_back(std::move(p));
  }
  size_t open_count = peers.size();
  while (open_count > 0) {
    const uint64_t seen = event_.Snapshot();
    bool progressed = false;
#if DEMSORT_TRACING
    const int64_t pass_start_ns = NowNanos();
    uint64_t pass_frames = 0;
#endif
    for (Peer& p : peers) {
      if (!p.open) continue;
      if (!p.posted) {
        p.rr = uplink_->Irecv(node_, p.node, kHierUplinkTag);
        p.posted = true;
        p.rr.OnDone([this] { event_.Signal(); });
      }
      if (!p.rr.done()) continue;
      p.posted = false;
      Frame frame;
      try {
        frame = p.rr.TakeFrame();
      } catch (const CommError& e) {
        FailPeerNode(p.node, e.status());
        p.rr = RecvRequest();
        p.open = false;
        --open_count;
        progressed = true;
        continue;
      }
      p.rr = RecvRequest();
      progressed = true;
      DEMSORT_CHECK_GE(frame.size(), sizeof(HierFrameHeader));
      HierFrameHeader hdr;
      std::memcpy(&hdr, frame.data(), sizeof(hdr));
      switch (hdr.kind) {
        case kHierClose:
          p.open = false;
          --open_count;
          break;
        case kHierKillPe: {
          Status status =
              Status::IoError("PE " + std::to_string(hdr.a) + " on node " +
                              std::to_string(p.node) + " was killed");
          {
            std::lock_guard<std::mutex> lock(route_mu_);
            dead_pes_.insert(hdr.a);
          }
          PoisonFrom(hdr.a, status);
          break;
        }
        case kHierKillLink: {
          int mine = hdr.a;
          int remote = hdr.b;
          if (!local(mine)) std::swap(mine, remote);
          if (local(mine)) {
            Status status =
                Status::IoError("link " + std::to_string(hdr.a) + "<->" +
                                std::to_string(hdr.b) + " severed");
            {
              std::lock_guard<std::mutex> lock(route_mu_);
              dead_links_.insert(
                  {std::min(hdr.a, hdr.b), std::max(hdr.a, hdr.b)});
            }
            mailbox(topo_.local_rank(mine), remote).Poison(status);
          }
          break;
        }
        case kHierData: {
          const int src = hdr.a;
          const int dst = hdr.b;
          DEMSORT_CHECK(local(dst))
              << "misrouted uplink frame for PE " << dst << " at node "
              << node_;
          // Strip the routing header in place, and the payload MOVES into
          // the mailbox — the frame's only copies are at the two Isend
          // contract boundaries.
          frame.Consume(sizeof(HierFrameHeader));
          const int ld = topo_.local_rank(dst);
          stats_[ld]->RecordRecv(frame.size());
          (void)mailbox(ld, src).Offer(hdr.tag, std::move(frame));
#if DEMSORT_TRACING
          ++pass_frames;
#endif
          break;
        }
        default:
          DEMSORT_CHECK(false) << "bad uplink frame kind " << hdr.kind;
      }
    }
#if DEMSORT_TRACING
    // One complete-span per productive scan pass: Perfetto shows reactor
    // duty cycle (gaps are eventcount sleeps) and frames moved per wake.
    if (progressed) {
      TRACE_COMPLETE1("net", "reactor.dispatch", pass_start_ns,
                      NowNanos() - pass_start_ns, "frames", pass_frames);
    }
#endif
    if (!progressed) event_.Wait(seen);
  }
}

SendRequest HierarchicalTransport::Isend(int src, int dst, int tag,
                                         const void* data, size_t bytes) {
  DEMSORT_CHECK(local(src))
      << "hierarchical endpoint serves node " << node_ << ", not PE " << src;
  DEMSORT_CHECK_GE(dst, 0);
  DEMSORT_CHECK_LT(dst, topo_.num_pes());
  if (local(dst)) {
    NetStats* lease_stats =
        src == dst ? nullptr : stats_[topo_.local_rank(src)].get();
    std::vector<uint8_t> buf = pool_->Lease(bytes, lease_stats);
    if (bytes != 0) std::memcpy(buf.data(), data, bytes);
    Frame payload(std::move(buf), pool_);
    if (src != dst) {
      NetStats& s = *stats_[topo_.local_rank(src)];
      s.RecordSend(bytes);
      s.RecordIntraNode(bytes);
      stats_[topo_.local_rank(dst)]->RecordRecv(bytes);
    }
    return mailbox(topo_.local_rank(dst), src)
        .Offer(tag, std::move(payload));
  }
  return UplinkSend(src, dst, tag, nullptr, 0, data, bytes);
}

SendRequest HierarchicalTransport::IsendGather(int src, int dst, int tag,
                                               const void* header,
                                               size_t header_bytes,
                                               const void* data,
                                               size_t bytes) {
  DEMSORT_CHECK(local(src))
      << "hierarchical endpoint serves node " << node_ << ", not PE " << src;
  DEMSORT_CHECK_GE(dst, 0);
  DEMSORT_CHECK_LT(dst, topo_.num_pes());
  if (local(dst)) {
    // Single-copy frame assembly into a pooled buffer, like the flat
    // fabric's gather path.
    const size_t total = header_bytes + bytes;
    NetStats* lease_stats =
        src == dst ? nullptr : stats_[topo_.local_rank(src)].get();
    std::vector<uint8_t> buf = pool_->Lease(total, lease_stats);
    std::memcpy(buf.data(), header, header_bytes);
    if (bytes != 0) std::memcpy(buf.data() + header_bytes, data, bytes);
    Frame payload(std::move(buf), pool_);
    if (src != dst) {
      NetStats& s = *stats_[topo_.local_rank(src)];
      s.RecordSend(total);
      s.RecordIntraNode(total);
      stats_[topo_.local_rank(dst)]->RecordRecv(total);
    }
    return mailbox(topo_.local_rank(dst), src)
        .Offer(tag, std::move(payload));
  }
  return UplinkSend(src, dst, tag, header, header_bytes, data, bytes);
}

SendRequest HierarchicalTransport::UplinkSend(int src, int dst, int tag,
                                              const void* header,
                                              size_t header_bytes,
                                              const void* data,
                                              size_t bytes) {
  Status dead;
  if (RouteDead(src, dst, &dead)) return SendRequest::Failed(dead);
  NetStats& s = *stats_[topo_.local_rank(src)];
  s.RecordSend(header_bytes + bytes);
  s.RecordInterNode(header_bytes + bytes);
  HierFrameHeader hdr{kHierData, src, dst, tag};
  const int dst_node = topo_.node_of(dst);
  // One pooled buffer holds the complete wire frame — routing header,
  // caller's gather header, payload — assembled in a single pass and MOVED
  // onto the uplink; the receiving reactor strips the routing header with
  // an in-place Consume.
  const size_t total = sizeof(hdr) + header_bytes + bytes;
  std::vector<uint8_t> buf = pool_->Lease(total, &s);
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  if (header_bytes != 0) {
    std::memcpy(buf.data() + sizeof(hdr), header, header_bytes);
  }
  if (bytes != 0) {
    std::memcpy(buf.data() + sizeof(hdr) + header_bytes, data, bytes);
  }
  Frame frame(std::move(buf), pool_);
  return uplink_->IsendFrame(node_, dst_node, kHierUplinkTag,
                             std::move(frame));
}

RecvRequest HierarchicalTransport::Irecv(int dst, int src, int tag) {
  DEMSORT_CHECK(local(dst))
      << "hierarchical endpoint serves node " << node_ << ", not PE " << dst;
  DEMSORT_CHECK_GE(src, 0);
  DEMSORT_CHECK_LT(src, topo_.num_pes());
  return mailbox(topo_.local_rank(dst), src).PostRecv(tag);
}

void HierarchicalTransport::KillPe(int pe, const Status& status) {
  DEMSORT_CHECK_GE(pe, 0);
  DEMSORT_CHECK_LT(pe, topo_.num_pes());
  if (!local(pe)) {
    // Local-only sever, like the TCP endpoint killing a remote rank: our
    // PEs stop hearing from `pe` and future sends to it fail.
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      dead_pes_.insert(pe);
    }
    PoisonFrom(pe, status);
    return;
  }
  if (topo_.is_leader(pe)) {
    // Node death: the leader fronts the node's uplink, so the whole node's
    // mailboxes poison and the uplink endpoint is killed — peer nodes
    // observe it in their demux threads and fail per-rank.
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      if (node_dead_) return;
      node_dead_ = true;
      node_dead_status_ = status;
    }
    uplink_->KillPe(node_, status);
    for (auto& ch : mailbox_) ch->Poison(status);
    return;
  }
  // Non-leader: exactly this rank dies. Poison its receives and every
  // local view of it, and tell the other nodes so their PEs' waits on it
  // cancel too.
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    dead_pes_.insert(pe);
  }
  const int lpe = topo_.local_rank(pe);
  for (int src = 0; src < topo_.num_pes(); ++src) {
    mailbox(lpe, src).Poison(status);
  }
  PoisonFrom(pe, status);
  for (int n = 0; n < topo_.num_nodes(); ++n) {
    if (n != node_) SendControl(n, kHierKillPe, pe, 0);
  }
}

void HierarchicalTransport::KillLink(int a, int b, const Status& status) {
  DEMSORT_CHECK_GE(a, 0);
  DEMSORT_CHECK_LT(a, topo_.num_pes());
  DEMSORT_CHECK_GE(b, 0);
  DEMSORT_CHECK_LT(b, topo_.num_pes());
  const bool la = local(a);
  const bool lb = local(b);
  if (!la && !lb) return;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    dead_links_.insert({std::min(a, b), std::max(a, b)});
  }
  if (la) mailbox(topo_.local_rank(a), b).Poison(status);
  if (lb && a != b) mailbox(topo_.local_rank(b), a).Poison(status);
  if (la != lb) {
    // Exactly this pair fails on the remote side too; other pairs bridging
    // the same two nodes keep flowing.
    SendControl(topo_.node_of(la ? b : a), kHierKillLink, a, b);
  }
}

NetStats& HierarchicalTransport::stats(int pe) {
  DEMSORT_CHECK(local(pe))
      << "hierarchical endpoint serves node " << node_ << ", not PE " << pe;
  return *stats_[topo_.local_rank(pe)];
}

// ---------------------------------------------------------------------------

HierCluster::Result HierCluster::Run(const Options& options,
                                     const PeBody& body) {
  const Topology& topo = options.topology;
  const int P = topo.num_pes();
  const int N = topo.num_nodes();
  Fabric uplink(N);
  std::vector<std::unique_ptr<HierarchicalTransport>> nodes(N);
  std::vector<Transport*> node_endpoints(N);
  for (int n = 0; n < N; ++n) {
    nodes[n] = std::make_unique<HierarchicalTransport>(topo, n, &uplink);
    node_endpoints[n] = nodes[n].get();
    if (options.wrap_transport) {
      Transport* wrapped =
          options.wrap_transport(nodes[n].get(), options.epoch);
      if (wrapped != nullptr) node_endpoints[n] = wrapped;
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(P);
  std::vector<std::exception_ptr> errors(P);
  std::atomic<int> first_failed{-1};
  for (int pe = 0; pe < P; ++pe) {
    Transport* transport = node_endpoints[topo.node_of(pe)];
    threads.emplace_back([&, pe, transport] {
      try {
        Comm comm(pe, P, transport);
        body(comm);
      } catch (const std::exception& e) {
        errors[pe] = std::current_exception();
        int expect = -1;
        first_failed.compare_exchange_strong(expect, pe);
        // Cancel the peers' waits BEFORE this thread exits (a leader death
        // takes its whole node — the documented containment contract).
        transport->KillPe(pe, Status::Internal("PE " + std::to_string(pe) +
                                               " failed: " + e.what()));
      } catch (...) {
        errors[pe] = std::current_exception();
        int expect = -1;
        first_failed.compare_exchange_strong(expect, pe);
        transport->KillPe(pe, Status::Internal("PE " + std::to_string(pe) +
                                               " failed"));
      }
    });
  }
  for (auto& t : threads) t.join();

  Result result;
  result.stats.reserve(P);
  for (int pe = 0; pe < P; ++pe) {
    result.stats.push_back(
        node_endpoints[topo.node_of(pe)]->stats(pe).Snapshot());
  }
  for (int n = 0; n < N; ++n) {
    NetStatsSnapshot s = uplink.stats(n).Snapshot();
    result.uplink_total.messages_sent += s.messages_sent;
    result.uplink_total.bytes_sent += s.bytes_sent;
    result.uplink_total.messages_received += s.messages_received;
    result.uplink_total.bytes_received += s.bytes_received;
    result.uplink_total.pool_leases += s.pool_leases;
    result.uplink_total.pool_hits += s.pool_hits;
    result.uplink_total.pool_recycled_bytes += s.pool_recycled_bytes;
  }
  // Collective teardown in one thread: every node's closes go out before
  // any node joins its demux threads.
  for (int n = 0; n < N; ++n) nodes[n]->Shutdown();
  nodes.clear();

  const int failed = first_failed.load();
  if (failed >= 0) {
    DEMSORT_LOG(kError) << "PE " << failed << " failed first; rethrowing";
    std::rethrow_exception(errors[failed]);
  }
  return result;
}

HierCluster::SupervisedResult HierCluster::RunSupervised(
    const Options& options, const RecoveryOptions& recovery,
    const PeBody& body) {
  SupervisedResult sr;
  sr.restarts = internal::SuperviseEpochs(recovery, [&](int epoch) {
    // Fresh uplink fabric + node transports per epoch: the previous
    // epoch's poison dies with them.
    Options epoch_options = options;
    epoch_options.epoch = epoch;
    sr.result = Run(epoch_options, body);
  });
  return sr;
}

}  // namespace demsort::net
