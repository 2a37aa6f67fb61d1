// HierarchicalTransport: the node-aware Transport — PEs of one node talk
// over in-process shared-memory mailboxes (zero serialization, no wire
// framing), PEs of different nodes talk through ONE per-node uplink
// endpoint that multiplexes every cross-node (src PE, dst PE, tag) flow of
// the node over the node-to-node channel.
//
// The paper's testbed runs several PEs per node behind one network
// interface; the flat transports ignore that and pay P*(P-1) connections.
// Here the uplink is itself a net::Transport over NODES (in-process Fabric
// for the emulation, TcpTransport for real deployments — N endpoints, so
// an N-node mesh holds N*(N-1) directed channels instead of P*(P-1)), and
// every cross-node message travels as [HierFrameHeader | payload] on one
// well-known uplink tag. ONE event-driven reactor thread per node polls
// all peer-node uplink mailboxes, strips the routing header in place
// (Frame::Consume — no memmove) and MOVES each frame into the destination
// PE's ordinary TagChannel mailbox, so the Transport contract —
// per-(src, tag) FIFO, MPI-style matching, 64-bit sizes, Request
// completion — holds unchanged and the transport-generic
// conformance/streaming/fault suites run unmodified. Frames are leased
// from a recycling BufferPool on the send side and travel by move through
// every hop; the only per-message copy left on the cross-node path is the
// one mandated by the Isend contract (out of the caller's buffer).
//
// Flow control: intra-node traffic is local memory (exempt from the
// receive-buffering gauge, like self-sends on the flat transports). The
// reactor delivers every cross-node frame as soon as it arrives; what
// bounds the mailboxes is the protocol above (the streaming credits of
// Comm::AlltoallvStream), as on the flat transports.
//
// Failure containment (the PR 3 contract, preserved through the proxy):
//  * KillPe(non-leader) poisons the victim's channels on its node and
//    broadcasts a kill frame so every other node poisons its mailboxes
//    from the victim — per-rank CommError everywhere, nothing else fails.
//  * KillPe(leader) is node death: the leader fronts the node's uplink, so
//    the whole node's mailboxes poison and the uplink endpoint is killed;
//    peer nodes observe the dead uplink (their reactors fail over to
//    poisoning every mailbox from the dead node's PEs, and keep serving
//    the surviving peer nodes).
//  * KillLink(a, b) between nodes fails exactly the (a, b) pair: the local
//    side poisons its mailbox and fails future sends, a link-kill frame
//    makes the remote side do the same; traffic of every other pair —
//    including other pairs bridging the same two nodes — is untouched.
//
// Teardown is collective, like the TCP transport: each node's destructor
// sends a CLOSE frame per peer node and joins its reactor when the peers'
// closes arrive, so no in-flight frame is lost.
#ifndef DEMSORT_NET_HIERARCHICAL_TRANSPORT_H_
#define DEMSORT_NET_HIERARCHICAL_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "net/topology.h"
#include "net/transport.h"

namespace demsort::net {

class Comm;

/// Prefixes every frame on the node-to-node uplink.
struct HierFrameHeader {
  uint32_t kind = 0;  ///< HierFrameKind
  int32_t a = 0;      ///< kData: source PE; kKillPe: victim; kKillLink: a
  int32_t b = 0;      ///< kData: destination PE; kKillLink: b
  int32_t tag = 0;    ///< kData: the application/collective tag
};
static_assert(sizeof(HierFrameHeader) == 16);
static_assert(std::is_trivially_copyable_v<HierFrameHeader>);

enum HierFrameKind : uint32_t {
  kHierData = 1,
  kHierKillPe = 2,
  kHierKillLink = 3,
  kHierClose = 4,
};

/// The one uplink tag every cross-node flow multiplexes onto. Outside both
/// the application tag space and the collective window.
inline constexpr int kHierUplinkTag = 1 << 30;

class HierarchicalTransport : public Transport {
 public:
  /// Serves the PEs of node `node` of `topo`. `uplink` is a Transport over
  /// NODES (uplink->num_pes() == topo.num_nodes()) on which this object
  /// sends and receives as rank `node`; it must outlive this transport and
  /// all nodes' transports must be destroyed concurrently (collective
  /// teardown).
  HierarchicalTransport(const Topology& topo, int node, Transport* uplink);
  ~HierarchicalTransport() override;

  HierarchicalTransport(const HierarchicalTransport&) = delete;
  HierarchicalTransport& operator=(const HierarchicalTransport&) = delete;

  int num_pes() const override { return topo_.num_pes(); }
  const Topology& topology() const { return topo_; }
  int node() const { return node_; }

  SendRequest Isend(int src, int dst, int tag, const void* data,
                    size_t bytes) override;
  SendRequest IsendGather(int src, int dst, int tag, const void* header,
                          size_t header_bytes, const void* data,
                          size_t bytes) override;
  RecvRequest Irecv(int dst, int src, int tag) override;

  void KillPe(int pe, const Status& status) override;
  void KillLink(int a, int b, const Status& status) override;

  /// Serves this node's PEs only (like the TCP endpoint serves one rank).
  NetStats& stats(int pe) override;

  /// First half of the collective teardown: sends the CLOSE frames
  /// without joining. The
  /// destructor calls it (idempotent) and then joins the reactor; a
  /// harness that destroys several node transports from ONE thread must
  /// call Shutdown() on all of them first, or the first destructor would
  /// wait for closes the later nodes have not sent yet.
  void Shutdown();

 private:
  internal::TagChannel& mailbox(int local_dst, int src) {
    return *mailbox_[static_cast<size_t>(local_dst) * topo_.num_pes() + src];
  }
  bool local(int pe) const { return topo_.node_of(pe) == node_; }

  /// Queues one cross-node payload on the uplink (kData framing) as a
  /// single pooled frame, moved — no gather reassembly downstream.
  SendRequest UplinkSend(int src, int dst, int tag, const void* header,
                         size_t header_bytes, const void* data, size_t bytes);
  /// Best-effort control frame to one peer node (kill/close notifications).
  void SendControl(int dst_node, HierFrameKind kind, int a, int b);
  /// The single demux reactor: polls every peer node's uplink mailbox,
  /// routes data frames into PE mailboxes, and contains per-peer uplink
  /// failures without stopping.
  void ReactorLoop();
  /// Poisons every mailbox that receives from `pe` (all local PEs' views).
  void PoisonFrom(int pe, const Status& status);
  /// Reactor failover for a dead peer node: marks its PEs dead and poisons
  /// every local mailbox from them.
  void FailPeerNode(int src_node, const Status& status);
  /// True (and fills `status`) if sends between `src` and `dst` must fail.
  bool RouteDead(int src, int dst, Status* status);

  /// Eventcount the reactor sleeps on between work: signaled by every
  /// uplink receive completion (RecvRequest::OnDone) — close and kill
  /// frames, and a dead uplink, included. Signal is one atomic bump unless
  /// the reactor is actually
  /// asleep; Wait(seen) returns immediately if anything signaled since the
  /// Snapshot() taken before the reactor's scan, so no wakeup is lost.
  struct ReactorEvent {
    std::atomic<uint64_t> seq{0};
    std::atomic<bool> waiting{false};
    std::mutex mu;
    std::condition_variable cv;

    void Signal() {
      seq.fetch_add(1);  // seq_cst: orders against the waiter's flag store
      if (waiting.load()) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
    uint64_t Snapshot() const { return seq.load(); }
    void Wait(uint64_t seen) {
      std::unique_lock<std::mutex> lock(mu);
      waiting.store(true);
      cv.wait(lock, [&] { return seq.load() != seen; });
      waiting.store(false);
    }
  };

  Topology topo_;
  int node_;
  Transport* uplink_;
  int first_;  // first global rank of this node
  int k_;      // PEs on this node

  /// Recycling pool for every frame this node leases; shared_ptr because
  /// frames sent over the uplink land in peer nodes' mailboxes and may
  /// outlive this transport (see buffer_pool.h).
  std::shared_ptr<BufferPool> pool_;
  std::vector<std::unique_ptr<NetStats>> stats_;  // per local PE
  // mailbox_[local_dst * P + global_src]: the destination PE's per-source
  // mailboxes. Intra-node sources (self included) are local memory: no
  // receive-buffering gauge, exactly like self-sends on the flat fabrics.
  std::vector<std::unique_ptr<internal::TagChannel>> mailbox_;
  ReactorEvent event_;
  std::thread reactor_;  // one event-driven demux thread for all peers

  std::mutex route_mu_;
  bool shutdown_ = false;
  bool node_dead_ = false;
  Status node_dead_status_;
  std::set<int> dead_pes_;
  std::set<std::pair<int, int>> dead_links_;  // normalized (min, max)
};

/// In-process emulation harness for the two-level machine, mirroring
/// Cluster::Run: one shared uplink Fabric over the NODES, one
/// HierarchicalTransport per node, and one thread per PE. A PE that throws
/// is killed on its node transport first (leader death takes the node, the
/// PR 3 containment contract), then the FIRST PE's exception is rethrown.
class HierCluster {
 public:
  using PeBody = std::function<void(Comm&)>;

  struct Options {
    Topology topology = Topology::Flat(1);
    /// Test seam: wraps each NODE transport (e.g. in net::FaultTransport)
    /// before any Comm is built over it. Called once per node per epoch;
    /// the returned transport must outlive the epoch (nullptr = unwrapped).
    std::function<Transport*(Transport* base, int epoch)> wrap_transport;
    /// Supervised-restart attempt number; set by RunSupervised.
    int epoch = 0;
  };

  struct Result {
    std::vector<NetStatsSnapshot> stats;  // per PE
    NetStatsSnapshot uplink_total;        // summed over node endpoints
  };

  struct SupervisedResult {
    Result result;
    int restarts = 0;
  };

  static void Run(const Topology& topology, const PeBody& body) {
    Options options;
    options.topology = topology;
    Run(options, body);
  }
  static Result Run(const Options& options, const PeBody& body);

  /// Supervised restart over the two-level machine: on CommError the whole
  /// epoch — node transports, uplink fabric, demux threads — is torn down
  /// and rebuilt fresh per RecoveryOptions (see Cluster::RunSupervised).
  static SupervisedResult RunSupervised(const Options& options,
                                        const RecoveryOptions& recovery,
                                        const PeBody& body);
};

}  // namespace demsort::net

#endif  // DEMSORT_NET_HIERARCHICAL_TRANSPORT_H_
