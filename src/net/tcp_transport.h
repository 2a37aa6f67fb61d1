// TcpTransport: the socket implementation of net::Transport — one endpoint
// per rank, connected in a full mesh, so PEs can run as separate OS
// processes (or as threads against real loopback sockets in tests).
//
// Wire format per message: a 12-byte frame header {int32 tag, uint64 bytes}
// followed by the payload. Lengths are 64-bit end to end, so a single
// message may exceed 4 GiB — the limit the paper had to re-implement
// MPI_Alltoallv to escape.
//
// Threading per endpoint: one writer thread per peer draining a send queue
// (Isend completes when the bytes hit the socket), and one reader thread
// per peer delivering frames into the (source, tag)-matched mailbox as fast
// as they arrive; receive buffering is bounded by the protocol above (the
// streaming credits of Comm::AlltoallvStream), not by the reader.
// Destruction performs a two-phase shutdown — drain and join writers, then
// SHUT_WR, then read peers to EOF — so no data is lost and no peer sees a
// reset, without requiring an application-level barrier before teardown.
// Teardown is therefore collective, like MPI_Finalize: every endpoint's
// destructor blocks until its peers also begin destruction (the drain phase
// ends at the peer's half-close). Destroy all endpoints of a mesh
// concurrently; TcpCluster and the multi-process launcher do.
//
// Fault model: a peer dying mid-sort is unrecoverable for the SORT, but it
// is a clean, per-rank ERROR, never a hang or a process abort. A link I/O
// error makes the writer/reader thread fail the affected send requests and
// poison the peer's mailbox, so every posted and future receive from that
// peer throws net::CommError; a clean FIN poisons the same way once every
// in-flight message has been delivered (a legitimate early finisher's data
// stays receivable — only waits that can never complete fail). Connection
// setup is bounded too: Connect retries with backoff (rank start order is
// arbitrary), validates a magic+version handshake, and turns a peer that
// never shows up within Options::connect_timeout_ms into a per-rank error.
// Fault injection at this seam: net::FaultTransport (fault_transport.h).
#ifndef DEMSORT_NET_TCP_TRANSPORT_H_
#define DEMSORT_NET_TCP_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/topology.h"
#include "net/transport.h"
#include "util/status.h"

namespace demsort::net {

class Comm;

class TcpTransport : public Transport {
 public:
  struct Peer {
    std::string host;
    uint16_t port = 0;
    /// PEs sharing this endpoint's node ("host:port xK" in a hosts file):
    /// 1 for the flat one-PE-per-rank mesh; >1 describes a node of the
    /// hierarchical transport, whose uplink this endpoint becomes.
    int slots = 1;
  };

  struct Options {
    /// Wall-clock budget for Connect() to establish the whole mesh. A peer
    /// that cannot be reached (connect keeps failing) or never dials in
    /// (accept starves) within this budget turns into a per-rank IoError
    /// instead of an indefinite block in ::connect/::accept. 0 = wait
    /// forever (the pre-deadline behavior; not recommended).
    int64_t connect_timeout_ms = 30'000;

    /// First delay between connect attempts to a peer whose listener is
    /// not up yet; doubles per retry up to 500 ms. Rank start order is
    /// therefore arbitrary — whoever starts first simply retries.
    int64_t connect_retry_initial_ms = 20;
  };

  /// Establishes the full mesh for `rank` of `num_pes`. `listen_fd` must
  /// already be bound and listening on peers[rank] (ownership passes to
  /// the transport, which closes it once the mesh is up). Peers may start
  /// in any order: outbound connects retry with backoff until
  /// Options::connect_timeout_ms. Every connection is validated with a
  /// magic + version + rank handshake, so a stray client or a
  /// wrong-version peer is a clean error, not a corrupted mesh. Blocks
  /// until all peers are connected or the deadline passes.
  static StatusOr<std::unique_ptr<TcpTransport>> Connect(
      int rank, int num_pes, int listen_fd, const std::vector<Peer>& peers,
      const Options& options);
  static StatusOr<std::unique_ptr<TcpTransport>> Connect(
      int rank, int num_pes, int listen_fd, const std::vector<Peer>& peers) {
    return Connect(rank, num_pes, listen_fd, peers, Options());
  }

  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  int num_pes() const override { return num_pes_; }
  SendRequest Isend(int src, int dst, int tag, const void* data,
                    size_t bytes) override;
  SendRequest IsendGather(int src, int dst, int tag, const void* header,
                          size_t header_bytes, const void* data,
                          size_t bytes) override;
  SendRequest IsendFrame(int src, int dst, int tag, Frame frame) override;
  RecvRequest Irecv(int dst, int src, int tag) override;

  /// pe == rank(): aborts this endpoint — every link is severed (queued
  /// sends fail, sockets are shut down so peers see EOF and poison in
  /// turn) and every mailbox is poisoned; the subsequent destructor cannot
  /// block. Call it when this PE's body throws, BEFORE tearing the
  /// transport down, so peers' waits cancel promptly.
  /// pe != rank(): severs just the link to `pe` and poisons its mailbox.
  void KillPe(int pe, const Status& status) override;
  void KillLink(int a, int b, const Status& status) override;

  NetStats& stats(int pe) override;

  int rank() const { return rank_; }

 private:
  /// Shared send path of Isend/IsendGather: queue one assembled payload.
  /// The frame moves through the queue; the writer recycles it (Frame
  /// destructor) once the bytes hit the socket.
  SendRequest IsendPayload(int src, int dst, int tag, Frame payload);

  struct Outgoing {
    int tag = 0;
    Frame payload;
    std::shared_ptr<internal::SendState> state;
  };
  struct PeerLink {
    int fd = -1;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Outgoing> queue;
    bool closing = false;
    /// Set on the first I/O error (or injected kill); queued and future
    /// sends complete with `error`, the fd is shut down, and the peer's
    /// mailbox is poisoned. Never cleared.
    bool dead = false;
    Status error;
    std::thread writer;
    std::thread reader;
  };

  TcpTransport(int rank, int num_pes);

  void WriterLoop(int peer);
  void ReaderLoop(int peer);

  /// Marks the link to `peer` dead with `status` (first status wins),
  /// fails its queued sends, shuts the socket down in both directions, and
  /// poisons the peer's mailbox. Idempotent; safe from any thread.
  void SeverLink(int peer, const Status& status);

  int rank_;
  int num_pes_;
  NetStats stats_;
  /// Recycling pool for outgoing frame assembly and reader payloads;
  /// shared_ptr because delivered frames may sit in mailboxes past
  /// teardown (see buffer_pool.h).
  std::shared_ptr<BufferPool> pool_;
  std::vector<std::unique_ptr<PeerLink>> links_;          // indexed by peer
  std::vector<std::unique_ptr<internal::TagChannel>> mailbox_;  // by source
};

/// One pre-bound listener per rank. Creating all listeners before any rank
/// starts guarantees every Connect() succeeds without retries.
struct TcpListener {
  int fd = -1;
  uint16_t port = 0;
};

/// Binds `num_pes` listening sockets on 127.0.0.1 with ephemeral ports.
StatusOr<std::vector<TcpListener>> CreateLoopbackListeners(int num_pes);

/// Binds one listening socket on INADDR_ANY:`port` (port may be 0 for an
/// ephemeral choice; the actual port is returned). The per-rank listener
/// of a real multi-node mesh — each rank creates its own from the hosts
/// file and connects to the others by retry.
StatusOr<TcpListener> CreateListener(uint16_t port, int backlog);

/// Parses a rank→endpoint list for cross-machine meshes: one "host:port"
/// per line, rank = line number; blank lines and '#' comments ignored.
/// A line may carry a per-node slot count — "host:port xK" (default x1) —
/// declaring K PEs behind that endpoint; mixed counts are fine. Slotted
/// files describe the two-level machine: line = node, and the PE ranks
/// are contiguous per node (see TopologyFromPeers).
StatusOr<std::vector<TcpTransport::Peer>> ParseHostsFile(
    const std::string& path);

/// The node topology a (possibly slotted) hosts file describes: line n =
/// node n with its slot count of PEs. All-1 slots = the flat machine.
Topology TopologyFromPeers(const std::vector<TcpTransport::Peer>& peers);

/// Peer list ("127.0.0.1", port) matching CreateLoopbackListeners' output.
std::vector<TcpTransport::Peer> LoopbackPeers(
    const std::vector<TcpListener>& listeners);

/// Test/bench harness mirroring Cluster::Run, but every PE thread owns a
/// real TcpTransport endpoint over loopback sockets — the same code path a
/// multi-process deployment exercises, minus the address-space isolation.
class TcpCluster {
 public:
  using PeBody = std::function<void(Comm&)>;
  /// Test seam: wraps a rank's endpoint (e.g. in net::FaultTransport)
  /// before its Comm is built. Called once per RANK per epoch — ranks own
  /// separate endpoints here, unlike the shared in-process fabric — with
  /// the supervised epoch number; the returned transport must outlive the
  /// epoch (nullptr = unwrapped).
  using WrapFn = std::function<Transport*(Transport* base, int epoch)>;

  struct SupervisedResult {
    /// The successful epoch's per-PE traffic counters.
    std::vector<NetStatsSnapshot> stats;
    int restarts = 0;
  };

  /// Blocks until all PEs finish. A PE that throws aborts its endpoint
  /// first (KillPe on itself), which cancels the peers' waits — they fail
  /// with CommError instead of deadlocking the join — and the FIRST PE's
  /// exception (the root cause) is rethrown after all threads join.
  static void Run(int num_pes, const PeBody& body);

  /// As Run, but also returns each PE's final traffic counters. `options`
  /// applies to every endpoint (e.g. the connect deadline).
  static std::vector<NetStatsSnapshot> RunWithStats(
      int num_pes, const PeBody& body,
      const TcpTransport::Options& options = TcpTransport::Options(),
      const WrapFn& wrap = nullptr, int epoch = 0);

  /// Supervised restart over real sockets: a CommError epoch is torn down
  /// — sockets closed, listeners released — and relaunched on a FRESH set
  /// of loopback listeners per RecoveryOptions, re-running the full
  /// connect rendezvous (see Cluster::RunSupervised for the contract).
  static SupervisedResult RunSupervised(
      int num_pes, const PeBody& body, const RecoveryOptions& recovery,
      const TcpTransport::Options& options = TcpTransport::Options(),
      const WrapFn& wrap = nullptr);
};

/// The one transport-kind dispatch for harnesses (benches, tests, tools):
/// kInProc → Cluster with `options`, kTcp → TcpCluster, kHier → HierCluster
/// over the node geometry in `options`. New backends get wired in here once
/// and every harness follows.
void RunOverTransport(TransportKind kind, const Cluster::Options& options,
                      const TcpCluster::PeBody& body);

/// Supervised variant of RunOverTransport: same kind dispatch, but a
/// CommError epoch is torn down and relaunched per `recovery` (each body
/// invocation is responsible for resuming from its own checkpoints — see
/// core/recovery.h). Returns the number of restarts consumed.
int RunSupervisedOverTransport(TransportKind kind,
                               const Cluster::Options& options,
                               const RecoveryOptions& recovery,
                               const TcpCluster::PeBody& body);

}  // namespace demsort::net

#endif  // DEMSORT_NET_TCP_TRANSPORT_H_
