// The hierarchical transport under the flat collective schedules, swept
// over degenerate and uneven node shapes: a single PE, one big node, even
// nodes, a singleton-plus-big-node split, and uneven three-node machines.
// Covers the collective contract, the streaming exchange, failure
// containment through the proxy (kill a non-leader, kill a leader = node
// death, sever cross-node and intra-node links), the N*(N-1) inter-node
// connection arithmetic, the intra/inter traffic classification, the
// frame pool's recycling bound
// (allocations stay O(pool), not O(messages)), and the single uplink
// reactor's failover (one dead peer node must not stop service to the
// survivors).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/comm.h"
#include "net/fault_transport.h"
#include "net/hierarchical_transport.h"

namespace demsort::net {
namespace {

std::vector<std::vector<int>> TestShapes() {
  // Degenerate ({1}, {4}), even ({2,2}) and uneven node shapes: the uplink
  // reactor serves one, two or three peer nodes, and nodes of different
  // sizes share it.
  return {{1}, {4}, {2, 2}, {1, 3}, {1, 2, 2}, {2, 3, 2}};
}

Topology ShapeTopo(const std::vector<int>& shape) {
  auto topo = Topology::FromNodeSizes(shape);
  DEMSORT_CHECK_OK(topo.status());
  return std::move(topo).value();
}

// ------------------------------------------------------ collectives ----

TEST(HierarchicalTransportTest, CollectiveSuiteAcrossShapes) {
  for (const auto& shape : TestShapes()) {
    Topology topo = ShapeTopo(shape);
    SCOPED_TRACE("shape " + topo.ToString());
    HierCluster::Run(topo, [](Comm& comm) {
      const int P = comm.size();
      const int me = comm.rank();

      comm.Barrier();
      for (int root = 0; root < P; ++root) {
        uint64_t value = me == root ? 1000 + root : 0;
        EXPECT_EQ(comm.BroadcastValue<uint64_t>(root, value), 1000u + root);
      }
      uint64_t n = P;
      EXPECT_EQ(comm.AllreduceSum<uint64_t>(me + 1), n * (n + 1) / 2);
      EXPECT_EQ(comm.AllreduceMax<uint64_t>(me + 1), n);
      EXPECT_FALSE(comm.AllreduceAnd(me != 0));

      std::vector<int> gathered = comm.Allgather<int>(me * 10);
      ASSERT_EQ(gathered.size(), static_cast<size_t>(P));
      for (int p = 0; p < P; ++p) EXPECT_EQ(gathered[p], p * 10);

      std::vector<uint32_t> mine(me);
      for (int i = 0; i < me; ++i) mine[i] = me * 100 + i;
      auto all = comm.AllgatherV(mine);
      for (int p = 0; p < P; ++p) {
        ASSERT_EQ(all[p].size(), static_cast<size_t>(p));
        for (int i = 0; i < p; ++i) {
          EXPECT_EQ(all[p][i], static_cast<uint32_t>(p * 100 + i));
        }
      }

      std::vector<std::vector<uint32_t>> sends(P);
      for (int d = 0; d < P; ++d) sends[d].assign(me + d, me * 1000 + d);
      auto recvd = comm.Alltoallv<uint32_t>(sends);
      for (int s = 0; s < P; ++s) {
        ASSERT_EQ(recvd[s].size(), static_cast<size_t>(s + me));
        for (uint32_t v : recvd[s]) {
          EXPECT_EQ(v, static_cast<uint32_t>(s * 1000 + me));
        }
      }
      comm.Barrier();
    });
  }
}

// ------------------------------------------------ streaming variants ----

/// Deterministic per-pair payloads mixing zero sizes with non-chunk
/// multiples (the transport_test pattern).
size_t PairBytes(int src, int dst) {
  return static_cast<size_t>(((src + 2 * dst) % 4) * 137 +
                             ((src * dst) % 3));
}
uint8_t PairByte(int src, int dst, size_t i) {
  return static_cast<uint8_t>(src * 31 + dst * 17 + i * 7);
}

constexpr size_t kStreamBodyChunk = 64;

void StreamBody(Comm& comm) {
  const int P = comm.size();
  const int me = comm.rank();
  const StreamOptions options{.chunk_bytes = kStreamBodyChunk};
  std::vector<std::vector<uint8_t>> payloads(P);
  std::vector<std::span<const uint8_t>> spans(P);
  for (int d = 0; d < P; ++d) {
    payloads[d].resize(PairBytes(me, d));
    for (size_t i = 0; i < payloads[d].size(); ++i) {
      payloads[d][i] = PairByte(me, d, i);
    }
    spans[d] = std::span<const uint8_t>(payloads[d]);
  }
  std::vector<std::vector<uint8_t>> got(P);
  std::vector<int> lasts(P, 0);
  std::vector<uint64_t> announced(P, UINT64_MAX);
  comm.AlltoallvStream(
      spans,
      [&](int src, std::span<const uint8_t> data, bool last) {
        if (last) {
          EXPECT_LE(data.size(), kStreamBodyChunk);
        } else {
          EXPECT_EQ(data.size(), kStreamBodyChunk);
        }
        EXPECT_EQ(lasts[src], 0) << "chunk after last from " << src;
        got[src].insert(got[src].end(), data.begin(), data.end());
        if (last) ++lasts[src];
      },
      [&](int src, uint64_t bytes) { announced[src] = bytes; }, options);
  for (int s = 0; s < P; ++s) {
    ASSERT_EQ(got[s].size(), PairBytes(s, me)) << "source " << s;
    EXPECT_EQ(announced[s], got[s].size());
    EXPECT_EQ(lasts[s], 1);
    for (size_t i = 0; i < got[s].size(); ++i) {
      ASSERT_EQ(got[s][i], PairByte(s, me, i))
          << "source " << s << " byte " << i;
    }
  }
}

TEST(HierarchicalTransportTest, StreamingModesAcrossShapes) {
  for (const auto& shape : TestShapes()) {
    Topology topo = ShapeTopo(shape);
    SCOPED_TRACE("shape " + topo.ToString());
    HierCluster::Run(topo, [](Comm& comm) { StreamBody(comm); });
  }
}

TEST(HierarchicalTransportTest, TypedStreamedAllgatherMatchesBuffered) {
  for (const auto& shape : TestShapes()) {
    Topology topo = ShapeTopo(shape);
    SCOPED_TRACE("shape " + topo.ToString());
    HierCluster::Run(topo, [](Comm& comm) {
      const int me = comm.rank();
      std::vector<uint32_t> mine(static_cast<size_t>(me * 3 + 1));
      for (size_t i = 0; i < mine.size(); ++i) {
        mine[i] = static_cast<uint32_t>(me * 1000 + i);
      }
      auto streamed = comm.AllgatherVStreamed<uint32_t>(mine);
      auto buffered = comm.AllgatherV(mine);
      ASSERT_EQ(streamed.size(), buffered.size());
      for (size_t p = 0; p < streamed.size(); ++p) {
        EXPECT_EQ(streamed[p], buffered[p]) << "src " << p;
      }
    });
  }
}

// ------------------------------------- topology & traffic accounting ----

TEST(HierarchicalTransportTest, InterNodeConnectionCountIsNodeMesh) {
  for (const auto& shape : TestShapes()) {
    Topology topo = ShapeTopo(shape);
    const uint64_t n = static_cast<uint64_t>(topo.num_nodes());
    EXPECT_EQ(topo.InterNodeConnections(), n * (n - 1));
    if (topo.hierarchical()) {
      EXPECT_LT(topo.InterNodeConnections(),
                Topology::FlatConnections(topo.num_pes()))
          << "the hierarchy must need fewer cross-node connections than "
             "the flat mesh";
    }
  }
}

TEST(HierarchicalTransportTest, IntraInterCountersClassifyTraffic) {
  // {2, 2}: 0→1 is shared memory, 0→2 crosses the uplink; the counters
  // (and the receive-buffering gauge exemption) must follow that split.
  HierCluster::Options options;
  options.topology = ShapeTopo({2, 2});
  HierCluster::Result result = HierCluster::Run(
      options,
      [](Comm& comm) {
        std::vector<uint8_t> data(1000, 7);
        if (comm.rank() == 0) {
          comm.Send(1, 5, data.data(), data.size());
          comm.Send(2, 6, data.data(), data.size());
        } else if (comm.rank() == 1) {
          EXPECT_EQ(comm.Recv(0, 5).size(), 1000u);
        } else if (comm.rank() == 2) {
          EXPECT_EQ(comm.Recv(0, 6).size(), 1000u);
        }
        comm.Barrier();
      });
  EXPECT_GE(result.stats[0].intra_node_msgs, 1u);
  EXPECT_GE(result.stats[0].inter_node_msgs, 1u);
  EXPECT_GE(result.stats[0].intra_node_bytes, 1000u);
  EXPECT_GE(result.stats[0].inter_node_bytes, 1000u);
  EXPECT_EQ(result.stats[0].intra_node_bytes +
                result.stats[0].inter_node_bytes,
            result.stats[0].bytes_sent);
  // Every PE's traffic is fully classified.
  for (const NetStatsSnapshot& s : result.stats) {
    EXPECT_EQ(s.intra_node_bytes + s.inter_node_bytes, s.bytes_sent);
  }
}

TEST(HierarchicalTransportTest, PooledFramesRecycleAcrossRepeats) {
  // Repeated streamed exchanges over the hierarchical transport: after the
  // first repetition primes the pool, frames must come from recycling,
  // not fresh allocation. `leases - hits` counts fresh allocations; with
  // 8 repetitions the fresh share must stay well below the total — the
  // transport allocates O(pool), not O(messages).
  constexpr int kReps = 8;
  HierCluster::Options options;
  options.topology = Topology::Uniform(8, 2);
  HierCluster::Result result = HierCluster::Run(options, [](Comm& comm) {
    const int P = comm.size();
    std::vector<uint8_t> payload(32 * 1024,
                                 static_cast<uint8_t>(comm.rank()));
    std::vector<std::span<const uint8_t>> spans(
        P, std::span<const uint8_t>(payload));
    const StreamOptions so{.chunk_bytes = 4096};
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<uint64_t> got(P, 0);
      comm.AlltoallvStream(
          spans,
          [&](int src, std::span<const uint8_t> data, bool) {
            got[src] += data.size();
          },
          nullptr, so);
      for (int s = 0; s < P; ++s) {
        ASSERT_EQ(got[s], payload.size()) << "source " << s;
      }
      comm.Barrier();
    }
  });
  uint64_t leases = 0, hits = 0;
  for (const NetStatsSnapshot& s : result.stats) {
    leases += s.pool_leases;
    hits += s.pool_hits;
  }
  ASSERT_GT(leases, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(leases - hits, leases / 4)
      << "fresh allocations must be a small fraction of " << leases
      << " leases once the pool is primed (hits: " << hits << ")";
}

// --------------------------------------------- failure containment ----

struct PeOutcome {
  bool completed = false;
  bool comm_error = false;
  bool other_error = false;
  std::string what;
};

std::vector<PeOutcome> RunHierWithFault(
    const Topology& topo, const FaultInjector::Spec& spec,
    const std::function<void(Comm&)>& body) {
  auto injector = std::make_shared<FaultInjector>(spec);
  const int P = topo.num_pes();
  std::vector<PeOutcome> outcomes(P);
  Fabric uplink(topo.num_nodes());
  std::vector<std::unique_ptr<HierarchicalTransport>> nodes;
  std::vector<std::unique_ptr<FaultTransport>> faults;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    nodes.push_back(std::make_unique<HierarchicalTransport>(topo, n, &uplink));
    faults.push_back(
        std::make_unique<FaultTransport>(nodes[n].get(), injector));
  }
  std::vector<std::thread> threads;
  threads.reserve(P);
  for (int pe = 0; pe < P; ++pe) {
    Transport* transport = faults[topo.node_of(pe)].get();
    threads.emplace_back([&, pe, transport] {
      try {
        Comm comm(pe, P, transport);
        body(comm);
        outcomes[pe].completed = true;
      } catch (const CommError& e) {
        outcomes[pe].comm_error = true;
        outcomes[pe].what = e.what();
        transport->KillPe(pe, e.status());
      } catch (const std::exception& e) {
        outcomes[pe].other_error = true;
        outcomes[pe].what = e.what();
        transport->KillPe(pe, Status::Internal(e.what()));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& node : nodes) node->Shutdown();
  return outcomes;
}

void StreamKillBody(Comm& comm) {
  constexpr size_t kChunk = 1024;
  const size_t per_pair = Comm::kStreamSendCreditChunks * 8 * kChunk;
  std::vector<uint8_t> payload(per_pair, static_cast<uint8_t>(comm.rank()));
  std::vector<std::span<const uint8_t>> spans(
      comm.size(), std::span<const uint8_t>(payload));
  comm.AlltoallvStream(
      spans, [](int, std::span<const uint8_t>, bool) {}, nullptr,
      StreamOptions{.chunk_bytes = kChunk});
}

TEST(HierarchicalFaultTest, KillNonLeaderMidStreamFailsEveryPe) {
  Topology topo = ShapeTopo({2, 3, 2});
  FaultInjector::Spec spec;
  spec.victim_pe = 3;  // node 1's middle PE — not a leader
  spec.fail_at_op = 7;
  auto outcomes = RunHierWithFault(topo, spec, StreamKillBody);
  for (size_t pe = 0; pe < outcomes.size(); ++pe) {
    EXPECT_FALSE(outcomes[pe].other_error)
        << "PE " << pe << ": " << outcomes[pe].what;
    EXPECT_TRUE(outcomes[pe].comm_error) << "PE " << pe;
  }
}

TEST(HierarchicalFaultTest, KillLeaderIsNodeDeathAndFailsEveryPe) {
  Topology topo = ShapeTopo({2, 3, 2});
  FaultInjector::Spec spec;
  spec.victim_pe = 2;  // node 1's leader: takes the whole node down
  spec.fail_at_op = 9;
  auto outcomes = RunHierWithFault(topo, spec, StreamKillBody);
  for (size_t pe = 0; pe < outcomes.size(); ++pe) {
    EXPECT_FALSE(outcomes[pe].other_error)
        << "PE " << pe << ": " << outcomes[pe].what;
    EXPECT_TRUE(outcomes[pe].comm_error) << "PE " << pe;
  }
}

TEST(HierarchicalFaultTest, SeverCrossNodeLeaderLinkFailsBothEndpoints) {
  Topology topo = ShapeTopo({2, 3, 2});
  FaultInjector::Spec spec;
  spec.link_src = 0;  // leader of node 0
  spec.link_dst = 2;  // leader of node 1: the pair streams across the uplink
  spec.fail_at_op = 2;
  auto outcomes = RunHierWithFault(topo, spec, StreamKillBody);
  for (size_t pe = 0; pe < outcomes.size(); ++pe) {
    EXPECT_FALSE(outcomes[pe].other_error)
        << "PE " << pe << ": " << outcomes[pe].what;
    EXPECT_TRUE(outcomes[pe].completed || outcomes[pe].comm_error)
        << "PE " << pe;
  }
  EXPECT_TRUE(outcomes[0].comm_error) << outcomes[0].what;
  EXPECT_TRUE(outcomes[2].comm_error) << outcomes[2].what;
}

TEST(HierarchicalFaultTest, SeverIntraNodeLinkFailsBothEndpoints) {
  Topology topo = ShapeTopo({2, 3, 2});
  FaultInjector::Spec spec;
  spec.link_src = 3;  // same node as 4: the link is shared memory
  spec.link_dst = 4;
  spec.fail_at_op = 1;
  auto outcomes = RunHierWithFault(topo, spec, StreamKillBody);
  for (size_t pe = 0; pe < outcomes.size(); ++pe) {
    EXPECT_FALSE(outcomes[pe].other_error)
        << "PE " << pe << ": " << outcomes[pe].what;
    EXPECT_TRUE(outcomes[pe].completed || outcomes[pe].comm_error)
        << "PE " << pe;
  }
  EXPECT_TRUE(outcomes[3].comm_error) << outcomes[3].what;
  EXPECT_TRUE(outcomes[4].comm_error) << outcomes[4].what;
}

TEST(HierarchicalFaultTest, ReactorServesOtherPeersAfterNodeDeath) {
  // Three single-PE nodes, so each node's ONE reactor serves two peer
  // nodes. Node 1 dies mid-run; the reactors on nodes 0 and 2 must fail
  // that peer and keep demultiplexing each other's frames — the
  // survivors' pairwise exchange completes.
  Topology topo = ShapeTopo({1, 1, 1});
  FaultInjector::Spec spec;
  spec.victim_pe = 1;
  spec.fail_at_op = 3;
  auto outcomes = RunHierWithFault(topo, spec, [](Comm& comm) {
    const int me = comm.rank();
    std::vector<uint8_t> data(8192, static_cast<uint8_t>(me));
    if (me == 1) {
      // Prove liveness to both survivors, then keep issuing ops until
      // the injector fires.
      comm.Send(0, 1, data.data(), 64);
      comm.Send(2, 1, data.data(), 64);
      for (int i = 0; i < 64; ++i) comm.Send(0, 2, data.data(), 64);
    } else {
      // See the victim alive once, then exchange only with the other
      // survivor — the victim's death must not stall this traffic.
      EXPECT_EQ(comm.Recv(1, 1).size(), 64u);
      const int peer = me == 0 ? 2 : 0;
      for (int i = 0; i < 32; ++i) {
        SendRequest s = comm.Isend(peer, 7, data.data(), data.size());
        EXPECT_EQ(comm.Recv(peer, 7).size(), data.size());
        s.Wait();
      }
    }
  });
  EXPECT_TRUE(outcomes[1].comm_error) << outcomes[1].what;
  for (int pe : {0, 2}) {
    EXPECT_FALSE(outcomes[pe].other_error)
        << "PE " << pe << ": " << outcomes[pe].what;
    EXPECT_TRUE(outcomes[pe].completed)
        << "survivor PE " << pe << " must finish after node 1 dies: "
        << outcomes[pe].what;
  }
}

TEST(HierarchicalFaultTest, KillsContainedAcrossShapesAndSeeds) {
  // Seed-swept kills over the uneven shapes: every PE ends in completed
  // or comm_error — never another error, an abort, or a hang (the ctest
  // TIMEOUT is the backstop).
  for (const auto& shape : {std::vector<int>{1, 3}, std::vector<int>{1, 2, 2},
                            std::vector<int>{2, 3, 2}}) {
    Topology topo = ShapeTopo(shape);
    for (uint64_t seed = 0; seed < 4; ++seed) {
      FaultInjector::Spec spec =
          FaultInjector::PeFailureFromSeed(seed, topo.num_pes(), 48);
      SCOPED_TRACE("shape " + topo.ToString() + " seed " +
                   std::to_string(seed));
      auto outcomes = RunHierWithFault(topo, spec, [](Comm& comm) {
        StreamKillBody(comm);
        comm.Barrier();
        comm.AllreduceSum<uint64_t>(comm.rank());
      });
      bool victim_died = outcomes[spec.victim_pe].comm_error;
      for (size_t pe = 0; pe < outcomes.size(); ++pe) {
        EXPECT_FALSE(outcomes[pe].other_error)
            << "PE " << pe << ": " << outcomes[pe].what;
        EXPECT_TRUE(outcomes[pe].completed || outcomes[pe].comm_error)
            << "PE " << pe;
        if (victim_died) {
          EXPECT_FALSE(outcomes[pe].completed)
              << "PE " << pe << " completed although the victim died";
        }
      }
    }
  }
}

}  // namespace
}  // namespace demsort::net
