// Failure containment at the transport seam, proven over BOTH backends:
// killing one PE (or severing one link) at a deterministic operation count
// via net::FaultTransport makes every surviving PE raise net::CommError —
// no hang, no process abort — mid-AlltoallvStream, mid-selection-fetch
// round, and mid-full-sort; a missing host turns TcpTransport::Connect
// into a clean per-rank error within the configured deadline; and a
// throwing PE cancels its peers' waits before the cluster joins, so the
// root-cause exception is rethrown instead of deadlocking. The ctest
// TIMEOUT on this binary is the backstop that turns any reintroduced hang
// into a fast failure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical_mergesort.h"
#include "core/pe_context.h"
#include "net/cluster.h"
#include "net/comm.h"
#include "net/fault_transport.h"
#include "net/hierarchical_transport.h"
#include "net/tcp_transport.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace demsort::net {
namespace {

struct PeOutcome {
  bool completed = false;
  bool comm_error = false;
  bool other_error = false;
  std::string what;
};

/// Runs `body` on `num_pes` PEs of the chosen backend with `spec` injected
/// at the transport seam, and reports how each PE ended. Mirrors the real
/// harnesses: a PE that catches an error aborts its endpoint (KillPe on
/// itself) so peers' waits cancel — the containment contract under test.
std::vector<PeOutcome> RunWithFault(TransportKind kind, int num_pes,
                                    const FaultInjector::Spec& spec,
                                    const std::function<void(Comm&)>& body) {
  auto injector = std::make_shared<FaultInjector>(spec);
  std::vector<PeOutcome> outcomes(num_pes);
  auto pe_main = [&](int pe, Transport* transport) {
    try {
      Comm comm(pe, num_pes, transport);
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
  };

  if (kind == TransportKind::kInProc) {
    Fabric fabric(num_pes);
    FaultTransport fault(&fabric, injector);
    std::vector<std::thread> threads;
    threads.reserve(num_pes);
    for (int pe = 0; pe < num_pes; ++pe) {
      threads.emplace_back([&, pe] { pe_main(pe, &fault); });
    }
    for (auto& t : threads) t.join();
    return outcomes;
  }

  if (kind == TransportKind::kHier) {
    // Uneven {1, P-1} shape: a singleton node plus a multi-PE node, so the
    // suite's fixed victim/link specs land on leaders AND non-leaders, and
    // PE pairs named by the link specs actually exchange traffic (they
    // share the big node).
    Topology topo = num_pes > 1
                        ? Topology(std::vector<int>{1, num_pes - 1})
                        : Topology::Flat(1);
    Fabric uplink(topo.num_nodes());
    std::vector<std::unique_ptr<HierarchicalTransport>> nodes;
    std::vector<std::unique_ptr<FaultTransport>> faults;
    for (int n = 0; n < topo.num_nodes(); ++n) {
      nodes.push_back(
          std::make_unique<HierarchicalTransport>(topo, n, &uplink));
      faults.push_back(
          std::make_unique<FaultTransport>(nodes[n].get(), injector));
    }
    std::vector<std::thread> threads;
    threads.reserve(num_pes);
    for (int pe = 0; pe < num_pes; ++pe) {
      Transport* transport = faults[topo.node_of(pe)].get();
      threads.emplace_back([&, pe, transport] { pe_main(pe, transport); });
    }
    for (auto& t : threads) t.join();
    for (auto& node : nodes) node->Shutdown();
    return outcomes;
  }

  auto listeners = CreateLoopbackListeners(num_pes);
  EXPECT_TRUE(listeners.ok()) << listeners.status().ToString();
  auto peers = LoopbackPeers(listeners.value());
  std::vector<std::thread> threads;
  threads.reserve(num_pes);
  for (int pe = 0; pe < num_pes; ++pe) {
    int listen_fd = listeners.value()[pe].fd;
    threads.emplace_back([&, pe, listen_fd] {
      auto transport =
          TcpTransport::Connect(pe, num_pes, listen_fd, peers,
                                TcpTransport::Options());
      if (!transport.ok()) {
        outcomes[pe].other_error = true;
        outcomes[pe].what = transport.status().ToString();
        return;
      }
      FaultTransport fault(transport.value().get(), injector);
      pe_main(pe, &fault);
    });
  }
  for (auto& t : threads) t.join();
  return outcomes;
}

/// Every PE raised CommError (the victim from the injection itself, the
/// survivors from their poisoned waits) — the acceptance shape for a PE
/// killed inside a collective every PE participates in.
void ExpectAllCommError(const std::vector<PeOutcome>& outcomes) {
  for (size_t pe = 0; pe < outcomes.size(); ++pe) {
    EXPECT_FALSE(outcomes[pe].other_error)
        << "PE " << pe << ": " << outcomes[pe].what;
    EXPECT_TRUE(outcomes[pe].comm_error)
        << "PE " << pe << (outcomes[pe].completed
                               ? " completed despite the injected fault"
                               : " ended without an error");
  }
}

class FaultParamTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  TransportKind kind() const { return GetParam(); }
};

// --------------------------------------------- kill mid-AlltoallvStream ----

TEST_P(FaultParamTest, KillPeMidAlltoallvStreamFailsEveryPe) {
  const int P = 4;
  FaultInjector::Spec spec;
  spec.victim_pe = 2;
  spec.fail_at_op = 7;  // a few header/chunk ops into the exchange
  auto outcomes = RunWithFault(kind(), P, spec, [&](Comm& comm) {
    // Payloads span several chunks and credit windows so every PE is still
    // mid-exchange when the victim dies.
    constexpr size_t kChunk = 1024;
    const size_t per_pair = Comm::kStreamSendCreditChunks * 8 * kChunk;
    std::vector<uint8_t> payload(per_pair,
                                 static_cast<uint8_t>(comm.rank()));
    std::vector<std::span<const uint8_t>> spans(
        comm.size(), std::span<const uint8_t>(payload));
    comm.AlltoallvStream(
        spans, [](int, std::span<const uint8_t>, bool) {}, nullptr,
        StreamOptions{.chunk_bytes = kChunk});
  });
  ExpectAllCommError(outcomes);
}

TEST_P(FaultParamTest, KillPeMidAllgatherVStreamFailsEveryPe) {
  // The streaming allgather (credit-piggybacked symmetric rounds) must
  // contain a peer death exactly like the all-to-all: every PE unwinds
  // with CommError — no hang on a never-arriving close, no abort.
  const int P = 4;
  FaultInjector::Spec spec;
  spec.victim_pe = 1;
  spec.fail_at_op = 9;
  auto outcomes = RunWithFault(kind(), P, spec, [&](Comm& comm) {
    constexpr size_t kChunk = 1024;
    const size_t mine_bytes = Comm::kStreamSendCreditChunks * 8 * kChunk;
    std::vector<uint8_t> mine(mine_bytes, static_cast<uint8_t>(comm.rank()));
    comm.AllgatherVStream(
        std::span<const uint8_t>(mine),
        [](int, std::span<const uint8_t>, bool) {}, nullptr,
        StreamOptions{.chunk_bytes = kChunk});
  });
  ExpectAllCommError(outcomes);
}

TEST_P(FaultParamTest, SeveredLinkMidAlltoallvStreamFailsBothEndpoints) {
  const int P = 4;
  FaultInjector::Spec spec;
  spec.link_src = 1;
  spec.link_dst = 3;
  spec.fail_at_op = 2;  // the second message 1 sends to 3
  auto outcomes = RunWithFault(kind(), P, spec, [&](Comm& comm) {
    constexpr size_t kChunk = 1024;
    const size_t per_pair = Comm::kStreamSendCreditChunks * 8 * kChunk;
    std::vector<uint8_t> payload(per_pair,
                                 static_cast<uint8_t>(comm.rank()));
    std::vector<std::span<const uint8_t>> spans(
        comm.size(), std::span<const uint8_t>(payload));
    comm.AlltoallvStream(
        spans, [](int, std::span<const uint8_t>, bool) {}, nullptr,
        StreamOptions{.chunk_bytes = kChunk});
  });
  // Both endpoints of the severed link must observe the failure; no PE may
  // hang or abort. (The other PEs may or may not complete depending on how
  // far the endpoints got before unwinding and aborting their endpoints —
  // containment, not completion, is the contract.)
  for (int pe = 0; pe < P; ++pe) {
    EXPECT_FALSE(outcomes[pe].other_error)
        << "PE " << pe << ": " << outcomes[pe].what;
    EXPECT_TRUE(outcomes[pe].completed || outcomes[pe].comm_error)
        << "PE " << pe;
  }
  EXPECT_TRUE(outcomes[1].comm_error) << outcomes[1].what;
  EXPECT_TRUE(outcomes[3].comm_error) << outcomes[3].what;
}

// ------------------------------------------- kill mid-selection fetch ----

TEST_P(FaultParamTest, KillPeMidSelectionFetchRoundFailsEveryPe) {
  // The exact communication shape of ExternalSelector's BSP fetch rounds:
  // request/frame receives posted per peer, requests Isent, each peer's
  // requests served with a frame response, frames ingested, an
  // AllreduceAnd convergence vote — repeated until "converged".
  const int P = 4;
  FaultInjector::Spec spec;
  spec.victim_pe = 1;
  // Lands inside a fetch round, after the victim posted some of its
  // receives (2*(P-1) recv posts + P-1 request sends per round).
  spec.fail_at_op = 3 * (P - 1) + 4;
  auto outcomes = RunWithFault(kind(), P, spec, [&](Comm& comm) {
    const int me = comm.rank();
    for (int round = 0; round < 64; ++round) {
      int req_tag = comm.AllocateCollectiveTag();
      int frame_tag = comm.AllocateCollectiveTag();
      std::vector<RecvRequest> req_recvs(P), frame_recvs(P);
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        frame_recvs[src] = comm.Irecv(src, frame_tag);
        req_recvs[src] = comm.Irecv(src, req_tag);
      }
      std::vector<SendRequest> sends;
      std::vector<uint32_t> request(8, static_cast<uint32_t>(me));
      for (int off = 1; off < P; ++off) {
        int owner = (me + off) % P;
        sends.push_back(comm.Isend(owner, req_tag, request.data(),
                                   request.size() * sizeof(uint32_t)));
      }
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        std::vector<uint8_t> bytes = req_recvs[src].Take();
        std::vector<uint8_t> frame(bytes.size() * 4,
                                   static_cast<uint8_t>(me));
        sends.push_back(
            comm.Isend(src, frame_tag, frame.data(), frame.size()));
      }
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        frame_recvs[src].Take();
      }
      for (SendRequest& s : sends) s.Wait();
      if (comm.AllreduceAnd(round >= 48)) break;
    }
  });
  ExpectAllCommError(outcomes);
}

// --------------------------------------------------- kill mid-full-sort ----

TEST(FaultSortTest, KilledPeMidSortIsContainedAtEveryInjectionPoint) {
  // The whole pipeline (run formation, selection, external all-to-all,
  // final merge) under seed-swept PE kills on the in-process fabric: every
  // PE must end in `completed` or `comm_error` — never another error, an
  // abort, or a hang. Late trigger points that the sort finishes before
  // reaching are legitimate full completions.
  const int P = 4;
  core::SortConfig config;
  config.block_size = 4 * 1024;
  config.memory_per_pe = 64 * 1024;
  config.disks_per_pe = 2;
  config.threads_per_pe = 1;
  config.seed = 1;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    FaultInjector::Spec spec =
        FaultInjector::PeFailureFromSeed(seed, P, /*max_op=*/300);
    auto outcomes = RunWithFault(
        TransportKind::kInProc, P, spec, [&](Comm& comm) {
          core::PeResources resources(&comm, config);
          core::PeContext& ctx = resources.ctx();
          auto gen = workload::GenerateKV16(
              ctx.bm, workload::Distribution::kUniform,
              /*elements_per_pe=*/4096, comm.rank(), P, config.seed);
          core::CanonicalMergeSort<core::KV16>(ctx, config, gen.input);
        });
    bool any_failed = false;
    for (int pe = 0; pe < P; ++pe) {
      EXPECT_FALSE(outcomes[pe].other_error)
          << "seed " << seed << " PE " << pe << ": " << outcomes[pe].what;
      EXPECT_TRUE(outcomes[pe].completed || outcomes[pe].comm_error)
          << "seed " << seed << " PE " << pe;
      any_failed = any_failed || outcomes[pe].comm_error;
    }
    // If the victim died, the collectives' SPMD discipline means nobody
    // can have sailed through to completion.
    if (outcomes[spec.victim_pe].comm_error) {
      for (int pe = 0; pe < P; ++pe) {
        EXPECT_FALSE(outcomes[pe].completed)
            << "seed " << seed << " PE " << pe
            << " completed although the victim died";
      }
    }
    (void)any_failed;
  }
}

// --------------------------------------------- connect-time containment ----

TEST(TcpConnectDeadlineTest, MissingPeerFailsEveryRankWithinDeadline) {
  // Rank 1 of a 3-rank mesh never starts (its listener is closed, so
  // connects to it are refused and its dial-in never happens). Rank 0
  // starves in accept, rank 2 retries rank 1's port — both must fail with
  // a clean IoError close to the configured deadline, not block forever.
  const int P = 3;
  auto listeners = CreateLoopbackListeners(P);
  ASSERT_TRUE(listeners.ok()) << listeners.status().ToString();
  auto peers = LoopbackPeers(listeners.value());
  ::close(listeners.value()[1].fd);

  TcpTransport::Options options;
  options.connect_timeout_ms = 1000;
  int64_t start = NowMillis();
  Status status0, status2;
  std::thread r0([&] {
    auto t = TcpTransport::Connect(0, P, listeners.value()[0].fd, peers,
                                   options);
    status0 = t.status();
  });
  std::thread r2([&] {
    auto t = TcpTransport::Connect(2, P, listeners.value()[2].fd, peers,
                                   options);
    status2 = t.status();
  });
  r0.join();
  r2.join();
  int64_t elapsed = NowMillis() - start;
  EXPECT_FALSE(status0.ok());
  EXPECT_FALSE(status2.ok());
  EXPECT_EQ(status0.code(), StatusCode::kIoError) << status0.ToString();
  EXPECT_EQ(status2.code(), StatusCode::kIoError) << status2.ToString();
  // Within the deadline plus slack — minutes-long ::connect/::accept
  // blocking is exactly the bug this guards against.
  EXPECT_LT(elapsed, 10'000) << "deadline did not bound mesh setup";
}

TEST(TcpConnectDeadlineTest, ConnectRetriesUntilLatePeerListens) {
  // Rank start order is arbitrary: rank 1's listener comes up 300 ms after
  // rank 0 began connecting, on a port learned in advance — the outbound
  // connect must retry (refused at first) and the mesh still form.
  auto probe = CreateListener(0, 1);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  uint16_t late_port = probe.value().port;
  ::close(probe.value().fd);  // freed; rebound later by "rank 1"

  auto listener0 = CreateListener(0, 2);
  ASSERT_TRUE(listener0.ok()) << listener0.status().ToString();
  std::vector<TcpTransport::Peer> peers = {
      {"127.0.0.1", listener0.value().port}, {"127.0.0.1", late_port}};

  TcpTransport::Options options;
  options.connect_timeout_ms = 10'000;
  bool ok0 = false, ok1 = false;
  std::thread r1([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto late = CreateListener(late_port, 2);
    if (!late.ok()) return;  // port stolen meanwhile: give up, r0 times out
    auto t = TcpTransport::Connect(1, 2, late.value().fd, peers, options);
    if (!t.ok()) return;
    ok1 = true;
    t.value()->Isend(1, 0, 7, "x", 1).Wait();
  });
  std::thread r0([&] {
    auto t = TcpTransport::Connect(0, 2, listener0.value().fd, peers,
                                   options);
    if (!t.ok()) return;
    ok0 = true;
    EXPECT_EQ(t.value()->Irecv(0, 1, 7).Take().size(), 1u);
  });
  r1.join();
  r0.join();
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

// ------------------------------------------------- teardown ordering ----

TEST(TeardownTest, FabricThrowingPeCancelsPeersAndRethrowsRootCause) {
  // PE 1 throws a non-communication error while everyone else is blocked
  // receiving from it: the peers must fail via poison (not deadlock the
  // join) and Cluster::Run must rethrow PE 1's exception, not one of the
  // secondary CommErrors it provoked.
  try {
    Cluster::Run(4, [](Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("boom");
      comm.Recv(1, 99);  // never sent
    });
    FAIL() << "expected Cluster::Run to throw";
  } catch (const CommError& e) {
    FAIL() << "secondary CommError rethrown instead of the root cause: "
           << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << e.what();
  }
}

TEST(TeardownTest, TcpThrowingPeCancelsPeersAndRethrowsRootCause) {
  try {
    TcpCluster::Run(4, [](Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("boom");
      comm.Recv(1, 99);  // never sent
    });
    FAIL() << "expected TcpCluster::Run to throw";
  } catch (const CommError& e) {
    FAIL() << "secondary CommError rethrown instead of the root cause: "
           << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos)
        << e.what();
  }
}

TEST(TeardownTest, TcpEarlyFinisherDataStaysReceivableThenPoisons) {
  // A PE that exits cleanly after its last send is a legitimate early
  // finisher: its already-sent messages must remain receivable after its
  // EOF, and only a receive that can never complete fails.
  TcpCluster::Run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 3; ++i) comm.SendValue<int>(1, 5, i);
      // Returns immediately; rank 0's endpoint flushes and half-closes.
    } else {
      // Let rank 0's EOF (and poison) land BEFORE receiving: delivered
      // messages must survive the poison.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(comm.RecvValue<int>(0, 5), i);
      }
      EXPECT_THROW(comm.Recv(0, 6), CommError);  // will never arrive
    }
  });
}

// ---------------------------------------------------- unit-level seams ----

TEST(TagChannelPoisonTest, FailsPostedAndFutureButDeliveredSurvive) {
  internal::TagChannel channel;
  (void)channel.Offer(7, std::vector<uint8_t>(3, 9));  // delivered
  RecvRequest posted = channel.PostRecv(8);            // pending
  channel.Poison(Status::IoError("peer died"));
  EXPECT_TRUE(posted.done());
  EXPECT_THROW(posted.Take(), CommError);
  // The message delivered before the poison is still receivable...
  EXPECT_EQ(channel.PostRecv(7).Take().size(), 3u);
  // ...but anything beyond it fails, as do new sends.
  EXPECT_THROW(channel.PostRecv(7).Take(), CommError);
  SendRequest send = channel.Offer(9, std::vector<uint8_t>(1, 1));
  EXPECT_TRUE(send.done());
  EXPECT_THROW(send.Wait(), CommError);
}

TEST(FaultInjectorTest, SeedDerivationIsDeterministicAndInRange) {
  for (uint64_t seed = 0; seed < 32; ++seed) {
    auto a = FaultInjector::PeFailureFromSeed(seed, 8, 100);
    auto b = FaultInjector::PeFailureFromSeed(seed, 8, 100);
    EXPECT_EQ(a.victim_pe, b.victim_pe);
    EXPECT_EQ(a.fail_at_op, b.fail_at_op);
    EXPECT_GE(a.victim_pe, 0);
    EXPECT_LT(a.victim_pe, 8);
    EXPECT_GE(a.fail_at_op, 1u);
    EXPECT_LE(a.fail_at_op, 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, FaultParamTest,
                         ::testing::Values(TransportKind::kInProc,
                                           TransportKind::kTcp,
                                           TransportKind::kHier),
                         [](const auto& info) {
                           return std::string(TransportKindName(info.param));
                         });

}  // namespace
}  // namespace demsort::net
