// The transport layer contract, exercised identically against both
// implementations: the in-process Fabric and the TCP socket transport.
// Plus TCP-specific wire coverage (loopback echo, out-of-order tag
// matching, 64-bit frame lengths), the Fabric's bounded-channel
// backpressure, the streaming Alltoallv conformance suite (including the
// typed Alltoallv built on it), and receiver-side backpressure (channel cap / reader watermark)
// pause-resume over both backends.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/cluster.h"
#include "net/comm.h"
#include "net/hierarchical_transport.h"
#include "net/tcp_transport.h"

namespace demsort::net {
namespace {

void RunWith(TransportKind kind, int num_pes,
             const Cluster::PeBody& body) {
  Cluster::Options options;
  options.num_pes = num_pes;
  RunOverTransport(kind, options, body);
}

class TransportParamTest
    : public ::testing::TestWithParam<std::tuple<TransportKind, int>> {
 protected:
  TransportKind kind() const { return std::get<0>(GetParam()); }
  int pes() const { return std::get<1>(GetParam()); }
};

// ------------------------------------------------- pt2pt, both fabrics ----

TEST_P(TransportParamTest, IsendIrecvRoundTrip) {
  if (pes() < 2) GTEST_SKIP();
  RunWith(kind(), pes(), [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<uint64_t> data(1000);
      std::iota(data.begin(), data.end(), 7);
      SendRequest sr =
          comm.Isend(1, 3, data.data(), data.size() * sizeof(uint64_t));
      // Isend copies: the buffer is reusable immediately.
      std::fill(data.begin(), data.end(), 0);
      sr.Wait();
    } else if (comm.rank() == 1) {
      RecvRequest rr = comm.Irecv(0, 3);
      std::vector<uint8_t> bytes = rr.Take();
      ASSERT_EQ(bytes.size(), 1000 * sizeof(uint64_t));
      const uint64_t* v = reinterpret_cast<const uint64_t*>(bytes.data());
      for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(v[i], static_cast<uint64_t>(i + 7));
      }
    }
  });
}

TEST_P(TransportParamTest, TagMatchingOutOfOrder) {
  if (pes() < 2) GTEST_SKIP();
  RunWith(kind(), pes(), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.SendValue<int>(1, /*tag=*/1, 111);
      comm.SendValue<int>(1, /*tag=*/2, 222);
      comm.SendValue<int>(1, /*tag=*/3, 333);
    } else if (comm.rank() == 1) {
      // Receive in reverse send order; matching must be by tag.
      EXPECT_EQ(comm.RecvValue<int>(0, 3), 333);
      EXPECT_EQ(comm.RecvValue<int>(0, 2), 222);
      EXPECT_EQ(comm.RecvValue<int>(0, 1), 111);
    }
  });
}

TEST_P(TransportParamTest, FifoPerSourceAndTag) {
  if (pes() < 2) GTEST_SKIP();
  RunWith(kind(), pes(), [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 200; ++i) comm.SendValue<int>(1, 5, i);
    } else if (comm.rank() == 1) {
      for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(comm.RecvValue<int>(0, 5), i);
      }
    }
  });
}

TEST_P(TransportParamTest, EmptyAndSelfMessages) {
  RunWith(kind(), pes(), [](Comm& comm) {
    comm.SendValue<uint64_t>(comm.rank(), 11, 42);  // self-send
    EXPECT_EQ(comm.RecvValue<uint64_t>(comm.rank(), 11), 42u);
    if (comm.size() >= 2) {
      if (comm.rank() == 0) {
        comm.Send(1, 9, nullptr, 0);
      } else if (comm.rank() == 1) {
        EXPECT_TRUE(comm.Recv(0, 9).empty());
      }
    }
  });
}

TEST_P(TransportParamTest, PostedReceiveCompletesOnArrival) {
  if (pes() < 2) GTEST_SKIP();
  RunWith(kind(), pes(), [](Comm& comm) {
    if (comm.rank() == 1) {
      RecvRequest rr = comm.Irecv(0, 77);  // posted before the send exists
      comm.SendValue<int>(0, 78, 1);       // unblock the sender
      std::vector<uint8_t> bytes = rr.Take();
      EXPECT_EQ(bytes.size(), sizeof(int));
    } else if (comm.rank() == 0) {
      comm.RecvValue<int>(1, 78);
      comm.SendValue<int>(1, 77, 5);
    }
  });
}

// ------------------------------------------- collectives, both fabrics ----
// The same SPMD body runs over the in-process mailboxes and over real
// sockets — the acceptance gate for the pluggable transport.

TEST_P(TransportParamTest, CollectiveSuite) {
  RunWith(kind(), pes(), [](Comm& comm) {
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
    EXPECT_EQ(comm.AllreduceMin<uint64_t>(me + 1), 1u);
    EXPECT_FALSE(comm.AllreduceAnd(me != 0));

    std::vector<int> gathered = comm.Allgather<int>(me * 10);
    ASSERT_EQ(gathered.size(), static_cast<size_t>(P));
    for (int p = 0; p < P; ++p) EXPECT_EQ(gathered[p], p * 10);

    std::vector<uint32_t> mine(me);  // rank i contributes i entries
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

    uint64_t prefix = comm.ExclusiveScanSum(me + 1);
    uint64_t expect = 0;
    for (int p = 0; p < me; ++p) expect += p + 1;
    EXPECT_EQ(prefix, expect);
  });
}

TEST_P(TransportParamTest, LargeDirectAllgather) {
  // Above kAllgatherDirectThresholdBytes → the direct (nonblocking
  // rank-rotated) exchange path.
  RunWith(kind(), pes(), [](Comm& comm) {
    std::vector<uint64_t> mine(8192, comm.rank() + 1);
    auto all = comm.AllgatherV(mine);
    for (int p = 0; p < comm.size(); ++p) {
      ASSERT_EQ(all[p].size(), 8192u);
      EXPECT_EQ(all[p][17], static_cast<uint64_t>(p + 1));
    }
  });
}

// ------------------------------------ streaming collective, both fabrics ----

/// Deterministic per-pair payload size: mixes zero-size payloads (whenever
/// (s + 2d) % 4 == 0 and s*d % 3 == 0) with sizes that are not chunk
/// multiples.
size_t StreamPayloadBytes(int src, int dst) {
  return static_cast<size_t>(((src + 2 * dst) % 4) * 137 +
                             ((src * dst) % 3));
}

uint8_t StreamPayloadByte(int src, int dst, size_t i) {
  return static_cast<uint8_t>(src * 31 + dst * 17 + i * 7);
}

/// The SPMD streaming-exchange body shared by several tests: every pair
/// exchanges its StreamPayloadBytes payload in `chunk`-size pieces and
/// verifies content, chunk bounds, size announcements, and exactly one
/// last-chunk marker per source. `options` defaults to the Comm defaults
/// (adaptive chunks, piggybacked credits); tests pass explicit modes to
/// pin one protocol variant.
void StreamExchangeBody(Comm& comm, size_t chunk, StreamOptions options = {}) {
  const int P = comm.size();
  const int me = comm.rank();
  options.chunk_bytes = chunk;
  const uint64_t max_chunk = comm.StreamMaxChunkBytes(options);
  std::vector<std::vector<uint8_t>> payloads(P);
  std::vector<std::span<const uint8_t>> spans(P);
  for (int d = 0; d < P; ++d) {
    payloads[d].resize(StreamPayloadBytes(me, d));
    for (size_t i = 0; i < payloads[d].size(); ++i) {
      payloads[d][i] = StreamPayloadByte(me, d, i);
    }
    spans[d] = std::span<const uint8_t>(payloads[d]);
  }
  std::vector<std::vector<uint8_t>> got(P);
  std::vector<int> lasts(P, 0);
  std::vector<uint64_t> announced(P, UINT64_MAX);
  comm.AlltoallvStream(
      spans,
      [&](int src, std::span<const uint8_t> data, bool last) {
        EXPECT_LE(data.size(), max_chunk);
        EXPECT_EQ(lasts[src], 0) << "chunk after last from " << src;
        got[src].insert(got[src].end(), data.begin(), data.end());
        if (last) ++lasts[src];
      },
      [&](int src, uint64_t bytes) { announced[src] = bytes; }, options);
  for (int s = 0; s < P; ++s) {
    ASSERT_EQ(got[s].size(), StreamPayloadBytes(s, me)) << "source " << s;
    EXPECT_EQ(announced[s], got[s].size());
    EXPECT_EQ(lasts[s], 1);
    for (size_t i = 0; i < got[s].size(); ++i) {
      ASSERT_EQ(got[s][i], StreamPayloadByte(s, me, i))
          << "source " << s << " byte " << i;
    }
  }
}

TEST_P(TransportParamTest, AlltoallvStreamDeliversChunkedPayloads) {
  RunWith(kind(), pes(), [](Comm& comm) { StreamExchangeBody(comm, 64); });
}

TEST_P(TransportParamTest, AlltoallvStreamChunkLargerThanPayload) {
  // Every payload fits one chunk (chunk == or > payload), including the
  // zero-payload pairs: still exactly one consumer call per source.
  RunWith(kind(), pes(), [](Comm& comm) { StreamExchangeBody(comm, 4096); });
}

TEST_P(TransportParamTest, AlltoallvStreamFixedChunks) {
  // min == max pins every chunk (except the tail) to one size, so the
  // adaptive controller never resizes; delivery must be identical.
  RunWith(kind(), pes(), [](Comm& comm) {
    StreamOptions options;
    options.min_chunk_bytes = 64;
    options.max_chunk_bytes = 64;
    StreamExchangeBody(comm, 64, options);
  });
}

TEST_P(TransportParamTest, AllgatherVStreamDeliversAllContributions) {
  // The streaming allgather: every PE's contribution (rank-dependent size
  // and content, including rank 0's empty one) arrives chunked at every
  // PE, own contribution included.
  RunWith(kind(), pes(), [](Comm& comm) {
    const int P = comm.size();
    const int me = comm.rank();
    std::vector<uint8_t> mine(static_cast<size_t>(200 * me));
    for (size_t i = 0; i < mine.size(); ++i) {
      mine[i] = static_cast<uint8_t>(me * 41 + i * 3);
    }
    std::vector<std::vector<uint8_t>> got(P);
    std::vector<int> lasts(P, 0);
    std::vector<uint64_t> announced(P, UINT64_MAX);
    comm.AllgatherVStream(
        std::span<const uint8_t>(mine),
        [&](int src, std::span<const uint8_t> data, bool last) {
          EXPECT_EQ(lasts[src], 0);
          got[src].insert(got[src].end(), data.begin(), data.end());
          if (last) ++lasts[src];
        },
        [&](int src, uint64_t bytes) { announced[src] = bytes; },
        StreamOptions{.chunk_bytes = 64});
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(got[s].size(), static_cast<size_t>(200 * s)) << "src " << s;
      EXPECT_EQ(announced[s], got[s].size());
      EXPECT_EQ(lasts[s], 1);
      for (size_t i = 0; i < got[s].size(); ++i) {
        ASSERT_EQ(got[s][i], static_cast<uint8_t>(s * 41 + i * 3));
      }
    }
  });
}

TEST_P(TransportParamTest, AllgatherVStreamedTypedMatchesBufferedAllgatherV) {
  RunWith(kind(), pes(), [](Comm& comm) {
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

TEST_P(TransportParamTest, PiggybackedCreditsRideDataFrames) {
  if (pes() < 2) GTEST_SKIP();
  // Symmetric equal payloads spanning many credit windows: nearly every
  // credit should ride a reverse data frame. Each PE asserts on its own
  // counters: piggybacked credits dominate, standalone credit messages
  // stay near the protocol floor (the mandatory per-stream close plus
  // occasional liveness flushes), far below one message per chunk.
  RunWith(kind(), pes(), [](Comm& comm) {
    const int P = comm.size();
    constexpr size_t kChunk = 1024;
    const size_t per_pair = 32 * Comm::kStreamSendCreditChunks * kChunk;
    std::vector<uint8_t> payload(per_pair, static_cast<uint8_t>(comm.rank()));
    std::vector<std::span<const uint8_t>> spans(
        P, std::span<const uint8_t>(payload));
    NetStatsSnapshot before = comm.StatsSnapshot();
    std::vector<uint64_t> got(P, 0);
    StreamOptions options;
    options.chunk_bytes = kChunk;
    options.min_chunk_bytes = kChunk;
    options.max_chunk_bytes = kChunk;
    comm.AlltoallvStream(
        spans,
        [&](int src, std::span<const uint8_t> data, bool) {
          got[src] += data.size();
        },
        nullptr, options);
    for (int s = 0; s < P; ++s) EXPECT_EQ(got[s], per_pair);
    NetStatsSnapshot delta = comm.StatsSnapshot() - before;
    // Cluster-level accounting: how one PE's credits split between data
    // frames and standalone messages depends on its rounds' timing — the
    // protocol property (credits ride data frames, standalone messages
    // stay the exception) is a property of the cluster total.
    const uint64_t cluster_piggy =
        comm.AllreduceSum<uint64_t>(delta.piggybacked_credits);
    const uint64_t cluster_ctrl =
        comm.AllreduceSum<uint64_t>(delta.credit_msgs);
    const uint64_t chunks_consumed = static_cast<uint64_t>(P) *
                                     static_cast<uint64_t>(P - 1) *
                                     (per_pair / kChunk);
    EXPECT_GT(cluster_piggy, chunks_consumed / 2)
        << "most credits should ride data frames";
    EXPECT_LT(cluster_ctrl, chunks_consumed / 4)
        << "standalone credit messages should be the exception";
  });
}

TEST_P(TransportParamTest, AlltoallvStreamAllEmptyPayloads) {
  RunWith(kind(), pes(), [](Comm& comm) {
    std::vector<std::span<const uint8_t>> spans(comm.size());
    std::vector<int> calls(comm.size(), 0);
    comm.AlltoallvStream(
        spans,
        [&](int src, std::span<const uint8_t> data, bool last) {
          EXPECT_TRUE(data.empty());
          EXPECT_TRUE(last);
          ++calls[src];
        });
    for (int s = 0; s < comm.size(); ++s) EXPECT_EQ(calls[s], 1);
  });
}

TEST_P(TransportParamTest, AlltoallvStreamPayloadLargerThanSendWindow) {
  if (pes() < 2) GTEST_SKIP();
  // Payloads far above the send window: the windowed sender must keep
  // consuming while it waits for credit, or the exchange would deadlock.
  RunWith(kind(), pes(), [](Comm& comm) {
    comm.set_send_window_bytes(8 * 1024);
    const size_t n = 192 * 1024;
    const size_t chunk = 4096;
    std::vector<uint8_t> payload(n);
    for (size_t i = 0; i < n; ++i) {
      payload[i] = static_cast<uint8_t>(comm.rank() * 13 + i * 11);
    }
    std::vector<std::span<const uint8_t>> spans(
        comm.size(), std::span<const uint8_t>(payload));
    std::vector<uint64_t> got_bytes(comm.size(), 0);
    std::vector<int> bad(comm.size(), 0);
    comm.AlltoallvStream(
        spans,
        [&](int src, std::span<const uint8_t> data, bool last) {
          (void)last;
          for (size_t i = 0; i < data.size(); ++i) {
            if (data[i] != static_cast<uint8_t>(
                               src * 13 + (got_bytes[src] + i) * 11)) {
              ++bad[src];
            }
          }
          got_bytes[src] += data.size();
        },
        nullptr, StreamOptions{.chunk_bytes = chunk});
    for (int s = 0; s < comm.size(); ++s) {
      EXPECT_EQ(got_bytes[s], n) << "source " << s;
      EXPECT_EQ(bad[s], 0) << "source " << s;
    }
  });
}

TEST_P(TransportParamTest, AlltoallvAssemblesMultiChunkPayloads) {
  // The typed Alltoallv with a 64-byte chunk: most payloads span many
  // chunks, each a whole number of 12-byte elements (the chunk aligns to
  // sizeof(T)), and each source's vector is assembled in order from them;
  // ragged sizes include empty payloads.
  struct Elem {
    uint32_t src, dst, i;
  };
  RunWith(kind(), pes(), [](Comm& comm) {
    const int P = comm.size();
    const int me = comm.rank();
    auto count = [](int src, int dst) {
      return static_cast<size_t>(((src + 2 * dst) % 4) * 37);
    };
    std::vector<std::vector<Elem>> sends(P);
    for (int d = 0; d < P; ++d) {
      for (size_t i = 0; i < count(me, d); ++i) {
        sends[d].push_back(Elem{static_cast<uint32_t>(me),
                                static_cast<uint32_t>(d),
                                static_cast<uint32_t>(i)});
      }
    }
    auto recvd = comm.Alltoallv<Elem>(sends, StreamOptions{.chunk_bytes = 64});
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(recvd[s].size(), count(s, me)) << "source " << s;
      for (size_t i = 0; i < recvd[s].size(); ++i) {
        EXPECT_EQ(recvd[s][i].src, static_cast<uint32_t>(s));
        EXPECT_EQ(recvd[s][i].dst, static_cast<uint32_t>(me));
        EXPECT_EQ(recvd[s][i].i, i);
      }
    }
  });
}

// ------------------------------ receiver-side backpressure conformance ----

/// Runs `body` with receiver-side backpressure configured the way each
/// backend expresses it — per-channel byte cap on the fabric, reader
/// watermark on TCP — and returns the per-PE stats.
std::vector<NetStatsSnapshot> RunWithBackpressure(TransportKind kind,
                                                  int num_pes, size_t bound,
                                                  const Cluster::PeBody& body) {
  if (kind == TransportKind::kTcp) {
    TcpTransport::Options options;
    options.recv_watermark_bytes = bound;
    return TcpCluster::RunWithStats(num_pes, body, options);
  }
  if (kind == TransportKind::kHier) {
    // Both halves of the hierarchical backpressure chain: the demux pause
    // at the PE mailbox watermark AND a bounded uplink channel behind it.
    HierCluster::Options options;
    options.topology = Topology::Uniform(num_pes, 2);
    options.uplink_channel_cap_bytes = bound;
    options.recv_watermark_bytes = bound;
    return HierCluster::Run(options, body).stats;
  }
  Cluster::Options options;
  options.num_pes = num_pes;
  options.channel_cap_bytes = bound;
  return Cluster::Run(options, body).stats;
}

TEST_P(TransportParamTest, BackpressurePausesAndResumesAtWatermark) {
  if (pes() < 2) GTEST_SKIP();
  // Rank 0 fires a burst far above the bound at a sleeping receiver: the
  // fabric parks sends at the channel cap / the TCP reader pauses at the
  // mailbox watermark, so the receiver's transport-held bytes never exceed
  // bound + one frame. Completion of every send after the receiver drains
  // is the resume half of the contract.
  constexpr size_t kFrame = 4096;
  constexpr size_t kBound = 16 * 1024;
  constexpr int kFrames = 64;
  auto stats = RunWithBackpressure(kind(), pes(), kBound, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<uint8_t> frame(kFrame, 7);
      std::vector<SendRequest> sends;
      sends.reserve(kFrames);
      for (int i = 0; i < kFrames; ++i) {
        sends.push_back(comm.Isend(1, 5, frame.data(), frame.size()));
      }
      for (SendRequest& s : sends) s.Wait();
    } else if (comm.rank() == 1) {
      // Give the burst time to hit the backpressure before draining.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      uint64_t total = 0;
      for (int i = 0; i < kFrames; ++i) total += comm.Recv(0, 5).size();
      EXPECT_EQ(total, uint64_t{kFrames} * kFrame);
    }
  });
  EXPECT_LE(stats[1].recv_buffer_peak_bytes, kBound + kFrame);
  EXPECT_GE(stats[1].bytes_received, uint64_t{kFrames} * kFrame);
}

TEST_P(TransportParamTest, AlltoallvStreamBoundedUnderBackpressure) {
  if (pes() < 2) GTEST_SKIP();
  // The full streaming collective under tight receiver-side backpressure:
  // must complete (no deadlock between parked sends, credits, and paused
  // readers) and keep every PE's transport-held bytes at
  // O(credit x chunk x sources), far below the exchanged volume.
  constexpr size_t kChunk = 2048;
  constexpr size_t kPerPair = 64 * 1024;
  const int P = pes();
  auto stats = RunWithBackpressure(
      kind(), P, /*bound=*/4 * kChunk, [&](Comm& comm) {
        std::vector<uint8_t> payload(kPerPair);
        for (size_t i = 0; i < payload.size(); ++i) {
          payload[i] = static_cast<uint8_t>(comm.rank() + i);
        }
        std::vector<std::span<const uint8_t>> spans(
            comm.size(), std::span<const uint8_t>(payload));
        std::vector<uint64_t> got(comm.size(), 0);
        StreamOptions options;
        options.chunk_bytes = kChunk;
        options.min_chunk_bytes = kChunk;  // min == max pins the bound
        options.max_chunk_bytes = kChunk;
        comm.AlltoallvStream(
            spans,
            [&](int src, std::span<const uint8_t> data, bool last) {
              (void)last;
              got[src] += data.size();
            },
            nullptr, options);
        for (int s = 0; s < comm.size(); ++s) EXPECT_EQ(got[s], kPerPair);
      });
  // Credit window + posted lookahead, each chunk message carrying its
  // frame header, plus the stream's size header and a few parked credit
  // messages per source.
  const uint64_t per_source =
      (Comm::kStreamSendCreditChunks + 2) *
          (kChunk + sizeof(StreamChunkHeader)) +
      sizeof(StreamSizeHeader) + 8 * sizeof(StreamCreditMsg);
  for (int pe = 0; pe < P; ++pe) {
    EXPECT_LE(stats[pe].recv_buffer_peak_bytes,
              static_cast<uint64_t>(P - 1) * per_source)
        << "PE " << pe;
  }
}

TEST_P(TransportParamTest, AdaptiveChunksKeepReceiveBufferBound) {
  if (pes() < 4) GTEST_SKIP();
  // The adaptive-chunk memory regression (uncapped transport, so the
  // streaming credit protocol is the ONLY thing bounding buffering): even
  // while the controller resizes chunks under uneven consumer delays, the
  // receive-side peak stays within credits x MAX chunk x sources — the
  // documented bound — rather than drifting toward O(payload).
  constexpr size_t kChunk = 1024;
  constexpr size_t kMaxChunk = 4 * kChunk;
  const int P = pes();
  const size_t per_pair = 48 * kChunk;
  auto body = [&](Comm& comm) {
    StreamOptions options;
    options.chunk_bytes = kChunk;
    options.min_chunk_bytes = kChunk / 4;
    options.max_chunk_bytes = kMaxChunk;
    std::vector<uint8_t> payload(per_pair, 5);
    std::vector<std::span<const uint8_t>> spans(
        P, std::span<const uint8_t>(payload));
    std::vector<uint64_t> got(P, 0);
    const int slow_src = (comm.rank() + 1) % P;
    comm.AlltoallvStream(
        spans,
        [&](int src, std::span<const uint8_t> data, bool) {
          if (src == slow_src) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          got[src] += data.size();
        },
        nullptr, options);
    for (int s = 0; s < P; ++s) EXPECT_EQ(got[s], per_pair);
  };
  std::vector<NetStatsSnapshot> stats;
  if (kind() == TransportKind::kTcp) {
    stats = TcpCluster::RunWithStats(P, body);
  } else if (kind() == TransportKind::kHier) {
    HierCluster::Options hier_options;
    hier_options.topology = Topology::Uniform(P, 2);
    stats = HierCluster::Run(hier_options, body).stats;
  } else {
    Cluster::Options cluster_options;
    cluster_options.num_pes = P;
    stats = Cluster::Run(cluster_options, body).stats;
  }
  const uint64_t per_source =
      (Comm::kStreamSendCreditChunks + 2) *
          (kMaxChunk + sizeof(StreamChunkHeader)) +
      sizeof(StreamSizeHeader) + 8 * sizeof(StreamCreditMsg);
  for (int pe = 0; pe < P; ++pe) {
    EXPECT_LE(stats[pe].recv_buffer_peak_bytes,
              static_cast<uint64_t>(P - 1) * per_source)
        << "PE " << pe;
  }
}

TEST(ResolveStreamTuningTest, ChunkBoundsDecideAdaptivity) {
  Cluster::Run(1, [](Comm& comm) {
    // min == max is fixed chunking, whatever the base: the base lands on
    // the one permitted size.
    for (size_t base : {size_t{0}, size_t{4096}, size_t{1 << 20}}) {
      auto fixed = comm.ResolveStreamTuning(StreamOptions{
          .chunk_bytes = base, .min_chunk_bytes = 4096,
          .max_chunk_bytes = 4096});
      EXPECT_FALSE(fixed.adaptive()) << "base " << base;
      EXPECT_EQ(fixed.base_chunk_bytes, 4096u) << "base " << base;
      EXPECT_EQ(fixed.min_chunk_bytes, 4096u) << "base " << base;
      EXPECT_EQ(fixed.max_chunk_bytes, 4096u) << "base " << base;
    }
    // Auto bounds span kStreamAutoRangeFactor either side of the base, so
    // the default exchange is adaptive.
    auto automatic = comm.ResolveStreamTuning(StreamOptions{});
    EXPECT_TRUE(automatic.adaptive());
    EXPECT_EQ(automatic.base_chunk_bytes, Comm::kDefaultStreamChunkBytes);
    EXPECT_EQ(automatic.min_chunk_bytes,
              Comm::kDefaultStreamChunkBytes / kStreamAutoRangeFactor);
    EXPECT_EQ(automatic.max_chunk_bytes,
              Comm::kDefaultStreamChunkBytes * kStreamAutoRangeFactor);
    // An explicit max below the base is a cap: it clamps the base (aligned
    // down), and the auto min follows the clamped base.
    auto capped = comm.ResolveStreamTuning(StreamOptions{
        .chunk_bytes = 4096, .align_bytes = 8, .max_chunk_bytes = 1000});
    EXPECT_TRUE(capped.adaptive());
    EXPECT_EQ(capped.base_chunk_bytes, 1000u);
    EXPECT_EQ(capped.max_chunk_bytes, 1000u);
    EXPECT_EQ(capped.min_chunk_bytes, 1000u / kStreamAutoRangeFactor / 8 * 8);
  });
}

TEST(AdaptiveChunkControllerTest, ShrinksForSlowConsumerGrowsForFast) {
  // P = 2 over the in-process fabric: rank 1's consumer sleeps far beyond
  // the shrink threshold per chunk, so rank 0's per-destination chunk must
  // converge to the minimum; rank 0 consumes instantly, so rank 1's chunk
  // must grow beyond the initial size on its much larger payload.
  static constexpr size_t kBase = 4096;
  static constexpr size_t kMin = 512;
  static constexpr size_t kMax = 32 * 1024;
  Cluster::Run(2, [](Comm& comm) {
    StreamOptions options;
    options.chunk_bytes = kBase;
    options.min_chunk_bytes = kMin;
    options.max_chunk_bytes = kMax;
    const int me = comm.rank();
    const int peer = 1 - me;
    // Rank 0 ships enough chunks to hit the floor; rank 1 ships enough to
    // climb several doublings.
    std::vector<uint8_t> payload(me == 0 ? 64 * 1024 : 1024 * 1024, 9);
    std::vector<std::span<const uint8_t>> spans(
        2, std::span<const uint8_t>(payload));
    std::vector<uint64_t> got(2, 0);
    comm.AlltoallvStream(
        spans,
        [&](int src, std::span<const uint8_t> data, bool) {
          if (me == 1 && src == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
          }
          got[src] += data.size();
        },
        nullptr, options);
    EXPECT_EQ(got[peer], peer == 0 ? 64u * 1024 : 1024u * 1024);
    if (me == 0) {
      // Every credit from the sleeping consumer arrived > 3 ms late.
      EXPECT_LE(comm.StreamPeerChunkBytes(1), kMin * 2);
    } else {
      // The fast side must have grown at least once over 1 MiB of chunks.
      EXPECT_GT(comm.StreamPeerChunkBytes(0), kBase);
    }
  });
}

TEST_P(TransportParamTest, AlltoallvStreamUnevenConsumersNoDeadlock) {
  if (pes() < 4) GTEST_SKIP();
  // Regression: the drain loop must keep consuming (and returning credits
  // to) every unfinished source while several are open. Hard-blocking on
  // one source there stops the credit flow to the others, and a cycle of
  // drain-blocked and credit-blocked PEs can close into a distributed
  // deadlock at P >= 4. Source-dependent consumer delays push PEs into
  // the drain loop at very different times, payloads span several credit
  // windows, and the backpressure bound sits BELOW one credit window so
  // credit frames also ride behind paused/parked delivery.
  constexpr size_t kChunk = 1024;
  const size_t per_pair = Comm::kStreamSendCreditChunks * 4 * kChunk;
  const int P = pes();
  RunWithBackpressure(kind(), P, /*bound=*/2 * kChunk, [&](Comm& comm) {
    std::vector<uint8_t> payload(per_pair);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(comm.rank() * 3 + i);
    }
    std::vector<std::span<const uint8_t>> spans(
        P, std::span<const uint8_t>(payload));
    std::vector<uint64_t> got(P, 0);
    const int slow_src = (comm.rank() + 1) % P;
    comm.AlltoallvStream(
        spans,
        [&](int src, std::span<const uint8_t> data, bool last) {
          (void)last;
          if (src == slow_src) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          got[src] += data.size();
        },
        nullptr, StreamOptions{.chunk_bytes = kChunk});
    for (int s = 0; s < P; ++s) EXPECT_EQ(got[s], per_pair);
  });
}

TEST(DegeneratePTest, CollectivesAtTrivialAndOddP) {
  // P = 1 (all self paths) and odd P = 3, 5, 7 (no XOR pairing; the
  // rotation schedules and the (rank - step) index arithmetic must hold
  // on their own, not by accident of power-of-two sizes), on BOTH
  // backends: Barrier, Broadcast from every root, the typed Alltoallv, and
  // AlltoallvStream.
  for (TransportKind kind :
       {TransportKind::kInProc, TransportKind::kTcp}) {
    for (int num_pes : {1, 3, 5, 7}) {
      SCOPED_TRACE(std::string(TransportKindName(kind)) + " P=" +
                   std::to_string(num_pes));
      RunWith(kind, num_pes, [](Comm& comm) {
        const int me = comm.rank();
        const int P = comm.size();
        comm.Barrier();
        for (int root = 0; root < P; ++root) {
          int got = comm.BroadcastValue<int>(root, me == root ? 41 + root : 0);
          EXPECT_EQ(got, 41 + root);
        }
        comm.Barrier();
        // Typed Alltoallv: tournament partners at odd P, ragged sizes,
        // then a round in which every payload is empty.
        std::vector<std::vector<uint32_t>> sends(P);
        for (int p = 0; p < P; ++p) {
          sends[p].assign(static_cast<size_t>(me + 1),
                          static_cast<uint32_t>(me * 100 + p));
        }
        auto received = comm.Alltoallv<uint32_t>(sends);
        for (int p = 0; p < P; ++p) {
          ASSERT_EQ(received[p].size(), static_cast<size_t>(p + 1));
          for (uint32_t v : received[p]) {
            EXPECT_EQ(v, static_cast<uint32_t>(p * 100 + me));
          }
        }
        auto none = comm.Alltoallv<uint32_t>(
            std::vector<std::vector<uint32_t>>(static_cast<size_t>(P)));
        ASSERT_EQ(none.size(), static_cast<size_t>(P));
        for (const auto& v : none) EXPECT_TRUE(v.empty());
        // Streaming exchange with rank-dependent payload sizes (the
        // tournament pairing (r - rank) mod P is the schedule actually
        // exercised at odd P — partner mutuality must hold without the XOR
        // shortcut).
        {
          StreamOptions options;
          options.chunk_bytes = 256;
          std::vector<uint8_t> payload(static_cast<size_t>(512 * (me + 1)),
                                       static_cast<uint8_t>(me));
          std::vector<std::span<const uint8_t>> spans(
              P, std::span<const uint8_t>(payload));
          std::vector<uint64_t> got(P, 0);
          comm.AlltoallvStream(
              spans,
              [&](int src, std::span<const uint8_t> data, bool) {
                for (uint8_t b : data) {
                  EXPECT_EQ(b, static_cast<uint8_t>(src));
                }
                got[src] += data.size();
              },
              nullptr, options);
          for (int p = 0; p < P; ++p) {
            EXPECT_EQ(got[p], static_cast<uint64_t>(512 * (p + 1)));
          }
        }
        // Streaming allgather at the same degenerate sizes.
        {
          std::vector<uint32_t> mine(static_cast<size_t>(me + 1),
                                     static_cast<uint32_t>(1000 + me));
          auto all = comm.AllgatherVStreamed<uint32_t>(
              mine, StreamOptions{.chunk_bytes = 64});
          for (int p = 0; p < P; ++p) {
            ASSERT_EQ(all[p].size(), static_cast<size_t>(p + 1));
            for (uint32_t v : all[p]) {
              EXPECT_EQ(v, static_cast<uint32_t>(1000 + p));
            }
          }
        }
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportParamTest,
    ::testing::Combine(::testing::Values(TransportKind::kInProc,
                                         TransportKind::kTcp,
                                         TransportKind::kHier),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const auto& info) {
      return std::string(TransportKindName(std::get<0>(info.param))) + "_P" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------- TCP specifics ----

TEST(TcpTransportTest, RawLoopbackEcho) {
  // Teardown is collective (see tcp_transport.h), so each endpoint lives
  // and dies in its own thread, like real processes would.
  auto listeners = CreateLoopbackListeners(2);
  ASSERT_TRUE(listeners.ok()) << listeners.status().ToString();
  auto peers = LoopbackPeers(listeners.value());
  std::vector<uint8_t> ping = {1, 2, 3, 4, 5};
  std::vector<uint8_t> echoed;

  std::thread server([&] {
    auto t = TcpTransport::Connect(1, 2, listeners.value()[1].fd, peers);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    std::vector<uint8_t> msg = t.value()->Irecv(1, 0, 42).Take();
    t.value()->Isend(1, 0, 43, msg.data(), msg.size()).Wait();
  });
  std::thread client([&] {
    auto t = TcpTransport::Connect(0, 2, listeners.value()[0].fd, peers);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    t.value()->Isend(0, 1, 42, ping.data(), ping.size()).Wait();
    echoed = t.value()->Irecv(0, 1, 43).Take();
  });
  server.join();
  client.join();
  EXPECT_EQ(echoed, ping);
}

TEST(TcpTransportTest, StatsCountBytes) {
  auto stats = TcpCluster::RunWithStats(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<uint8_t> data(1000, 1);
      comm.Send(1, 1, data.data(), data.size());
    } else {
      comm.Recv(0, 1);
    }
  });
  EXPECT_EQ(stats[0].bytes_sent, 1000u);
  EXPECT_EQ(stats[1].bytes_received, 1000u);
  EXPECT_EQ(stats[1].bytes_sent, 0u);
}

TEST(TcpTransportTest, ManyInterleavedMessages) {
  TcpCluster::Run(4, [](Comm& comm) {
    for (int d = 0; d < comm.size(); ++d) {
      for (int i = 0; i < 50; ++i) {
        comm.SendValue<uint64_t>(d, 100 + i, comm.rank() * 10000 + i);
      }
    }
    for (int s = 0; s < comm.size(); ++s) {
      for (int i = 49; i >= 0; --i) {  // reverse order exercises matching
        EXPECT_EQ(comm.RecvValue<uint64_t>(s, 100 + i),
                  static_cast<uint64_t>(s * 10000 + i));
      }
    }
    comm.Barrier();
  });
}

TEST(TcpTransportTest, MultiMegabyteFrames) {
  // 64-bit frame lengths on the wire; chunked socket writes/reads.
  TcpCluster::Run(2, [](Comm& comm) {
    const size_t n = (32u << 20) + 13;  // deliberately unaligned
    if (comm.rank() == 0) {
      std::vector<uint8_t> data(n);
      for (size_t i = 0; i < n; ++i) data[i] = static_cast<uint8_t>(i * 31);
      comm.Send(1, 7, data.data(), data.size());
    } else {
      std::vector<uint8_t> data = comm.Recv(0, 7);
      ASSERT_EQ(data.size(), n);
      for (size_t i = 0; i < n; i += 4097) {
        ASSERT_EQ(data[i], static_cast<uint8_t>(i * 31)) << i;
      }
    }
  });
}

TEST(TcpTransportTest, Above4GiBCountAlltoallv) {
  // A >2^32-byte payload through Alltoallv (64-bit stream size header and
  // byte counts end to end) — what the paper re-implemented MPI_Alltoallv
  // for. Needs ~9 GiB of RAM; opt in explicitly.
  if (std::getenv("DEMSORT_BIG_TESTS") == nullptr) {
    GTEST_SKIP() << "set DEMSORT_BIG_TESTS=1 to run the >4 GiB transfer";
  }
  TcpCluster::Run(2, [](Comm& comm) {
    const uint64_t n = (uint64_t{4} << 30) + (64u << 20);  // 4.0625 GiB
    std::vector<std::vector<uint8_t>> sends(2);
    if (comm.rank() == 0) {
      sends[1].resize(n);
      for (uint64_t i = 0; i < n; i += (1u << 20)) {
        sends[1][i] = static_cast<uint8_t>(i >> 20);
      }
      sends[1][n - 1] = 0xEE;
    }
    auto recvd = comm.Alltoallv<uint8_t>(sends);
    if (comm.rank() == 1) {
      ASSERT_EQ(recvd[0].size(), n);
      for (uint64_t i = 0; i < n; i += (1u << 20)) {
        ASSERT_EQ(recvd[0][i], static_cast<uint8_t>(i >> 20)) << i;
      }
      EXPECT_EQ(recvd[0][n - 1], 0xEE);
    }
  });
}

// --------------------------------------------- Fabric channel capping ----

TEST(FabricCapTest, SendParksUntilReceiverDrains) {
  Fabric::Options options;
  options.num_pes = 2;
  options.channel_cap_bytes = 1024;
  Fabric fabric(options);

  std::vector<uint8_t> block(1024, 1);
  SendRequest first = fabric.Isend(0, 1, 1, block.data(), block.size());
  EXPECT_TRUE(first.done());  // empty channel always admits
  SendRequest second = fabric.Isend(0, 1, 1, block.data(), block.size());
  EXPECT_FALSE(second.done());  // over the cap: parked

  std::vector<uint8_t> got = fabric.Recv(1, 0, 1);
  EXPECT_EQ(got.size(), 1024u);
  second.Wait();  // the drain admitted it
  EXPECT_TRUE(second.done());
  EXPECT_EQ(fabric.Recv(1, 0, 1).size(), 1024u);
  EXPECT_LE(fabric.max_channel_queued_bytes(), 1024u);
}

TEST(FabricCapTest, ParkedMessagesKeepFifoOrder) {
  Fabric::Options options;
  options.num_pes = 2;
  options.channel_cap_bytes = 8;
  Fabric fabric(options);
  for (int i = 0; i < 16; ++i) {
    fabric.Isend(0, 1, 1, &i, sizeof(i));
  }
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> bytes = fabric.Recv(1, 0, 1);
    int v;
    ASSERT_EQ(bytes.size(), sizeof(v));
    std::memcpy(&v, bytes.data(), sizeof(v));
    EXPECT_EQ(v, i);
  }
}

TEST(FabricCapTest, OutOfOrderTagReceiveUnblocksParkedSend) {
  // Regression: a message parked behind a full channel must be handed to a
  // LATER-posted receive for its tag even when an earlier message (with a
  // different tag) still occupies the cap — per-tag FIFO, not channel FIFO.
  Fabric::Options options;
  options.num_pes = 2;
  options.channel_cap_bytes = 1024;
  Fabric fabric(options);
  std::vector<uint8_t> block(1024, 1);
  SendRequest first = fabric.Isend(0, 1, /*tag=*/7, block.data(), 1024);
  EXPECT_TRUE(first.done());
  SendRequest second = fabric.Isend(0, 1, /*tag=*/8, block.data(), 1024);
  EXPECT_FALSE(second.done());  // cap full: parked

  // Receive tag 8 FIRST: must complete from the parked message.
  std::vector<uint8_t> tag8 = fabric.Recv(1, 0, /*tag=*/8);
  EXPECT_EQ(tag8.size(), 1024u);
  EXPECT_TRUE(second.done());
  EXPECT_EQ(fabric.Recv(1, 0, /*tag=*/7).size(), 1024u);
}

TEST(FabricCapTest, OversizedMessageStillAdmitted) {
  Fabric::Options options;
  options.num_pes = 2;
  options.channel_cap_bytes = 16;
  Fabric fabric(options);
  std::vector<uint8_t> big(4096, 7);
  SendRequest sr = fabric.Isend(0, 1, 1, big.data(), big.size());
  EXPECT_TRUE(sr.done());  // empty channel admits even > cap (no livelock)
  EXPECT_EQ(fabric.Recv(1, 0, 1).size(), 4096u);
}

TEST(FabricCapTest, SelfSendsExempt) {
  Fabric::Options options;
  options.num_pes = 1;
  options.channel_cap_bytes = 4;
  Fabric fabric(options);
  for (int i = 0; i < 8; ++i) {
    SendRequest sr = fabric.Isend(0, 0, 1, &i, sizeof(i));
    EXPECT_TRUE(sr.done());  // a capped fabric must never deadlock a PE
  }                          // against its own mailbox
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fabric.Recv(0, 0, 1).size(), sizeof(int));
  }
}

TEST(FabricCapTest, CollectivesCompleteUnderTightCap) {
  // Every collective drains what it sends, so a capped cluster must make
  // progress even when the cap is far below the exchanged volume.
  Cluster::Options options;
  options.num_pes = 4;
  options.channel_cap_bytes = 256;
  Cluster::Result result = Cluster::Run(options, [](Comm& comm) {
    std::vector<std::vector<uint64_t>> sends(comm.size());
    for (int d = 0; d < comm.size(); ++d) {
      sends[d].assign(512, comm.rank() * 100 + d);  // 4 KiB per pair >> cap
    }
    auto recvd = comm.Alltoallv<uint64_t>(sends);
    for (int s = 0; s < comm.size(); ++s) {
      ASSERT_EQ(recvd[s].size(), 512u);
      EXPECT_EQ(recvd[s][0], static_cast<uint64_t>(s * 100 + comm.rank()));
    }
    comm.Barrier();
    EXPECT_EQ(comm.AllreduceSum<int>(1), comm.size());
  });
  // A message that beats the peer's posted receive queues, but at most one
  // admission beyond the cap is ever outstanding (the empty-queue rule), so
  // buffering is bounded by max(cap, one message) — never the full volume.
  // Alltoallv streams, so its largest message is one chunk frame: here the
  // whole 4 KiB payload (below the default chunk) plus its frame header.
  EXPECT_LE(result.max_channel_queued_bytes,
            512 * sizeof(uint64_t) + sizeof(StreamChunkHeader));
}

}  // namespace
}  // namespace demsort::net
