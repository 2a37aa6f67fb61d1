#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/buffer_pool.h"
#include "net/cluster.h"
#include "net/comm.h"
#include "util/random.h"

namespace demsort::net {
namespace {

// ----------------------------------------------------- buffer pool -------

TEST(BufferPoolTest, TinyRecyclesDoNotCrowdOutChunkBuffers) {
  // Thousands of recycled credit-sized buffers land in the small class:
  // they neither evict nor hide a chunk-sized buffer, and the retained
  // entry count stays capped per class.
  BufferPool pool;
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> tiny(8);
    tiny.shrink_to_fit();
    pool.Recycle(std::move(tiny));
  }
  {
    std::vector<uint8_t> chunk(64 << 10);
    pool.Recycle(std::move(chunk));
  }
  NetStats stats;
  std::vector<uint8_t> lease = pool.Lease(64 << 10, &stats);
  EXPECT_EQ(lease.size(), size_t{64} << 10);
  EXPECT_EQ(stats.Snapshot().pool_hits, 1u)
      << "the chunk lease must be served from the free list";
  std::vector<uint8_t> small = pool.Lease(8, &stats);
  EXPECT_EQ(stats.Snapshot().pool_hits, 2u)
      << "tiny leases recycle from the small class";
}

TEST(BufferPoolTest, FrameRecyclesOnDestructionButNotAfterIntoVector) {
  auto pool = std::make_shared<BufferPool>();
  NetStats stats;
  { Frame f(pool->Lease(64 << 10, &stats), pool); }
  std::vector<uint8_t> detached =
      Frame(pool->Lease(64 << 10, &stats), pool).IntoVector();
  EXPECT_EQ(stats.Snapshot().pool_hits, 1u)
      << "a destroyed frame returns its buffer to the pool";
  EXPECT_EQ(detached.size(), size_t{64} << 10);
  std::vector<uint8_t> fresh = pool->Lease(64 << 10, &stats);
  EXPECT_EQ(stats.Snapshot().pool_hits, 1u)
      << "a detached buffer leaves the pool for good";
}

// ----------------------------------------------------------- pt2pt -------

TEST(CommTest, SendRecvValue) {
  Cluster::Run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.SendValue<int>(1, 7, 42);
    } else {
      EXPECT_EQ(comm.RecvValue<int>(0, 7), 42);
    }
  });
}

TEST(CommTest, FifoPerSourceAndTag) {
  Cluster::Run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.SendValue<int>(1, 5, i);
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(comm.RecvValue<int>(0, 5), i);
      }
    }
  });
}

TEST(CommTest, TagMatchingOutOfOrder) {
  Cluster::Run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.SendValue<int>(1, /*tag=*/1, 111);
      comm.SendValue<int>(1, /*tag=*/2, 222);
    } else {
      // Receive tag 2 first although tag 1 was sent first.
      EXPECT_EQ(comm.RecvValue<int>(0, 2), 222);
      EXPECT_EQ(comm.RecvValue<int>(0, 1), 111);
    }
  });
}

TEST(CommTest, SelfSendWorks) {
  Cluster::Run(1, [](Comm& comm) {
    comm.SendValue<uint64_t>(0, 3, 99);
    EXPECT_EQ(comm.RecvValue<uint64_t>(0, 3), 99u);
  });
}

TEST(CommTest, EmptyMessage) {
  Cluster::Run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, 9, nullptr, 0);
    } else {
      EXPECT_TRUE(comm.Recv(0, 9).empty());
    }
  });
}

// ------------------------------------------------------- collectives -----

class CollectiveParamTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveParamTest, Barrier) {
  int P = GetParam();
  std::atomic<int> counter{0};
  Cluster::Run(P, [&](Comm& comm) {
    counter++;
    comm.Barrier();
    EXPECT_EQ(counter.load(), comm.size());
    comm.Barrier();
  });
}

TEST_P(CollectiveParamTest, BroadcastFromEveryRoot) {
  int P = GetParam();
  Cluster::Run(P, [](Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      uint64_t value = comm.rank() == root ? 1000 + root : 0;
      EXPECT_EQ(comm.BroadcastValue<uint64_t>(root, value),
                1000u + root);
    }
  });
}

TEST_P(CollectiveParamTest, AllreduceSumMinMax) {
  int P = GetParam();
  Cluster::Run(P, [](Comm& comm) {
    uint64_t r = comm.rank() + 1;
    uint64_t n = comm.size();
    EXPECT_EQ(comm.AllreduceSum<uint64_t>(r), n * (n + 1) / 2);
    EXPECT_EQ(comm.AllreduceMax<uint64_t>(r), n);
    EXPECT_EQ(comm.AllreduceMin<uint64_t>(r), 1u);
  });
}

TEST_P(CollectiveParamTest, AllreduceAnd) {
  int P = GetParam();
  Cluster::Run(P, [](Comm& comm) {
    EXPECT_TRUE(comm.AllreduceAnd(true));
    EXPECT_FALSE(comm.AllreduceAnd(comm.rank() != 0));
    EXPECT_FALSE(comm.AllreduceAnd(false));
  });
}

TEST_P(CollectiveParamTest, Allgather) {
  int P = GetParam();
  Cluster::Run(P, [](Comm& comm) {
    std::vector<int> got = comm.Allgather<int>(comm.rank() * 10);
    ASSERT_EQ(got.size(), static_cast<size_t>(comm.size()));
    for (int p = 0; p < comm.size(); ++p) EXPECT_EQ(got[p], p * 10);
  });
}

TEST_P(CollectiveParamTest, AllgatherVVariableSizes) {
  int P = GetParam();
  Cluster::Run(P, [](Comm& comm) {
    std::vector<uint32_t> mine(comm.rank());  // rank i sends i entries
    for (int i = 0; i < comm.rank(); ++i) mine[i] = comm.rank() * 100 + i;
    auto all = comm.AllgatherV(mine);
    ASSERT_EQ(all.size(), static_cast<size_t>(comm.size()));
    for (int p = 0; p < comm.size(); ++p) {
      ASSERT_EQ(all[p].size(), static_cast<size_t>(p));
      for (int i = 0; i < p; ++i) {
        EXPECT_EQ(all[p][i], static_cast<uint32_t>(p * 100 + i));
      }
    }
  });
}

TEST_P(CollectiveParamTest, AlltoallvExchangesCorrectly) {
  int P = GetParam();
  Cluster::Run(P, [](Comm& comm) {
    // PE s sends to PE d the vector [s*1000+d] repeated (s+d) times.
    std::vector<std::vector<uint32_t>> sends(comm.size());
    for (int d = 0; d < comm.size(); ++d) {
      sends[d].assign(comm.rank() + d, comm.rank() * 1000 + d);
    }
    auto recvd = comm.Alltoallv<uint32_t>(sends);
    ASSERT_EQ(recvd.size(), static_cast<size_t>(comm.size()));
    for (int s = 0; s < comm.size(); ++s) {
      ASSERT_EQ(recvd[s].size(), static_cast<size_t>(s + comm.rank()));
      for (uint32_t v : recvd[s]) {
        EXPECT_EQ(v, static_cast<uint32_t>(s * 1000 + comm.rank()));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveParamTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

// ---------------------------------------------------------- stress -------

TEST(CommTest, RandomizedPairwiseTraffic) {
  const int P = 4;
  Cluster::Run(P, [](Comm& comm) {
    Rng rng(comm.rank() + 1);
    // Everyone sends 50 tagged messages to everyone; then receives them.
    for (int d = 0; d < comm.size(); ++d) {
      for (int i = 0; i < 50; ++i) {
        uint64_t payload = comm.rank() * 10000 + i;
        comm.SendValue<uint64_t>(d, 100 + i, payload);
      }
    }
    for (int s = 0; s < comm.size(); ++s) {
      for (int i = 49; i >= 0; --i) {  // reverse tag order: exercises matching
        EXPECT_EQ(comm.RecvValue<uint64_t>(s, 100 + i),
                  static_cast<uint64_t>(s * 10000 + i));
      }
    }
    comm.Barrier();
  });
}

TEST(ClusterTest, StatsCountBytes) {
  auto stats = Cluster::RunWithStats(2, [](Comm& comm) {
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

TEST(ClusterTest, SelfSendsNotCounted) {
  auto stats = Cluster::RunWithStats(1, [](Comm& comm) {
    comm.SendValue<int>(0, 1, 5);
    comm.RecvValue<int>(0, 1);
  });
  EXPECT_EQ(stats[0].bytes_sent, 0u);
}

TEST(ClusterTest, ExceptionPropagates) {
  EXPECT_THROW(Cluster::Run(2,
                            [](Comm& comm) {
                              if (comm.rank() == 1) {
                                throw std::runtime_error("pe exploded");
                              }
                            }),
               std::runtime_error);
}

TEST(ClusterTest, ManyPesSmoke) {
  std::atomic<int> total{0};
  Cluster::Run(32, [&](Comm& comm) {
    total += comm.AllreduceSum<int>(1);
  });
  EXPECT_EQ(total.load(), 32 * 32);
}

}  // namespace
}  // namespace demsort::net
