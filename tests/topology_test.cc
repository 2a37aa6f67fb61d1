// net::Topology: the rank→node map of the hierarchical transport, and the
// hosts-file slot syntax ("host:port xK") that feeds it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "net/tcp_transport.h"
#include "net/topology.h"

namespace demsort::net {
namespace {

TEST(TopologyTest, FlatAndUniformShapes) {
  Topology flat = Topology::Flat(4);
  EXPECT_EQ(flat.num_pes(), 4);
  EXPECT_EQ(flat.num_nodes(), 4);
  EXPECT_FALSE(flat.hierarchical());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(flat.node_of(r), r);
    EXPECT_TRUE(flat.is_leader(r));
    EXPECT_EQ(flat.local_rank(r), 0);
  }

  Topology two = Topology::Uniform(8, 2);
  EXPECT_EQ(two.num_nodes(), 4);
  EXPECT_TRUE(two.hierarchical());
  EXPECT_EQ(two.node_of(5), 2);
  EXPECT_EQ(two.node_first(2), 4);
  EXPECT_EQ(two.local_rank(5), 1);
  EXPECT_EQ(two.node_of(4), two.node_of(5));
  EXPECT_NE(two.node_of(3), two.node_of(4));

  // Remainder node: Uniform(7, 2) = {2, 2, 2, 1}.
  Topology ragged = Topology::Uniform(7, 2);
  EXPECT_EQ(ragged.num_nodes(), 4);
  EXPECT_EQ(ragged.node_size(3), 1);
  EXPECT_EQ(ragged.node_of(6), 3);
}

TEST(TopologyTest, UnevenShapeAndConnectionCounts) {
  auto topo = Topology::FromNodeSizes({2, 3, 2});
  ASSERT_TRUE(topo.ok());
  const Topology& t = topo.value();
  EXPECT_EQ(t.num_pes(), 7);
  EXPECT_EQ(t.num_nodes(), 3);
  EXPECT_EQ(t.node_first(1), 2);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.local_rank(4), 2);
  EXPECT_TRUE(t.is_leader(5));
  EXPECT_FALSE(t.is_leader(6));
  EXPECT_EQ(t.ToString(), "{2,3,2}");
  // N*(N-1) directed node channels vs P*(P-1) flat ones — the socket math
  // the hierarchy exists for.
  EXPECT_EQ(t.InterNodeConnections(), 6u);
  EXPECT_EQ(Topology::FlatConnections(t.num_pes()), 42u);

  EXPECT_FALSE(Topology::FromNodeSizes({}).ok());
  EXPECT_FALSE(Topology::FromNodeSizes({2, 0}).ok());
}

TEST(TopologyTest, ParseNodeShape) {
  auto topo = ParseNodeShape("1,3");
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo.value().num_pes(), 4);
  EXPECT_EQ(topo.value().num_nodes(), 2);
  EXPECT_FALSE(ParseNodeShape("").ok());
  EXPECT_FALSE(ParseNodeShape("2,").ok());
  EXPECT_FALSE(ParseNodeShape("2,x").ok());
  EXPECT_FALSE(ParseNodeShape("0,2").ok());
}

// ------------------------------------------------ hosts-file slot counts ----

class HostsFileTest : public ::testing::Test {
 protected:
  std::string Write(const std::string& contents) {
    std::string path = ::testing::TempDir() + "demsort_hosts_" +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                       ".txt";
    std::FILE* f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fwrite(contents.data(), 1, contents.size(), f);
    std::fclose(f);
    return path;
  }
};

TEST_F(HostsFileTest, SlotCountsDefaultToOne) {
  auto peers = ParseHostsFile(Write("alpha:5000\nbeta:5001\n"));
  ASSERT_TRUE(peers.ok()) << peers.status().ToString();
  ASSERT_EQ(peers.value().size(), 2u);
  EXPECT_EQ(peers.value()[0].slots, 1);
  EXPECT_EQ(peers.value()[1].slots, 1);
  Topology topo = TopologyFromPeers(peers.value());
  EXPECT_EQ(topo.num_pes(), 2);
  EXPECT_FALSE(topo.hierarchical());
}

TEST_F(HostsFileTest, MixedSlotCountsFeedTopology) {
  auto peers = ParseHostsFile(
      Write("# paper geometry: PEs share nodes\n"
            "alpha:5000 x2\n"
            "beta:5001 x3   # big node\n"
            "gamma:5002\n"));
  ASSERT_TRUE(peers.ok()) << peers.status().ToString();
  ASSERT_EQ(peers.value().size(), 3u);
  EXPECT_EQ(peers.value()[0].slots, 2);
  EXPECT_EQ(peers.value()[1].slots, 3);
  EXPECT_EQ(peers.value()[2].slots, 1);
  EXPECT_EQ(peers.value()[1].host, "beta");
  EXPECT_EQ(peers.value()[1].port, 5001);
  Topology topo = TopologyFromPeers(peers.value());
  EXPECT_EQ(topo.num_pes(), 6);
  EXPECT_EQ(topo.num_nodes(), 3);
  EXPECT_TRUE(topo.hierarchical());
  EXPECT_EQ(topo.node_of(4), 1);   // beta's last PE
  EXPECT_EQ(topo.node_first(1), 2);  // beta's leader rank
  EXPECT_EQ(topo.InterNodeConnections(), 6u);
}

TEST_F(HostsFileTest, MalformedSlotCountsAreCleanErrors) {
  EXPECT_FALSE(ParseHostsFile(Write("alpha:5000 x0\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:5000 x-2\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:5000 x\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:5000 xb\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:5000 4\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:5000 x4 junk\n")).ok());
  // The pre-slot syntax errors stay errors.
  EXPECT_FALSE(ParseHostsFile(Write("alpha\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:notaport\n")).ok());
  EXPECT_FALSE(ParseHostsFile(Write("alpha:99999\n")).ok());
}

}  // namespace
}  // namespace demsort::net
