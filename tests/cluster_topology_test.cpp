// ClusterTopology: single-node byte-identity of the node-0 config, seed
// derivation and independence for higher nodes, per-node override semantics
// (latency asymmetry), outage isolation between per-node channels, time
// scaling, and the Cluster's rejection of a multi-node topology with no
// positive inter-node lower bound.
#include "comm/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulator.hpp"

namespace smartmem::comm {
namespace {

TEST(ClusterTopologyTest, NodeZeroCommIsVerbatim) {
  ClusterTopology topo;
  topo.node_comm.seed = 0x1234;
  topo.node_comm.uplink.latency = LatencySpec::fixed_at(123 * kMicrosecond);
  const CommConfig c = topo.node_comm_for(0);
  EXPECT_EQ(c.seed, 0x1234u);
  EXPECT_EQ(c.uplink.name, topo.node_comm.uplink.name);
  EXPECT_EQ(c.uplink.latency.fixed, 123 * kMicrosecond);
}

TEST(ClusterTopologyTest, HigherNodesGetIndependentDerivedSeeds) {
  ClusterTopology topo;
  topo.node_comm.seed = 0x1234;
  const std::uint64_t s1 = topo.node_comm_for(1).seed;
  const std::uint64_t s2 = topo.node_comm_for(2).seed;
  EXPECT_NE(s1, topo.node_comm.seed);
  EXPECT_NE(s2, topo.node_comm.seed);
  EXPECT_NE(s1, s2);
  // Pure function of (base seed, node index): stable across calls.
  EXPECT_EQ(topo.node_comm_for(1).seed, s1);
  EXPECT_EQ(s1, derive_seed(0x1234, 1));
}

TEST(ClusterTopologyTest, InternodeChannelsGetPrefixedNamesAndDistinctSeeds) {
  ClusterTopology topo;
  topo.node_count = 4;
  EXPECT_EQ(topo.uplink_for(0).name, "n0.gm_up");
  EXPECT_EQ(topo.downlink_for(0).name, "n0.gm_down");
  EXPECT_EQ(topo.uplink_for(3).name, "n3.gm_up");

  std::vector<std::uint64_t> seeds;
  for (std::size_t n = 0; n < topo.node_count; ++n) {
    seeds.push_back(topo.uplink_for(n).seed);
    seeds.push_back(topo.downlink_for(n).seed);
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_NE(seeds[i], 0u);
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << "i=" << i << " j=" << j;
    }
  }
  EXPECT_EQ(topo.uplink_for(2).seed, derive_seed(topo.seed, (2ULL << 1) | 0));
  EXPECT_EQ(topo.downlink_for(2).seed, derive_seed(topo.seed, (2ULL << 1) | 1));
}

TEST(ClusterTopologyTest, ExplicitChannelSeedIsKept) {
  ClusterTopology topo;
  topo.internode_up.seed = 77;
  EXPECT_EQ(topo.uplink_for(3).seed, 77u);
  EXPECT_EQ(topo.uplink_for(3).name, "n3.gm_up");  // prefix still applied
}

TEST(ClusterTopologyTest, OverrideReplacesTemplateAndKeepsDerivation) {
  ClusterTopology topo;
  ChannelConfig slow = topo.internode_up;
  slow.latency = LatencySpec::fixed_at(50 * kMillisecond);
  topo.up_overrides[1] = slow;

  // Asymmetric topology: node 1's uplink is 10x slower, node 0 untouched.
  EXPECT_EQ(topo.uplink_for(0).latency.fixed, 5 * kMillisecond);
  EXPECT_EQ(topo.uplink_for(1).latency.fixed, 50 * kMillisecond);
  // Name prefix and seed derivation are applied to the override too.
  EXPECT_EQ(topo.uplink_for(1).name, "n1.gm_up");
  EXPECT_EQ(topo.uplink_for(1).seed, derive_seed(topo.seed, (1ULL << 1) | 0));
}

TEST(ClusterTopologyTest, PerNodeLatencyAsymmetryReachesTheWire) {
  ClusterTopology topo;
  ChannelConfig slow = topo.internode_up;
  slow.latency = LatencySpec::fixed_at(40 * kMillisecond);
  topo.up_overrides[1] = slow;

  sim::Simulator sim;
  Channel<int> fast(sim, topo.uplink_for(0));
  Channel<int> lagged(sim, topo.uplink_for(1));
  SimTime fast_at = -1;
  SimTime slow_at = -1;
  fast.open([&](const int&) { fast_at = sim.now(); });
  lagged.open([&](const int&) { slow_at = sim.now(); });
  ASSERT_EQ(fast.send(1), SendResult::kQueued);
  ASSERT_EQ(lagged.send(2), SendResult::kQueued);
  sim.run_until(kSecond);
  EXPECT_EQ(fast_at, 5 * kMillisecond);
  EXPECT_EQ(slow_at, 40 * kMillisecond);
}

// The satellite requirement: a node-A outage must not drop node-B traffic.
// Each node's inter-node hop is its own Channel, so a down-window override
// on one node cannot leak into its neighbours.
TEST(ClusterTopologyTest, NodeOutageDoesNotDropOtherNodesTraffic) {
  ClusterTopology topo;
  ChannelConfig dark = topo.internode_up;
  dark.faults.down_from = 0;
  dark.faults.down_until = 10 * kSecond;
  topo.up_overrides[0] = dark;

  sim::Simulator sim;
  Channel<int> node0(sim, topo.uplink_for(0));
  Channel<int> node1(sim, topo.uplink_for(1));
  int delivered1 = 0;
  node0.open([](const int&) { FAIL() << "node 0 is in an outage window"; });
  node1.open([&](const int&) { ++delivered1; });
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(node0.send(i), SendResult::kDown);
    EXPECT_EQ(node1.send(i), SendResult::kQueued);
  }
  sim.run_until(kSecond);
  EXPECT_EQ(node0.stats().dropped_down, 3u);
  EXPECT_EQ(node0.stats().delivered, 0u);
  EXPECT_EQ(node1.stats().delivered, 3u);
  EXPECT_EQ(delivered1, 3);
}

TEST(ClusterTopologyTest, ScaleTimesCoversTemplatesAndOverrides) {
  ClusterTopology topo;
  ChannelConfig slow = topo.internode_up;
  slow.latency = LatencySpec::fixed_at(50 * kMillisecond);
  topo.up_overrides[1] = slow;
  topo.scale_times(0.5);
  EXPECT_EQ(topo.uplink_for(0).latency.fixed, 5 * kMillisecond / 2);
  EXPECT_EQ(topo.uplink_for(1).latency.fixed, 25 * kMillisecond);
  EXPECT_EQ(topo.downlink_for(0).latency.fixed, 5 * kMillisecond / 2);
}

/// A 2-node cluster over `up` as its inter-node uplink hop.
void expect_start_rejects(const LatencySpec& up) {
  cluster::ClusterConfig cfg;
  cfg.topology.node_count = 2;
  cfg.topology.internode_up.latency = up;
  cluster::Cluster c(std::move(cfg));
  c.add_node(core::NodeConfig{});
  c.add_node(core::NodeConfig{});
  EXPECT_THROW(c.start(), std::invalid_argument);
}

TEST(ClusterTopologyTest, ClusterRejectsLognormalInternodeHop) {
  // An unbounded lower tail leaves the parallel engine no safe window.
  expect_start_rejects(LatencySpec::lognormal(5 * kMillisecond, 0.5));
}

TEST(ClusterTopologyTest, ClusterRejectsZeroInternodeHop) {
  expect_start_rejects(LatencySpec::fixed_at(0));
}

TEST(ClusterTopologyTest, OneNodeClusterNeedsNoInternodeLowerBound) {
  // A rack of one wires no engine, so the hop is never used.
  cluster::ClusterConfig cfg;
  cfg.topology.internode_up.latency = LatencySpec::fixed_at(0);
  cluster::Cluster c(std::move(cfg));
  c.add_node(core::NodeConfig{});
  EXPECT_NO_THROW(c.start());
  EXPECT_EQ(c.engine(), nullptr);
}

}  // namespace
}  // namespace smartmem::comm
