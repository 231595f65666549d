#include "topology/failures.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "topology/shortest_paths.hpp"

namespace tacc::topo {
namespace {

NetworkTopology test_net(std::uint64_t seed = 5) {
  return tacc::Scenario::smart_city(40, 5, seed).network();
}

TEST(RemoveEdge, RemovesBothDirections) {
  Graph g(3);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(1, 2, {1.0, 1.0});
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
  EXPECT_FALSE(g.remove_edge(0, 9));  // bad node
}

TEST(RemoveEdge, ParallelEdgesRemovedOneAtATime) {
  Graph g(2);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(0, 1, {2.0, 1.0});
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(BackboneLinks, OnlyRouterRouterLinks) {
  const NetworkTopology net = test_net();
  const auto links = backbone_links(net);
  EXPECT_FALSE(links.empty());
  for (const auto& [u, v] : links) {
    EXPECT_LT(u, net.router_count());
    EXPECT_LT(v, net.router_count());
    EXPECT_LT(u, v);  // each undirected link reported once
    EXPECT_TRUE(net.graph.has_edge(u, v));
  }
}

TEST(AllDevicesServed, HoldsOnFreshNetwork) {
  EXPECT_TRUE(all_devices_served(test_net()));
}

TEST(AllDevicesServed, DetectsStrandedDevice) {
  NetworkTopology net = test_net();
  // Cut every link of a device's anchor router.
  const NodeId router = net.hosts.anchor[0];
  while (net.graph.degree(router) != 0) {
    net.fail_link(router, net.graph.neighbors(router).front().to);
  }
  EXPECT_FALSE(all_devices_served(net));
}

TEST(SampleFailableLinks, RespectsBudgetAndService) {
  util::Rng rng(7);
  const NetworkTopology net = test_net();
  const auto all = backbone_links(net);
  const auto failed = sample_failable_links(net, 0.2, rng);
  EXPECT_LE(failed.size(),
            static_cast<std::size_t>(0.2 * static_cast<double>(all.size())));
  NetworkTopology degraded = net;
  fail_links(degraded, failed);
  EXPECT_TRUE(all_devices_served(degraded));
}

TEST(SampleFailableLinks, ZeroFractionIsEmpty) {
  util::Rng rng(8);
  EXPECT_TRUE(sample_failable_links(test_net(), 0.0, rng).empty());
}

TEST(SampleFailableLinks, DeterministicPerSeed) {
  const NetworkTopology net = test_net();
  util::Rng rng1(9), rng2(9);
  EXPECT_EQ(sample_failable_links(net, 0.3, rng1),
            sample_failable_links(net, 0.3, rng2));
}

TEST(FailLinks, DelaysNeverImprove) {
  util::Rng rng(10);
  const NetworkTopology net = test_net();
  const auto failed = sample_failable_links(net, 0.25, rng);
  if (failed.empty()) GTEST_SKIP() << "nothing failable in this topology";
  NetworkTopology degraded = net;
  fail_links(degraded, failed);
  const DelayMatrix before = compute_delay_matrix(net);
  const DelayMatrix after = compute_delay_matrix(degraded);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      EXPECT_GE(after.at(i, j), before.at(i, j) - 1e-12);
    }
  }
}

TEST(FailLinks, InPlaceRoundTripRestoresDelaysExactly) {
  util::Rng rng(12);
  NetworkTopology net = test_net();
  const auto failed = sample_failable_links(net, 0.25, rng);
  if (failed.empty()) GTEST_SKIP() << "nothing failable in this topology";
  const std::size_t edges_before = net.graph.edge_count();
  const DelayMatrix before = compute_delay_matrix(net);

  fail_links(net, failed);
  EXPECT_EQ(net.graph.edge_count(), edges_before - failed.size());
  EXPECT_EQ(net.failed_links.size(), failed.size());
  for (const auto& [u, v] : failed) {
    EXPECT_TRUE(net.link_failed(u, v));
    EXPECT_TRUE(net.link_failed(v, u));  // endpoints match unordered
    EXPECT_FALSE(net.graph.has_edge(u, v));
  }

  restore_links(net, failed);
  EXPECT_EQ(net.graph.edge_count(), edges_before);
  EXPECT_TRUE(net.failed_links.empty());
  // Shortest-path delays are a function of the edge set, not adjacency
  // order, so the round trip restores them bit-exactly.
  const DelayMatrix after = compute_delay_matrix(net);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      EXPECT_EQ(after.at(i, j), before.at(i, j));
    }
  }
}

TEST(FailLinks, CopyThenFailMatchesFailInPlace) {
  // A degraded copy and an in-place degrade of the original must agree —
  // NetworkTopology's copy carries everything delay computation reads.
  util::Rng rng(13);
  NetworkTopology net = test_net();
  const auto failed = sample_failable_links(net, 0.2, rng);
  NetworkTopology degraded = net;
  fail_links(degraded, failed);
  fail_links(net, failed);
  const DelayMatrix copy_based = compute_delay_matrix(degraded);
  const DelayMatrix in_place = compute_delay_matrix(net);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      EXPECT_EQ(in_place.at(i, j), copy_based.at(i, j));
    }
  }
}

TEST(FailLinks, FailingUnknownOrRestoringLiveLinkThrows) {
  NetworkTopology net = test_net();
  // Two servers are never linked to each other.
  const NodeId a = net.edge_nodes[0];
  const NodeId b = net.edge_nodes[1];
  EXPECT_THROW((void)net.fail_link(a, b), std::invalid_argument);
  const auto [u, v] = backbone_links(net).front();
  EXPECT_THROW((void)net.restore_link(u, v), std::invalid_argument);
  EXPECT_THROW((void)net.set_link_latency(a, b, 1.0), std::invalid_argument);
  EXPECT_THROW((void)net.set_link_latency(u, v, 0.0), std::invalid_argument);
}

TEST(SetLinkLatency, RewritesInPlaceAndReturnsPrevious) {
  NetworkTopology net = test_net();
  const auto [u, v] = backbone_links(net).front();
  const EdgeProps* before = net.graph.edge_props(u, v);
  ASSERT_NE(before, nullptr);
  const double old_latency = before->latency_ms;
  const double old_bandwidth = before->bandwidth_mbps;
  const EdgeProps previous = net.set_link_latency(u, v, old_latency * 2.0);
  EXPECT_EQ(previous.latency_ms, old_latency);
  const EdgeProps* after = net.graph.edge_props(v, u);  // mirror entry
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->latency_ms, old_latency * 2.0);
  EXPECT_EQ(after->bandwidth_mbps, old_bandwidth);  // bandwidth untouched
}

TEST(FailLinks, NonexistentLinkThrowsAndEarlierLinksStayFailed) {
  NetworkTopology net = test_net();
  const auto [u, v] = backbone_links(net).front();
  EXPECT_THROW(
      fail_links(net, {{u, v}, {net.edge_nodes[0], net.edge_nodes[1]}}),
      std::invalid_argument);
  // Documented partial-failure semantics: links before the bad one stay
  // failed so the caller can restore them.
  EXPECT_TRUE(net.link_failed(u, v));
  restore_links(net, {{u, v}});
  EXPECT_TRUE(net.failed_links.empty());
}

}  // namespace
}  // namespace tacc::topo
