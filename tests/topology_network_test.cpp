#include "topology/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/scenario.hpp"
#include "topology/shortest_paths.hpp"
#include "util/rng.hpp"

namespace tacc::topo {
namespace {


GeoGraph two_router_line() {
  // Two routers 4 km apart.
  GeoGraph geo{Graph(2), {{0.0, 0.0}, {4.0, 0.0}}};
  geo.graph.add_edge(0, 1, backbone_link(4.0));
  return geo;
}

TEST(DelayMatrix, ShapeAndAccess) {
  DelayMatrix m(3, 2, 1.5);
  EXPECT_EQ(m.iot_count(), 3u);
  EXPECT_EQ(m.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 1.5);
  m.set(2, 1, 9.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 9.0);
  EXPECT_THROW((void)m.at(3, 0), std::out_of_range);
  EXPECT_THROW(m.set(0, 2, 1.0), std::out_of_range);
  const auto row = m.row(2);
  EXPECT_DOUBLE_EQ(row[1], 9.0);
  EXPECT_THROW((void)m.row(5), std::out_of_range);
}

TEST(BuildNetwork, NodeBookkeeping) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> iot{{0.5, 0.0}, {3.5, 0.0}};
  const std::vector<Point2D> edges{{0.0, 0.5}};
  const auto net = build_network(infra, iot, edges);
  EXPECT_EQ(net.iot_count(), 2u);
  EXPECT_EQ(net.edge_count(), 1u);
  EXPECT_EQ(net.graph.node_count(), 5u);  // 2 routers + 1 server + 2 iot
  EXPECT_EQ(net.kinds[net.iot_nodes[0]], NodeKind::kIotDevice);
  EXPECT_EQ(net.kinds[net.edge_nodes[0]], NodeKind::kEdgeServer);
  EXPECT_EQ(net.kinds[0], NodeKind::kRouter);
  EXPECT_EQ(net.iot_position(1).x, 3.5);
  EXPECT_EQ(net.edge_position(0).y, 0.5);
}

TEST(BuildNetwork, DevicesAttachToNearestRouter) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> iot{{3.9, 0.0}};
  const std::vector<Point2D> edges{{0.1, 0.0}};
  const auto net = build_network(infra, iot, edges);
  EXPECT_TRUE(net.graph.has_edge(net.iot_nodes[0], 1));   // right router
  EXPECT_TRUE(net.graph.has_edge(net.edge_nodes[0], 0));  // left router
  EXPECT_FALSE(net.graph.has_edge(net.iot_nodes[0], 0));
}

// Every server and device of each preset has one access link, to the
// first nearest router.
TEST(BuildNetwork, EveryPresetHostHasOneAccessLinkToItsNearestRouter) {
  for (const Scenario& scenario :
       {Scenario::smart_city(100, 8, 2026), Scenario::factory(100, 8, 2026),
        Scenario::campus(100, 8, 2026)}) {
    const NetworkTopology& net = scenario.network();
    const std::span<const Point2D> routers(net.positions.data(),
                                           net.router_count());
    std::vector<NodeId> hosts = net.iot_nodes;
    hosts.insert(hosts.end(), net.edge_nodes.begin(), net.edge_nodes.end());
    for (const NodeId host : hosts) {
      ASSERT_EQ(net.graph.degree(host), 1u) << "host " << host;
      EXPECT_EQ(net.graph.neighbors(host).front().to,
                nearest_router(routers, net.positions[host]).router)
          << "host " << host;
    }
  }
}

TEST(NearestRouter, FirstMinimumAndNonFiniteDistances) {
  const std::vector<Point2D> routers{{0.0, 0.0}, {2.0, 0.0}, {2.0, 0.0}};
  EXPECT_EQ(nearest_router(routers, {0.5, 0.0}).router, 0u);
  const NearestRouter tie = nearest_router(routers, {3.0, 0.0});
  EXPECT_EQ(tie.router, 1u);
  EXPECT_EQ(tie.distance_km, 1.0);
  const NearestRouter lost = nearest_router(routers, {std::nan(""), 0.0});
  EXPECT_EQ(lost.router, 0u);
  EXPECT_TRUE(std::isinf(lost.distance_km));
}

TEST(BuildNetwork, InvalidInputsThrow) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> one{{0.0, 0.0}};
  EXPECT_THROW(build_network(GeoGraph{}, one, one),
               std::invalid_argument);
  EXPECT_THROW(build_network(infra, {}, one), std::invalid_argument);
  EXPECT_THROW(build_network(infra, one, {}), std::invalid_argument);
}

TEST(ComputeDelayMatrix, MatchesManualDijkstra) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> iot{{0.5, 0.0}, {3.5, 0.0}};
  const std::vector<Point2D> edges{{0.0, 0.5}, {4.0, 0.5}};
  const auto net = build_network(infra, iot, edges);
  const auto matrix = compute_delay_matrix(net);
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    const auto tree =
        dijkstra(net.graph, net.edge_nodes[j], net.router_count());
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      EXPECT_DOUBLE_EQ(matrix.at(i, j), tree.distance_ms[net.iot_nodes[i]]);
    }
  }
}

TEST(ComputeDelayMatrix, NearerServerIsCheaper) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> iot{{0.2, 0.0}};
  const std::vector<Point2D> edges{{0.0, 0.1}, {4.0, 0.1}};
  const auto net = build_network(infra, iot, edges);
  const auto matrix = compute_delay_matrix(net);
  EXPECT_LT(matrix.at(0, 0), matrix.at(0, 1));
}

TEST(ComputeDelayMatrix, AtLeastAccessLatency) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> iot{{1.0, 1.0}};
  const std::vector<Point2D> edges{{3.0, 1.0}};
  const auto net = build_network(infra, iot, edges);
  const auto matrix = compute_delay_matrix(net);
  // Any IoT→server path crosses one wireless access link.
  EXPECT_GE(matrix.at(0, 0),
            access_link(0.0).latency_ms);
}

TEST(ComputeEuclideanMatrix, StraightLineDistances) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> iot{{0.0, 0.0}};
  const std::vector<Point2D> edges{{3.0, 4.0}};
  const auto net = build_network(infra, iot, edges);
  const auto euclid = compute_euclidean_matrix(net);
  EXPECT_DOUBLE_EQ(euclid.at(0, 0), 5.0);
}

TEST(DelayModel, AccessSlowerThanBackbone) {
  EXPECT_GT(access_link(1.0).latency_ms,
            backbone_link(1.0).latency_ms);
  EXPECT_LT(access_link(1.0).bandwidth_mbps,
            backbone_link(1.0).bandwidth_mbps);
}

TEST(DelayModel, LatencyGrowsWithDistance) {
  EXPECT_GT(backbone_link(10.0).latency_ms,
            backbone_link(1.0).latency_ms);
}

}  // namespace
}  // namespace tacc::topo
