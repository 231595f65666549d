#include "topology/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/scenario.hpp"
#include "tests/host_graph.hpp"
#include "tests/reference_dijkstra.hpp"
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
  EXPECT_EQ(net.graph.node_count(), 3u);  // 2 routers + 1 server
  EXPECT_EQ(net.router_count(), 2u);
  EXPECT_EQ(net.edge_nodes[0], 2u);
  EXPECT_EQ(net.hosts.size(), 2u);
  EXPECT_TRUE(net.hosts.attached(1));
  EXPECT_EQ(net.iot_position(1).x, 3.5);
  EXPECT_EQ(net.edge_position(0).y, 0.5);
}

TEST(BuildNetwork, DevicesAttachToNearestRouter) {
  const GeoGraph infra = two_router_line();
  const std::vector<Point2D> iot{{3.9, 0.0}};
  const std::vector<Point2D> edges{{0.1, 0.0}};
  const auto net = build_network(infra, iot, edges);
  EXPECT_EQ(net.hosts.anchor[0], 1u);                     // right router
  EXPECT_EQ(net.hosts.access[0].latency_ms, access_link(0.1).latency_ms);
  EXPECT_TRUE(net.graph.has_edge(net.edge_nodes[0], 0));  // left router
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
    for (const NodeId server : net.edge_nodes) {
      ASSERT_EQ(net.graph.degree(server), 1u) << "server " << server;
      EXPECT_EQ(net.graph.neighbors(server).front().to,
                nearest_router(routers, net.positions[server]).router)
          << "server " << server;
    }
    for (std::size_t slot = 0; slot < net.iot_count(); ++slot) {
      const NearestRouter nearest =
          nearest_router(routers, net.iot_position(slot));
      EXPECT_EQ(net.hosts.anchor[slot], nearest.router) << "slot " << slot;
      EXPECT_EQ(net.hosts.access[slot].latency_ms,
                access_link(nearest.distance_km).latency_ms)
          << "slot " << slot;
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

// The matrix equals a no-relay Dijkstra over the graph with each device
// materialized as a node, bit for bit, on every preset.
TEST(ComputeDelayMatrix, MatchesManualDijkstra) {
  for (const Scenario& scenario :
       {Scenario::smart_city(60, 6, 3), Scenario::factory(60, 6, 3),
        Scenario::campus(60, 6, 3)}) {
    const NetworkTopology& net = scenario.network();
    const DelayMatrix matrix = compute_delay_matrix(net);
    const test::HostGraph hosts = test::materialize_hosts(net);
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      const ShortestPathTree tree = test::reference_dijkstra(
          hosts.graph, net.edge_nodes[j], net.router_count());
      for (std::size_t i = 0; i < net.iot_count(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(matrix.at(i, j)),
                  std::bit_cast<std::uint64_t>(
                      tree.distance_ms[hosts.node_of_slot[i]]))
            << "device " << i << ", server " << j;
      }
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
