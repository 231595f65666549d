#include "topology/shortest_paths.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "tests/reference_dijkstra.hpp"
#include "tests/test_helpers.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"

namespace tacc::topo {
namespace {

TEST(Dijkstra, KnownGraphDistances) {
  const Graph g = test::known_graph();
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance_ms[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.distance_ms[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.distance_ms[2], 2.0);
  EXPECT_DOUBLE_EQ(tree.distance_ms[4], 2.0);  // 0-1-4
  EXPECT_DOUBLE_EQ(tree.distance_ms[3], 3.0);  // 0-1-4-3 beats direct 4.0
  EXPECT_DOUBLE_EQ(tree.distance_ms[5], 3.0);  // 0-1-2-5
}

TEST(Dijkstra, PathReconstruction) {
  const Graph g = test::known_graph();
  const auto tree = dijkstra(g, 0);
  const auto path = tree.path_to(3);
  const std::vector<NodeId> expected{0, 1, 4, 3};
  EXPECT_EQ(path, expected);
}

TEST(Dijkstra, PathToSourceIsItself) {
  const Graph g = test::known_graph();
  const auto tree = dijkstra(g, 2);
  const std::vector<NodeId> expected{2};
  EXPECT_EQ(tree.path_to(2), expected);
}

TEST(Dijkstra, DisconnectedIsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1, {1.0, 1.0});
  const auto tree = dijkstra(g, 0);
  EXPECT_EQ(tree.distance_ms[2], kUnreachable);
  EXPECT_TRUE(tree.path_to(2).empty());
}

TEST(Dijkstra, BadSourceYieldsAllUnreachable) {
  Graph g(2);
  const auto tree = dijkstra(g, 9);
  EXPECT_EQ(tree.distance_ms[0], kUnreachable);
}

// No-relay mode: routers 0 and 1 are joined by a slow backbone link and by
// a fast two-hop detour through host 3. Hosts are settled, never expanded,
// so the detour carries no route — except out of the source itself.
TEST(Dijkstra, NoRelayModeSettlesHostsWithoutExpandingThem) {
  Graph g(5);
  g.add_edge(0, 1, {10.0, 1.0});
  g.add_edge(0, 3, {1.0, 1.0});
  g.add_edge(3, 1, {1.0, 1.0});
  g.add_edge(1, 2, {1.0, 1.0});
  g.add_edge(3, 4, {1.0, 1.0});
  const auto relaying = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(relaying.distance_ms[1], 2.0);
  const auto no_relay = dijkstra(g, 0, /*relays=*/3);
  EXPECT_DOUBLE_EQ(no_relay.distance_ms[1], 10.0);
  EXPECT_DOUBLE_EQ(no_relay.distance_ms[2], 11.0);
  EXPECT_DOUBLE_EQ(no_relay.distance_ms[3], 1.0);  // settled
  EXPECT_EQ(no_relay.distance_ms[4], kUnreachable);  // only via host 3
  // A host source is expanded: its links are the first hops.
  const auto from_host = dijkstra(g, 3, /*relays=*/3);
  EXPECT_DOUBLE_EQ(from_host.distance_ms[1], 1.0);
  EXPECT_DOUBLE_EQ(from_host.distance_ms[4], 1.0);
  EXPECT_DOUBLE_EQ(from_host.distance_ms[2], 2.0);
}

// Routers 0..routers-1 with random backbone links, then hosts: single-
// homed leaves (devices and servers in a NetworkTopology) and relay-role
// hosts with up to three links. Latencies come from a short list, so
// equal-distance ties are everywhere. The graph refuses a latency of 0;
// the smallest subnormal stands in for it, since adding it to any
// distance of 1e-292 or more changes nothing.
Graph tie_heavy_graph(util::Rng& rng, std::size_t routers,
                      std::size_t hosts) {
  const double kLatencies[] = {std::numeric_limits<double>::denorm_min(),
                               0.5, 1.0, 1.0, 1.5, 2.0};
  const auto latency = [&] { return kLatencies[rng.index(6)]; };
  Graph g;
  for (std::size_t r = 0; r < routers; ++r) (void)g.add_node();
  for (std::size_t e = 0; e < 2 * routers; ++e) {
    const NodeId u = static_cast<NodeId>(rng.index(routers));
    const NodeId v = static_cast<NodeId>(rng.index(routers));
    if (u != v) g.add_edge(u, v, {latency(), 100.0});
  }
  for (std::size_t h = 0; h < hosts; ++h) {
    const bool leaf = rng.bernoulli(0.6);
    const NodeId host = g.add_node(leaf ? NodeRole::kLeaf : NodeRole::kRelay);
    const std::size_t links = leaf ? 1 : 1 + rng.index(3);
    for (std::size_t l = 0; l < links; ++l) {
      g.add_edge(host, static_cast<NodeId>(rng.index(routers)),
                 {latency(), 100.0});
    }
  }
  return g;
}

void expect_bit_identical(const ShortestPathTree& actual,
                          const ShortestPathTree& expected) {
  ASSERT_EQ(actual.distance_ms.size(), expected.distance_ms.size());
  for (std::size_t v = 0; v < expected.distance_ms.size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.distance_ms[v]),
              std::bit_cast<std::uint64_t>(expected.distance_ms[v]))
        << "node " << v;
  }
  EXPECT_EQ(actual.parent, expected.parent);
}

// The library's Dijkstra heaps only the nodes it expands; the reference
// heaps every node it improves. Distances and parents agree bit for bit,
// from router and host sources, with and without hosts relaying.
TEST(Dijkstra, MatchesHeapEveryNodeReferenceBitForBit) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t routers = 2 + rng.index(30);
    const std::size_t hosts = rng.index(60);
    const Graph g = tie_heavy_graph(rng, routers, hosts);
    for (const std::size_t relays : {routers, kEveryNodeRelays}) {
      for (NodeId source = 0; source < g.node_count(); ++source) {
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " source " << source
                     << " relays " << relays);
        expect_bit_identical(dijkstra(g, source, relays),
                             test::reference_dijkstra(g, source, relays));
      }
    }
  }
}

TEST(BfsHops, KnownGraph) {
  const Graph g = test::known_graph();
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[3], 1u);  // direct edge, hops ignore latency
  EXPECT_EQ(hops[5], 3u);  // 0-1-2-5 (and 0-·-4-5) are all 3 hops
}

TEST(BfsHops, Disconnected) {
  Graph g(2);
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[1], kUnreachableHops);
}

TEST(Connectivity, DetectsConnectedAndNot) {
  Graph connected(2);
  connected.add_edge(0, 1, {1.0, 1.0});
  EXPECT_TRUE(is_connected(connected));
  Graph disconnected(2);
  EXPECT_FALSE(is_connected(disconnected));
  EXPECT_TRUE(is_connected(Graph{}));
}

TEST(Components, LabelsAreDense) {
  Graph g(5);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(2, 3, {1.0, 1.0});
  const auto labels = connected_components(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_NE(labels[4], labels[0]);
  EXPECT_NE(labels[4], labels[2]);
}

// Property: Dijkstra agrees with Floyd–Warshall on random graphs.
class PathEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathEquivalence, DijkstraMatchesFloydWarshall) {
  util::Rng rng(GetParam());
  GeneratorParams params;
  params.node_count = 24;
  params.er_edge_probability = 0.12;
  const GeoGraph geo = generate_erdos_renyi(params, rng);
  const auto fw = floyd_warshall(geo.graph);
  for (NodeId s = 0; s < geo.graph.node_count(); s += 3) {
    const auto tree = dijkstra(geo.graph, s);
    for (NodeId t = 0; t < geo.graph.node_count(); ++t) {
      if (fw[s][t] == kUnreachable) {
        EXPECT_EQ(tree.distance_ms[t], kUnreachable);
      } else {
        EXPECT_NEAR(tree.distance_ms[t], fw[s][t], 1e-9);
      }
    }
  }
}

TEST_P(PathEquivalence, PathCostMatchesDistance) {
  util::Rng rng(GetParam() + 1000);
  GeneratorParams params;
  params.node_count = 20;
  GeoGraph geo = generate_waxman(params, rng);
  ensure_connected(geo);
  const auto tree = dijkstra(geo.graph, 0);
  for (NodeId t = 0; t < geo.graph.node_count(); ++t) {
    const auto path = tree.path_to(t);
    ASSERT_FALSE(path.empty());
    double cost = 0.0;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      double best = kUnreachable;
      for (const auto& adj : geo.graph.neighbors(path[h])) {
        if (adj.to == path[h + 1]) best = std::min(best, adj.props.latency_ms);
      }
      cost += best;
    }
    EXPECT_NEAR(cost, tree.distance_ms[t], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(AllPairs, MatchesPerSourceDijkstra) {
  const Graph g = test::known_graph();
  const auto all = all_pairs_distances(g);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto tree = dijkstra(g, s);
    EXPECT_EQ(all[s], tree.distance_ms);
  }
}

}  // namespace
}  // namespace tacc::topo
