#include "topology/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "tests/test_helpers.hpp"
#include "topology/incremental/dynamic_sssp.hpp"
#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, AddNodeReturnsSequentialIds) {
  Graph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(Graph, AddEdgeIsUndirected) {
  Graph g(3);
  g.add_edge(0, 1, {2.0, 50.0});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, NeighborsCarryProps) {
  Graph g(2);
  g.add_edge(0, 1, {3.5, 75.0});
  const auto neighbors = g.neighbors(0);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].to, 1u);
  EXPECT_DOUBLE_EQ(neighbors[0].props.latency_ms, 3.5);
  EXPECT_DOUBLE_EQ(neighbors[0].props.bandwidth_mbps, 75.0);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, {1.0, 1.0}), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 0, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, {-1.0, 1.0}), std::invalid_argument);
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  Graph g(1);
  EXPECT_THROW((void)g.neighbors(3), std::out_of_range);
}

TEST(Graph, TotalLatencyCountsEachEdgeOnce) {
  Graph g(3);
  g.add_edge(0, 1, {2.0, 1.0});
  g.add_edge(1, 2, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(g.total_latency(), 5.0);
}

TEST(Graph, ParallelEdgesAllowedAndCounted) {
  Graph g(2);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(0, 1, {2.0, 1.0});
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Graph, ReleaseNodeDropsIncidentEdges) {
  Graph g(4);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(1, 2, {2.0, 1.0});
  g.add_edge(2, 3, {3.0, 1.0});
  g.release_node(1);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_TRUE(g.node_released(1));
  EXPECT_EQ(g.released_node_count(), 1u);
  EXPECT_EQ(g.live_node_count(), 3u);
  EXPECT_EQ(g.node_count(), 4u);  // id space is stable
}

TEST(Graph, ReleaseNodeRemovesParallelEdges) {
  Graph g(2);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(0, 1, {2.0, 1.0});
  g.release_node(0);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(Graph, AcquireReusesReleasedIdsLifo) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  Graph g(3);
  g.release_node(1);
  g.release_node(2);
  g.check_invariants();
  EXPECT_EQ(g.acquire_node(), 2u);  // most recently released first
  EXPECT_EQ(g.acquire_node(), 1u);
  EXPECT_EQ(g.acquire_node(), 3u);  // free list empty: append
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.released_node_count(), 0u);
  g.check_invariants();
}

TEST(Graph, ReleasedNodesRejectEdgesAndDoubleRelease) {
  Graph g(3);
  g.release_node(0);
  EXPECT_THROW(g.add_edge(0, 1, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, 0, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.release_node(0), std::invalid_argument);
  EXPECT_THROW(g.release_node(9), std::out_of_range);
  const NodeId node = g.acquire_node();
  EXPECT_EQ(node, 0u);
  g.add_edge(0, 1, {1.0, 1.0});  // usable again after reacquisition
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, ReleaseCycleKeepsTotalLatencyConsistent) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  Graph g(3);
  g.add_edge(0, 1, {2.0, 1.0});
  g.add_edge(1, 2, {3.0, 1.0});
  g.release_node(2);
  EXPECT_DOUBLE_EQ(g.total_latency(), 2.0);
  const NodeId node = g.acquire_node();
  g.add_edge(node, 1, {5.0, 1.0});
  EXPECT_DOUBLE_EQ(g.total_latency(), 7.0);
  g.check_invariants();
}

TEST(Graph, RelayEntriesPrecedeLeafEntriesInInsertionOrder) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  Graph g(3);
  const NodeId leaf = g.add_node(NodeRole::kLeaf);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(0, leaf, {2.0, 1.0});
  g.add_edge(0, 2, {3.0, 1.0});  // the leaf entry moves to the back
  const auto all = g.neighbors(0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].to, 1u);
  EXPECT_EQ(all[1].to, 2u);
  EXPECT_EQ(all[2].to, leaf);
  ASSERT_EQ(g.relay_neighbors(0).size(), 2u);
  EXPECT_EQ(g.relay_neighbors(leaf).size(), 1u);  // its router is a relay
  EXPECT_TRUE(g.is_leaf(leaf));
  EXPECT_FALSE(g.is_leaf(0));
  g.check_invariants();
  EXPECT_TRUE(g.remove_edge(leaf, 0));
  EXPECT_EQ(g.degree(0), 2u);
  g.check_invariants();
}

TEST(Graph, LeafTakesOneLink) {
  Graph g(2);
  const NodeId leaf = g.add_node(NodeRole::kLeaf);
  g.add_edge(leaf, 0, {1.0, 1.0});
  EXPECT_THROW(g.add_edge(leaf, 1, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(1, leaf, {1.0, 1.0}), std::invalid_argument);
  EXPECT_EQ(g.edge_count(), 1u);
  g.release_node(leaf);
  EXPECT_EQ(g.acquire_node(), leaf);  // reacquired as a relay
  g.add_edge(leaf, 0, {1.0, 1.0});
  g.add_edge(leaf, 1, {1.0, 1.0});
  EXPECT_EQ(g.relay_neighbors(0).size(), 1u);
}

// Randomized churn over routers, servers and devices. After every step each
// node's relay prefix must equal a naive list of its relay far ends kept in
// insertion order, and a fresh routers-only tree from every server must
// match dijkstra()'s no-relay mode bit for bit, parents included — the
// layout may reorder leaf entries, never the relay ones.
TEST(Graph, RelayPrefixMatchesReferenceThroughChurn) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  constexpr std::size_t kRouters = 12;
  constexpr std::size_t kServers = 3;
  util::Rng rng(2024);
  Graph g(kRouters);
  using Entry = std::pair<NodeId, double>;  // far end, latency
  std::vector<std::vector<Entry>> reference(kRouters);
  const auto latency = [&rng] { return rng.uniform(0.5, 5.0); };
  const auto router = [&rng] {
    return static_cast<NodeId>(rng.index(kRouters));
  };

  const auto add = [&](NodeId u, NodeId v, double ms) {
    g.add_edge(u, v, {ms, 1.0});
    if (!g.is_leaf(v)) reference[u].push_back({v, ms});
    if (!g.is_leaf(u)) reference[v].push_back({u, ms});
  };
  const auto first = [&](NodeId u, NodeId v) {
    return std::find_if(reference[u].begin(), reference[u].end(),
                        [v](const Entry& e) { return e.first == v; });
  };
  const auto remove = [&](NodeId u, NodeId v) {
    ASSERT_TRUE(g.remove_edge(u, v));
    if (!g.is_leaf(v)) reference[u].erase(first(u, v));
    if (!g.is_leaf(u)) reference[v].erase(first(v, u));
  };
  const auto reweight = [&](NodeId u, NodeId v, double ms) {
    ASSERT_TRUE(g.set_edge_latency(u, v, ms));
    if (!g.is_leaf(v)) first(u, v)->second = ms;
    if (!g.is_leaf(u)) first(v, u)->second = ms;
  };
  const auto release = [&](NodeId node) {
    g.release_node(node);
    reference[node].clear();
    for (auto& list : reference) {
      std::erase_if(list, [node](const Entry& e) { return e.first == node; });
    }
  };
  const auto acquire = [&](NodeRole role) {
    const NodeId node = g.acquire_node(role);
    if (node == reference.size()) reference.emplace_back();
    return node;
  };
  const auto link_of = [&](NodeId host) { return g.neighbors(host).front(); };

  for (NodeId r = 0; r < kRouters; ++r) {
    add(r, static_cast<NodeId>((r + 1) % kRouters), latency());
  }
  std::vector<NodeId> servers;
  for (std::size_t k = 0; k < kServers; ++k) {
    servers.push_back(acquire(NodeRole::kRelay));
    add(servers.back(), router(), latency());
  }
  std::vector<NodeId> devices;

  std::vector<std::size_t> ran(8, 0);
  for (std::size_t step = 0; step < 1500; ++step) {
    const std::size_t kind = rng.index(ran.size());
    const std::string what =
        "step " + std::to_string(step) + " kind " + std::to_string(kind);
    const NodeId u = router();
    const auto backbone = g.relay_neighbors(u);
    const auto to_router = std::find_if(
        backbone.begin(), backbone.end(),
        [](const Adjacency& a) { return a.to < kRouters; });
    switch (kind) {
      case 0: {  // backbone link, parallel links included
        const NodeId v = router();
        if (v == u) continue;
        add(u, v, latency());
        break;
      }
      case 1:  // backbone failure
        if (to_router == backbone.end()) continue;
        remove(u, to_router->to);
        break;
      case 2:  // backbone reweight
        if (to_router == backbone.end()) continue;
        reweight(u, to_router->to, latency());
        break;
      case 3:  // device joins
        devices.push_back(acquire(NodeRole::kLeaf));
        add(devices.back(), router(), latency());
        break;
      case 4: {  // device leaves
        if (devices.empty()) continue;
        const std::size_t pick = rng.index(devices.size());
        release(devices[pick]);
        devices.erase(devices.begin() + static_cast<std::ptrdiff_t>(pick));
        break;
      }
      case 5: {  // device moves or reweights its link
        if (devices.empty()) continue;
        const NodeId device = devices[rng.index(devices.size())];
        if (g.degree(device) == 0) {
          add(device, router(), latency());
        } else if (rng.bernoulli(0.5)) {
          reweight(device, link_of(device).to, latency());
        } else {
          remove(device, link_of(device).to);
          add(device, router(), latency());
        }
        break;
      }
      case 6: {  // a server moves: its entry rejoins a relay prefix
        const NodeId server = servers[rng.index(servers.size())];
        if (g.degree(server) != 0) remove(server, link_of(server).to);
        add(server, router(), latency());
        break;
      }
      default:  // a router is released and reacquired (LIFO): it comes
                // back isolated, stranding its hosts until they move
        release(u);
        ASSERT_EQ(acquire(NodeRole::kRelay), u) << what;
        add(u, static_cast<NodeId>((u + 1) % kRouters), latency());
        break;
    }
    ++ran[kind];

    ASSERT_NO_THROW(g.check_invariants()) << what;
    for (NodeId node = 0; node < g.node_count(); ++node) {
      const auto prefix = g.relay_neighbors(node);
      ASSERT_EQ(prefix.size(), reference[node].size())
          << what << " node " << node;
      for (std::size_t i = 0; i < prefix.size(); ++i) {
        ASSERT_EQ(prefix[i].to, reference[node][i].first) << what;
        ASSERT_EQ(prefix[i].props.latency_ms, reference[node][i].second)
            << what;
      }
    }
    for (const NodeId server : servers) {
      const ShortestPathTree expected = dijkstra(g, server, kRouters);
      const incr::DynamicSsspTree tree(g, kRouters, server);
      for (NodeId r = 0; r < kRouters; ++r) {
        ASSERT_EQ(tree.distance_ms(r), expected.distance_ms[r]) << what;
        ASSERT_EQ(tree.parent(r), expected.parent[r]) << what;
      }
      for (NodeId node = 0; node < g.node_count(); ++node) {
        if (g.node_released(node)) continue;
        ASSERT_EQ(tree.delay_ms(g, node), expected.distance_ms[node]) << what;
      }
    }
  }
  for (std::size_t kind = 0; kind < ran.size(); ++kind) {
    EXPECT_GT(ran[kind], 40u) << "step kind " << kind << " barely ran";
  }
}

TEST(KnownGraph, HelperShape) {
  const Graph g = test::known_graph();
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_TRUE(g.has_edge(4, 5));
}

}  // namespace
}  // namespace tacc::topo
