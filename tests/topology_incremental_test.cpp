// Correctness of the incremental delay engine: randomized churn sequences
// must keep every per-server tree bit-identical to a from-scratch Dijkstra
// (and within tolerance of Floyd–Warshall) at every step.
#include "topology/incremental/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "topology/failures.hpp"
#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::incr {
namespace {

const LinkDelayModel kDelay;

/// Router backbone + a few devices/servers over the given family.
NetworkTopology make_net(TopologyFamily family, std::uint64_t seed,
                         std::size_t routers = 49, std::size_t devices = 24,
                         std::size_t servers = 4) {
  util::Rng rng(seed);
  GeneratorParams params;
  params.node_count = routers;
  const GeoGraph infra = generate(family, params, kDelay, rng);
  std::vector<Point2D> iot(devices);
  std::vector<Point2D> edges(servers);
  for (auto& p : iot) p = {rng.uniform(0.0, params.area_km),
                           rng.uniform(0.0, params.area_km)};
  for (auto& p : edges) p = {rng.uniform(0.0, params.area_km),
                             rng.uniform(0.0, params.area_km)};
  return build_network(infra, iot, edges, kDelay);
}

/// True iff every tree distance equals the from-scratch Dijkstra value
/// bitwise (inf compares equal to inf).
testing::AssertionResult trees_match_rebuild(
    const IncrementalDelayEngine& engine, const NetworkTopology& net) {
  const auto fresh = dijkstra_fan_out(net.graph, net.edge_nodes);
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    const auto& incremental = engine.tree(j).distances();
    for (NodeId node = 0; node < net.graph.node_count(); ++node) {
      const double expect = fresh[j].distance_ms[node];
      const double got = incremental[node];
      if (!(expect == got || (std::isinf(expect) && std::isinf(got)))) {
        return testing::AssertionFailure()
               << "server " << j << " node " << node << ": incremental "
               << got << " vs rebuild " << expect;
      }
    }
  }
  return testing::AssertionSuccess();
}

class IncrementalEquivalence
    : public testing::TestWithParam<TopologyFamily> {};

// The acceptance gate: 1000 randomized fail/restore/reweight events per
// family, exact agreement with a full recompute after every single event.
TEST_P(IncrementalEquivalence, ThousandEventChurnMatchesFromScratch) {
  NetworkTopology net = make_net(GetParam(), 0xC0FFEE);
  IncrementalDelayEngine engine(net);
  util::Rng rng(0xBEEF);

  std::size_t fails = 0, restores = 0, reweights = 0;
  for (std::size_t event = 0; event < 1000; ++event) {
    const auto live = backbone_links(net);
    const double roll = rng.uniform();
    if (!net.failed_links.empty() && (roll < 0.35 || live.empty())) {
      const FailedLink& pick =
          net.failed_links[rng.index(net.failed_links.size())];
      engine.restore_link(pick.u, pick.v);
      ++restores;
    } else if (roll < 0.70 && !live.empty()) {
      // Failing freely may disconnect devices — unreachable (inf) rows are
      // part of the contract, not an error.
      const auto [u, v] = live[rng.index(live.size())];
      engine.fail_link(u, v);
      ++fails;
    } else if (!live.empty()) {
      const auto [u, v] = live[rng.index(live.size())];
      const double old_ms = net.graph.edge_props(u, v)->latency_ms;
      engine.set_link_latency(u, v, old_ms * rng.uniform(0.5, 2.0));
      ++reweights;
    }
    ASSERT_TRUE(trees_match_rebuild(engine, net))
        << "family " << to_string(GetParam()) << " event " << event
        << " (fails " << fails << " restores " << restores << " reweights "
        << reweights << ")";
  }
  // The mix must actually exercise all three verbs.
  EXPECT_GT(fails, 100u);
  EXPECT_GT(restores, 100u);
  EXPECT_GT(reweights, 100u);
  EXPECT_EQ(engine.stats().link_updates, fails + restores + reweights);
  EXPECT_EQ(engine.epoch(), engine.stats().link_updates);

  // The deep validator agrees: dirty bookkeeping sound, every tree
  // bit-identical to a from-scratch Dijkstra.
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());

  // Cross-check the final state against the O(V^3) reference as well
  // (tolerance: Floyd–Warshall associates sums differently).
  const auto reference = floyd_warshall(net.graph);
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    const auto& row = reference[net.edge_nodes[j]];
    for (NodeId node = 0; node < net.graph.node_count(); ++node) {
      const double got = engine.delay_ms(j, node);
      if (std::isinf(row[node])) {
        EXPECT_TRUE(std::isinf(got));
      } else {
        EXPECT_NEAR(got, row[node], 1e-9 * (1.0 + row[node]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, IncrementalEquivalence,
                         testing::Values(TopologyFamily::kGrid,
                                         TopologyFamily::kHierarchical,
                                         TopologyFamily::kRandomGeometric),
                         [](const auto& suite_info) {
                           return std::string(to_string(suite_info.param));
                         });

TEST(IncrementalDelayEngine, DisconnectionAndRestoreRoundTrip) {
  // Line: server — r0 — r1 — device. Failing r0–r1 strands the device.
  GeoGraph infra{Graph(2), {{0.0, 0.0}, {2.0, 0.0}}};
  infra.graph.add_edge(0, 1, kDelay.backbone_link(2.0));
  const std::vector<Point2D> iot{{2.5, 0.0}};
  const std::vector<Point2D> edges{{0.0, 0.5}};
  NetworkTopology net = build_network(infra, iot, edges, kDelay);
  IncrementalDelayEngine engine(net);

  const double before = engine.delay_ms(0, net.iot_nodes[0]);
  EXPECT_TRUE(std::isfinite(before));
  engine.fail_link(0, 1);
  EXPECT_TRUE(std::isinf(engine.delay_ms(0, net.iot_nodes[0])));
  EXPECT_TRUE(trees_match_rebuild(engine, net));
  engine.restore_link(0, 1);
  EXPECT_EQ(engine.delay_ms(0, net.iot_nodes[0]), before);
  EXPECT_TRUE(trees_match_rebuild(engine, net));
}

TEST(IncrementalDelayEngine, DeviceChurnKeepsTreesExact) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 77);
  IncrementalDelayEngine engine(net);
  util::Rng rng(5);

  std::vector<NodeId> added;
  for (std::size_t step = 0; step < 50; ++step) {
    if (added.empty() || rng.uniform() < 0.6) {
      const Point2D pos{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
      const NodeId node = engine.acquire_node(pos, NodeKind::kIotDevice);
      const NodeId router = static_cast<NodeId>(rng.index(49));
      engine.add_link(node, router, kDelay.access_link(1.0));
      added.push_back(node);
    } else {
      const std::size_t k = rng.index(added.size());
      engine.release_node(added[k]);
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(k));
    }
    ASSERT_TRUE(trees_match_rebuild(engine, net)) << "step " << step;
  }
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());
}

TEST(IncrementalDelayEngine, DirtyNodesDrainOnceAndCoverChanges) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 3);
  IncrementalDelayEngine engine(net);
  const auto links = backbone_links(net);
  ASSERT_FALSE(links.empty());

  const auto before = dijkstra_fan_out(net.graph, net.edge_nodes);
  engine.fail_link(links[0].first, links[0].second);
  const auto after = dijkstra_fan_out(net.graph, net.edge_nodes);

  std::vector<NodeId> dirty;
  EXPECT_EQ(engine.drain_dirty(dirty), dirty.size());
  std::vector<bool> is_dirty(net.graph.node_count(), false);
  for (const NodeId node : dirty) {
    EXPECT_FALSE(is_dirty[node]) << "duplicate dirty node " << node;
    is_dirty[node] = true;
  }
  // Every node whose distance to some server moved must be in the set.
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    for (NodeId node = 0; node < net.graph.node_count(); ++node) {
      const double a = before[j].distance_ms[node];
      const double b = after[j].distance_ms[node];
      if (a != b && !(std::isinf(a) && std::isinf(b))) {
        EXPECT_TRUE(is_dirty[node]) << "node " << node << " changed but "
                                    << "was not reported dirty";
      }
    }
  }
  // A second drain yields nothing.
  std::vector<NodeId> again;
  EXPECT_EQ(engine.drain_dirty(again), 0u);
  EXPECT_TRUE(again.empty());
}

TEST(IncrementalDelayEngine, StatsTrackSavings) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 9);
  IncrementalDelayEngine engine(net);
  const auto links = backbone_links(net);
  engine.fail_link(links[0].first, links[0].second);
  engine.restore_link(links[0].first, links[0].second);
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.link_updates, 2u);
  EXPECT_EQ(stats.epoch, 2u);
  // Affected regions are bounded by a full recompute's node visits.
  const std::uint64_t full = 2ull * net.edge_count() *
                             net.graph.live_node_count();
  EXPECT_LE(stats.nodes_affected, full);
  EXPECT_EQ(stats.nodes_saved, full - stats.nodes_affected);
}

TEST(IncrementalDelayEngine, RebuildDirtiesEverythingAndMatches) {
  NetworkTopology net = make_net(TopologyFamily::kHierarchical, 51);
  IncrementalDelayEngine engine(net);
  // Out-of-band edit the engine did not see, then recover via rebuild().
  const auto links = backbone_links(net);
  net.graph.remove_edge(links[0].first, links[0].second);
  engine.rebuild();
  EXPECT_TRUE(trees_match_rebuild(engine, net));
  std::vector<NodeId> dirty;
  engine.drain_dirty(dirty);
  EXPECT_EQ(dirty.size(), net.graph.node_count());
}

}  // namespace
}  // namespace tacc::topo::incr
