// Correctness of the incremental delay engine: randomized churn sequences
// must keep every served delay bit-identical to a from-scratch no-relay
// Dijkstra (and within tolerance of Floyd–Warshall) at every step.
#include "topology/incremental/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "topology/failures.hpp"
#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::incr {
namespace {


/// Router backbone + a few devices/servers over the given family.
NetworkTopology make_net(TopologyFamily family, std::uint64_t seed,
                         std::size_t routers = 49, std::size_t devices = 24,
                         std::size_t servers = 4) {
  util::Rng rng(seed);
  GeneratorParams params;
  params.node_count = routers;
  const GeoGraph infra = generate(family, params, rng);
  std::vector<Point2D> iot(devices);
  std::vector<Point2D> edges(servers);
  for (auto& p : iot) p = {rng.uniform(0.0, params.area_km),
                           rng.uniform(0.0, params.area_km)};
  for (auto& p : edges) p = {rng.uniform(0.0, params.area_km),
                             rng.uniform(0.0, params.area_km)};
  return build_network(infra, iot, edges);
}

/// From-scratch no-relay Dijkstra from every server: the reference.
std::vector<ShortestPathTree> reference(const NetworkTopology& net) {
  return dijkstra_fan_out(net.graph, net.edge_nodes, net.router_count());
}

/// True iff `node` reads through an anchor router rather than itself.
bool reads_through_anchor(const IncrementalDelayEngine& engine, NodeId node) {
  return engine.read_through(node).node != node;
}

/// True iff every served delay (hosts included) equals the from-scratch
/// no-relay Dijkstra value bitwise (inf compares equal to inf).
testing::AssertionResult trees_match_rebuild(
    const IncrementalDelayEngine& engine, const NetworkTopology& net) {
  const auto fresh = reference(net);
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    for (NodeId node = 0; node < net.graph.node_count(); ++node) {
      const double expect = fresh[j].distance_ms[node];
      const double got = engine.delay_ms(j, node);
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
  infra.graph.add_edge(0, 1, backbone_link(2.0));
  const std::vector<Point2D> iot{{2.5, 0.0}};
  const std::vector<Point2D> edges{{0.0, 0.5}};
  NetworkTopology net = build_network(infra, iot, edges);
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
      engine.add_link(node, router, access_link(1.0));
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

/// Nodes whose distance to some server differs bitwise between two fan-outs
/// (inf equals inf; nodes beyond `before` were unreachable then), ascending.
std::vector<NodeId> changed_nodes(const std::vector<ShortestPathTree>& before,
                                  const std::vector<ShortestPathTree>& after) {
  std::vector<NodeId> changed;
  for (NodeId node = 0; node < after.front().distance_ms.size(); ++node) {
    for (std::size_t j = 0; j < after.size(); ++j) {
      const std::vector<double>& old_ms = before[j].distance_ms;
      const double a = node < old_ms.size() ? old_ms[node] : kUnreachable;
      if (a != after[j].distance_ms[node]) {
        changed.push_back(node);
        break;
      }
    }
  }
  return changed;
}

/// The changed_nodes() that are routers: the keys a device's delay reads
/// through.
std::vector<NodeId> moved_routers(const NetworkTopology& net,
                                  const std::vector<ShortestPathTree>& before,
                                  const std::vector<ShortestPathTree>& after) {
  const std::size_t router_count = net.router_count();
  std::vector<NodeId> routers = changed_nodes(before, after);
  std::erase_if(routers, [&](NodeId node) { return node >= router_count; });
  return routers;
}

// After every event of a mixed churn the drained dirty set must EQUAL the
// set of routers whose delay to some server changed bitwise, as an
// independent from-scratch fan-out sees it — never a device, whose delay
// moves with its anchor's. A host's own link moves only that host's delay,
// and the engine reports it to no one: whoever changed the link rebinds the
// host's row.
TEST(IncrementalDelayEngine, DirtyNodesDrainOnceAndCoverChanges) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 3);
  IncrementalDelayEngine engine(net);
  for (const NodeId device : net.iot_nodes) {
    ASSERT_TRUE(reads_through_anchor(engine, device));
  }
  util::Rng rng(41);
  auto before = reference(net);
  std::vector<NodeId> discarded;
  engine.drain_dirty(discarded);

  std::vector<std::pair<NodeId, NodeId>> failed_backbone;
  std::vector<std::pair<NodeId, NodeId>> failed_access;
  std::vector<NodeId> attached;
  std::vector<std::size_t> kinds(9, 0);

  // Drains the dirty set and compares it with the reference. `host` is the
  // host endpoint of the event's link (kInvalidNode for a backbone link): a
  // host's own link moves no other node's delay, so it dirties nothing.
  const auto drain_exact = [&](const std::string& what, NodeId host) {
    const auto after = reference(net);
    std::vector<NodeId> dirty;
    const std::size_t drained = engine.drain_dirty(dirty);
    EXPECT_EQ(drained, dirty.size()) << what;
    std::sort(dirty.begin(), dirty.end());
    EXPECT_TRUE(std::adjacent_find(dirty.begin(), dirty.end()) ==
                dirty.end())
        << what << ": duplicate dirty node";
    EXPECT_EQ(dirty, moved_routers(net, before, after)) << what;
    if (host != kInvalidNode) {
      EXPECT_TRUE(dirty.empty()) << what << ": a host's own link dirtied";
    }
    std::vector<NodeId> again;
    EXPECT_EQ(engine.drain_dirty(again), 0u) << what;
    before = after;
  };

  for (std::size_t event = 0; event < 600; ++event) {
    const std::size_t kind = rng.index(kinds.size());
    const std::string what =
        "event " + std::to_string(event) + " kind " + std::to_string(kind);
    const auto live = backbone_links(net);
    const NodeId device = net.iot_nodes[rng.index(net.iot_count())];
    const bool access_live = net.graph.degree(device) == 1;
    NodeId host = device;
    switch (kind) {
      case 0:  // backbone fail
        if (live.empty()) continue;
        failed_backbone.push_back(live[rng.index(live.size())]);
        engine.fail_link(failed_backbone.back().first,
                         failed_backbone.back().second);
        host = kInvalidNode;
        break;
      case 1: {  // backbone restore
        if (failed_backbone.empty()) continue;
        const std::size_t k = rng.index(failed_backbone.size());
        engine.restore_link(failed_backbone[k].first,
                            failed_backbone[k].second);
        failed_backbone.erase(failed_backbone.begin() +
                              static_cast<std::ptrdiff_t>(k));
        host = kInvalidNode;
        break;
      }
      case 2: {  // backbone reweight, half of them by one ulp: anchors
                 // move so little that adding w rounds some moves away
        if (live.empty()) continue;
        const auto [u, v] = live[rng.index(live.size())];
        const double w = net.graph.edge_props(u, v)->latency_ms;
        engine.set_link_latency(u, v,
                                rng.uniform() < 0.5
                                    ? std::nextafter(w, kUnreachable)
                                    : w * rng.uniform(0.5, 2.0));
        host = kInvalidNode;
        break;
      }
      case 3: {  // device attach
        const Point2D pos{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
        const NodeId node = engine.acquire_node(pos, NodeKind::kIotDevice);
        engine.add_link(node, static_cast<NodeId>(rng.index(49)),
                        access_link(rng.uniform(0.1, 2.0)));
        EXPECT_TRUE(reads_through_anchor(engine, node)) << what;
        attached.push_back(node);
        host = node;
        break;
      }
      case 4: {  // device detach
        if (attached.empty()) continue;
        const std::size_t k = rng.index(attached.size());
        host = attached[k];
        engine.release_node(attached[k]);
        attached.erase(attached.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 5: {  // device access-link fail
        if (!access_live) continue;
        const NodeId router = net.graph.neighbors(device).front().to;
        engine.fail_link(device, router);
        EXPECT_FALSE(reads_through_anchor(engine, device)) << what;
        failed_access.emplace_back(device, router);
        break;
      }
      case 6: {  // device access-link restore
        if (failed_access.empty()) continue;
        const std::size_t k = rng.index(failed_access.size());
        host = failed_access[k].first;
        engine.restore_link(failed_access[k].first, failed_access[k].second);
        EXPECT_TRUE(reads_through_anchor(engine, failed_access[k].first))
            << what;
        failed_access.erase(failed_access.begin() +
                            static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 7: {  // device access-link reweight
        if (!access_live) continue;
        const Adjacency link = net.graph.neighbors(device).front();
        engine.set_link_latency(device, link.to,
                                link.props.latency_ms * rng.uniform(0.5, 2.0));
        break;
      }
      default: {  // device reweight by one ulp, often rounded away
        if (!access_live) continue;
        const Adjacency link = net.graph.neighbors(device).front();
        engine.set_link_latency(device, link.to,
                                std::nextafter(link.props.latency_ms,
                                               kUnreachable));
        break;
      }
    }
    ++kinds[kind];
    drain_exact(what, host);
    ASSERT_TRUE(trees_match_rebuild(engine, net)) << what;
  }
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
    EXPECT_GT(kinds[kind], 10u) << "event kind " << kind << " barely ran";
  }
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());
}

// A server's access link is its tree's first hop: failing, restoring and
// reweighting it repairs that server's tree, exactly as a from-scratch run
// sees it, and dirties exactly the routers the repair moved. The server's
// own delay in every other tree moves too, but like any host's own link the
// event does not dirty it.
TEST(IncrementalDelayEngine, ServerAccessLinkChurnRepairsItsOwnTree) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 0x5E4F);
  IncrementalDelayEngine engine(net);
  util::Rng rng(0x5E4F);
  auto before = reference(net);
  std::vector<NodeId> dirty;
  engine.drain_dirty(dirty);
  std::size_t moved = 0;
  for (std::size_t event = 0; event < 300; ++event) {
    const NodeId server = net.edge_nodes[rng.index(net.edge_count())];
    std::vector<FailedLink> failed_here;
    for (const FailedLink& link : net.failed_links) {
      if (link.u == server || link.v == server) failed_here.push_back(link);
    }
    const double pick = rng.uniform();
    if (!failed_here.empty() && (pick < 0.4 || net.graph.degree(server) == 0)) {
      const FailedLink& link = failed_here[rng.index(failed_here.size())];
      engine.restore_link(link.u, link.v);
    } else if (net.graph.degree(server) == 0) {
      continue;
    } else {
      const Adjacency link = net.graph.neighbors(
          server)[rng.index(net.graph.degree(server))];
      if (pick < 0.6) {
        engine.fail_link(server, link.to);
      } else {
        engine.set_link_latency(server, link.to,
                                link.props.latency_ms * rng.uniform(0.5, 2.0));
      }
    }
    ASSERT_TRUE(trees_match_rebuild(engine, net)) << "event " << event;
    const auto after = reference(net);
    dirty.clear();
    engine.drain_dirty(dirty);
    std::sort(dirty.begin(), dirty.end());
    ASSERT_EQ(dirty, moved_routers(net, before, after)) << "event " << event;
    moved += dirty.size();
    before = after;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(engine.stats().nodes_affected, 0u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());
}

// The dirty set names only routers a tree repair moved. Adding, removing or
// reweighting a host's own link moves that host's delay and no other
// node's, and is reported to no one: the engine's dirty set stays empty,
// whoever changed the link rebinds the host's row. A server's access link
// repairs the server's tree, and dirties exactly the routers that repair
// moved, never a host.
TEST(IncrementalDelayEngine, HostOwnLinkEventsDirtyNoKey) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 0x0E1D);
  IncrementalDelayEngine engine(net);
  auto before = reference(net);
  std::vector<NodeId> dirty;
  engine.drain_dirty(dirty);
  // `host`'s delay moved and no other.
  const auto expect_only_host_moved = [&](const std::string& what,
                                          NodeId host) {
    const auto after = reference(net);
    EXPECT_EQ(changed_nodes(before, after), std::vector<NodeId>{host}) << what;
    EXPECT_EQ(engine.dirty_count(), 0u) << what;
    before = after;
  };

  const NodeId device = net.iot_nodes[0];
  ASSERT_TRUE(reads_through_anchor(engine, device));
  const Adjacency access = net.graph.neighbors(device).front();
  engine.set_link_latency(device, access.to, access.props.latency_ms * 2.0);
  expect_only_host_moved("reweight", device);
  engine.fail_link(device, access.to);
  expect_only_host_moved("remove", device);
  engine.restore_link(device, access.to);
  expect_only_host_moved("add", device);

  const NodeId server = net.edge_nodes[0];
  const Adjacency uplink = net.graph.neighbors(server).front();
  engine.set_link_latency(server, uplink.to, uplink.props.latency_ms * 4.0);
  const auto after = reference(net);
  dirty.clear();
  engine.drain_dirty(dirty);
  std::sort(dirty.begin(), dirty.end());
  const std::vector<NodeId> moved = moved_routers(net, before, after);
  ASSERT_FALSE(moved.empty());
  EXPECT_EQ(dirty, moved);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());
}

// A host has one access link, to a router: add_link refuses a second link
// on a device or a server, and a link between two hosts, changing nothing.
TEST(IncrementalDelayEngine, AddLinkRejectsASecondHostLink) {
  if (!contracts::enabled()) GTEST_SKIP() << "contracts compiled out";
  NetworkTopology net = make_net(TopologyFamily::kGrid, 0xA11C);
  IncrementalDelayEngine engine(net);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  for (const NodeId host : {net.iot_nodes[0], net.edge_nodes[0]}) {
    const NodeId other = net.graph.neighbors(host).front().to == 0 ? 1 : 0;
    EXPECT_THROW(engine.add_link(host, other, access_link(1.0)),
                 contracts::ContractViolation)
        << "host " << host;
    EXPECT_THROW(engine.add_link(other, host, access_link(1.0)),
                 contracts::ContractViolation)
        << "host " << host;
    EXPECT_EQ(net.graph.degree(host), 1u) << "host " << host;
  }
  const NodeId fresh = engine.acquire_node({1.0, 1.0}, NodeKind::kIotDevice);
  const NodeId other = engine.acquire_node({2.0, 1.0}, NodeKind::kIotDevice);
  EXPECT_THROW(engine.add_link(fresh, net.edge_nodes[0], access_link(1.0)),
               contracts::ContractViolation);
  EXPECT_THROW(engine.add_link(fresh, other, access_link(1.0)),
               contracts::ContractViolation);
  EXPECT_EQ(net.graph.degree(fresh), 0u);
  EXPECT_EQ(engine.epoch(), 0u);
  engine.add_link(fresh, 0, access_link(1.0));
  EXPECT_TRUE(reads_through_anchor(engine, fresh));
  EXPECT_EQ(engine.epoch(), 1u);
  engine.check_invariants(net.edge_count());
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
  // Affected regions are bounded by a full recompute's visits: every
  // router, once per tree.
  const std::uint64_t full = 2ull * net.edge_count() * net.router_count();
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
  EXPECT_EQ(dirty.size(), net.router_count());
}

}  // namespace
}  // namespace tacc::topo::incr
