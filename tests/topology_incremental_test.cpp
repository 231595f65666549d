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
                         std::size_t servers = 4,
                         const AttachParams& attach = {}) {
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
  return build_network(infra, iot, edges, attach);
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

/// The changed_nodes() that are keys: routers, and hosts that read through
/// themselves. A single-homed device's delay moves with its anchor's key.
std::vector<NodeId> changed_keys(const IncrementalDelayEngine& engine,
                                 const std::vector<ShortestPathTree>& before,
                                 const std::vector<ShortestPathTree>& after) {
  std::vector<NodeId> keys;
  for (const NodeId node : changed_nodes(before, after)) {
    if (engine.read_through(node).node == node) keys.push_back(node);
  }
  return keys;
}

// After every event of a mixed churn the drained dirty set must EQUAL the
// set of keys whose delay to some server changed bitwise, as an
// independent from-scratch fan-out sees it — routers and self-keyed hosts,
// never a single-homed device, whose delay moves with its anchor's key —
// less the host whose own link the event changed. That host's delay is the
// only one its link moves, and the engine reports it to no one: whoever
// changed the link rebinds the host's row.
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

  // Drains the dirty set and compares it with the reference, less `host`,
  // the host endpoint of the event's link (kInvalidNode for a backbone
  // link). A host's own link moves no other node's delay, so it dirties
  // nothing at all.
  const auto drain_exact = [&](const std::string& what, NodeId host) {
    const auto after = reference(net);
    std::vector<NodeId> dirty;
    const std::size_t drained = engine.drain_dirty(dirty);
    EXPECT_EQ(drained, dirty.size()) << what;
    std::sort(dirty.begin(), dirty.end());
    EXPECT_TRUE(std::adjacent_find(dirty.begin(), dirty.end()) ==
                dirty.end())
        << what << ": duplicate dirty node";
    std::vector<NodeId> keys = changed_keys(engine, before, after);
    std::erase(keys, host);
    EXPECT_EQ(dirty, keys) << what;
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

// Multi-homed hosts (devices and servers with two access links each) read
// through themselves, and relay nothing: every served delay must track a
// from-scratch no-relay Dijkstra through backbone and access-link churn,
// and every drained dirty set must be exactly the keys whose delay moved
// (here every host is a key of its own), less a device whose own link
// changed.
TEST(IncrementalDelayEngine, MultiHomedChurnMatchesFromScratch) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 0xD1CE,
                                 49, 24, 4, AttachParams{.attach_count = 2});
  IncrementalDelayEngine engine(net);
  for (const NodeId device : net.iot_nodes) {
    ASSERT_EQ(net.graph.degree(device), 2u);
    ASSERT_FALSE(reads_through_anchor(engine, device));
  }
  util::Rng rng(0x2A77);
  auto before = reference(net);
  std::vector<NodeId> dirty;
  engine.drain_dirty(dirty);
  std::size_t fails = 0, restores = 0, reweights = 0, access = 0;
  for (std::size_t event = 0; event < 1000; ++event) {
    const auto live = backbone_links(net);
    const double roll = rng.uniform();
    NodeId host = kInvalidNode;
    if (!net.failed_links.empty() && (roll < 0.3 || live.empty())) {
      const FailedLink& pick =
          net.failed_links[rng.index(net.failed_links.size())];
      engine.restore_link(pick.u, pick.v);
      ++restores;
    } else if (roll < 0.6 && !live.empty()) {
      const auto [u, v] = live[rng.index(live.size())];
      engine.fail_link(u, v);
      ++fails;
    } else if (roll < 0.8 && !live.empty()) {
      const auto [u, v] = live[rng.index(live.size())];
      const double old_ms = net.graph.edge_props(u, v)->latency_ms;
      engine.set_link_latency(u, v, old_ms * rng.uniform(0.5, 2.0));
      ++reweights;
    } else {
      const NodeId device = net.iot_nodes[rng.index(net.iot_count())];
      const Adjacency link =
          net.graph.neighbors(device)[rng.index(net.graph.degree(device))];
      engine.set_link_latency(device, link.to,
                              link.props.latency_ms * rng.uniform(0.5, 2.0));
      host = device;
      ++access;
    }
    ASSERT_TRUE(trees_match_rebuild(engine, net)) << "event " << event;
    const auto after = reference(net);
    dirty.clear();
    engine.drain_dirty(dirty);
    std::sort(dirty.begin(), dirty.end());
    std::vector<NodeId> keys = changed_keys(engine, before, after);
    std::erase(keys, host);
    ASSERT_EQ(dirty, keys) << "event " << event;
    before = after;
  }
  EXPECT_GT(fails, 100u);
  EXPECT_GT(restores, 100u);
  EXPECT_GT(reweights, 100u);
  EXPECT_GT(access, 100u);
  for (const NodeId device : net.iot_nodes) {
    EXPECT_FALSE(reads_through_anchor(engine, device));
  }
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());
}

// A server's access links are its tree's first hops: failing, restoring
// and reweighting them repairs that server's tree, exactly as a
// from-scratch run sees it. The server's own delay in every other tree
// moves too, but like any host's own link the event does not dirty it.
TEST(IncrementalDelayEngine, ServerAccessLinkChurnRepairsItsOwnTree) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 0x5E4F, 49, 24, 4,
                                 AttachParams{.attach_count = 2});
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
    std::vector<NodeId> keys = changed_nodes(before, after);
    std::erase(keys, server);
    ASSERT_EQ(dirty, keys) << "event " << event;
    moved += dirty.size();
    before = after;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(engine.stats().nodes_affected, 0u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());
}

// A single-homed device that gains a second link becomes multi-homed: it
// reads through itself and takes the better of its two links. Here that
// link would be the shortest route between its two routers, but hosts
// never relay: no router's delay may move, and removing the link again
// restores every delay exactly.
TEST(IncrementalDelayEngine, MultiHomedDeviceNeverCarriesTheRouterRoute) {
  // r0 ——(slow backbone)—— r1, server 0 on r0, server 1 on r1, and one
  // device attached to r0.
  GeoGraph infra{Graph(2), {{0.0, 0.0}, {10.0, 0.0}}};
  infra.graph.add_edge(0, 1, EdgeProps{40.0, 100.0});
  const std::vector<Point2D> iot{{1.0, 0.0}};
  const std::vector<Point2D> edges{{-1.0, 0.0}, {11.0, 0.0}};
  NetworkTopology net = build_network(infra, iot, edges);
  IncrementalDelayEngine engine(net);
  const NodeId device = net.iot_nodes[0];
  ASSERT_TRUE(reads_through_anchor(engine, device));
  ASSERT_EQ(net.graph.neighbors(device).front().to, 0u);
  const double w0 = net.graph.neighbors(device).front().props.latency_ms;
  const double w1 = 1.5;
  ASSERT_LT(w0 + w1, 40.0);

  std::vector<std::vector<double>> original(net.edge_count());
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    for (NodeId node = 0; node < net.graph.node_count(); ++node) {
      original[j].push_back(engine.delay_ms(j, node));
    }
  }
  std::vector<NodeId> dirty;
  engine.drain_dirty(dirty);
  const auto before = reference(net);

  engine.add_link(device, 1, EdgeProps{w1, 100.0});
  EXPECT_FALSE(reads_through_anchor(engine, device));
  ASSERT_TRUE(trees_match_rebuild(engine, net));
  // Through the device, server 0 would reach r1 (and server 1 reach r0)
  // faster than over the backbone; neither route is taken.
  EXPECT_LT(engine.delay_ms(0, device) + w1, original[0][1]);
  EXPECT_EQ(engine.delay_ms(0, 1), original[0][1]);
  EXPECT_LT(engine.delay_ms(1, device) + w0, original[1][0]);
  EXPECT_EQ(engine.delay_ms(1, 0), original[1][0]);
  // The device itself now reaches server 1 over its new link.
  EXPECT_EQ(engine.delay_ms(1, device), engine.delay_ms(1, 1) + w1);
  EXPECT_LT(engine.delay_ms(1, device), original[1][device]);
  EXPECT_EQ(engine.delay_ms(0, device), original[0][device]);
  // Only the device's own delay moved, and its own link dirties nothing.
  EXPECT_EQ(changed_nodes(before, reference(net)), std::vector<NodeId>{device});
  dirty.clear();
  EXPECT_EQ(engine.drain_dirty(dirty), 0u);
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    engine.check_invariants(net.edge_count());
  }

  ASSERT_TRUE(engine.remove_link(device, 1));
  ASSERT_TRUE(trees_match_rebuild(engine, net));
  EXPECT_TRUE(reads_through_anchor(engine, device));
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    for (NodeId node = 0; node < net.graph.node_count(); ++node) {
      EXPECT_EQ(engine.delay_ms(j, node), original[j][node])
          << "server " << j << " node " << node;
    }
  }
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants(net.edge_count());
}

// The dirty set names only keys a tree repair moved. Adding, removing or
// reweighting a host's own link moves that host's delay and no other
// node's, and is reported to no one: the engine's dirty set stays empty,
// whoever changed the link rebinds the host's row. A server's access link
// repairs the server's tree, and dirties exactly the routers that repair
// moved (plus the other servers linked to them whose delay moved), never
// the server itself.
TEST(IncrementalDelayEngine, HostOwnLinkEventsDirtyNoKey) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 0x0E1D);
  IncrementalDelayEngine engine(net);
  auto before = reference(net);
  std::vector<NodeId> dirty;
  engine.drain_dirty(dirty);
  // `host`'s delay moved (or, with `may_hold`, may have held) and no other.
  const auto expect_only_host_moved = [&](const std::string& what,
                                          NodeId host, bool may_hold = false) {
    const auto after = reference(net);
    const std::vector<NodeId> changed = changed_nodes(before, after);
    if (!(may_hold && changed.empty())) {
      EXPECT_EQ(changed, std::vector<NodeId>{host}) << what;
    }
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
  NodeId second = 0;
  while (second == access.to) ++second;
  engine.add_link(device, second, EdgeProps{0.01, 100.0});
  ASSERT_FALSE(reads_through_anchor(engine, device));
  expect_only_host_moved("add a second link", device, true);
  ASSERT_TRUE(engine.remove_link(device, second));
  expect_only_host_moved("remove the second link", device, true);

  const NodeId server = net.edge_nodes[0];
  const Adjacency uplink = net.graph.neighbors(server).front();
  engine.set_link_latency(server, uplink.to, uplink.props.latency_ms * 4.0);
  const auto after = reference(net);
  dirty.clear();
  engine.drain_dirty(dirty);
  std::sort(dirty.begin(), dirty.end());
  std::vector<NodeId> moved_routers;
  for (NodeId router = 0; router < net.router_count(); ++router) {
    if (before[0].distance_ms[router] != after[0].distance_ms[router]) {
      moved_routers.push_back(router);
    }
  }
  ASSERT_FALSE(moved_routers.empty());
  std::vector<NodeId> dirty_routers;
  for (const NodeId node : dirty) {
    EXPECT_NE(node, server) << "the server's own link dirtied it";
    if (node < net.router_count()) {
      dirty_routers.push_back(node);
    } else {
      EXPECT_EQ(net.kinds[node], NodeKind::kEdgeServer) << "node " << node;
    }
  }
  EXPECT_EQ(dirty_routers, moved_routers);
  std::vector<NodeId> keys = changed_keys(engine, before, after);
  std::erase(keys, server);
  EXPECT_EQ(dirty, keys);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
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
  EXPECT_EQ(dirty.size(), net.graph.node_count());
}

}  // namespace
}  // namespace tacc::topo::incr
