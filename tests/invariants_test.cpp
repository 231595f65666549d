// Seeded-violation coverage for every deep check_invariants() validator:
// each test corrupts exactly one documented invariant (through a TestPeer
// friend where the state is private) and asserts the validator reports it
// through the contracts failure handler — plus healthy-state passes, so the
// validators are proven both sound and non-vacuous.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dynamic.hpp"
#include "service/engine.hpp"
#include "topology/failures.hpp"
#include "topology/incremental/engine.hpp"
#include "topology/oracle/oracle.hpp"
#include "util/contracts.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace tacc::topo {

/// Friend of topo::Graph: hands tests the private containers so they can
/// seed precisely one corruption.
struct GraphTestPeer {
  static std::vector<std::vector<Adjacency>>& adjacency(Graph& graph) {
    return graph.adjacency_;
  }
  static std::size_t& edges(Graph& graph) { return graph.edges_; }
};

namespace oracle {

/// Friend of DelayOracle.
struct DelayOracleTestPeer {
  static std::vector<std::uint64_t>& row_epochs(DelayOracle& oracle) {
    return oracle.epochs_;
  }
};

}  // namespace oracle
}  // namespace tacc::topo

namespace tacc {

/// Friend of DynamicCluster.
struct DynamicClusterTestPeer {
  static std::vector<double>& loads(DynamicCluster& cluster) {
    return cluster.loads_;
  }
  static gap::Assignment& assignment(DynamicCluster& cluster) {
    return cluster.assignment_;
  }
  static std::vector<std::size_t>& free_slots(DynamicCluster& cluster) {
    return cluster.free_slots_;
  }
  static std::size_t pending_dirty(const DynamicCluster& cluster) {
    return cluster.engine_.dirty_count();
  }
  /// Moves the stored objective sum of the key `slot` reads through by
  /// `delta` fixed-point units; with `keep_total` the running total moves
  /// along, so the bookkeeping still adds up and only the recount from the
  /// served rows can tell.
  static void shift_key_sum(DynamicCluster& cluster, std::size_t slot,
                            std::int64_t delta, bool keep_total) {
    cluster.key_terms_[cluster.oracle_.row_key_slot(slot)].sum += delta;
    if (keep_total) cluster.objective_.sum += delta;
  }
};

}  // namespace tacc

namespace tacc::service {

/// Friend of service::Engine: corrupts shard 0's accounting under that
/// shard's mutex (released before the validator re-takes it).
struct ServiceEngineTestPeer {
  static void bump_accepted(Engine& engine) {
    Engine::Shard& shard = *engine.shards_.front();
    const MutexLock lock(&shard.mutex);
    ++shard.counters.accepted;
  }
};

}  // namespace tacc::service

namespace tacc {
namespace {

using contracts::ContractViolation;
using contracts::ScopedFailureHandler;

/// Every test runs with the throwing handler so a violation is an
/// assertable exception instead of a process abort.
class InvariantsTest : public testing::Test {
 protected:
  ScopedFailureHandler guard_{&contracts::throw_handler};
};

topo::EdgeProps props(double latency_ms) {
  topo::EdgeProps p;
  p.latency_ms = latency_ms;
  return p;
}

// ---- topo::Graph -----------------------------------------------------------

topo::Graph make_ring(std::size_t nodes = 6) {
  topo::Graph graph(nodes);
  for (topo::NodeId u = 0; u < nodes; ++u) {
    graph.add_edge(u, static_cast<topo::NodeId>((u + 1) % nodes),
                   props(1.0 + u));
  }
  return graph;
}

TEST_F(InvariantsTest, GraphHealthyStatePasses) {
  topo::Graph graph = make_ring();
  EXPECT_NO_THROW(graph.check_invariants());
  ASSERT_TRUE(graph.remove_edge(3, 4));
  graph.add_edge(4, 3, props(2.0));
  graph.add_edge(0, 3, props(2.0));  // a chord
  EXPECT_NO_THROW(graph.check_invariants());
}

TEST_F(InvariantsTest, GraphCatchesAsymmetricAdjacency) {
  topo::Graph graph = make_ring();
  // Drop one directional mirror entry: 0->1 survives, 1->0 vanishes.
  auto& adjacency = topo::GraphTestPeer::adjacency(graph);
  auto& row = adjacency[1];
  row.erase(row.begin());
  EXPECT_THROW(graph.check_invariants(), ContractViolation);
}

TEST_F(InvariantsTest, GraphCatchesEdgeCountDrift) {
  topo::Graph graph = make_ring();
  ++topo::GraphTestPeer::edges(graph);
  EXPECT_THROW(graph.check_invariants(), ContractViolation);
}

/// check_invariants() must report a violation naming `what`.
template <typename Checked>
void expect_violation(const Checked& checked, const std::string& what) {
  try {
    checked.check_invariants();
    ADD_FAILURE() << "no violation reported; wanted: " << what;
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find(what), std::string::npos)
        << violation.what();
  }
}

// ---- topo::NetworkTopology -------------------------------------------------


topo::NetworkTopology make_net(std::uint64_t seed, std::size_t routers = 25,
                               std::size_t devices = 10,
                               std::size_t servers = 3) {
  util::Rng rng(seed);
  topo::GeneratorParams params;
  params.node_count = routers;
  const topo::GeoGraph infra =
      topo::generate(topo::TopologyFamily::kWaxman, params, rng);
  std::vector<topo::Point2D> iot(devices);
  std::vector<topo::Point2D> edges(servers);
  for (auto& p : iot) {
    p = {rng.uniform(0.0, params.area_km), rng.uniform(0.0, params.area_km)};
  }
  for (auto& p : edges) {
    p = {rng.uniform(0.0, params.area_km), rng.uniform(0.0, params.area_km)};
  }
  return topo::build_network(infra, iot, edges);
}

TEST_F(InvariantsTest, NetworkHealthyStatePasses) {
  topo::NetworkTopology net = make_net(11);
  EXPECT_NO_THROW(net.check_invariants());
  const auto live = topo::backbone_links(net);
  ASSERT_FALSE(live.empty());
  net.fail_link(live[0].first, live[0].second);
  EXPECT_NO_THROW(net.check_invariants());
  net.restore_link(live[0].first, live[0].second);
  EXPECT_NO_THROW(net.check_invariants());
}

TEST_F(InvariantsTest, NetworkCatchesDeviceAnchoredOffTheRouters) {
  topo::NetworkTopology net = make_net(13);
  // A device hanging off an edge server: it would read a server's delays
  // as if the server relayed.
  net.hosts.anchor[0] = net.edge_nodes[0];
  expect_violation(net, "device anchored off the routers");
}

TEST_F(InvariantsTest, NetworkCatchesFailedLinkStillLive) {
  topo::NetworkTopology net = make_net(12);
  const auto live = topo::backbone_links(net);
  ASSERT_FALSE(live.empty());
  // Record a link as failed without removing its edge: restore_link() would
  // now double the edge.
  topo::FailedLink bogus;
  bogus.u = live[0].first;
  bogus.v = live[0].second;
  bogus.props = *net.graph.edge_props(bogus.u, bogus.v);
  net.failed_links.push_back(bogus);
  EXPECT_THROW(net.check_invariants(), ContractViolation);
}

// ---- topo::incr::IncrementalDelayEngine ------------------------------------

TEST_F(InvariantsTest, EngineHealthyChurnPasses) {
  topo::NetworkTopology net = make_net(21);
  topo::incr::IncrementalDelayEngine engine(net);
  EXPECT_NO_THROW(engine.check_invariants(net.edge_count()));
  const auto live = topo::backbone_links(net);
  ASSERT_GE(live.size(), 2u);
  engine.fail_link(live[0].first, live[0].second);
  engine.set_link_latency(live[1].first, live[1].second, 9.0);
  // Spot-check every tree against a from-scratch Dijkstra.
  EXPECT_NO_THROW(engine.check_invariants(net.edge_count()));
}

TEST_F(InvariantsTest, EngineCatchesOutOfBandTopologyEdit) {
  topo::NetworkTopology net = make_net(22);
  topo::incr::IncrementalDelayEngine engine(net);
  // Mutate the graph directly, bypassing the engine: the trees now disagree
  // with a fresh Dijkstra on the live graph. Reweight server 0's access
  // link, the first hop of its tree, so that tree's distance to its access
  // router moves. (A device holds no tree state: it is a host-table slot.)
  const topo::NodeId server = net.edge_nodes[0];
  const auto neighbors = net.graph.neighbors(server);
  ASSERT_FALSE(neighbors.empty());
  const topo::NodeId router = neighbors[0].to;
  const double old_ms = neighbors[0].props.latency_ms;
  ASSERT_TRUE(net.graph.set_edge_latency(server, router, old_ms + 5.0));
  EXPECT_THROW(engine.check_invariants(net.edge_count()), ContractViolation);
  // rebuild() is the documented recovery hatch for out-of-band edits.
  engine.rebuild();
  EXPECT_NO_THROW(engine.check_invariants(net.edge_count()));
}

// ---- topo::oracle::DelayOracle's row cache -------------------------------------

TEST_F(InvariantsTest, CacheHealthyRefreshCyclePasses) {
  topo::NetworkTopology net = make_net(31);
  topo::incr::IncrementalDelayEngine engine(net);
  topo::oracle::DelayOracle cache(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) cache.bind_row(i);
  EXPECT_NO_THROW(cache.check_invariants());
  const auto live = topo::backbone_links(net);
  ASSERT_FALSE(live.empty());
  engine.fail_link(live[0].first, live[0].second);
  // Stale rows are excused while their nodes sit in the dirty set…
  EXPECT_NO_THROW(cache.check_invariants());
  cache.refresh();
  // …and current again after the refresh.
  EXPECT_NO_THROW(cache.check_invariants());
}

TEST_F(InvariantsTest, CacheCatchesUnexcusedStaleRow) {
  topo::NetworkTopology net = make_net(32);
  topo::incr::IncrementalDelayEngine engine(net);
  topo::oracle::DelayOracle cache(engine);
  cache.bind_row(0);
  // Re-attach device 0 through the engine with a slower access link and
  // forget to rebind its row: the device reads a new latency, and no key
  // moved, so nothing is pending and the cache serves stale delays it
  // believes are current.
  const topo::NodeId anchor = net.hosts.anchor[0];
  topo::EdgeProps access = net.hosts.access[0];
  access.latency_ms *= 3.0;
  engine.detach_host(0);
  engine.attach_host(0, anchor, access, net.iot_position(0));
  EXPECT_EQ(engine.dirty_count(), 0u);
  EXPECT_THROW(cache.check_invariants(), ContractViolation);
  // The owner of the attachment rebinds the row, and it is current again.
  cache.bind_row(0);
  EXPECT_NO_THROW(cache.check_invariants());
}

TEST_F(InvariantsTest, CacheCatchesEpochFromTheFuture) {
  topo::NetworkTopology net = make_net(33);
  topo::incr::IncrementalDelayEngine engine(net);
  topo::oracle::DelayOracle cache(engine);
  cache.bind_row(0);
  // A row stamped past the engine epoch claims to have seen a mutation that
  // never happened.
  topo::oracle::DelayOracleTestPeer::row_epochs(cache)[0] = engine.epoch() + 1;
  EXPECT_THROW(cache.check_invariants(), ContractViolation);
}

// ---- DynamicCluster --------------------------------------------------------

AlgorithmOptions cheap_options(std::uint64_t seed) {
  AlgorithmOptions options;
  options.apply_seed(seed);
  options.rl.episodes = 60;
  return options;
}

DynamicCluster make_cluster(std::uint64_t seed, std::size_t iot = 40,
                            std::size_t edge = 5) {
  const Scenario scenario = Scenario::campus(iot, edge, seed);
  return DynamicCluster(scenario, Algorithm::kGreedyBestFit,
                        cheap_options(seed));
}

workload::IotDevice test_device(double x, double y, double rate = 10.0) {
  workload::IotDevice device;
  device.position = {x, y};
  device.request_rate_hz = rate;
  device.demand = rate;
  return device;
}

TEST_F(InvariantsTest, ClusterHealthyLifecyclePasses) {
  DynamicCluster cluster = make_cluster(41);
  DynamicCluster::InvariantOptions strict;
  strict.require_feasible = true;
  strict.forbid_failed_residents = true;
  strict.delay_spot_checks = cluster.server_count();
  EXPECT_NO_THROW(cluster.check_invariants(strict));
  const std::size_t index = cluster.join(test_device(1.0, 1.0)).device_index;
  cluster.move(index, {3.0, 2.0});
  cluster.rebalance(4);
  EXPECT_NO_THROW(cluster.check_invariants(strict));
  cluster.leave(index);
  EXPECT_NO_THROW(cluster.check_invariants(strict));
}

TEST_F(InvariantsTest, ClusterCatchesLoadAccountingDrift) {
  DynamicCluster cluster = make_cluster(42);
  DynamicClusterTestPeer::loads(cluster)[0] += 1.0;
  EXPECT_THROW(cluster.check_invariants(), ContractViolation);
}

TEST_F(InvariantsTest, ClusterCatchesDanglingAssignment) {
  DynamicCluster cluster = make_cluster(43);
  // Device 0 assigned to a server index that does not exist.
  DynamicClusterTestPeer::assignment(cluster)[0] =
      static_cast<std::int32_t>(cluster.server_count());
  EXPECT_THROW(cluster.check_invariants(), ContractViolation);
}

TEST_F(InvariantsTest, ClusterCatchesFreeSlotDoubleBooking) {
  DynamicCluster cluster = make_cluster(44);
  // An ACTIVE slot parked on the free list: the next join would hijack a
  // served device's slot.
  DynamicClusterTestPeer::free_slots(cluster).push_back(0);
  EXPECT_THROW(cluster.check_invariants(), ContractViolation);
}

TEST_F(InvariantsTest, ClusterCatchesObjectiveDrift) {
  // A term the running sum does not reflect: avg_delay_ms() would drift
  // from the served delays.
  DynamicCluster drifted = make_cluster(47);
  DynamicClusterTestPeer::shift_key_sum(drifted, 0, 1, false);
  EXPECT_THROW(drifted.check_invariants(), ContractViolation);
  // A key sum and total that agree with each other but not with the rows
  // the oracle serves: only the independent recount catches it.
  DynamicCluster consistent = make_cluster(47);
  EXPECT_NO_THROW(consistent.check_invariants());
  DynamicClusterTestPeer::shift_key_sum(consistent, 0, 1, true);
  EXPECT_THROW(consistent.check_invariants(), ContractViolation);
}

// A device's own links move no key: a move rebinds the device's row
// itself and leaves the engine's dirty set empty, so the next link update
// refreshes only what it moves.
TEST_F(InvariantsTest, DeviceChurnLeavesNoDirtyKeyPending) {
  DynamicCluster cluster = make_cluster(49);
  util::Rng rng(49);
  for (std::size_t move = 0; move < 200; ++move) {
    const std::size_t device = rng.index(cluster.device_slot_count());
    cluster.move(device, {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)});
    ASSERT_EQ(DynamicClusterTestPeer::pending_dirty(cluster), 0u);
  }
  EXPECT_NO_THROW(cluster.check_invariants());
}

TEST_F(InvariantsTest, ClusterFlagsDeferredDrainOnlyWhenAsked) {
  DynamicCluster cluster = make_cluster(45);
  const std::size_t failed = cluster.server_of(0);
  cluster.fail_server(failed, /*evacuate=*/false);
  // Residents parked on a failed server are a documented relaxation…
  EXPECT_NO_THROW(cluster.check_invariants());
  // …until the caller asserts the drain has happened.
  DynamicCluster::InvariantOptions strict;
  strict.forbid_failed_residents = true;
  EXPECT_THROW(cluster.check_invariants(strict), ContractViolation);
  cluster.evacuate_server(failed);
  EXPECT_NO_THROW(cluster.check_invariants(strict));
}

TEST_F(InvariantsTest, ClusterFlagsOverloadOnlyWhenAsked) {
  DynamicCluster cluster = make_cluster(46);
  const JoinResult joined = cluster.join(test_device(2.0, 2.0, 1e6));
  ASSERT_TRUE(joined.overload_fallback);
  // The overload fallback is a documented relaxation of capacity…
  EXPECT_NO_THROW(cluster.check_invariants());
  // …but a caller expecting feasibility must be told.
  DynamicCluster::InvariantOptions strict;
  strict.require_feasible = true;
  EXPECT_THROW(cluster.check_invariants(strict), ContractViolation);
  cluster.leave(joined.device_index);
  EXPECT_NO_THROW(cluster.check_invariants(strict));
}

// ---- service::Engine -------------------------------------------------------

TEST_F(InvariantsTest, ServiceEngineHealthyStatePasses) {
  service::Engine engine;
  EXPECT_NO_THROW(engine.check_invariants());
}

TEST_F(InvariantsTest, ServiceEngineCatchesAccountingDrift) {
  service::Engine engine;
  // An accepted request that is neither completed, failed, expired, nor in
  // flight: a response was dropped somewhere.
  service::ServiceEngineTestPeer::bump_accepted(engine);
  EXPECT_THROW(engine.check_invariants(), ContractViolation);
}

}  // namespace
}  // namespace tacc
