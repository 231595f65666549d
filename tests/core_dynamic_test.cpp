#include "core/dynamic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tests/host_graph.hpp"
#include "tests/reference_dijkstra.hpp"
#include "topology/failures.hpp"
#include "topology/oracle/config.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc {
namespace {

AlgorithmOptions cheap_options(std::uint64_t seed) {
  AlgorithmOptions options;
  options.apply_seed(seed);
  options.rl.episodes = 60;
  return options;
}

DynamicCluster make_cluster(std::uint64_t seed,
                            std::size_t iot = 60,
                            std::size_t edge = 6) {
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

TEST(DynamicCluster, StartsFromInitialConfiguration) {
  DynamicCluster cluster = make_cluster(1);
  EXPECT_EQ(cluster.active_count(), 60u);
  EXPECT_EQ(cluster.server_count(), 6u);
  EXPECT_TRUE(cluster.feasible());
  EXPECT_GT(cluster.avg_delay_ms(), 0.0);
}

TEST(DynamicCluster, JoinAddsActiveDevice) {
  DynamicCluster cluster = make_cluster(2);
  const JoinResult joined = cluster.join(test_device(1.0, 1.0));
  EXPECT_EQ(joined.device_index, 60u);
  EXPECT_EQ(joined.server, cluster.server_of(joined.device_index));
  EXPECT_EQ(cluster.active_count(), 61u);
  EXPECT_TRUE(cluster.is_active(joined.device_index));
  EXPECT_LT(cluster.server_of(joined.device_index), cluster.server_count());
}

TEST(DynamicCluster, JoinPrefersFeasibleCheapServer) {
  DynamicCluster cluster = make_cluster(3);
  const JoinResult joined = cluster.join(test_device(2.0, 2.0, 1.0));
  // With tiny demand, the chosen server must be feasible.
  EXPECT_TRUE(joined.feasible);
  EXPECT_FALSE(joined.overload_fallback);
  EXPECT_TRUE(cluster.feasible());
  EXPECT_TRUE(cluster.is_active(joined.device_index));
}

TEST(DynamicCluster, JoinReportsOverloadFallback) {
  DynamicCluster cluster = make_cluster(3);
  // A device far beyond any server's remaining capacity cannot be placed
  // feasibly; the report must say so instead of silently overloading.
  const JoinResult joined = cluster.join(test_device(2.0, 2.0, 1e6));
  EXPECT_FALSE(joined.feasible);
  EXPECT_TRUE(joined.overload_fallback);
  EXPECT_FALSE(cluster.feasible());
  EXPECT_FALSE(cluster.server_failed(joined.server));
}

TEST(DynamicCluster, LeaveFreesLoad) {
  DynamicCluster cluster = make_cluster(4);
  const std::size_t index = cluster.join(test_device(1.0, 3.0)).device_index;
  const double util_with = cluster.max_utilization();
  cluster.leave(index);
  EXPECT_EQ(cluster.active_count(), 60u);
  EXPECT_FALSE(cluster.is_active(index));
  EXPECT_LE(cluster.max_utilization(), util_with + 1e-9);
}

TEST(DynamicCluster, DoubleLeaveThrows) {
  DynamicCluster cluster = make_cluster(5);
  const std::size_t index = cluster.join(test_device(0.5, 0.5)).device_index;
  cluster.leave(index);
  EXPECT_THROW(cluster.leave(index), std::invalid_argument);
  EXPECT_THROW(cluster.leave(9999), std::invalid_argument);
  EXPECT_THROW((void)cluster.server_of(index), std::invalid_argument);
}

// A device's place in the network is its host-table slot: leave detaches
// it and the next join reuses it, and the router graph never changes.
TEST(DynamicCluster, LeaveRecyclesSlotAndGraphNode) {
  DynamicCluster cluster = make_cluster(5);
  const topo::HostTable& hosts = cluster.network().hosts;
  const std::size_t slots = cluster.device_slot_count();
  const std::size_t nodes = cluster.network().graph.node_count();
  const std::size_t index = cluster.join(test_device(0.5, 0.5)).device_index;
  EXPECT_EQ(cluster.device_slot_count(), slots + 1);
  EXPECT_EQ(hosts.size(), slots + 1);
  cluster.leave(index);
  EXPECT_EQ(cluster.free_slot_count(), 1u);
  EXPECT_FALSE(hosts.attached(index));
  // The next join reuses the departed slot: no growth.
  const JoinResult joined = cluster.join(test_device(3.0, 3.0));
  EXPECT_EQ(joined.device_index, index);
  EXPECT_TRUE(hosts.attached(index));
  EXPECT_EQ(cluster.device_slot_count(), slots + 1);
  EXPECT_EQ(hosts.size(), slots + 1);
  EXPECT_EQ(cluster.free_slot_count(), 0u);
  EXPECT_EQ(cluster.network().graph.node_count(), nodes);
}

TEST(DynamicCluster, ChurnLeakRegression) {
  // N join/leave/move cycles must leave slot, row, and host-table storage
  // exactly at baseline — an early implementation leaked one node + access
  // edge + delay row per move.
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster cluster = make_cluster(6);
  util::Rng rng(99);
  const std::size_t slots = cluster.device_slot_count();
  const std::size_t nodes = cluster.network().graph.node_count();
  for (int cycle = 0; cycle < 50; ++cycle) {
    const std::size_t index =
        cluster
            .join(test_device(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)))
            .device_index;
    for (int m = 0; m < 4; ++m) {
      const JoinResult moved = cluster.move(
          index, {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)});
      EXPECT_EQ(moved.device_index, index);  // indices are stable
    }
    cluster.leave(index);
    EXPECT_EQ(cluster.device_slot_count(), slots + 1);
    EXPECT_EQ(cluster.network().hosts.size(), slots + 1);
    EXPECT_FALSE(cluster.network().hosts.attached(index));
    EXPECT_EQ(cluster.network().graph.node_count(), nodes);
    if (cycle % 10 == 0) cluster.check_invariants();
  }
  EXPECT_EQ(cluster.free_slot_count(), 1u);
  EXPECT_EQ(cluster.active_count(), 60u);
  cluster.check_invariants();
}

TEST(DynamicCluster, RebalanceNeverIncreasesAvgDelay) {
  DynamicCluster cluster = make_cluster(6);
  util::Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    cluster.join(test_device(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
                             rng.uniform(2.0, 15.0)));
  }
  const double before = cluster.avg_delay_ms();
  const std::size_t moves = cluster.rebalance(100);
  EXPECT_LE(cluster.avg_delay_ms(), before + 1e-9);
  EXPECT_LE(moves, 100u);
}

TEST(DynamicCluster, RebalanceBudgetRespected) {
  DynamicCluster cluster = make_cluster(7);
  util::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    cluster.join(test_device(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)));
  }
  EXPECT_LE(cluster.rebalance(3), 3u);

  // More improving moves than the budget: the residents server 0 lost
  // while it was down all want to move back once it recovers. A budget of
  // 3 must make exactly 3 moves, of 3 distinct devices.
  DynamicCluster unbounded = make_cluster(6);
  DynamicCluster budgeted = make_cluster(6);
  for (DynamicCluster* displaced : {&unbounded, &budgeted}) {
    (void)displaced->fail_server(0);
    displaced->recover_server(0);
  }
  ASSERT_GT(unbounded.rebalance(1000), 3u);
  std::vector<std::size_t> before;
  for (std::size_t i = 0; i < budgeted.device_slot_count(); ++i) {
    before.push_back(budgeted.server_of(i));
  }
  EXPECT_EQ(budgeted.rebalance(3), 3u);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (budgeted.server_of(i) != before[i]) ++moved;
  }
  EXPECT_EQ(moved, 3u);
}

TEST(DynamicCluster, ChurnStormStaysFeasible) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster cluster = make_cluster(8);
  util::Rng rng(8);
  std::vector<std::size_t> joined;
  for (int event = 0; event < 200; ++event) {
    if (joined.empty() || rng.bernoulli(0.6)) {
      joined.push_back(cluster
                           .join(test_device(rng.uniform(0.0, 4.0),
                                             rng.uniform(0.0, 4.0),
                                             rng.uniform(1.0, 8.0)))
                           .device_index);
    } else {
      const std::size_t pick = rng.index(joined.size());
      cluster.leave(joined[pick]);
      joined[pick] = joined.back();
      joined.pop_back();
    }
  }
  // Moderate load base + small joiners: the incremental policy must keep
  // the cluster feasible throughout.
  EXPECT_TRUE(cluster.feasible());
  EXPECT_EQ(cluster.active_count(), 60u + joined.size());
  DynamicCluster::InvariantOptions strict;
  strict.require_feasible = true;
  strict.forbid_failed_residents = true;
  cluster.check_invariants(strict);
}

// A non-finite demand or a position with no finite router distance is
// rejected before any state changes. join() used to attach the device first:
// the placement then threw and left the slot attached, unassigned and off
// the free list; a far-off position was placed at infinite delay.
TEST(DynamicCluster, RejectsNonFiniteDeviceBeforeTouchingState) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster cluster(Scenario::smart_city(50, 4, 3),
                         Algorithm::kGreedyBestFit, cheap_options(3));
  // One departed slot on the free list, so join's recycling path is covered.
  cluster.leave(cluster.join(test_device(1.0, 1.0)).device_index);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t active = cluster.active_count();
  const std::size_t slots = cluster.device_slot_count();
  const std::size_t free_slots = cluster.free_slot_count();
  const std::size_t host_slots = cluster.network().hosts.size();
  const double avg_delay = cluster.avg_delay_ms();
  const std::size_t server = cluster.server_of(0);
  const auto expect_unchanged = [&](const char* call) {
    SCOPED_TRACE(call);
    EXPECT_EQ(cluster.active_count(), active);
    EXPECT_EQ(cluster.device_slot_count(), slots);
    EXPECT_EQ(cluster.free_slot_count(), free_slots);
    EXPECT_EQ(cluster.network().hosts.size(), host_slots);
    EXPECT_EQ(cluster.avg_delay_ms(), avg_delay);
    EXPECT_EQ(cluster.server_of(0), server);
    EXPECT_NO_THROW(cluster.check_invariants());
  };

  workload::IotDevice infinite_demand = test_device(1.0, 1.0);
  infinite_demand.demand = inf;
  EXPECT_THROW(cluster.join(infinite_demand), std::invalid_argument);
  expect_unchanged("join demand=inf");
  workload::IotDevice nan_demand = test_device(1.0, 1.0);
  nan_demand.demand = nan;
  EXPECT_THROW(cluster.join(nan_demand), std::invalid_argument);
  expect_unchanged("join demand=nan");
  EXPECT_THROW(cluster.join(test_device(1e308, 1e308)), std::invalid_argument);
  expect_unchanged("join at 1e308");
  EXPECT_THROW(cluster.join(test_device(nan, 1.0)), std::invalid_argument);
  expect_unchanged("join at nan");
  EXPECT_THROW(cluster.move(0, {1e308, 1e308}), std::invalid_argument);
  expect_unchanged("move to 1e308");
  EXPECT_THROW(cluster.move_pinned(0, {-1e308, 1e308}),
               std::invalid_argument);
  expect_unchanged("move_pinned to -1e308");
  EXPECT_THROW(cluster.move(0, {1.0, inf}), std::invalid_argument);
  expect_unchanged("move to inf");
}

TEST(DynamicClusterLinks, FailRestoreRoundTripRestoresDelaysExactly) {
  DynamicCluster cluster = make_cluster(10);
  const double baseline = cluster.avg_delay_ms();
  const std::uint64_t fp0 = cluster.delay_oracle().fingerprint();
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());

  util::Rng rng(10);
  const auto failable =
      topo::sample_failable_links(cluster.network(), 0.2, rng);
  ASSERT_FALSE(failable.empty());
  std::uint64_t epoch = cluster.delay_epoch();
  for (const auto& [u, v] : failable) {
    const LinkUpdateReport report = cluster.fail_link(u, v);
    EXPECT_GT(report.epoch, epoch);
    epoch = report.epoch;
    EXPECT_GT(report.latency_ms, 0.0);
  }
  EXPECT_EQ(cluster.link_stats().link_updates, failable.size());
  for (auto it = failable.rbegin(); it != failable.rend(); ++it) {
    cluster.restore_link(it->first, it->second);
  }
  // Delays return to their exact pre-failure values (bit-identical)…
  EXPECT_EQ(cluster.avg_delay_ms(), baseline);
  // …but the fingerprint still records that the topology churned.
  EXPECT_NE(cluster.delay_oracle().fingerprint(), fp0);
  EXPECT_EQ(cluster.link_stats().link_updates, 2 * failable.size());
}

TEST(DynamicClusterLinks, SetLinkLatencyReportsPreviousAndMovesDelays) {
  DynamicCluster cluster = make_cluster(11);
  const double baseline = cluster.avg_delay_ms();
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());

  std::vector<double> original(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto* props =
        cluster.network().graph.edge_props(links[i].first, links[i].second);
    ASSERT_NE(props, nullptr);
    original[i] = props->latency_ms;
    const LinkUpdateReport report = cluster.set_link_latency(
        links[i].first, links[i].second, original[i] * 10.0);
    EXPECT_DOUBLE_EQ(report.latency_ms, original[i]);
  }
  // Every backbone link 10x slower: the mean delay must strictly rise.
  EXPECT_GT(cluster.avg_delay_ms(), baseline);
  for (std::size_t i = 0; i < links.size(); ++i) {
    cluster.set_link_latency(links[i].first, links[i].second, original[i]);
  }
  EXPECT_EQ(cluster.avg_delay_ms(), baseline);
}

TEST(DynamicClusterLinks, LinkVerbsRequireRouterEndpoints) {
  DynamicCluster cluster = make_cluster(12);
  // Devices take no graph node: the ids past the graph name none.
  const auto device =
      static_cast<topo::NodeId>(cluster.network().graph.node_count());
  const topo::NodeId server = cluster.network().edge_nodes.front();
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());
  const auto [u, v] = links.front();

  EXPECT_THROW(cluster.fail_link(device, v), std::invalid_argument);
  EXPECT_THROW(cluster.fail_link(u, server), std::invalid_argument);
  EXPECT_THROW(cluster.set_link_latency(device, server, 1.0),
               std::invalid_argument);
  // Restoring a link that is not failed (or failing one twice) throws too.
  EXPECT_THROW(cluster.restore_link(u, v), std::invalid_argument);
  cluster.fail_link(u, v);
  EXPECT_THROW(cluster.fail_link(u, v), std::invalid_argument);
  cluster.restore_link(u, v);
}

TEST(DynamicClusterLinks, StatsCountSavingsAndRefreshes) {
  DynamicCluster cluster = make_cluster(13);
  const auto links = topo::backbone_links(cluster.network());
  ASSERT_FALSE(links.empty());
  const auto [u, v] = links.front();

  const LinkUpdateReport failed = cluster.fail_link(u, v);
  const LinkUpdateReport restored = cluster.restore_link(u, v);
  // Incrementality: each update must leave some tree nodes untouched
  // relative to a full recompute.
  EXPECT_GT(failed.nodes_saved + restored.nodes_saved, 0u);
  // Every bound row is either refreshed or saved on each of the 2 updates.
  const topo::oracle::DelayOracle& oracle = cluster.delay_oracle();
  EXPECT_EQ(oracle.rows_saved() + oracle.rows_refreshed(),
            2 * cluster.device_slot_count());
  EXPECT_EQ(oracle.rows_refreshed(),
            failed.rows_refreshed + restored.rows_refreshed);
  EXPECT_EQ(cluster.link_stats().nodes_affected,
            failed.nodes_affected + restored.nodes_affected);
}

// ---- The objective: avg_delay_ms() against an independent scan ------------

/// The mean served delay, summed here in slot order from the oracle: the
/// reference avg_delay_ms() must agree with.
double scanned_avg_delay(const DynamicCluster& cluster) {
  if (cluster.active_count() == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < cluster.device_slot_count(); ++i) {
    if (!cluster.is_active(i)) continue;
    sum += cluster.delay_oracle().delay_ms(i, cluster.server_of(i));
  }
  return sum / static_cast<double>(cluster.active_count());
}

std::string six_digits(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

/// avg_delay_ms() agrees with the scan within 1e-12 relative and prints the
/// same at %.6g (the precision STATS and link replies carry), and the
/// cluster's invariants hold.
void expect_objective(const DynamicCluster& cluster, const std::string& what) {
  SCOPED_TRACE(what);
  const double scanned = scanned_avg_delay(cluster);
  const double served = cluster.avg_delay_ms();
  if (std::isinf(scanned)) {
    EXPECT_EQ(served, scanned);
  } else {
    EXPECT_LE(std::fabs(served - scanned), 1e-12 * std::fabs(scanned))
        << "served " << served << ", scanned " << scanned;
  }
  EXPECT_EQ(six_digits(served), six_digits(scanned));
  EXPECT_NO_THROW(cluster.check_invariants());
}

class DynamicClusterObjective : public ::testing::TestWithParam<const char*> {
 protected:
  DynamicClusterObjective() {
    // The parameter is the CONFIGURE oracle= spec; "exact" is the only one.
    ConfigureRequest request(Algorithm::kGreedyBestFit, cheap_options(21));
    request.oracle = topo::oracle::parse_oracle_spec(GetParam());
    cluster_ = std::make_unique<DynamicCluster>(Scenario::campus(60, 6, 21),
                                                request);
  }

  /// A device whose assigned server hangs off another router than its own,
  /// and that router: cutting every backbone link at the router strands
  /// the device away from its server.
  [[nodiscard]] std::pair<std::size_t, topo::NodeId> stranded_candidate()
      const {
    const topo::NetworkTopology& net = cluster_->network();
    for (std::size_t i = 0; i < cluster_->device_slot_count(); ++i) {
      if (!cluster_->is_active(i)) continue;
      const topo::NodeId router = net.hosts.anchor[i];
      const topo::NodeId server = net.edge_nodes[cluster_->server_of(i)];
      bool adjacent = false;
      for (const topo::Adjacency& link : net.graph.neighbors(server)) {
        adjacent = adjacent || link.to == router;
      }
      if (!adjacent) return {i, router};
    }
    return {0, topo::kInvalidNode};
  }

  /// The backbone links touching `router`.
  [[nodiscard]] std::vector<topo::LinkEndpoints> links_at(
      topo::NodeId router) const {
    std::vector<topo::LinkEndpoints> links;
    for (const auto& link : topo::backbone_links(cluster_->network())) {
      if (link.first == router || link.second == router) links.push_back(link);
    }
    return links;
  }

  std::unique_ptr<DynamicCluster> cluster_;
};

TEST_P(DynamicClusterObjective, AssignmentChangesKeepTheObjectiveExact) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster& cluster = *cluster_;
  expect_objective(cluster, "initial");

  const std::size_t a = cluster.join(test_device(1.0, 1.0)).device_index;
  const std::size_t b = cluster.join(test_device(6.0, 2.0)).device_index;
  expect_objective(cluster, "join");
  cluster.leave(a);
  expect_objective(cluster, "leave");
  EXPECT_EQ(cluster.join(test_device(3.0, 7.0)).device_index, a);
  expect_objective(cluster, "join on a recycled slot");

  cluster.move(b, {8.0, 8.0});
  expect_objective(cluster, "move");
  cluster.move_pinned(3, {0.5, 9.0});
  expect_objective(cluster, "move_pinned");

  // Deferred drain: a pinned handover off a failed server, then the drain.
  const std::size_t failed = cluster.server_of(5);
  cluster.fail_server(failed, /*evacuate=*/false);
  expect_objective(cluster, "fail_server without evacuation");
  const JoinResult pinned = cluster.move_pinned(5, {2.0, 2.0});
  EXPECT_NE(pinned.server, failed);
  expect_objective(cluster, "move_pinned off a failed server");
  cluster.evacuate_server(failed);
  expect_objective(cluster, "evacuate_server");
  cluster.recover_server(failed);
  cluster.fail_server(cluster.server_of(7));
  expect_objective(cluster, "fail_server with evacuation");

  cluster.rebalance(16);
  expect_objective(cluster, "rebalance");

  // Overload, then repair it.
  const JoinResult heavy = cluster.join(test_device(4.0, 4.0, 400.0));
  EXPECT_TRUE(heavy.overload_fallback);
  expect_objective(cluster, "overloaded join");
  EXPECT_GT(cluster.repair(16), 0u);
  expect_objective(cluster, "repair");
  cluster.leave(heavy.device_index);

  // One accepted move and one stale one.
  std::size_t to = cluster.server_count();
  for (std::size_t j = 0; j < cluster.server_count(); ++j) {
    if (j != cluster.server_of(9) && !cluster.server_failed(j) &&
        cluster.loads()[j] + cluster.device(9).demand <=
            cluster.capacities()[j]) {
      to = j;
    }
  }
  ASSERT_LT(to, cluster.server_count());
  MovePlan plan;
  plan.moves.push_back({9, cluster.slot_generation(9), cluster.server_of(9),
                        to, 0.0});
  plan.moves.push_back({11, cluster.slot_generation(11) + 1,
                        cluster.server_of(11), to, 0.0});
  const MovePlanReport report = cluster.apply_move_plan(plan);
  EXPECT_EQ(report.applied, 1u);
  EXPECT_EQ(report.rejected_stale, 1u);
  expect_objective(cluster, "apply_move_plan");
}

TEST_P(DynamicClusterObjective, LinkChangesKeepTheObjectiveExact) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster& cluster = *cluster_;
  const double baseline = cluster.avg_delay_ms();

  util::Rng rng(21);
  const auto failable =
      topo::sample_failable_links(cluster.network(), 0.3, rng);
  ASSERT_FALSE(failable.empty());
  for (const auto& [u, v] : failable) {
    cluster.fail_link(u, v);
    expect_objective(cluster, "fail_link");
  }
  for (auto it = failable.rbegin(); it != failable.rend(); ++it) {
    cluster.restore_link(it->first, it->second);
    expect_objective(cluster, "restore_link");
  }
  EXPECT_EQ(cluster.avg_delay_ms(), baseline) << "fail/restore round trip";

  const auto links = topo::backbone_links(cluster.network());
  const auto [u, v] = links.front();
  const double latency = cluster.network().graph.edge_props(u, v)->latency_ms;
  cluster.set_link_latency(u, v, latency * 10.0);
  expect_objective(cluster, "set_link_latency");
  cluster.set_link_latency(u, v, latency);
  expect_objective(cluster, "set_link_latency reset");
  EXPECT_EQ(cluster.avg_delay_ms(), baseline) << "set/reset round trip";

  // Cut a router off the backbone: a device there loses its server.
  const auto [device, router] = stranded_candidate();
  ASSERT_NE(router, topo::kInvalidNode);
  const auto cut = links_at(router);
  ASSERT_FALSE(cut.empty());
  for (const auto& [x, y] : cut) cluster.fail_link(x, y);
  expect_objective(cluster, "router cut off");
  EXPECT_TRUE(std::isinf(cluster.avg_delay_ms()));
  for (const auto& [x, y] : cut) cluster.restore_link(x, y);
  expect_objective(cluster, "router restored");
  EXPECT_EQ(cluster.avg_delay_ms(), baseline) << "unreachable round trip";

  // Hostile latencies: the stranded device's paths run over 1e300 ms.
  std::vector<double> before;
  for (const auto& [x, y] : cut) {
    before.push_back(cluster.set_link_latency(x, y, 1e300).latency_ms);
  }
  expect_objective(cluster, "1e300 ms links");
  EXPECT_GE(cluster.delay_oracle().delay_ms(device, cluster.server_of(device)),
            1e300);
  for (std::size_t k = 0; k < cut.size(); ++k) {
    cluster.set_link_latency(cut[k].first, cut[k].second, before[k]);
  }
  expect_objective(cluster, "1e300 ms links reset");
  EXPECT_EQ(cluster.avg_delay_ms(), baseline) << "1e300 round trip";
}

INSTANTIATE_TEST_SUITE_P(
    Oracles, DynamicClusterObjective, ::testing::Values("exact"),
    [](const ::testing::TestParamInfo<const char*>& spec) {
      return std::string(spec.param);
    });

TEST(DynamicCluster, LoadsMatchAssignments) {
  DynamicCluster cluster = make_cluster(9);
  double total = 0.0;
  for (double load : cluster.loads()) total += load;
  // 60 initial devices, each demand == rate; joins none yet.
  const Scenario scenario = Scenario::campus(60, 6, 9);
  EXPECT_NEAR(total, scenario.workload().total_demand(), 1e-6);
}

// The independent reference: after every step of a seeded churn of joins,
// moves, leaves and backbone fails, restores and reweights, each active
// device's served row equals a textbook no-relay Dijkstra over the graph
// with every device materialized as a node (tests/host_graph.hpp) bit for
// bit, and every free slot is unbound.
TEST(DynamicClusterReference, RowsMatchDeviceAsNodeDijkstraThroughChurn) {
  const Scenario scenario = Scenario::smart_city(60, 6, 17);
  DynamicCluster cluster(scenario, Algorithm::kGreedyBestFit,
                         cheap_options(17));
  const topo::NetworkTopology& net = cluster.network();
  const double area = scenario.params().workload.area_km;
  util::Rng rng(0x4E57);
  const auto point = [&] {
    return topo::Point2D{rng.uniform(0.0, area), rng.uniform(0.0, area)};
  };
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };

  std::array<std::size_t, 6> kinds{};
  for (std::size_t step = 0; step < 1200; ++step) {
    const std::string what = "step " + std::to_string(step);
    const std::size_t slot = rng.index(cluster.device_slot_count());
    const auto live = topo::backbone_links(net);
    const double roll = rng.uniform();
    if (roll < 0.15) {
      cluster.join(test_device(point().x, point().y));
      ++kinds[0];
    } else if (roll < 0.45) {
      if (!cluster.is_active(slot)) continue;
      cluster.move(slot, point());
      ++kinds[1];
    } else if (roll < 0.6) {
      if (!cluster.is_active(slot) || cluster.active_count() < 20) continue;
      cluster.leave(slot);
      ++kinds[2];
    } else if (roll < 0.75) {
      // At most a handful of links down at once.
      if (live.empty() || net.failed_links.size() >= 4) continue;
      const auto [u, v] = live[rng.index(live.size())];
      cluster.fail_link(u, v);
      ++kinds[3];
    } else if (roll < 0.85) {
      if (net.failed_links.empty()) continue;
      const topo::FailedLink link =
          net.failed_links[rng.index(net.failed_links.size())];
      cluster.restore_link(link.u, link.v);
      ++kinds[4];
    } else {
      if (live.empty()) continue;
      const auto [u, v] = live[rng.index(live.size())];
      const double old_ms = net.graph.edge_props(u, v)->latency_ms;
      cluster.set_link_latency(u, v,
                               rng.uniform() < 0.3
                                   ? std::nextafter(old_ms, 1e9)
                                   : old_ms * rng.uniform(0.5, 2.0));
      ++kinds[5];
    }

    const test::HostGraph hosts = test::materialize_hosts(net);
    std::vector<topo::ShortestPathTree> trees;
    for (const topo::NodeId server : net.edge_nodes) {
      trees.push_back(
          test::reference_dijkstra(hosts.graph, server, net.router_count()));
    }
    for (std::size_t i = 0; i < cluster.device_slot_count(); ++i) {
      if (!cluster.is_active(i)) {
        ASSERT_FALSE(cluster.delay_oracle().row_bound(i)) << what;
        continue;
      }
      const std::vector<double> row = cluster.delay_row(i);
      for (std::size_t j = 0; j < trees.size(); ++j) {
        ASSERT_EQ(bits(row[j]),
                  bits(trees[j].distance_ms[hosts.node_of_slot[i]]))
            << what << ": device " << i << ", server " << j;
      }
    }
    if (step % 100 == 0) {
      const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
      ASSERT_NO_THROW(cluster.check_invariants()) << what;
    }
  }
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
    EXPECT_GT(kinds[kind], 50u) << "step kind " << kind << " barely ran";
  }
}

}  // namespace
}  // namespace tacc
