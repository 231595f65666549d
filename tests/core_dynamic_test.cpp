#include "core/dynamic.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "topology/failures.hpp"
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

TEST(DynamicCluster, LeaveRecyclesSlotAndGraphNode) {
  DynamicCluster cluster = make_cluster(5);
  const std::size_t slots = cluster.device_slot_count();
  const std::size_t nodes = cluster.graph_node_count();
  const std::size_t index = cluster.join(test_device(0.5, 0.5)).device_index;
  EXPECT_EQ(cluster.device_slot_count(), slots + 1);
  EXPECT_EQ(cluster.graph_node_count(), nodes + 1);
  cluster.leave(index);
  EXPECT_EQ(cluster.free_slot_count(), 1u);
  EXPECT_EQ(cluster.live_graph_node_count(), nodes);
  // The next join reuses the departed slot and node: no growth.
  const JoinResult joined = cluster.join(test_device(3.0, 3.0));
  EXPECT_EQ(joined.device_index, index);
  EXPECT_EQ(cluster.device_slot_count(), slots + 1);
  EXPECT_EQ(cluster.graph_node_count(), nodes + 1);
  EXPECT_EQ(cluster.free_slot_count(), 0u);
}

TEST(DynamicCluster, ChurnLeakRegression) {
  // N join/leave/move cycles must leave slot, row, and node storage exactly
  // at baseline — the old implementation leaked one node + access edge +
  // delay row per move.
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  DynamicCluster cluster = make_cluster(6);
  util::Rng rng(99);
  const std::size_t slots = cluster.device_slot_count();
  const std::size_t nodes = cluster.graph_node_count();
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
    EXPECT_EQ(cluster.graph_node_count(), nodes + 1);
    EXPECT_EQ(cluster.live_graph_node_count(), nodes);
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
  const std::size_t live_nodes = cluster.live_graph_node_count();
  const double avg_delay = cluster.avg_delay_ms();
  const std::size_t server = cluster.server_of(0);
  const auto expect_unchanged = [&](const char* call) {
    SCOPED_TRACE(call);
    EXPECT_EQ(cluster.active_count(), active);
    EXPECT_EQ(cluster.device_slot_count(), slots);
    EXPECT_EQ(cluster.free_slot_count(), free_slots);
    EXPECT_EQ(cluster.live_graph_node_count(), live_nodes);
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
  const std::uint64_t fp0 = cluster.delay_fingerprint();
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
  EXPECT_NE(cluster.delay_fingerprint(), fp0);
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
  const topo::NodeId device = cluster.network().iot_nodes.front();
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
  EXPECT_EQ(cluster.delay_rows_saved() + cluster.delay_rows_refreshed(),
            2 * cluster.device_slot_count());
  EXPECT_EQ(cluster.delay_rows_refreshed(),
            failed.rows_refreshed + restored.rows_refreshed);
  EXPECT_EQ(cluster.link_stats().nodes_affected,
            failed.nodes_affected + restored.nodes_affected);
}

TEST(DynamicCluster, LoadsMatchAssignments) {
  DynamicCluster cluster = make_cluster(9);
  double total = 0.0;
  for (double load : cluster.loads()) total += load;
  // 60 initial devices, each demand == rate; joins none yet.
  const Scenario scenario = Scenario::campus(60, 6, 9);
  EXPECT_NEAR(total, scenario.workload().total_demand(), 1e-6);
}

}  // namespace
}  // namespace tacc
