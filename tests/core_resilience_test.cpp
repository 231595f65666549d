// DynamicCluster failure handling and mobility handovers.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/dynamic.hpp"
#include "util/rng.hpp"
#include "workload/mobility.hpp"

namespace tacc {
namespace {

AlgorithmOptions cheap_options(std::uint64_t seed) {
  AlgorithmOptions options;
  options.apply_seed(seed);
  options.rl.episodes = 60;
  return options;
}

DynamicCluster make_cluster(std::uint64_t seed, std::size_t iot = 60,
                            std::size_t edge = 6) {
  const Scenario scenario = Scenario::campus(iot, edge, seed);
  return DynamicCluster(scenario, Algorithm::kGreedyBestFit,
                        cheap_options(seed));
}

// ---- Server failures ----------------------------------------------------------

TEST(FailServer, EvacuatesAllResidents) {
  DynamicCluster cluster = make_cluster(1);
  // Find a server hosting at least one device.
  std::size_t target = 0;
  for (std::size_t j = 0; j < cluster.server_count(); ++j) {
    if (cluster.loads()[j] > 0.0) {
      target = j;
      break;
    }
  }
  const EvacuationReport report = cluster.fail_server(target);
  EXPECT_GT(report.evacuated, 0u);
  EXPECT_TRUE(cluster.server_failed(target));
  EXPECT_NEAR(cluster.loads()[target], 0.0, 1e-9);
  EXPECT_EQ(cluster.active_count(), 60u);  // nobody lost
  EXPECT_EQ(cluster.healthy_server_count(), 5u);
  // No active device may remain on the failed server.
  for (std::size_t i = 0; i < 60; ++i) {
    if (cluster.is_active(i)) {
      EXPECT_NE(cluster.server_of(i), target);
    }
  }
}

TEST(FailServer, DelayRisesButServiceContinues) {
  DynamicCluster cluster = make_cluster(2);
  const double before = cluster.avg_delay_ms();
  (void)cluster.fail_server(0);
  EXPECT_GE(cluster.avg_delay_ms(), before - 1e-9);
  EXPECT_EQ(cluster.active_count(), 60u);
}

TEST(FailServer, DoubleFailureThrows) {
  DynamicCluster cluster = make_cluster(3);
  (void)cluster.fail_server(1);
  EXPECT_THROW((void)cluster.fail_server(1), std::invalid_argument);
  EXPECT_THROW((void)cluster.fail_server(99), std::invalid_argument);
}

TEST(FailServer, LastHealthyServerProtected) {
  DynamicCluster cluster = make_cluster(4, 20, 2);
  (void)cluster.fail_server(0);
  EXPECT_THROW((void)cluster.fail_server(1), std::logic_error);
}

TEST(FailServer, JoinsAvoidFailedServers) {
  DynamicCluster cluster = make_cluster(5);
  (void)cluster.fail_server(2);
  for (int k = 0; k < 10; ++k) {
    workload::IotDevice device;
    device.position = {1.0 + k * 0.1, 1.0};
    device.request_rate_hz = 5.0;
    device.demand = 5.0;
    const JoinResult joined = cluster.join(device);
    EXPECT_NE(joined.server, 2u);
    EXPECT_NE(cluster.server_of(joined.device_index), 2u);
  }
}

TEST(RecoverServer, RebalanceMovesLoadBack) {
  DynamicCluster cluster = make_cluster(6);
  const double healthy_delay = cluster.avg_delay_ms();
  (void)cluster.fail_server(0);
  const double degraded_delay = cluster.avg_delay_ms();
  cluster.recover_server(0);
  EXPECT_FALSE(cluster.server_failed(0));
  (void)cluster.rebalance(1000);
  // After recovery + rebalance, delay returns to (at least) healthy level.
  EXPECT_LE(cluster.avg_delay_ms(), degraded_delay + 1e-9);
  EXPECT_LE(cluster.avg_delay_ms(), healthy_delay + 1e-9);
}

TEST(Repair, RestoresFeasibilityAfterCascade) {
  // Fail enough servers that the fallback overloads the survivors; after
  // recovery, rebalance() alone cannot fix overload (it only improves
  // cost), repair() must.
  DynamicCluster cluster = make_cluster(12, 80, 5);
  (void)cluster.fail_server(0);
  (void)cluster.fail_server(1);
  (void)cluster.fail_server(2);
  cluster.recover_server(0);
  cluster.recover_server(1);
  cluster.recover_server(2);
  if (cluster.feasible()) GTEST_SKIP() << "cascade never overloaded";
  (void)cluster.rebalance(10'000);
  // rebalance is not guaranteed to restore feasibility…
  const std::size_t moves = cluster.repair(10'000);
  EXPECT_GT(moves, 0u);
  EXPECT_TRUE(cluster.feasible());
}

TEST(Repair, NoopOnFeasibleCluster) {
  DynamicCluster cluster = make_cluster(13);
  ASSERT_TRUE(cluster.feasible());
  EXPECT_EQ(cluster.repair(100), 0u);
}

TEST(Repair, RespectsMoveBudget) {
  DynamicCluster cluster = make_cluster(14, 80, 5);
  (void)cluster.fail_server(0);
  (void)cluster.fail_server(1);
  cluster.recover_server(0);
  cluster.recover_server(1);
  EXPECT_LE(cluster.repair(2), 2u);
}

// repair() may only move a device onto a server with room for it. Here
// the overloaded server's cheapest relocation target is exactly full, so
// every eviction must land elsewhere, and no other server may end up over
// capacity.
TEST(Repair, SkipsTargetsWithoutHeadroom) {
  DynamicCluster cluster = make_cluster(15, 60, 3);
  // Fail servers 1 and 2 (their residents fall back onto server 0,
  // overloading it), then bring both back empty.
  (void)cluster.fail_server(1);
  (void)cluster.fail_server(2);
  cluster.recover_server(1);
  cluster.recover_server(2);
  const std::vector<double>& capacities = cluster.capacities();
  ASSERT_GT(cluster.loads()[0], capacities[0]);
  // The target repair() would pick first if capacity did not matter.
  std::size_t full = 1;
  double best_delta = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < cluster.device_slot_count(); ++i) {
    if (!cluster.is_active(i) || cluster.server_of(i) != 0) continue;
    for (const std::size_t k : {1u, 2u}) {
      const double delta =
          cluster.placement_cost(i, k) - cluster.placement_cost(i, 0);
      if (delta < best_delta) {
        best_delta = delta;
        full = k;
      }
    }
  }
  const std::size_t other = 3 - full;
  // Fill it exactly: a device right at that server, demanding all of it.
  workload::IotDevice filler;
  filler.position = cluster.network().edge_position(full);
  filler.demand = capacities[full] - cluster.loads()[full];
  filler.request_rate_hz = filler.demand;
  ASSERT_EQ(cluster.join(filler).server, full);

  // One move at a time, so a move onto the full server shows even if a
  // later move would take it back off.
  std::size_t moves = 0;
  while (moves < 1'000 && cluster.repair(1) == 1) {
    ++moves;
    EXPECT_EQ(cluster.loads()[full], capacities[full]) << "move " << moves;
    EXPECT_LE(cluster.loads()[other], capacities[other] + 1e-9)
        << "move " << moves;
  }
  EXPECT_GT(moves, 0u);
  EXPECT_GT(cluster.loads()[other], 0.0);
}

TEST(RecoverServer, RecoveringHealthyThrows) {
  DynamicCluster cluster = make_cluster(7);
  EXPECT_THROW(cluster.recover_server(0), std::invalid_argument);
}

// ---- Mobility handovers ---------------------------------------------------------

TEST(Move, ReassignsInPlaceAndKeepsBookkeeping) {
  DynamicCluster cluster = make_cluster(8);
  const std::size_t index = 3;
  ASSERT_TRUE(cluster.is_active(index));
  const std::size_t nodes = cluster.graph_node_count();
  const JoinResult moved = cluster.move(index, {0.1, 0.1});
  EXPECT_EQ(moved.device_index, index);  // handover keeps the index
  EXPECT_TRUE(cluster.is_active(index));
  EXPECT_EQ(cluster.server_of(index), moved.server);
  EXPECT_EQ(cluster.active_count(), 60u);
  EXPECT_EQ(cluster.graph_node_count(), nodes);  // node recycled, not leaked
  EXPECT_TRUE(cluster.feasible());
}

TEST(MovePinned, KeepsServer) {
  DynamicCluster cluster = make_cluster(9);
  const std::size_t index = 5;
  const std::size_t server = cluster.server_of(index);
  const JoinResult moved = cluster.move_pinned(index, {3.9, 3.9});
  EXPECT_EQ(moved.device_index, index);
  EXPECT_EQ(moved.server, server);
  EXPECT_EQ(cluster.server_of(index), server);
  EXPECT_EQ(cluster.active_count(), 60u);
}

TEST(Move, InactiveDeviceThrows) {
  DynamicCluster cluster = make_cluster(10);
  cluster.leave(0);
  EXPECT_THROW((void)cluster.move(0, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW((void)cluster.move_pinned(0, {1.0, 1.0}),
               std::invalid_argument);
}

TEST(MovePinned, FallsBackOffFailedServer) {
  DynamicCluster cluster = make_cluster(15);
  // Deferred evacuation leaves residents on the failed server; a pinned
  // handover must still refuse to land there.
  std::size_t target = 0;
  for (std::size_t j = 0; j < cluster.server_count(); ++j) {
    if (cluster.loads()[j] > 0.0) {
      target = j;
      break;
    }
  }
  std::size_t resident = cluster.active_count();
  for (std::size_t i = 0; i < cluster.active_count(); ++i) {
    if (cluster.server_of(i) == target) {
      resident = i;
      break;
    }
  }
  ASSERT_LT(resident, cluster.active_count());
  const EvacuationReport deferred = cluster.fail_server(target, false);
  EXPECT_EQ(deferred.evacuated, 0u);
  ASSERT_EQ(cluster.server_of(resident), target);  // still parked there
  const JoinResult moved = cluster.move_pinned(resident, {2.0, 2.0});
  EXPECT_NE(moved.server, target);
  EXPECT_FALSE(cluster.server_failed(moved.server));
  EXPECT_EQ(cluster.server_of(resident), moved.server);
}

TEST(FailServer, DeferredEvacuationDrainsOnDemand) {
  DynamicCluster cluster = make_cluster(16);
  std::size_t target = 0;
  for (std::size_t j = 0; j < cluster.server_count(); ++j) {
    if (cluster.loads()[j] > 0.0) {
      target = j;
      break;
    }
  }
  (void)cluster.fail_server(target, false);
  EXPECT_GT(cluster.loads()[target], 0.0);  // residents still assigned
  const EvacuationReport report = cluster.evacuate_server(target);
  EXPECT_GT(report.evacuated, 0u);
  EXPECT_NEAR(cluster.loads()[target], 0.0, 1e-9);
  for (std::size_t i = 0; i < 60; ++i) {
    if (cluster.is_active(i)) {
      EXPECT_NE(cluster.server_of(i), target);
    }
  }
  const std::size_t healthy = target == 0 ? 1 : 0;
  EXPECT_THROW((void)cluster.evacuate_server(healthy), std::invalid_argument);
}

TEST(FailServer, CascadeReportsOverloadFallback) {
  // Fail servers until the survivors cannot absorb the load feasibly; the
  // evacuation report must surface the overload instead of hiding it.
  DynamicCluster cluster = make_cluster(17, 80, 5);
  std::size_t overloaded = 0;
  for (std::size_t j = 0; j + 2 < cluster.server_count(); ++j) {
    overloaded += cluster.fail_server(j).overloaded;
  }
  if (cluster.feasible()) GTEST_SKIP() << "cascade never overloaded";
  EXPECT_GT(overloaded, 0u);
}

TEST(ChurnWithFailures, NeverLandsOnFailedServer) {
  // Property soak: through joins, handovers, pinned handovers, failures
  // (half of them deferred) and recoveries, no placement may ever return a
  // failed server.
  DynamicCluster cluster = make_cluster(18, 60, 6);
  util::Rng rng(18);
  std::vector<std::size_t> alive(60);
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;
  for (int event = 0; event < 400; ++event) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.25) {
      workload::IotDevice device;
      device.position = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
      device.request_rate_hz = rng.uniform(1.0, 6.0);
      device.demand = device.request_rate_hz;
      const JoinResult joined = cluster.join(device);
      EXPECT_FALSE(cluster.server_failed(joined.server));
      alive.push_back(joined.device_index);
    } else if (roll < 0.5 && !alive.empty()) {
      const std::size_t pick = rng.index(alive.size());
      const JoinResult moved = cluster.move(
          alive[pick], {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)});
      EXPECT_FALSE(cluster.server_failed(moved.server));
    } else if (roll < 0.7 && !alive.empty()) {
      const std::size_t pick = rng.index(alive.size());
      const JoinResult moved = cluster.move_pinned(
          alive[pick], {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)});
      EXPECT_FALSE(cluster.server_failed(moved.server));
    } else if (roll < 0.8 && !alive.empty()) {
      const std::size_t pick = rng.index(alive.size());
      cluster.leave(alive[pick]);
      alive[pick] = alive.back();
      alive.pop_back();
    } else if (roll < 0.9) {
      if (cluster.healthy_server_count() > 2) {
        std::size_t j = rng.index(cluster.server_count());
        while (cluster.server_failed(j)) j = rng.index(cluster.server_count());
        (void)cluster.fail_server(j, rng.bernoulli(0.5));
      }
    } else {
      for (std::size_t j = 0; j < cluster.server_count(); ++j) {
        if (cluster.server_failed(j)) {
          (void)cluster.evacuate_server(j);
          cluster.recover_server(j);
          break;
        }
      }
    }
  }
  // Whatever the final failure set, no active device sits on a failed
  // server that has been evacuated, and every *immediate* placement above
  // was checked against the failure set at the time.
  SUCCEED();
}

TEST(Mobility, PinnedDriftWorseThanHandover) {
  // Drive both policies with the same mobility trace; reassigning movers
  // must realize average delay no worse than pinning them.
  const Scenario scenario = Scenario::campus(80, 6, 11);
  DynamicCluster pinned(scenario, Algorithm::kGreedyBestFit,
                        cheap_options(11));
  DynamicCluster handover(scenario, Algorithm::kGreedyBestFit,
                          cheap_options(11));
  workload::MobilityParams params;
  params.area_km = scenario.params().workload.area_km;
  params.mobile_fraction = 1.0;
  workload::RandomWaypointModel model(scenario.workload().iot, params,
                                      util::Rng(11));

  std::vector<std::size_t> pinned_ids(80), handover_ids(80);
  for (std::size_t i = 0; i < 80; ++i) pinned_ids[i] = handover_ids[i] = i;

  for (int epoch = 0; epoch < 5; ++epoch) {
    for (const std::size_t mover : model.advance(60.0)) {
      const auto p = model.position(mover);
      pinned_ids[mover] =
          pinned.move_pinned(pinned_ids[mover], p).device_index;
      handover_ids[mover] = handover.move(handover_ids[mover], p).device_index;
    }
  }
  EXPECT_LE(handover.avg_delay_ms(), pinned.avg_delay_ms() + 1e-9);
}

}  // namespace
}  // namespace tacc
