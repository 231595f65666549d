// Re-optimizer tests: planner proposals (improving moves, plan-size caps,
// net-gain requirement), the synchronous run_pass() path (cost descent,
// budget metering, ledger partition identity), the background thread's
// lifecycle, and — in the ReoptConcurrency suite TSan runs — the optimizer
// thread racing cluster churn through the shared mutex.
#include "optimize/reoptimizer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "core/dynamic.hpp"
#include "optimize/planner.hpp"
#include "util/contracts.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace tacc::opt {
namespace {

AlgorithmOptions cheap_options(std::uint64_t seed) {
  AlgorithmOptions options;
  options.apply_seed(seed);
  options.rl.episodes = 60;
  return options;
}

DynamicCluster make_cluster(std::uint64_t seed, std::size_t iot = 40,
                            std::size_t edge = 6) {
  const Scenario scenario = Scenario::campus(iot, edge, seed);
  return DynamicCluster(scenario, Algorithm::kGreedyBestFit,
                        cheap_options(seed));
}

/// Degrades up to `count` devices by moving each to its most expensive
/// feasible server — manufactured suboptimality the optimizer must drain.
/// Returns devices actually degraded.
std::size_t degrade(DynamicCluster& cluster, std::size_t count) {
  std::size_t degraded = 0;
  for (std::size_t i = 0;
       i < cluster.device_slot_count() && degraded < count; ++i) {
    if (!cluster.is_active(i)) continue;
    const std::size_t from = cluster.server_of(i);
    const double demand = cluster.device(i).demand;
    std::size_t worst = from;
    double worst_cost = cluster.placement_cost(i, from);
    for (std::size_t j = 0; j < cluster.server_count(); ++j) {
      if (j == from || cluster.server_failed(j)) continue;
      if (cluster.loads()[j] + demand > cluster.capacities()[j]) continue;
      const double cost = cluster.placement_cost(i, j);
      if (cost > worst_cost) {
        worst_cost = cost;
        worst = j;
      }
    }
    if (worst == from) continue;
    MovePlan plan;
    plan.moves.push_back(
        {i, cluster.slot_generation(i), from, worst, 0.0});
    if (cluster.apply_move_plan(plan).applied == 1) ++degraded;
  }
  return degraded;
}

TEST(ReoptPlanner, ProposesImprovingMovesWithPositiveGain) {
  DynamicCluster cluster = make_cluster(21);
  ASSERT_GT(degrade(cluster, 5), 0u);
  const double before = cluster.total_cost();

  PlannerState state;
  const MovePlan plan = propose_plan(cluster, kMaxPlanMoves, state);
  ASSERT_FALSE(plan.empty());
  EXPECT_GT(plan.predicted_gain(), 0.0);

  const MovePlanReport report = cluster.apply_move_plan(plan);
  EXPECT_GT(report.applied, 0u);
  EXPECT_LT(cluster.total_cost(), before);
  EXPECT_NEAR(report.achieved_gain, before - cluster.total_cost(), 1e-6);
  cluster.check_invariants();
}

TEST(ReoptPlanner, RespectsPlanSizeCap) {
  DynamicCluster cluster = make_cluster(22);
  ASSERT_GT(degrade(cluster, 8), 2u);
  PlannerState state;
  const MovePlan plan = propose_plan(cluster, 2, state);
  EXPECT_LE(plan.size(), 2u);
}

TEST(ReoptPlanner, EmptyPlanOnceConverged) {
  DynamicCluster cluster = make_cluster(23);
  degrade(cluster, 10);
  PlannerState state;
  // Drain to the planner's fixpoint, then one more pass must be empty —
  // and with nothing left to propose, the round-robin cursor guarantees
  // the whole population was re-scanned.
  for (int i = 0; i < 64; ++i) {
    const MovePlan plan = propose_plan(cluster, kMaxPlanMoves, state);
    if (plan.empty()) break;
    (void)cluster.apply_move_plan(plan);
  }
  EXPECT_TRUE(propose_plan(cluster, kMaxPlanMoves, state).empty());
}

TEST(Reoptimizer, RunPassDrivesCostDown) {
  DynamicCluster cluster = make_cluster(24);
  ASSERT_GT(degrade(cluster, 6), 0u);
  const double before = cluster.total_cost();

  tacc::Mutex mutex;
  ReoptOptions options;
  options.validate = true;  // bracket the apply with check_invariants
  Reoptimizer reopt(cluster, mutex, options);
  EXPECT_GT(reopt.run_pass(), 0u);
  EXPECT_LT(cluster.total_cost(), before);

  const ReoptStats stats = reopt.stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.plans, 1u);
  EXPECT_GT(stats.achieved_gain, 0.0);
  reopt.check_invariants();
}

TEST(Reoptimizer, BudgetCapsMovesPerWindow) {
  DynamicCluster cluster = make_cluster(25);
  ASSERT_GT(degrade(cluster, 10), 3u);

  tacc::Mutex mutex;
  ReoptOptions options;
  options.budget.max_moves_per_window = 2;
  options.budget.max_device_moves_per_window = 1;
  options.budget.window_s = 1'000.0;  // the whole test is one window
  Reoptimizer reopt(cluster, mutex, options);
  // However many passes run, the window's spend is the ceiling.
  std::size_t applied = 0;
  for (int i = 0; i < 5; ++i) applied += reopt.run_pass();
  EXPECT_LE(applied, 2u);
  EXPECT_EQ(reopt.stats().moves_applied, applied);
  reopt.check_invariants();
}

TEST(Reoptimizer, StatsPartitionProposalsExactly) {
  DynamicCluster cluster = make_cluster(26);
  degrade(cluster, 10);
  tacc::Mutex mutex;
  Reoptimizer reopt(cluster, mutex, ReoptOptions{});
  for (int i = 0; i < 8; ++i) (void)reopt.run_pass();
  const ReoptStats stats = reopt.stats();
  EXPECT_EQ(stats.moves_proposed, stats.moves_applied + stats.rejected());
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  EXPECT_NO_THROW(reopt.check_invariants());
}

TEST(Reoptimizer, StartStopIdempotent) {
  DynamicCluster cluster = make_cluster(27);
  tacc::Mutex mutex;
  ReoptOptions options;
  options.interval_ms = 1.0;
  Reoptimizer reopt(cluster, mutex, options);
  EXPECT_FALSE(reopt.running());
  reopt.start();
  reopt.start();
  EXPECT_TRUE(reopt.running());
  reopt.stop();
  reopt.stop();
  EXPECT_FALSE(reopt.running());
  // Restartable after a stop; the destructor stops it again.
  reopt.start();
  EXPECT_TRUE(reopt.running());
}

TEST(ReoptConcurrency, BackgroundThreadRacesChurn) {
  DynamicCluster cluster = make_cluster(28, 60, 6);
  tacc::Mutex mutex;
  ReoptOptions options;
  options.interval_ms = 0.1;
  options.seed = 28;
  Reoptimizer reopt(cluster, mutex, options);
  reopt.start();

  // Churn the cluster under the shared mutex while the optimizer passes
  // race it, reading stats concurrently the way STATS snapshots do.
  util::Rng rng(28);
  workload::IotDevice device;
  for (int i = 0; i < 400; ++i) {
    {
      const MutexLock lock(&mutex);
      const std::size_t slot = rng.index(cluster.device_slot_count());
      if (cluster.is_active(slot) && cluster.active_count() > 10) {
        if (rng.uniform(0.0, 1.0) < 0.5) {
          cluster.leave(slot);
        } else {
          (void)cluster.move(slot, {rng.uniform(0.0, 2.0),
                                    rng.uniform(0.0, 2.0)});
        }
      } else {
        device.position = {rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)};
        device.request_rate_hz = 5.0;
        device.demand = 5.0;
        (void)cluster.join(device);
      }
    }
    if (i % 16 == 0) (void)reopt.stats();
  }
  reopt.stop();

  const ReoptStats stats = reopt.stats();
  EXPECT_EQ(stats.moves_proposed, stats.moves_applied + stats.rejected());
  reopt.check_invariants();
  const MutexLock lock(&mutex);
  cluster.check_invariants();
}

TEST(ReoptConcurrency, StopWhileHoldingClusterMutexCannotDeadlock) {
  DynamicCluster cluster = make_cluster(29);
  tacc::Mutex mutex;
  ReoptOptions options;
  options.interval_ms = 0.1;
  Reoptimizer reopt(cluster, mutex, options);
  reopt.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  {
    // The background thread only ever try_locks the cluster mutex, so
    // stopping it while we hold that mutex must complete.
    const MutexLock lock(&mutex);
    reopt.stop();
  }
  EXPECT_FALSE(reopt.running());
  reopt.check_invariants();
}

}  // namespace
}  // namespace tacc::opt
