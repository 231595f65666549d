// Golden-value regression tests: pinned outputs for fixed seeds.
//
// All randomness flows through the in-repo xoshiro256** generator and plain
// IEEE-754 double arithmetic, so these values are stable across platforms
// and compilers at default settings. If a deliberate algorithm change moves
// one, update the constant in the same commit and say why — these exist to
// catch *unintended* behavioural drift that same-seed-equality tests
// cannot see.
#include <gtest/gtest.h>

#include "core/tacc.hpp"

namespace tacc {
namespace {

constexpr double kRelTol = 1e-9;

TEST(Regression, ScenarioGenerationPinned) {
  const Scenario scenario = Scenario::smart_city(100, 8, 2026);
  EXPECT_EQ(scenario.network().graph.node_count(), 138u);
  EXPECT_NEAR(scenario.workload().load_factor(), 0.7, 1e-12);
  EXPECT_NEAR(scenario.instance().delay_ms(0, 0), 10.007339529605366,
              10.0 * kRelTol);
  EXPECT_NEAR(scenario.instance().total_capacity(), 1335.3953577761956,
              1335.0 * kRelTol);
}

TEST(Regression, GreedyBestFitPinned) {
  const Scenario scenario = Scenario::smart_city(100, 8, 2026);
  AlgorithmOptions options;
  options.apply_seed(1);
  const auto result = make_solver(Algorithm::kGreedyBestFit, options)
                          ->solve(scenario.instance());
  EXPECT_TRUE(result.feasible);
  EXPECT_NEAR(result.total_cost, 5578.3731369861725, 5578.0 * kRelTol);
}

TEST(Regression, QLearningPinned) {
  const Scenario scenario = Scenario::smart_city(100, 8, 2026);
  AlgorithmOptions options;
  options.apply_seed(1);
  const auto result =
      make_solver(Algorithm::kQLearning, options)->solve(scenario.instance());
  EXPECT_TRUE(result.feasible);
  EXPECT_NEAR(result.total_cost, 5502.8837192399378, 5503.0 * kRelTol);
}

TEST(Regression, LowerBoundsPinned) {
  const Scenario scenario = Scenario::smart_city(100, 8, 2026);
  const auto bounds = solvers::compute_lower_bounds(scenario.instance());
  EXPECT_NEAR(bounds.min_cost, 5139.9588955974077, 5140.0 * kRelTol);
  EXPECT_NEAR(bounds.splittable_flow, 5472.831409804262, 5473.0 * kRelTol);
}

TEST(Regression, SimulationPinned) {
  const Scenario scenario = Scenario::smart_city(100, 8, 2026);
  AlgorithmOptions options;
  options.apply_seed(1);
  const auto conf = ClusterConfigurator(scenario).configure(
      {Algorithm::kGreedyBestFit, options});
  sim::SimParams params;
  params.duration_s = 5.0;
  params.warmup_s = 1.0;
  params.seed = 2026;
  const auto sim = sim::simulate(scenario.network(), scenario.workload(),
                                 conf.assignment(), params);
  EXPECT_EQ(sim.messages_generated, 4574u);
  EXPECT_NEAR(sim.mean_delay_ms(), 14.59037395804237, 14.6 * kRelTol);
}


// Pins for the metaheuristics and UCB rollout: each run reads its solver's
// tunings, so a drift in any of them moves the pinned cost.
double pinned_cost(Algorithm algorithm) {
  const Scenario scenario = Scenario::smart_city(100, 8, 2026);
  AlgorithmOptions options;
  options.apply_seed(1);
  const auto result =
      make_solver(algorithm, options)->solve(scenario.instance());
  EXPECT_TRUE(result.feasible);
  return result.total_cost;
}

TEST(Regression, SimulatedAnnealingPinned) {
  EXPECT_NEAR(pinned_cost(Algorithm::kSimulatedAnnealing), 5485.0694160621806,
              5485.0 * kRelTol);
}

TEST(Regression, GeneticPinned) {
  EXPECT_NEAR(pinned_cost(Algorithm::kGenetic), 5544.975698676808,
              5545.0 * kRelTol);
}

TEST(Regression, TabuPinned) {
  EXPECT_NEAR(pinned_cost(Algorithm::kTabu), 5514.7594759856556,
              5515.0 * kRelTol);
}

TEST(Regression, GraspPinned) {
  EXPECT_NEAR(pinned_cost(Algorithm::kGrasp), 5490.5133531430756,
              5490.0 * kRelTol);
}

TEST(Regression, UcbRolloutPinned) {
  EXPECT_NEAR(pinned_cost(Algorithm::kUcbRollout), 5559.0575093233438,
              5559.0 * kRelTol);
}

// The fingerprint samples the delay matrix, so these pin the generators
// (Waxman, geometric, hierarchical) and the link-delay model per preset.
TEST(Regression, PresetFingerprintsPinned) {
  EXPECT_EQ(Scenario::smart_city(100, 8, 2026).fingerprint(),
            10280224029631469173u);
  EXPECT_EQ(Scenario::factory(100, 8, 2026).fingerprint(),
            5035503348573457233u);
  EXPECT_EQ(Scenario::campus(100, 8, 2026).fingerprint(),
            9721562154116581509u);
}

}  // namespace
}  // namespace tacc
