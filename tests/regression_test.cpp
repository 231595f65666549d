// Golden-value regression tests: pinned outputs for fixed seeds.
//
// All randomness flows through the in-repo xoshiro256** generator and plain
// IEEE-754 double arithmetic, so these values are stable across platforms
// and compilers at default settings. If a deliberate algorithm change moves
// one, update the constant in the same commit and say why — these exist to
// catch *unintended* behavioural drift that same-seed-equality tests
// cannot see.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "core/tacc.hpp"
#include "rl/policy.hpp"
#include "solvers/local_search.hpp"

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

// ---- Bit-exact pins for the RL hot path and the local-search polish --------
// These compare exactly, not within a tolerance: the training loop, the
// environment and the polish are pure IEEE-754 arithmetic over one seeded
// generator, so a refactor of them must reproduce every bit. The digest
// covers every training episode's (reward, cost, feasible) triple, the step
// count and the final assignment.

class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 1099511628211ULL;  // FNV-1a prime
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool value) { add(std::uint64_t{value ? 1u : 0u}); }
  void add(const gap::Assignment& assignment) {
    add(std::uint64_t{assignment.size()});
    for (std::int32_t x : assignment) {
      add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

std::uint64_t train_digest(const rl::TrainResult& result) {
  Digest digest;
  for (const rl::EpisodeStats& e : result.trace) {
    digest.add(e.total_reward);
    digest.add(e.episode_cost);
    digest.add(e.feasible);
  }
  digest.add(std::uint64_t{result.total_steps});
  digest.add(result.best_assignment);
  digest.add(result.best_cost);
  digest.add(result.best_feasible);
  return digest.value();
}

std::uint64_t solve_digest(const solvers::SolveResult& result) {
  Digest digest;
  digest.add(result.assignment);
  digest.add(result.total_cost);
  digest.add(result.feasible);
  digest.add(std::uint64_t{result.iterations});
  return digest.value();
}

// 160 devices on 6 servers at ~97% load, per-(device, server) demands and
// unequal traffic weights: capacity binds, so training takes both the
// redirect path (no candidate fits, some server does) and the overload path
// (no server fits).
gap::Instance tight_instance() {
  constexpr std::size_t kDevices = 160;
  constexpr std::size_t kServers = 6;
  util::Rng rng(77);
  topo::DelayMatrix delay(kDevices, kServers);
  topo::DelayMatrix demand(kDevices, kServers);
  std::vector<double> weights(kDevices);
  double mean_demand_sum = 0.0;
  for (std::size_t i = 0; i < kDevices; ++i) {
    weights[i] = rng.uniform(0.5, 2.0);
    double row_sum = 0.0;
    for (std::size_t j = 0; j < kServers; ++j) {
      delay.set(i, j, rng.uniform(1.0, 30.0));
      demand.set(i, j, rng.uniform(1.0, 3.0));
      row_sum += demand.at(i, j);
    }
    mean_demand_sum += row_sum / static_cast<double>(kServers);
  }
  std::vector<double> capacities(kServers);
  for (auto& c : capacities) {
    c = mean_demand_sum / 0.97 / static_cast<double>(kServers) *
        rng.uniform(0.8, 1.2);
  }
  return gap::Instance::with_demand_matrix(std::move(delay),
                                           std::move(weights),
                                           std::move(demand),
                                           std::move(capacities));
}

// Counts, over the traced training episodes, the ones that took the
// redirect path and the ones that took the overload path. Every step's
// reward is -cost/scale minus a penalty of 0, penalty/2 (redirect) or
// penalty (overload), so an episode's penalty total in half-penalty units
// is redirects + 2 * violations; an infeasible episode overloaded.
struct PathCounts {
  std::size_t redirect_episodes = 0;
  std::size_t overload_episodes = 0;
};

PathCounts path_counts(const gap::Instance& instance,
                       const rl::RlOptions& options,
                       const rl::TrainResult& result) {
  const rl::AssignmentEnv env(instance, options.env, options.seed);
  const double half_penalty = options.env.overload_penalty / 2.0;
  PathCounts counts;
  for (const rl::EpisodeStats& e : result.trace) {
    const double units =
        (-e.total_reward - e.episode_cost / env.cost_scale()) / half_penalty;
    const auto rounded = std::llround(units);
    EXPECT_NEAR(units, static_cast<double>(rounded), 1e-3);
    if (!e.feasible) {
      ++counts.overload_episodes;
    } else if (rounded > 0) {
      ++counts.redirect_episodes;
    }
  }
  return counts;
}

rl::RlOptions pin_rl_options() {
  rl::RlOptions options;
  options.seed = 5;
  return options;
}

TEST(Regression, QLearningTraceExact) {
  const Scenario scenario = Scenario::smart_city(500, 16, 11);
  const auto result = rl::train(scenario.instance(), pin_rl_options(),
                                rl::TdVariant::kQLearning);
  EXPECT_EQ(result.total_steps, 308000u);
  EXPECT_EQ(train_digest(result), 15146102159842893337ULL);
}

TEST(Regression, SarsaTraceExact) {
  const Scenario scenario = Scenario::smart_city(500, 16, 11);
  const auto result = rl::train(scenario.instance(), pin_rl_options(),
                                rl::TdVariant::kSarsa);
  EXPECT_EQ(result.total_steps, 308000u);
  EXPECT_EQ(train_digest(result), 7663632257691336502ULL);
}

TEST(Regression, QLearningTightTraceExact) {
  const gap::Instance instance = tight_instance();
  const rl::RlOptions options = pin_rl_options();
  const auto result =
      rl::train(instance, options, rl::TdVariant::kQLearning);
  const PathCounts paths = path_counts(instance, options, result);
  EXPECT_GT(paths.redirect_episodes, 0u);
  EXPECT_GT(paths.overload_episodes, 0u);
  EXPECT_EQ(result.total_steps, 98560u);
  EXPECT_EQ(train_digest(result), 14131197891880051080ULL);
}

TEST(Regression, SarsaTightTraceExact) {
  const gap::Instance instance = tight_instance();
  const rl::RlOptions options = pin_rl_options();
  const auto result = rl::train(instance, options, rl::TdVariant::kSarsa);
  const PathCounts paths = path_counts(instance, options, result);
  EXPECT_GT(paths.redirect_episodes, 0u);
  EXPECT_GT(paths.overload_episodes, 0u);
  EXPECT_EQ(result.total_steps, 98560u);
  EXPECT_EQ(train_digest(result), 2656027299994564503ULL);
}

// mask_infeasible = false: the agent may pick a candidate that cannot fit,
// so far more steps take the redirect path.
TEST(Regression, QLearningUnmaskedTightTraceExact) {
  const gap::Instance instance = tight_instance();
  rl::RlOptions options = pin_rl_options();
  options.mask_infeasible = false;
  const auto result =
      rl::train(instance, options, rl::TdVariant::kQLearning);
  const PathCounts paths = path_counts(instance, options, result);
  EXPECT_GT(paths.redirect_episodes, 0u);
  EXPECT_GT(paths.overload_episodes, 0u);
  EXPECT_EQ(result.total_steps, 98560u);
  EXPECT_EQ(train_digest(result), 17509551759268239575ULL);
}

// The polish from a poor start (every device on its farthest server), with
// and without a candidate limit: the improvement count and the assignment.
TEST(Regression, LocalSearchImproveExact) {
  const Scenario scenario = Scenario::smart_city(500, 16, 11);
  const gap::Instance& instance = scenario.instance();
  gap::Assignment start(instance.device_count());
  for (gap::DeviceIndex i = 0; i < instance.device_count(); ++i) {
    start[i] = static_cast<std::int32_t>(
        instance.servers_by_delay(i)[instance.server_count() - 1]);
  }
  for (const std::size_t candidates : {std::size_t{0}, std::size_t{4}}) {
    gap::Assignment assignment = start;
    solvers::LocalSearchOptions options;
    options.seed = 9;
    options.candidate_servers = candidates;
    const std::size_t improvements =
        solvers::local_search_improve(instance, assignment, options);
    Digest digest;
    digest.add(std::uint64_t{improvements});
    digest.add(assignment);
    EXPECT_EQ(digest.value(), candidates == 0 ? 10066306348002938424ULL
                                              : 10351534050792399696ULL)
        << "candidate_servers=" << candidates;
  }
  const gap::Instance tight = tight_instance();
  gap::Assignment tight_start(tight.device_count(), 0);
  const std::size_t improvements = solvers::local_search_improve(
      tight, tight_start, solvers::LocalSearchOptions{});
  Digest digest;
  digest.add(std::uint64_t{improvements});
  digest.add(tight_start);
  EXPECT_EQ(digest.value(), 11427100482402221924ULL);
}

// A policy trained on one smart-city scenario, replayed greedily (and
// polished) on another.
TEST(Regression, ApplyPolicyExact) {
  const Scenario train_on = Scenario::smart_city(500, 16, 11);
  const Scenario apply_to = Scenario::smart_city(400, 16, 12);
  rl::RlOptions options = pin_rl_options();
  options.episodes = 200;
  const rl::TrainedPolicy policy = rl::train_policy(
      train_on.instance(), options, rl::TdVariant::kQLearning);
  for (const bool polish : {false, true}) {
    rl::ApplyOptions apply;
    apply.polish = polish;
    apply.seed = 3;
    const auto result = rl::apply_policy(apply_to.instance(), policy, apply);
    EXPECT_EQ(solve_digest(result),
              polish ? 7707432271393409325ULL : 807777067231012481ULL)
        << "polish=" << polish;
  }
}

}  // namespace
}  // namespace tacc
