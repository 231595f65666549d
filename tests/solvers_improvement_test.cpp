// Local search and simulated annealing.
#include <gtest/gtest.h>

#include <cmath>

#include "gap/testgen.hpp"
#include "solvers/constructive.hpp"
#include "solvers/local_search.hpp"
#include "solvers/simulated_annealing.hpp"
#include "tests/test_helpers.hpp"

namespace tacc::solvers {
namespace {

TEST(LocalSearch, NeverWorsensSeed) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const gap::Instance inst = test::small_instance(seed, 40, 6, 0.7);
    GreedyBestFitSolver seed_solver;
    const SolveResult seeded = seed_solver.solve(inst);
    gap::Assignment assignment = seeded.assignment;
    LocalSearchOptions options;
    options.seed = seed;
    (void)local_search_improve(inst, assignment, options);
    EXPECT_LE(gap::evaluate(inst, assignment).total_cost,
              seeded.total_cost + 1e-9)
        << "seed " << seed;
  }
}

TEST(LocalSearch, PreservesFeasibility) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const gap::Instance inst = test::small_instance(seed, 40, 6, 0.85);
    LocalSearchSolver solver({.seed = seed});
    const SolveResult result = solver.solve(inst);
    EXPECT_TRUE(result.feasible) << "seed " << seed;
  }
}

TEST(LocalSearch, ReachesLocalOptimumOnTrap) {
  const auto trap = gap::crafted_greedy_trap();
  // Start from the greedy (bad) configuration that is at least feasible:
  // device 0 on server 0, device 1 on server 1 — cost 101. The swap
  // neighborhood reaches the optimum (7).
  gap::Assignment assignment{0, 1};
  LocalSearchOptions options;
  (void)local_search_improve(trap.instance, assignment, options);
  EXPECT_DOUBLE_EQ(gap::evaluate(trap.instance, assignment).total_cost,
                   trap.optimal_cost);
}

// The polish's move scan stops at a device's current server: the rank list
// is sorted by (delay, index) and weights are positive, so no server at or
// past that rank can lower the device's cost. A full-m scan from the
// polished result checks it, on random instances with unequal weights and
// on copies whose delays are rounded to whole milliseconds (many ties).
TEST(LocalSearch, NoImprovingMoveAtOrPastCurrentRank) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gap::RandomInstanceParams params;
    params.device_count = 30;
    params.server_count = 6;
    params.load_factor = 0.8;
    params.rate_weighted = true;
    util::Rng rng(seed);
    const gap::Instance random = gap::random_instance(params, rng);
    topo::DelayMatrix rounded(random.device_count(), random.server_count());
    std::vector<double> weights(random.device_count());
    std::vector<double> demands(random.device_count());
    for (gap::DeviceIndex i = 0; i < random.device_count(); ++i) {
      weights[i] = random.traffic_weight(i);
      demands[i] = random.demand(i, 0);
      for (gap::ServerIndex j = 0; j < random.server_count(); ++j) {
        rounded.set(i, j, std::round(random.delay_ms(i, j) / 8.0));
      }
    }
    const std::vector<double> capacities(random.capacities().begin(),
                                         random.capacities().end());
    const gap::Instance tied(std::move(rounded), std::move(weights),
                             std::move(demands), capacities);

    for (const gap::Instance* inst : {&random, &tied}) {
      const std::size_t m = inst->server_count();
      gap::Assignment assignment(inst->device_count());
      for (gap::DeviceIndex i = 0; i < assignment.size(); ++i) {
        assignment[i] = static_cast<std::int32_t>(rng.index(m));
      }
      LocalSearchOptions options;
      options.seed = seed;
      (void)local_search_improve(*inst, assignment, options);
      const std::vector<double> loads = gap::server_loads(*inst, assignment);
      for (gap::DeviceIndex i = 0; i < assignment.size(); ++i) {
        const auto from = static_cast<gap::ServerIndex>(assignment[i]);
        const auto ranked = inst->servers_by_delay(i);
        bool at_or_past = false;
        for (std::size_t r = 0; r < m; ++r) {
          const gap::ServerIndex j = ranked[r];
          at_or_past = at_or_past || j == from;
          const double delta = inst->cost(i, j) - inst->cost(i, from);
          if (at_or_past) {
            EXPECT_GE(delta, 0.0) << "seed " << seed << " device " << i;
          } else {
            const bool fits = loads[j] + inst->demand(i, j) <=
                              inst->capacity(j) + 1e-9;
            EXPECT_FALSE(delta < -1e-12 && fits)
                << "seed " << seed << " device " << i << " server " << j;
          }
        }
      }
    }
  }
}

TEST(LocalSearch, RespectsImprovementBudget) {
  const gap::Instance inst = test::small_instance(9, 60, 8, 0.6);
  RandomSolver random(9);
  gap::Assignment assignment = random.solve(inst).assignment;
  LocalSearchOptions options;
  options.max_improvements = 3;
  EXPECT_LE(local_search_improve(inst, assignment, options), 3u);
}

TEST(LocalSearch, CandidateRestrictionStillImproves) {
  const gap::Instance inst = test::small_instance(10, 60, 8, 0.6);
  RandomSolver random(10);
  const SolveResult seeded = random.solve(inst);
  gap::Assignment assignment = seeded.assignment;
  LocalSearchOptions options;
  options.candidate_servers = 2;
  (void)local_search_improve(inst, assignment, options);
  EXPECT_LT(gap::evaluate(inst, assignment).total_cost, seeded.total_cost);
}

TEST(LocalSearch, NoSwapsOptionWorks) {
  const gap::Instance inst = test::small_instance(11, 30, 5, 0.5);
  RandomSolver random(11);
  const SolveResult seeded = random.solve(inst);
  gap::Assignment assignment = seeded.assignment;
  LocalSearchOptions options;
  options.use_swaps = false;
  (void)local_search_improve(inst, assignment, options);
  EXPECT_LE(gap::evaluate(inst, assignment).total_cost,
            seeded.total_cost + 1e-9);
}

TEST(LocalSearch, SolverInterfaceReportsSteps) {
  const gap::Instance inst = test::small_instance(12, 40, 6, 0.7);
  LocalSearchSolver solver;
  const SolveResult result = solver.solve(inst);
  EXPECT_EQ(solver.name(), "local-search");
  // Iterations counts improving steps; wall time recorded.
  EXPECT_GE(result.wall_ms, 0.0);
}

TEST(SimulatedAnnealing, FeasibleAndNoWorseThanSeedAtModerateLoad) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const gap::Instance inst = test::small_instance(seed, 50, 6, 0.75);
    GreedyBestFitSolver greedy;
    const double greedy_cost = greedy.solve(inst).total_cost;
    SimulatedAnnealingOptions options;
    options.seed = seed;
    options.steps = 50'000;
    SimulatedAnnealingSolver solver(options);
    const SolveResult result = solver.solve(inst);
    EXPECT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_LE(result.total_cost, greedy_cost + 1e-9) << "seed " << seed;
  }
}

TEST(SimulatedAnnealing, FindsTrapOptimum) {
  const auto trap = gap::crafted_greedy_trap();
  SimulatedAnnealingOptions options;
  options.steps = 20'000;
  SimulatedAnnealingSolver solver(options);
  const SolveResult result = solver.solve(trap.instance);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_cost, trap.optimal_cost);
}

TEST(SimulatedAnnealing, DeterministicPerSeed) {
  const gap::Instance inst = test::small_instance(5, 30, 5, 0.7);
  SimulatedAnnealingOptions options;
  options.seed = 77;
  options.steps = 10'000;
  SimulatedAnnealingSolver a(options);
  SimulatedAnnealingSolver b(options);
  EXPECT_EQ(a.solve(inst).assignment, b.solve(inst).assignment);
}

TEST(SimulatedAnnealing, IterationBudgetHonored) {
  const gap::Instance inst = test::small_instance(6, 20, 4, 0.6);
  SimulatedAnnealingOptions options;
  options.steps = 1234;
  SimulatedAnnealingSolver solver(options);
  EXPECT_EQ(solver.solve(inst).iterations, 1234u);
}

}  // namespace
}  // namespace tacc::solvers
