#include "rl/qlearning.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>

#include "gap/testgen.hpp"
#include "solvers/constructive.hpp"
#include "tests/test_helpers.hpp"

namespace tacc::rl {
namespace {

RlOptions fast_options(std::uint64_t seed) {
  RlOptions options;
  options.episodes = 150;
  options.seed = seed;
  return options;
}

// ---- QTable -----------------------------------------------------------------

TEST(QTable, GetSetAndShape) {
  QTable table(4, 3);
  EXPECT_EQ(table.state_count(), 4u);
  EXPECT_EQ(table.action_count(), 3u);
  EXPECT_DOUBLE_EQ(table.get(2, 1), 0.0);
  table.set(2, 1, 5.5);
  EXPECT_DOUBLE_EQ(table.get(2, 1), 5.5);
  EXPECT_THROW((void)table.get(9, 0), std::out_of_range);
}

TEST(QTable, RowViewsAndOverflowingShape) {
  QTable table(4, 3);
  table.set(2, 1, 5.5);
  EXPECT_DOUBLE_EQ(table.row(2)[1], 5.5);
  table.row(3)[2] = -1.0;
  EXPECT_DOUBLE_EQ(table.get(3, 2), -1.0);
  EXPECT_THROW((void)table.row(4), std::out_of_range);
  EXPECT_THROW(QTable(std::numeric_limits<std::size_t>::max() / 2, 3),
               std::invalid_argument);
}

TEST(QTable, BestActionUnmasked) {
  QTable table(1, 3);
  table.set(0, 0, 1.0);
  table.set(0, 1, 3.0);
  table.set(0, 2, 2.0);
  EXPECT_EQ(table.best_action(0, 0), 1u);
  EXPECT_DOUBLE_EQ(table.max_value(0, 0), 3.0);
}

TEST(QTable, BestActionRespectsMask) {
  QTable table(1, 3);
  table.set(0, 0, 1.0);
  table.set(0, 1, 3.0);
  table.set(0, 2, 2.0);
  EXPECT_EQ(table.best_action(0, 0b101), 2u);  // action 1 masked out
  EXPECT_DOUBLE_EQ(table.max_value(0, 0b101), 2.0);
}

TEST(QTable, TiesBreakToLowestAction) {
  QTable table(1, 3);
  EXPECT_EQ(table.best_action(0, 0), 0u);
}

// best_action's bit-mask select against the plain loop it replaced: the
// first permitted action, then any strictly greater one; action 0 if the
// mask permits none.
std::size_t naive_best_action(std::span<const double> q, std::uint64_t mask) {
  std::size_t best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (std::size_t a = 0; a < q.size(); ++a) {
    if (mask != 0 && ((mask >> a) & 1u) == 0) continue;
    if (!any || q[a] > best_value) {
      best_value = q[a];
      best = a;
      any = true;
    }
  }
  return best;
}

TEST(QTable, BestActionMatchesNaiveArgmax) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Few distinct values, so ties are common; -inf and NaN included.
  const double kValues[] = {-1.0, 0.0, 0.5, 0.5, 2.0, -kInf,
                            std::numeric_limits<double>::quiet_NaN()};
  util::Rng rng(31);
  for (const std::size_t k : {1u, 4u, 64u}) {
    constexpr std::size_t kStates = 300;
    QTable table(kStates, k);
    for (std::size_t s = 0; s < kStates; ++s) {
      // Every tenth row is all equal.
      const double shared = kValues[rng.index(7)];
      for (std::size_t a = 0; a < k; ++a) {
        table.set(s, a, s % 10 == 0 ? shared : kValues[rng.index(7)]);
      }
    }
    const std::uint64_t all =
        k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
    for (std::size_t s = 0; s < kStates; ++s) {
      const std::uint64_t random_bits =
          util::Rng(s * 131 + k).next_below(~std::uint64_t{0});
      for (const std::uint64_t mask :
           {std::uint64_t{0}, all, random_bits & all, random_bits,
            std::uint64_t{1} << (k - 1), ~all}) {
        EXPECT_EQ(table.best_action(s, mask),
                  naive_best_action(table.row(s), mask))
            << "k " << k << " state " << s << " mask " << mask;
      }
    }
  }
}

TEST(QTable, MoreThan64ActionsThrows) {
  EXPECT_THROW(QTable(1, 65), std::invalid_argument);
  EXPECT_NO_THROW(QTable(1, 64));
}

// ---- Training ---------------------------------------------------------------

TEST(Train, ProducesFeasibleAssignmentAtModerateLoad) {
  const gap::Instance inst = test::small_instance(1, 40, 6, 0.7);
  const TrainResult result = train(inst, fast_options(1), TdVariant::kQLearning);
  EXPECT_TRUE(result.best_feasible);
  EXPECT_TRUE(gap::is_feasible(inst, result.best_assignment));
  EXPECT_EQ(result.trace.size(), 150u);
  EXPECT_GT(result.total_steps, 150u * 40u);  // training + greedy eval
}

TEST(Train, BestCostTraceIsMonotone) {
  const gap::Instance inst = test::small_instance(2, 30, 5, 0.6);
  const TrainResult result = train(inst, fast_options(2), TdVariant::kQLearning);
  for (std::size_t e = 1; e < result.trace.size(); ++e) {
    EXPECT_LE(result.trace[e].best_cost_so_far,
              result.trace[e - 1].best_cost_so_far + 1e-9);
  }
}

TEST(Train, EpsilonDecaysToFloor) {
  const gap::Instance inst = test::small_instance(3, 20, 4, 0.6);
  RlOptions options = fast_options(3);
  options.episodes = 500;
  options.epsilon_min = 0.05;
  const TrainResult result = train(inst, options, TdVariant::kSarsa);
  EXPECT_NEAR(result.trace.back().epsilon, 0.05, 1e-9);
  EXPECT_GT(result.trace.front().epsilon, 0.3);
}

TEST(Train, RewardImprovesOverTraining) {
  const gap::Instance inst = test::small_instance(4, 60, 8, 0.75);
  RlOptions options = fast_options(4);
  options.episodes = 300;
  const TrainResult result = train(inst, options, TdVariant::kQLearning);
  // Mean reward over the first vs last 50 episodes.
  double early = 0.0, late = 0.0;
  for (std::size_t e = 0; e < 50; ++e) {
    early += result.trace[e].total_reward;
    late += result.trace[result.trace.size() - 1 - e].total_reward;
  }
  EXPECT_GT(late, early);
}

TEST(Train, DeterministicPerSeed) {
  const gap::Instance inst = test::small_instance(5, 30, 5, 0.7);
  const TrainResult a = train(inst, fast_options(9), TdVariant::kQLearning);
  const TrainResult b = train(inst, fast_options(9), TdVariant::kQLearning);
  EXPECT_EQ(a.best_assignment, b.best_assignment);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
}

TEST(Train, PolishNeverWorsens) {
  const gap::Instance inst = test::small_instance(6, 40, 6, 0.7);
  RlOptions no_polish = fast_options(6);
  no_polish.polish = false;
  RlOptions with_polish = fast_options(6);
  const TrainResult raw = train(inst, no_polish, TdVariant::kQLearning);
  const TrainResult polished = train(inst, with_polish, TdVariant::kQLearning);
  EXPECT_LE(polished.best_cost, raw.best_cost + 1e-9);
}

TEST(Train, BestCostMatchesAssignment) {
  const gap::Instance inst = test::small_instance(7, 30, 5, 0.6);
  const TrainResult result = train(inst, fast_options(7), TdVariant::kQLearning);
  EXPECT_NEAR(gap::evaluate(inst, result.best_assignment).total_cost,
              result.best_cost, 1e-9);
}

// ---- Solver interface ----------------------------------------------------------

TEST(QLearningSolver, BeatsCapacityObliviousNearestOnTightInstances) {
  // At high load the nearest policy overloads; QL must stay feasible.
  const gap::Instance inst = test::small_instance(8, 50, 5, 0.92);
  QLearningSolver ql(fast_options(8));
  solvers::GreedyNearestSolver nearest;
  const auto ql_result = ql.solve(inst);
  const auto nearest_result = nearest.solve(inst);
  EXPECT_TRUE(ql_result.feasible);
  EXPECT_FALSE(nearest_result.feasible);
}

TEST(QLearningSolver, CompetitiveWithGreedyBestFit) {
  double ql_total = 0.0, greedy_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const gap::Instance inst = test::small_instance(seed, 50, 6, 0.8);
    QLearningSolver ql(fast_options(seed));
    solvers::GreedyBestFitSolver greedy;
    ql_total += ql.solve(inst).total_cost;
    greedy_total += greedy.solve(inst).total_cost;
  }
  EXPECT_LE(ql_total, greedy_total + 1e-9);
}

TEST(QLearningSolver, SolvesTrapOptimally) {
  const auto trap = gap::crafted_greedy_trap();
  QLearningSolver solver(fast_options(1));
  const auto result = solver.solve(trap.instance);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.total_cost, trap.optimal_cost);
}

TEST(SarsaSolver, FeasibleAndReportsName) {
  const gap::Instance inst = test::small_instance(9, 40, 6, 0.7);
  SarsaSolver solver(fast_options(9));
  const auto result = solver.solve(inst);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(solver.name(), "sarsa");
  EXPECT_EQ(QLearningSolver(fast_options(1)).name(), "q-learning");
}

TEST(SarsaAndQLearning, ProduceDifferentTrainingDynamics) {
  const gap::Instance inst = test::small_instance(10, 40, 6, 0.8);
  const TrainResult q = train(inst, fast_options(10), TdVariant::kQLearning);
  const TrainResult s = train(inst, fast_options(10), TdVariant::kSarsa);
  // Same seed, different bootstrap targets — traces must diverge.
  bool diverged = false;
  for (std::size_t e = 0; e < q.trace.size(); ++e) {
    if (q.trace[e].episode_cost != s.trace[e].episode_cost) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace tacc::rl
