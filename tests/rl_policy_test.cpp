// Policy persistence and cross-instance transfer.
#include "rl/policy.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/scenario.hpp"
#include "solvers/constructive.hpp"
#include "tests/test_helpers.hpp"

namespace tacc::rl {
namespace {

RlOptions fast_options(std::uint64_t seed) {
  RlOptions options;
  options.episodes = 200;
  options.seed = seed;
  return options;
}

TEST(TrainPolicy, ReturnsPopulatedTable) {
  const gap::Instance inst = test::small_instance(1, 40, 6, 0.7);
  const TrainedPolicy policy =
      train_policy(inst, fast_options(1), TdVariant::kQLearning);
  EXPECT_GT(policy.table.state_count(), 0u);
  EXPECT_EQ(policy.table.action_count(),
            std::min<std::size_t>(policy.env.candidate_count, 6));
  // Training must have touched the table.
  bool any_nonzero = false;
  for (std::size_t s = 0; s < policy.table.state_count() && !any_nonzero;
       ++s) {
    for (std::size_t a = 0; a < policy.table.action_count(); ++a) {
      if (policy.table.get(s, a) != 0.0) {
        any_nonzero = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(TrainWithTableOut, MatchesPlainTrain) {
  const gap::Instance inst = test::small_instance(2, 30, 5, 0.7);
  QTable table(0, 0);
  const TrainResult with_out =
      train(inst, fast_options(5), TdVariant::kQLearning, &table);
  const TrainResult without =
      train(inst, fast_options(5), TdVariant::kQLearning);
  EXPECT_EQ(with_out.best_assignment, without.best_assignment);
  EXPECT_GT(table.state_count(), 0u);
}

TEST(ApplyPolicy, SameInstanceIsFeasibleAndGood) {
  const gap::Instance inst = test::small_instance(3, 50, 6, 0.75);
  const TrainedPolicy policy =
      train_policy(inst, fast_options(3), TdVariant::kQLearning);
  const auto result = apply_policy(inst, policy, {.seed = 3});
  EXPECT_TRUE(result.feasible);
  solvers::RandomSolver random(3);
  EXPECT_LT(result.total_cost, random.solve(inst).total_cost);
}

TEST(ApplyPolicy, TransfersAcrossSeeds) {
  // Train on one scenario, apply to four fresh ones of the same character.
  const Scenario train_scenario = Scenario::smart_city(80, 8, 100);
  const TrainedPolicy policy = train_policy(
      train_scenario.instance(), fast_options(100), TdVariant::kQLearning);
  for (std::uint64_t seed = 201; seed <= 204; ++seed) {
    const Scenario target = Scenario::smart_city(80, 8, seed);
    const auto result =
        apply_policy(target.instance(), policy, {.seed = seed});
    EXPECT_TRUE(result.feasible) << "seed " << seed;
  }
}

TEST(ApplyPolicy, MuchFasterThanRetraining) {
  const Scenario train_scenario = Scenario::smart_city(100, 8, 50);
  RlOptions options = fast_options(50);
  options.episodes = 400;
  const TrainedPolicy policy = train_policy(
      train_scenario.instance(), options, TdVariant::kQLearning);
  const Scenario target = Scenario::smart_city(100, 8, 51);

  const auto transferred =
      apply_policy(target.instance(), policy, {.seed = 51});
  QLearningSolver fresh(options);
  const auto retrained = fresh.solve(target.instance());
  EXPECT_LT(transferred.wall_ms, retrained.wall_ms);
}

TEST(ApplyPolicy, RejectsEmptyOrMismatchedPolicies) {
  const gap::Instance inst = test::small_instance(4, 20, 5, 0.6);
  TrainedPolicy empty;
  EXPECT_THROW((void)apply_policy(inst, empty, {}), std::invalid_argument);

  TrainedPolicy policy =
      train_policy(inst, fast_options(4), TdVariant::kQLearning);
  // An instance with fewer servers than the policy's candidate count makes
  // the env clamp K → action-count mismatch.
  const gap::Instance narrow = test::small_instance(4, 20, 2, 0.6);
  EXPECT_THROW((void)apply_policy(narrow, policy, {}),
               std::invalid_argument);
}

TEST(PolicyIo, RoundTripExact) {
  const gap::Instance inst = test::small_instance(5, 30, 5, 0.7);
  const TrainedPolicy original =
      train_policy(inst, fast_options(5), TdVariant::kSarsa);
  std::stringstream buffer;
  save_policy(original, buffer);
  const TrainedPolicy loaded = load_policy(buffer);
  ASSERT_EQ(loaded.table.state_count(), original.table.state_count());
  ASSERT_EQ(loaded.table.action_count(), original.table.action_count());
  for (std::size_t s = 0; s < original.table.state_count(); ++s) {
    for (std::size_t a = 0; a < original.table.action_count(); ++a) {
      EXPECT_EQ(loaded.table.get(s, a), original.table.get(s, a));
    }
  }
  EXPECT_EQ(loaded.env.candidate_count, original.env.candidate_count);
  EXPECT_EQ(loaded.env.load_buckets, original.env.load_buckets);
  EXPECT_EQ(loaded.env.overload_penalty, original.env.overload_penalty);
}

TEST(PolicyIo, LoadedPolicyBehavesIdentically) {
  const gap::Instance inst = test::small_instance(6, 40, 5, 0.7);
  const TrainedPolicy original =
      train_policy(inst, fast_options(6), TdVariant::kQLearning);
  std::stringstream buffer;
  save_policy(original, buffer);
  const TrainedPolicy loaded = load_policy(buffer);
  const auto a = apply_policy(inst, original, {.seed = 9});
  const auto b = apply_policy(inst, loaded, {.seed = 9});
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(PolicyIo, MalformedInputsThrow) {
  std::stringstream bad_magic("nope\n");
  EXPECT_THROW((void)load_policy(bad_magic), std::runtime_error);
  std::stringstream no_env("tacc-policy v1\ntable,1,1\n0\n");
  EXPECT_THROW((void)load_policy(no_env), std::runtime_error);
  std::stringstream truncated("tacc-policy v1\nenv,4,4,3,3,8,1\ntable,4,2\n0\n");
  EXPECT_THROW((void)load_policy(truncated), std::runtime_error);
  std::stringstream zero_shape("tacc-policy v1\nenv,4,4,3,3,8,1\ntable,0,2\n");
  EXPECT_THROW((void)load_policy(zero_shape), std::runtime_error);
  // A Q-table holds at most 64 actions (the feasibility mask's width).
  std::stringstream wide("tacc-policy v1\nenv,4,4,3,3,8,1\ntable,1,65\n");
  EXPECT_THROW((void)load_policy(wide), std::runtime_error);
}

TEST(PolicyIo, FileRoundTrip) {
  const gap::Instance inst = test::small_instance(7, 20, 4, 0.6);
  const TrainedPolicy original =
      train_policy(inst, fast_options(7), TdVariant::kQLearning);
  const std::string path = ::testing::TempDir() + "/tacc_policy_test.pol";
  save_policy_file(original, path);
  const TrainedPolicy loaded = load_policy_file(path);
  EXPECT_EQ(loaded.table.state_count(), original.table.state_count());
  std::remove(path.c_str());
  EXPECT_THROW((void)load_policy_file("/nonexistent/p.pol"),
               std::runtime_error);
}

}  // namespace
}  // namespace tacc::rl
