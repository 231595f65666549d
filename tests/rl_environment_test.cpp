#include "rl/environment.hpp"

#include <gtest/gtest.h>

#include "gap/testgen.hpp"
#include "tests/test_helpers.hpp"

namespace tacc::rl {
namespace {

EnvOptions small_env_options() {
  EnvOptions options;
  options.candidate_count = 3;
  options.load_buckets = 2;
  options.demand_buckets = 2;
  options.spread_buckets = 2;
  return options;
}

TEST(Environment, StateCountFormula) {
  const gap::Instance inst = test::small_instance(1, 20, 5);
  AssignmentEnv env(inst, small_env_options(), 1);
  // demand(2) × spread(2) × load_buckets(2)^K(3) = 32.
  EXPECT_EQ(env.state_count(), 32u);
  EXPECT_EQ(env.action_count(), 3u);
}

TEST(Environment, CandidateCountClampedToServers) {
  const gap::Instance inst = test::small_instance(2, 10, 2);
  EnvOptions options = small_env_options();
  options.candidate_count = 10;
  AssignmentEnv env(inst, options, 1);
  EXPECT_EQ(env.action_count(), 2u);
}

TEST(Environment, ZeroCandidatesThrows) {
  const gap::Instance inst = test::small_instance(3, 10, 2);
  EnvOptions options;
  options.candidate_count = 0;
  EXPECT_THROW(AssignmentEnv(inst, options, 1), std::invalid_argument);
}

TEST(Environment, MoreThan64CandidatesThrows) {
  // The feasibility mask is 64 bits: K = 65 on 80 servers must be refused,
  // not shifted past the mask's width. At 2% load every server fits any
  // one device.
  const gap::Instance inst = test::small_instance(3, 10, 80, 0.02);
  EnvOptions options = small_env_options();
  options.load_buckets = 1;
  options.candidate_count = 65;
  EXPECT_THROW(AssignmentEnv(inst, options, 1), std::invalid_argument);
  options.candidate_count = 64;
  AssignmentEnv env(inst, options, 1);
  EXPECT_EQ(env.action_count(), 64u);
  // Every bit of a full mask is a candidate that fits the empty cluster.
  EXPECT_EQ(env.feasible_mask(), ~std::uint64_t{0});
}

TEST(Environment, OversizedStateSpaceThrows) {
  const gap::Instance inst = test::small_instance(3, 10, 80);
  EnvOptions options = small_env_options();
  options.candidate_count = 64;  // 2^64 load states alone overflow
  EXPECT_THROW(AssignmentEnv(inst, options, 1), std::invalid_argument);
  options.candidate_count = 4;
  options.load_buckets = 257;  // bucket indices are bytes
  EXPECT_THROW(AssignmentEnv(inst, options, 1), std::invalid_argument);
  options.load_buckets = 256;
  AssignmentEnv env(inst, options, 1);
  EXPECT_EQ(env.state_count(), std::size_t{1} << 34);
}

TEST(Environment, ObserveMatchesStateAndMask) {
  const gap::Instance inst = test::small_instance(9, 40, 6, 0.9);
  AssignmentEnv env(inst, small_env_options(), 5);
  while (!env.done()) {
    const Observation obs = env.observe();
    EXPECT_EQ(obs.state, env.state());
    EXPECT_EQ(obs.mask, env.feasible_mask());
    (void)env.step(0);
  }
  EXPECT_EQ(env.feasible_mask(), 0u);
  EXPECT_THROW((void)env.observe(), std::logic_error);
}

TEST(Environment, EpisodeAssignsEveryDevice) {
  const gap::Instance inst = test::small_instance(4, 25, 5, 0.5);
  AssignmentEnv env(inst, small_env_options(), 7);
  std::size_t steps = 0;
  while (!env.done()) {
    EXPECT_LT(env.state(), env.state_count());
    (void)env.step(0);
    ++steps;
  }
  EXPECT_EQ(steps, inst.device_count());
  for (std::int32_t x : env.assignment()) EXPECT_NE(x, gap::kUnassigned);
  EXPECT_THROW((void)env.step(0), std::logic_error);
  EXPECT_THROW((void)env.state(), std::logic_error);
}

TEST(Environment, EpisodeCostMatchesEvaluate) {
  const gap::Instance inst = test::small_instance(5, 25, 5, 0.5);
  AssignmentEnv env(inst, small_env_options(), 7);
  while (!env.done()) (void)env.step(env.feasible_mask() & 1 ? 0 : 1);
  const gap::Evaluation ev = gap::evaluate(inst, env.assignment());
  EXPECT_NEAR(ev.total_cost, env.episode_cost(), 1e-9);
  EXPECT_EQ(env.episode_feasible(), ev.feasible);
}

TEST(Environment, ResetClearsEpisodeState) {
  const gap::Instance inst = test::small_instance(6, 15, 4, 0.5);
  AssignmentEnv env(inst, small_env_options(), 7);
  while (!env.done()) (void)env.step(0);
  const double first_cost = env.episode_cost();
  EXPECT_GT(first_cost, 0.0);
  env.reset();
  EXPECT_FALSE(env.done());
  EXPECT_DOUBLE_EQ(env.episode_cost(), 0.0);
  EXPECT_EQ(env.violations(), 0u);
}

TEST(Environment, ActionZeroIsLowestDelayCandidate) {
  const gap::Instance inst = test::small_instance(7, 15, 4, 0.3);
  EnvOptions options = small_env_options();
  options.shuffle_order = false;
  AssignmentEnv env(inst, options, 7);
  // With order unshuffled, the first device is device 0.
  const gap::ServerIndex server = env.action_server(0);
  EXPECT_EQ(server, inst.servers_by_delay(0)[0]);
  EXPECT_THROW((void)env.action_server(99), std::out_of_range);
}

TEST(Environment, FeasibleMaskReflectsCapacity) {
  // One tiny server and one huge server: once the tiny one fills, its bit
  // must drop out of the mask.
  topo::DelayMatrix delay(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    delay.set(i, 0, 1.0);   // everyone prefers server 0
    delay.set(i, 1, 10.0);
  }
  const gap::Instance inst(std::move(delay), {},
                           std::vector<double>{1.0, 1.0, 1.0},
                           std::vector<double>{1.0, 10.0});
  EnvOptions options;
  options.candidate_count = 2;
  options.shuffle_order = false;
  AssignmentEnv env(inst, options, 1);
  EXPECT_EQ(env.feasible_mask(), 0b11u);
  (void)env.step(0);  // fills server 0
  EXPECT_EQ(env.feasible_mask(), 0b10u);
}

TEST(Environment, RedirectsInsteadOfOverloading) {
  // Server 0 fits one device; choosing action 0 twice must redirect the
  // second device to server 1 rather than overload server 0.
  topo::DelayMatrix delay(2, 2);
  delay.set(0, 0, 1.0);
  delay.set(0, 1, 5.0);
  delay.set(1, 0, 1.0);
  delay.set(1, 1, 5.0);
  const gap::Instance inst(std::move(delay), {},
                           std::vector<double>{1.0, 1.0},
                           std::vector<double>{1.0, 5.0});
  EnvOptions options;
  options.candidate_count = 1;  // only the nearest server is offered
  options.shuffle_order = false;
  AssignmentEnv env(inst, options, 1);
  const double r1 = env.step(0);
  const double r2 = env.step(0);
  EXPECT_TRUE(env.episode_feasible());
  EXPECT_EQ(env.violations(), 0u);
  EXPECT_LT(r2, r1);  // redirect penalty applied
  EXPECT_EQ(env.assignment()[1], 1);
}

TEST(Environment, TrueOverloadCountsViolation) {
  // No server can fit the second device anywhere.
  topo::DelayMatrix delay(2, 1, 1.0);
  const gap::Instance inst(std::move(delay), {},
                           std::vector<double>{1.0, 1.0},
                           std::vector<double>{1.5});
  EnvOptions options;
  options.candidate_count = 1;
  options.shuffle_order = false;
  AssignmentEnv env(inst, options, 1);
  (void)env.step(0);
  (void)env.step(0);
  EXPECT_FALSE(env.episode_feasible());
  EXPECT_EQ(env.violations(), 1u);
}

TEST(Environment, CostScaleIsMeanMinCost) {
  const auto trap = gap::crafted_greedy_trap();
  AssignmentEnv env(trap.instance, small_env_options(), 1);
  EXPECT_NEAR(env.cost_scale(), (1.0 + 2.0) / 2.0, 1e-12);
}

TEST(Environment, ShuffleChangesOrderAcrossEpisodes) {
  const gap::Instance inst = test::small_instance(8, 30, 4, 0.3);
  EnvOptions options = small_env_options();
  options.shuffle_order = true;
  AssignmentEnv env(inst, options, 3);
  // Act greedily twice; identical actions but shuffled orders should make
  // at least one device land differently across episodes with high
  // probability when capacities bind differently. Instead verify more
  // directly: the sequence of states differs between episodes.
  std::vector<std::size_t> states1, states2;
  while (!env.done()) {
    states1.push_back(env.state());
    (void)env.step(0);
  }
  env.reset();
  while (!env.done()) {
    states2.push_back(env.state());
    (void)env.step(0);
  }
  EXPECT_NE(states1, states2);
}

}  // namespace
}  // namespace tacc::rl
