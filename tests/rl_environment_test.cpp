#include "rl/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

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

// ---- Kernel properties: the fast step against the formulas it replaces ----

std::size_t count_at_or_above(double load,
                              const std::vector<double>& thresholds) {
  std::size_t count = 0;
  for (const double t : thresholds) count += load <= t ? 1 : 0;
  return count;
}

// A step buckets a server's new load by its thresholds instead of by the
// residual_bucket() formula; the two agree at random loads and on both
// sides of every threshold, including capacities near the ends of the
// double range and +inf.
TEST(ResidualBucket, ThresholdsMatchFormula) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(91);
  for (const std::size_t buckets : {1u, 2u, 3u, 4u, 7u, 256u}) {
    for (const double capacity :
         {1.0 / 3.0, 1e-300, 1e300, kInf, 1.0, 7.5, 0x1p-1074, 123.456}) {
      SCOPED_TRACE(::testing::Message()
                   << "buckets " << buckets << " capacity " << capacity);
      const std::vector<double> thresholds =
          residual_bucket_thresholds(capacity, buckets);
      ASSERT_EQ(thresholds.size(), buckets - 1);
      EXPECT_TRUE(std::is_sorted(thresholds.rbegin(), thresholds.rend()));
      const auto expect_agrees = [&](double load) {
        if (!std::isfinite(load) || load < 0.0) return;
        EXPECT_EQ(count_at_or_above(load, thresholds),
                  residual_bucket(load, capacity, buckets))
            << "load " << load;
      };
      for (const double t : thresholds) {
        expect_agrees(t);
        expect_agrees(std::nextafter(t, -kInf));
        expect_agrees(std::nextafter(t, kInf));
      }
      const double span = std::isfinite(capacity) ? capacity : 1e300;
      expect_agrees(0.0);
      expect_agrees(span);
      expect_agrees(std::nextafter(span, kInf));
      for (int draw = 0; draw < 200; ++draw) {
        expect_agrees(rng.uniform(0.0, 1.25) * span);
      }
    }
  }
}

// Delays from a short list of values and their neighbouring doubles, and
// weights that are not powers of two: weight × delay often rounds equal for
// two different delays, which is where a rank-order scan could pick a
// different server than a scan by index.
gap::Instance tie_heavy_instance(std::uint64_t seed, bool demand_matrix) {
  constexpr std::size_t kDevices = 120;
  constexpr std::size_t kServers = 9;
  util::Rng rng(seed);
  const double kBases[] = {1.0, 2.0, 3.0, 0.1};
  const double kWeights[] = {0.1, 1.0 / 3.0, 0.7, 1.0};
  topo::DelayMatrix delay(kDevices, kServers);
  topo::DelayMatrix demand(kDevices, kServers);
  std::vector<double> weights(kDevices);
  std::vector<double> demands(kDevices);
  for (std::size_t i = 0; i < kDevices; ++i) {
    weights[i] = kWeights[rng.index(4)];
    demands[i] = rng.uniform(1.0, 3.0);
    for (std::size_t j = 0; j < kServers; ++j) {
      double d = kBases[rng.index(4)];
      for (std::size_t up = rng.index(3); up > 0; --up) {
        d = std::nextafter(d, 10.0);
      }
      delay.set(i, j, d);
      demand.set(i, j, rng.uniform(1.0, 3.0));
    }
  }
  // About 95% of the mean demand: capacity binds, so steps redirect and
  // some overload.
  std::vector<double> capacities(kServers,
                                 0.95 * 2.0 * kDevices / kServers);
  if (demand_matrix) {
    return gap::Instance::with_demand_matrix(std::move(delay),
                                             std::move(weights),
                                             std::move(demand),
                                             std::move(capacities));
  }
  return gap::Instance(std::move(delay), std::move(weights),
                       std::move(demands), std::move(capacities));
}

// The server the step rule picks for `device` after choosing `pick`, by
// the scan over every server in index order (strict <, lowest index wins),
// and the half-penalties it charges (0, 1 for a redirect, 2 for an
// overload).
std::pair<gap::ServerIndex, int> reference_target(
    const gap::Instance& instance, const std::vector<double>& loads,
    gap::DeviceIndex device, gap::ServerIndex pick) {
  const std::size_t m = instance.server_count();
  const auto fits = [&](gap::ServerIndex s) {
    return loads[s] + instance.demand(device, s) <=
           instance.capacity(s) + 1e-9;
  };
  if (fits(pick)) return {pick, 0};
  const double weight = instance.traffic_weights()[device];
  gap::ServerIndex redirect = m;
  double redirect_cost = std::numeric_limits<double>::infinity();
  for (gap::ServerIndex s = 0; s < m; ++s) {
    if (fits(s) && weight * instance.delay_ms(device, s) < redirect_cost) {
      redirect_cost = weight * instance.delay_ms(device, s);
      redirect = s;
    }
  }
  if (redirect != m) return {redirect, 1};
  gap::ServerIndex least = 0;
  double least_utilization = std::numeric_limits<double>::infinity();
  for (gap::ServerIndex s = 0; s < m; ++s) {
    const double utilization =
        (loads[s] + instance.demand(device, s)) / instance.capacity(s);
    if (utilization < least_utilization) {
      least_utilization = utilization;
      least = s;
    }
  }
  return {least, 2};
}

TEST(Environment, RankOrderRedirectMatchesFullScan) {
  std::size_t redirects = 0;
  std::size_t overloads = 0;
  std::size_t collisions = 0;
  for (const bool demand_matrix : {false, true}) {
    for (const bool masked : {true, false}) {
      const gap::Instance instance = tie_heavy_instance(17, demand_matrix);
      const std::size_t n = instance.device_count();
      const std::size_t m = instance.server_count();
      for (gap::DeviceIndex i = 0; i < n; ++i) {
        const double w = instance.traffic_weights()[i];
        for (gap::ServerIndex a = 0; a < m; ++a) {
          for (gap::ServerIndex b = a + 1; b < m; ++b) {
            const double da = instance.delay_ms(i, a);
            const double db = instance.delay_ms(i, b);
            if (da != db && w * da == w * db) ++collisions;
          }
        }
      }
      EnvOptions options;
      AssignmentEnv env(instance, options, 5);
      util::Rng rng(23);
      for (int episode = 0; episode < 20; ++episode) {
        SCOPED_TRACE(::testing::Message()
                     << "demand_matrix " << demand_matrix << " masked "
                     << masked << " episode " << episode);
        env.reset();
        std::vector<double> loads(m, 0.0);
        gap::Assignment before = env.assignment();
        while (!env.done()) {
          // Unmasked picks are the mask_infeasible = false agent's.
          const Observation obs = env.observe();
          std::size_t action = rng.index(env.action_count());
          if (masked && obs.mask != 0) {
            while (((obs.mask >> action) & 1u) == 0) {
              action = rng.index(env.action_count());
            }
          }
          const gap::ServerIndex pick = env.action_server(action);
          const double reward = env.step(action);
          gap::DeviceIndex device = n;
          for (gap::DeviceIndex i = 0; i < n; ++i) {
            if (before[i] != env.assignment()[i]) device = i;
          }
          ASSERT_LT(device, n);
          const auto [target, half_penalties] =
              reference_target(instance, loads, device, pick);
          redirects += half_penalties == 1 ? 1 : 0;
          overloads += half_penalties == 2 ? 1 : 0;
          ASSERT_EQ(env.assignment()[device],
                    static_cast<std::int32_t>(target));
          double expected = 0.0;
          if (half_penalties > 0) {
            expected -= half_penalties == 1 ? options.overload_penalty / 2.0
                                            : options.overload_penalty;
          }
          expected -= instance.cost(device, target) / env.cost_scale();
          EXPECT_EQ(reward, expected);
          loads[target] += instance.demand(device, target);
          before = env.assignment();
        }
      }
    }
  }
  EXPECT_GT(collisions, 0u);
  EXPECT_GT(redirects, 100u);
  EXPECT_GT(overloads, 0u);
}

}  // namespace
}  // namespace tacc::rl
