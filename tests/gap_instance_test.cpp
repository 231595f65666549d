#include "gap/instance.hpp"

#include <gtest/gtest.h>

#include "gap/testgen.hpp"
#include "tests/test_helpers.hpp"
#include "util/rng.hpp"

namespace tacc::gap {
namespace {

Instance make_2x2() {
  topo::DelayMatrix delay(2, 2);
  delay.set(0, 0, 1.0);
  delay.set(0, 1, 4.0);
  delay.set(1, 0, 2.0);
  delay.set(1, 1, 3.0);
  return Instance(std::move(delay), {2.0, 1.0}, {1.0, 1.5}, {2.0, 2.0});
}

TEST(Instance, AccessorsReflectInputs) {
  const Instance inst = make_2x2();
  EXPECT_EQ(inst.device_count(), 2u);
  EXPECT_EQ(inst.server_count(), 2u);
  EXPECT_DOUBLE_EQ(inst.delay_ms(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(inst.traffic_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(inst.cost(0, 1), 8.0);  // weight 2 × delay 4
  EXPECT_DOUBLE_EQ(inst.demand(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(inst.capacity(1), 2.0);
  EXPECT_TRUE(inst.uniform_demand());
}

TEST(Instance, EmptyWeightsBecomeOnes) {
  topo::DelayMatrix delay(2, 1);
  delay.set(0, 0, 3.0);
  delay.set(1, 0, 5.0);
  const Instance inst(std::move(delay), {}, {1.0, 1.0}, {10.0});
  EXPECT_DOUBLE_EQ(inst.traffic_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(inst.cost(1, 0), 5.0);
}

TEST(Instance, ShapeValidation) {
  topo::DelayMatrix delay(2, 2, 1.0);
  EXPECT_THROW(Instance(delay, {1.0}, {1.0, 1.0}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Instance(delay, {}, {1.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Instance(delay, {}, {1.0, 1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Instance(topo::DelayMatrix(0, 0), {}, {}, {}),
               std::invalid_argument);
}

TEST(Instance, PositivityValidation) {
  topo::DelayMatrix delay(1, 1, 1.0);
  EXPECT_THROW(Instance(delay, {0.0}, {1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Instance(delay, {}, {0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Instance(delay, {}, {1.0}, {-1.0}), std::invalid_argument);
}

TEST(Instance, GeneralDemandMatrixVariant) {
  topo::DelayMatrix delay(2, 2, 1.0);
  topo::DelayMatrix demand(2, 2);
  demand.set(0, 0, 1.0);
  demand.set(0, 1, 2.0);
  demand.set(1, 0, 3.0);
  demand.set(1, 1, 4.0);
  const Instance inst = Instance::with_demand_matrix(
      std::move(delay), {}, std::move(demand), {10.0, 10.0});
  EXPECT_FALSE(inst.uniform_demand());
  EXPECT_DOUBLE_EQ(inst.demand(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(inst.demand(1, 0), 3.0);
}

TEST(Instance, GeneralDemandShapeMismatchThrows) {
  topo::DelayMatrix delay(2, 2, 1.0);
  topo::DelayMatrix demand(2, 3, 1.0);
  EXPECT_THROW(Instance::with_demand_matrix(delay, {}, demand,
                                            std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
}

TEST(Instance, LoadFactorUsesMinDemand) {
  const Instance inst = make_2x2();
  // total demand 2.5, total capacity 4.0.
  EXPECT_NEAR(inst.load_factor(), 2.5 / 4.0, 1e-12);
  EXPECT_NEAR(inst.total_capacity(), 4.0, 1e-12);
  EXPECT_NEAR(inst.total_demand_lower_bound(), 2.5, 1e-12);
}

TEST(Instance, ServersByDelaySortedPerDevice) {
  util::Rng rng(3);
  const Instance inst = test::small_instance(3, 30, 6);
  for (DeviceIndex i = 0; i < inst.device_count(); ++i) {
    const auto ranked = inst.servers_by_delay(i);
    ASSERT_EQ(ranked.size(), inst.server_count());
    for (std::size_t r = 0; r + 1 < ranked.size(); ++r) {
      EXPECT_LE(inst.delay_ms(i, ranked[r]), inst.delay_ms(i, ranked[r + 1]));
    }
    // It must be a permutation.
    std::vector<bool> seen(inst.server_count(), false);
    for (std::uint32_t s : ranked) seen[s] = true;
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
  }
}

TEST(Instance, ServersByDelayBadIndexThrows) {
  const Instance inst = make_2x2();
  EXPECT_THROW((void)inst.servers_by_delay(5), std::out_of_range);
}

TEST(RandomInstance, HitsLoadFactor) {
  RandomInstanceParams params;
  params.load_factor = 0.65;
  util::Rng rng(4);
  const Instance inst = random_instance(params, rng);
  EXPECT_NEAR(inst.load_factor(), 0.65, 1e-9);
}

TEST(RandomInstance, RespectsShape) {
  RandomInstanceParams params;
  params.device_count = 13;
  params.server_count = 7;
  util::Rng rng(5);
  const Instance inst = random_instance(params, rng);
  EXPECT_EQ(inst.device_count(), 13u);
  EXPECT_EQ(inst.server_count(), 7u);
}

TEST(RandomInstance, DelaysWithinRange) {
  util::Rng rng(6);
  const Instance inst = random_instance(RandomInstanceParams{}, rng);
  for (DeviceIndex i = 0; i < inst.device_count(); ++i) {
    for (ServerIndex j = 0; j < inst.server_count(); ++j) {
      EXPECT_GE(inst.delay_ms(i, j), 1.0);
      EXPECT_LE(inst.delay_ms(i, j), 30.0);
    }
  }
}

TEST(CraftedInstances, OptimaVerifiedByBruteForce) {
  const auto trap = crafted_greedy_trap();
  EXPECT_DOUBLE_EQ(test::brute_force_optimum(trap.instance),
                   trap.optimal_cost);
  const auto squeeze = crafted_capacity_squeeze();
  EXPECT_DOUBLE_EQ(test::brute_force_optimum(squeeze.instance),
                   squeeze.optimal_cost);
}

TEST(CraftedInstances, StoredAssignmentsAchieveOptimum) {
  const auto trap = crafted_greedy_trap();
  double cost = 0.0;
  for (std::size_t i = 0; i < trap.optimal_assignment.size(); ++i) {
    cost += trap.instance.cost(
        i, static_cast<ServerIndex>(trap.optimal_assignment[i]));
  }
  EXPECT_DOUBLE_EQ(cost, trap.optimal_cost);
}

}  // namespace
}  // namespace tacc::gap
