// Deadline metadata on instances and the deadline-penalty transform.
#include <gtest/gtest.h>

#include <cmath>

#include "core/configurator.hpp"
#include "gap/instance.hpp"
#include "gap/solution.hpp"
#include "tests/test_helpers.hpp"

namespace tacc::gap {
namespace {

Instance deadline_2x2() {
  //       s0    s1
  // d0:  2ms  10ms   deadline 5ms  → only s0 meets it
  // d1:  3ms   4ms   deadline 20ms → both meet it
  topo::DelayMatrix delay(2, 2);
  delay.set(0, 0, 2.0);
  delay.set(0, 1, 10.0);
  delay.set(1, 0, 3.0);
  delay.set(1, 1, 4.0);
  Instance inst(std::move(delay), {}, {1.0, 1.0}, {10.0, 10.0});
  inst.set_deadlines({5.0, 20.0});
  return inst;
}

TEST(Deadlines, AttachAndQuery) {
  const Instance inst = deadline_2x2();
  EXPECT_TRUE(inst.has_deadlines());
  EXPECT_DOUBLE_EQ(inst.deadline_ms(0), 5.0);
  EXPECT_DOUBLE_EQ(inst.deadline_ms(1), 20.0);
  EXPECT_THROW((void)inst.deadline_ms(9), std::out_of_range);
}

TEST(Deadlines, NoDeadlinesMeansInfinity) {
  const Instance inst = test::small_instance(1);
  EXPECT_FALSE(inst.has_deadlines());
  EXPECT_TRUE(std::isinf(inst.deadline_ms(0)));
}

TEST(Deadlines, ValidationOnAttach) {
  Instance inst = test::small_instance(2, 5, 2);
  EXPECT_THROW(inst.set_deadlines({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(inst.set_deadlines({1.0, 2.0, 3.0, 4.0, 0.0}),
               std::invalid_argument);
  inst.set_deadlines({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_TRUE(inst.has_deadlines());
  inst.set_deadlines({});  // clears
  EXPECT_FALSE(inst.has_deadlines());
}

TEST(Deadlines, EvaluationCountsViolations) {
  const Instance inst = deadline_2x2();
  const Evaluation good = evaluate(inst, {0, 1});
  EXPECT_EQ(good.deadline_violations, 0u);
  EXPECT_TRUE(good.meets_deadlines);
  const Evaluation bad = evaluate(inst, {1, 1});  // d0 on s1: 10 > 5
  EXPECT_EQ(bad.deadline_violations, 1u);
  EXPECT_FALSE(bad.meets_deadlines);
  EXPECT_TRUE(bad.feasible);  // capacity untouched by deadlines
}

TEST(Deadlines, NoDeadlinesNeverMeets) {
  const Instance inst = test::small_instance(3, 5, 2, 0.3);
  const Evaluation ev = evaluate(inst, {0, 0, 0, 0, 0});
  EXPECT_EQ(ev.deadline_violations, 0u);
  EXPECT_FALSE(ev.meets_deadlines);
}

TEST(Deadlines, PenaltyTransformInflatesOnlyViolators) {
  const Instance inst = deadline_2x2();
  const Instance penalized = inst.with_deadline_penalty(10.0);
  EXPECT_DOUBLE_EQ(penalized.delay_ms(0, 0), 2.0);    // within deadline
  EXPECT_DOUBLE_EQ(penalized.delay_ms(0, 1), 100.0);  // 10 > 5: ×10
  EXPECT_DOUBLE_EQ(penalized.delay_ms(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(penalized.delay_ms(1, 1), 4.0);
  EXPECT_TRUE(penalized.has_deadlines());
}

TEST(Deadlines, PenaltyTransformValidation) {
  const Instance no_deadlines = test::small_instance(4);
  EXPECT_THROW((void)no_deadlines.with_deadline_penalty(10.0),
               std::logic_error);
  const Instance inst = deadline_2x2();
  EXPECT_THROW((void)inst.with_deadline_penalty(1.0), std::invalid_argument);
}

TEST(Deadlines, BuilderAttachesWorkloadDeadlines) {
  const tacc::Scenario scenario = tacc::Scenario::factory(30, 4, 9);
  EXPECT_TRUE(scenario.instance().has_deadlines());
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(scenario.instance().deadline_ms(i),
                     scenario.workload().iot[i].deadline_ms);
  }
}

TEST(Deadlines, DeadlineAwareConfigurationReducesViolations) {
  // Aggregate across seeds: penalizing deadline-violating servers during
  // solving must not increase realized violations.
  std::size_t plain_violations = 0;
  std::size_t aware_violations = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    tacc::ScenarioParams params;
    params.workload.iot_count = 60;
    params.workload.edge_count = 6;
    // Deadlines so tight that some assignment choices violate them.
    params.workload.deadline_min_ms = 4.0;
    params.workload.deadline_max_ms = 8.0;
    params.seed = seed;
    const tacc::Scenario scenario = tacc::Scenario::generate(params);
    const tacc::ClusterConfigurator configurator(scenario);
    tacc::AlgorithmOptions options;
    options.apply_seed(seed);
    plain_violations +=
        configurator.configure({tacc::Algorithm::kGreedyBestFit, options})
            .evaluation()
            .deadline_violations;
    aware_violations +=
        configurator
            .configure({tacc::Algorithm::kGreedyBestFit, options,
                        tacc::CostModel::kDeadlinePenalized})
            .evaluation()
            .deadline_violations;
  }
  EXPECT_LE(aware_violations, plain_violations);
}

TEST(Deadlines, PenaltyPreservedThroughGeneralDemandVariant) {
  topo::DelayMatrix delay(1, 2);
  delay.set(0, 0, 1.0);
  delay.set(0, 1, 9.0);
  topo::DelayMatrix demand(1, 2, 1.0);
  Instance inst = Instance::with_demand_matrix(std::move(delay), {},
                                               std::move(demand), {5.0, 5.0});
  inst.set_deadlines({2.0});
  const Instance penalized = inst.with_deadline_penalty(5.0);
  EXPECT_FALSE(penalized.uniform_demand());
  EXPECT_DOUBLE_EQ(penalized.delay_ms(0, 1), 45.0);
}

}  // namespace
}  // namespace tacc::gap
