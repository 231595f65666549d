#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include "topology/shortest_paths.hpp"

namespace tacc {
namespace {

TEST(Scenario, GenerateProducesConsistentShapes) {
  ScenarioParams params;
  params.workload.iot_count = 50;
  params.workload.edge_count = 6;
  params.seed = 1;
  const Scenario scenario = Scenario::generate(params);
  EXPECT_EQ(scenario.network().iot_count(), 50u);
  EXPECT_EQ(scenario.network().edge_count(), 6u);
  EXPECT_EQ(scenario.workload().iot.size(), 50u);
  EXPECT_EQ(scenario.instance().device_count(), 50u);
  EXPECT_EQ(scenario.instance().server_count(), 6u);
}

TEST(Scenario, DeterministicForSeed) {
  ScenarioParams params;
  params.workload.iot_count = 30;
  params.workload.edge_count = 4;
  params.seed = 9;
  const Scenario a = Scenario::generate(params);
  const Scenario b = Scenario::generate(params);
  EXPECT_EQ(a.instance().delay_ms(3, 1), b.instance().delay_ms(3, 1));
  EXPECT_EQ(a.workload().iot[7].demand, b.workload().iot[7].demand);
  params.seed = 10;
  const Scenario c = Scenario::generate(params);
  EXPECT_NE(a.instance().delay_ms(3, 1), c.instance().delay_ms(3, 1));
}

TEST(Scenario, NetworkIsConnected) {
  const Scenario scenario = Scenario::smart_city(40, 5, 3);
  EXPECT_TRUE(topo::is_connected(scenario.network().graph));
}

TEST(Scenario, InstanceDelaysAreFiniteAndPositive) {
  const Scenario scenario = Scenario::smart_city(40, 5, 4);
  const auto& inst = scenario.instance();
  for (std::size_t i = 0; i < inst.device_count(); ++i) {
    for (std::size_t j = 0; j < inst.server_count(); ++j) {
      EXPECT_GT(inst.delay_ms(i, j), 0.0);
      EXPECT_LT(inst.delay_ms(i, j), 1e6);
    }
  }
}

TEST(Scenario, ObliviousInstanceUsesEuclideanCosts) {
  const Scenario scenario = Scenario::smart_city(30, 4, 5);
  const auto& aware = scenario.instance();
  const gap::Instance oblivious =
      gap::build_instance(scenario.network(), scenario.workload(),
                          {.topology_oblivious_costs = true});
  ASSERT_EQ(oblivious.device_count(), aware.device_count());
  // Euclidean km values are much smaller than path-delay ms values and not
  // equal in general.
  bool any_different = false;
  for (std::size_t i = 0; i < aware.device_count() && !any_different; ++i) {
    if (aware.delay_ms(i, 0) != oblivious.delay_ms(i, 0)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
  // Same demands/capacities though.
  EXPECT_EQ(oblivious.capacity(0), aware.capacity(0));
  EXPECT_EQ(oblivious.demand(3, 0), aware.demand(3, 0));
}

TEST(Scenario, PresetsCoverDistinctFamilies) {
  EXPECT_EQ(Scenario::smart_city(20, 3, 1).params().family,
            topo::TopologyFamily::kWaxman);
  EXPECT_EQ(Scenario::factory(20, 3, 1).params().family,
            topo::TopologyFamily::kRandomGeometric);
  EXPECT_EQ(Scenario::campus(20, 3, 1).params().family,
            topo::TopologyFamily::kHierarchical);
}

TEST(Scenario, FactoryPresetHasTightDeadlinesAndLoad) {
  const Scenario scenario = Scenario::factory(30, 4, 2);
  EXPECT_NEAR(scenario.workload().load_factor(), 0.85, 1e-9);
  for (const auto& device : scenario.workload().iot) {
    EXPECT_LE(device.deadline_ms, 15.0);
  }
}

TEST(Scenario, WeightsComeFromRequestRates) {
  const Scenario scenario = Scenario::smart_city(25, 4, 6);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_DOUBLE_EQ(scenario.instance().traffic_weight(i),
                     scenario.workload().iot[i].request_rate_hz);
  }
}

}  // namespace
}  // namespace tacc
