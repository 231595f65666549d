// A3: google-benchmark microbenchmarks of the library's hot substrates —
// Dijkstra, delay-matrix construction, static evaluation, incremental moves,
// min-cost flow, one RL training episode, and a short packet simulation.
#include <benchmark/benchmark.h>

#include "core/tacc.hpp"
#include "flow/min_cost_flow.hpp"
#include "gap/testgen.hpp"
#include "rl/environment.hpp"
#include "topology/shortest_paths.hpp"

namespace {

using namespace tacc;


topo::GeoGraph make_waxman(std::size_t nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  topo::GeneratorParams params;
  params.node_count = nodes;
  return topo::generate(topo::TopologyFamily::kWaxman, params, rng);
}

void BM_Dijkstra(benchmark::State& state) {
  const auto geo = make_waxman(static_cast<std::size_t>(state.range(0)), 1);
  topo::NodeId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::dijkstra(geo.graph, source));
    source = static_cast<topo::NodeId>((source + 1) %
                                       geo.graph.node_count());
  }
}
BENCHMARK(BM_Dijkstra)->Arg(100)->Arg(400)->Arg(1600);

void BM_DelayMatrix(benchmark::State& state) {
  const Scenario scenario = Scenario::smart_city(
      static_cast<std::size_t>(state.range(0)), 20, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::compute_delay_matrix(scenario.network()));
  }
}
BENCHMARK(BM_DelayMatrix)->Arg(200)->Arg(1000);

void BM_Evaluate(benchmark::State& state) {
  util::Rng rng(3);
  gap::RandomInstanceParams params;
  params.device_count = static_cast<std::size_t>(state.range(0));
  params.server_count = 20;
  const gap::Instance inst = gap::random_instance(params, rng);
  gap::Assignment assignment(inst.device_count());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<std::int32_t>(i % 20);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gap::evaluate(inst, assignment));
  }
}
BENCHMARK(BM_Evaluate)->Arg(500)->Arg(5000);

void BM_IncrementalMove(benchmark::State& state) {
  util::Rng rng(4);
  gap::RandomInstanceParams params;
  params.device_count = 1000;
  params.server_count = 20;
  const gap::Instance inst = gap::random_instance(params, rng);
  gap::Assignment assignment(inst.device_count());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<std::int32_t>(i % 20);
  }
  gap::IncrementalEvaluator eval(inst, assignment);
  std::size_t device = 0;
  for (auto _ : state) {
    eval.apply_move(device, (device + 7) % 20);
    benchmark::DoNotOptimize(eval.total_cost());
    device = (device + 1) % 1000;
  }
}
BENCHMARK(BM_IncrementalMove);

void BM_MinCostFlow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 20;
  util::Rng rng(5);
  gap::RandomInstanceParams params;
  params.device_count = n;
  params.server_count = m;
  const gap::Instance inst = gap::random_instance(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solvers::compute_lower_bounds(inst));
  }
}
BENCHMARK(BM_MinCostFlow)->Arg(200)->Arg(1000);

void BM_RlEpisode(benchmark::State& state) {
  util::Rng rng(6);
  gap::RandomInstanceParams params;
  params.device_count = static_cast<std::size_t>(state.range(0));
  params.server_count = 20;
  const gap::Instance inst = gap::random_instance(params, rng);
  rl::AssignmentEnv env(inst, {}, 1);
  for (auto _ : state) {
    env.reset();
    double reward = 0.0;
    while (!env.done()) reward += env.step(0);
    benchmark::DoNotOptimize(reward);
  }
}
BENCHMARK(BM_RlEpisode)->Arg(500)->Arg(2000);

void BM_Simulation(benchmark::State& state) {
  const Scenario scenario = Scenario::smart_city(100, 8, 7);
  AlgorithmOptions options;
  const auto conf = ClusterConfigurator(scenario).configure(
      {Algorithm::kGreedyBestFit, options});
  sim::SimParams params;
  params.duration_s = 1.0;
  params.warmup_s = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(
        scenario.network(), scenario.workload(), conf.assignment(), params));
  }
}
BENCHMARK(BM_Simulation);

}  // namespace

BENCHMARK_MAIN();
