// Quickstart: generate a scenario, configure the cluster with the RL
// heuristic, compare against the classical nearest-edge policy, and validate
// both under packet-level simulation.
//
//   ./quickstart [--iot=300] [--edge=12] [--seed=7]
#include <iostream>

#include "core/tacc.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const auto flags = tacc::util::Flags::parse(argc, argv);
  const auto iot = static_cast<std::size_t>(flags.get_int("iot", 300));
  const auto edge = static_cast<std::size_t>(flags.get_int("edge", 12));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));

  std::cout << "Generating a smart-city scenario: " << iot
            << " IoT devices, " << edge << " edge servers (seed " << seed
            << ")\n";
  const tacc::Scenario scenario = tacc::Scenario::smart_city(iot, edge, seed);
  // Devices sit off the router graph, each with one access link.
  const tacc::topo::NetworkTopology& net = scenario.network();
  std::cout << "Network: " << net.graph.node_count() + net.iot_count()
            << " nodes, " << net.graph.edge_count() + net.iot_count()
            << " links; load factor "
            << tacc::util::format_double(scenario.workload().load_factor(), 2)
            << "\n\n";

  const tacc::ClusterConfigurator configurator(scenario);
  tacc::util::ConsoleTable table(
      {"algorithm", "avg delay (ms)", "max delay (ms)", "max util",
       "feasible", "solve (ms)", "sim p99 (ms)", "miss rate"});

  for (const tacc::Algorithm algorithm :
       {tacc::Algorithm::kGreedyNearest, tacc::Algorithm::kGreedyBestFit,
        tacc::Algorithm::kQLearning}) {
    tacc::AlgorithmOptions options;
    options.apply_seed(seed);
    const tacc::ClusterConfiguration conf =
        configurator.configure({algorithm, options});
    const tacc::sim::SimResult sim = tacc::sim::simulate(
        scenario.network(), scenario.workload(), conf.assignment(),
        {/*duration_s=*/20.0, /*warmup_s=*/2.0, seed});
    table.add_row({std::string(conf.algorithm_name()),
                   tacc::util::format_double(conf.avg_delay_ms(), 2),
                   tacc::util::format_double(conf.max_delay_ms(), 2),
                   tacc::util::format_double(conf.max_utilization(), 2),
                   conf.feasible() ? "yes" : "NO",
                   tacc::util::format_double(conf.solve_wall_ms(), 1),
                   tacc::util::format_double(sim.p99_delay_ms(), 2),
                   tacc::util::format_double(sim.deadline_miss_rate(), 3)});
  }
  std::cout << table.to_string("Static objective vs simulated reality:")
            << "\nThe RL configuration should match or beat the greedy "
               "baselines on delay\nwhile never overloading a server "
               "(feasible = yes).\n";
  return 0;
}
