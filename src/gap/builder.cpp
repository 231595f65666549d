#include "gap/builder.hpp"

#include <stdexcept>

#include "topology/shortest_paths.hpp"

namespace tacc::gap {

Instance build_instance(const topo::NetworkTopology& net,
                        const workload::Workload& workload,
                        const BuilderOptions& options) {
  if (net.iot_count() != workload.iot.size() ||
      net.edge_count() != workload.edges.size()) {
    throw std::invalid_argument(
        "build_instance: topology/workload device counts differ");
  }

  topo::DelayMatrix delay =
      options.topology_oblivious_costs
          ? topo::compute_euclidean_matrix(net)
          : topo::compute_delay_matrix(net);
  if (options.unreachable_delay_ms > 0.0) {
    for (std::size_t i = 0; i < delay.iot_count(); ++i) {
      for (std::size_t j = 0; j < delay.edge_count(); ++j) {
        if (delay.at(i, j) == topo::kUnreachable) {
          delay.set(i, j, options.unreachable_delay_ms);
        }
      }
    }
  }

  std::vector<double> weights;
  std::vector<double> demands;
  weights.reserve(workload.iot.size());
  demands.reserve(workload.iot.size());
  for (const auto& device : workload.iot) {
    weights.push_back(device.request_rate_hz);
    demands.push_back(device.demand);
  }
  std::vector<double> capacities;
  capacities.reserve(workload.edges.size());
  for (const auto& server : workload.edges) {
    capacities.push_back(server.capacity);
  }
  Instance instance(std::move(delay), std::move(weights), std::move(demands),
                    std::move(capacities));
  std::vector<double> deadlines;
  deadlines.reserve(workload.iot.size());
  for (const auto& device : workload.iot) {
    deadlines.push_back(device.deadline_ms);
  }
  instance.set_deadlines(std::move(deadlines));
  return instance;
}

}  // namespace tacc::gap
