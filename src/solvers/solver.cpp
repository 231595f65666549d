#include "solvers/solver.hpp"

#include <algorithm>

namespace tacc::solvers::detail {

SolveResult finish(const gap::Instance& instance, gap::Assignment assignment,
                   double wall_ms, std::size_t iterations) {
  SolveResult result;
  const gap::Evaluation ev = gap::evaluate(instance, assignment);
  result.assignment = std::move(assignment);
  result.total_cost = ev.total_cost;
  result.feasible = ev.feasible;
  result.wall_ms = wall_ms;
  result.iterations = iterations;
  return result;
}

double max_cost_entry(const gap::Instance& instance) {
  double max_cost = 0.0;
  for (gap::DeviceIndex i = 0; i < instance.device_count(); ++i) {
    for (gap::ServerIndex j = 0; j < instance.server_count(); ++j) {
      max_cost = std::max(max_cost, instance.cost(i, j));
    }
  }
  return max_cost;
}

double overload_penalty(double max_cost) {
  constexpr double kOverloadPenaltyFactor = 4.0;
  return kOverloadPenaltyFactor * max_cost + 1.0;
}

gap::ServerIndex best_feasible_or_least_loaded(
    const gap::Instance& instance, gap::DeviceIndex device,
    const std::vector<double>& loads) {
  constexpr double kEps = 1e-9;
  gap::ServerIndex best_feasible = instance.server_count();
  double best_feasible_cost = 0.0;
  gap::ServerIndex least_loaded = 0;
  double least_utilization = std::numeric_limits<double>::infinity();

  for (gap::ServerIndex j = 0; j < instance.server_count(); ++j) {
    const double new_load = loads[j] + instance.demand(device, j);
    const double cost = instance.cost(device, j);
    if (new_load <= instance.capacity(j) + kEps) {
      if (best_feasible == instance.server_count() ||
          cost < best_feasible_cost) {
        best_feasible = j;
        best_feasible_cost = cost;
      }
    }
    const double utilization = new_load / instance.capacity(j);
    if (utilization < least_utilization) {
      least_utilization = utilization;
      least_loaded = j;
    }
  }
  return best_feasible != instance.server_count() ? best_feasible
                                                  : least_loaded;
}

}  // namespace tacc::solvers::detail
