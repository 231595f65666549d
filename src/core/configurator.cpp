#include "core/configurator.hpp"

#include "gap/builder.hpp"
#include "util/contracts.hpp"

namespace tacc {

ClusterConfiguration ClusterConfigurator::configure(
    const ConfigureRequest& request) const {
  TACC_ASSERT(scenario_ != nullptr, "ClusterConfigurator: scenario outlived");
  const gap::Instance& truth = scenario_->instance();
  solvers::SolverPtr solver = make_solver(request.algorithm, request.options);

  solvers::SolveResult result;
  switch (request.cost_model) {
    case CostModel::kTopologyAware:
      result = solver->solve(truth);
      break;
    case CostModel::kEuclidean:
      // Built per call (a local, so concurrent configures share nothing):
      // no other cost model reads the Euclidean twin.
      result = solver->solve(gap::build_instance(
          scenario_->network(), scenario_->workload(),
          {.topology_oblivious_costs = true}));
      break;
    case CostModel::kDeadlinePenalized:
      result = solver->solve(truth.with_deadline_penalty(
          request.penalty_factor));
      break;
  }

  // Whatever matrix the solver saw, report what the decision *really* costs
  // on the topology.
  gap::Evaluation evaluation = gap::evaluate(truth, result.assignment);
  result.total_cost = evaluation.total_cost;
  result.feasible = evaluation.feasible;
  return {request.algorithm, std::move(result), std::move(evaluation),
          scenario_->fingerprint()};
}

}  // namespace tacc
