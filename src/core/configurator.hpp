// ClusterConfigurator: the top-level user-facing API.
//
//   Scenario sc = Scenario::smart_city(500, 20, /*seed=*/7);
//   ClusterConfigurator cfg(sc);
//   ClusterConfiguration conf = cfg.configure({Algorithm::kQLearning});
//   auto sim = sim::simulate(sc.network(), sc.workload(),
//                            conf.assignment(), {});
//
// Portfolio mode fans several {algorithm × options} requests over a worker
// pool and returns every configuration plus the feasible winner:
//
//   std::vector<ConfigureRequest> requests = {...};
//   PortfolioOutcome out = cfg.configure_portfolio(requests, /*threads=*/8);
//   const ClusterConfiguration& best = out.winner();
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "core/scenario.hpp"
#include "runtime/run_stats.hpp"
#include "topology/oracle/config.hpp"

namespace tacc {

/// Which cost matrix the solver optimizes. Evaluation is ALWAYS against the
/// true topology-aware instance, so non-default models measure what a
/// distorted view of the network really costs.
enum class CostModel {
  kTopologyAware,      ///< shortest-path delay costs (the paper's metric)
  kEuclidean,          ///< straight-line distance (A1 ablation)
  kDeadlinePenalized,  ///< delays past a device's deadline look worse
};

/// One solve request: everything needed to produce a ClusterConfiguration.
/// Brace-constructible from any prefix: `{Algorithm::kQLearning}`,
/// `{Algorithm::kQLearning, options}`, `{alg, options, CostModel::kEuclidean}`.
struct ConfigureRequest {
  ConfigureRequest() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): an Algorithm IS a request.
  ConfigureRequest(Algorithm algorithm_, AlgorithmOptions options_ = {},
                   CostModel cost_model_ = CostModel::kTopologyAware,
                   double penalty_factor_ = 10.0,
                   topo::oracle::OracleConfig oracle_ = {})
      : algorithm(algorithm_),
        options(std::move(options_)),
        cost_model(cost_model_),
        penalty_factor(penalty_factor_),
        oracle(oracle_) {}

  Algorithm algorithm = Algorithm::kQLearning;
  AlgorithmOptions options;
  CostModel cost_model = CostModel::kTopologyAware;
  /// Inflation applied to deadline-violating delays when cost_model is
  /// kDeadlinePenalized (must exceed 1; ignored otherwise).
  double penalty_factor = 10.0;
  /// The parsed CONFIGURE oracle= spec (see topology/oracle/config.hpp).
  /// There is one backend, the exact one, so it selects nothing: the live
  /// cluster's rows are bit-identical to the scenario's instance matrix.
  topo::oracle::OracleConfig oracle;
};

/// A solved configuration: which server every IoT device talks to, plus the
/// static evaluation of that choice.
class ClusterConfiguration {
 public:
  ClusterConfiguration(Algorithm algorithm, solvers::SolveResult result,
                       gap::Evaluation evaluation,
                       std::uint64_t scenario_fingerprint = 0)
      : algorithm_(algorithm),
        result_(std::move(result)),
        evaluation_(std::move(evaluation)),
        scenario_fingerprint_(scenario_fingerprint) {}

  [[nodiscard]] Algorithm algorithm() const noexcept { return algorithm_; }
  [[nodiscard]] std::string_view algorithm_name() const noexcept {
    return tacc::to_string(algorithm_);
  }
  [[nodiscard]] const gap::Assignment& assignment() const noexcept {
    return result_.assignment;
  }
  /// Server index chosen for `device`.
  [[nodiscard]] std::size_t server_of(std::size_t device) const {
    return static_cast<std::size_t>(result_.assignment.at(device));
  }
  [[nodiscard]] bool feasible() const noexcept { return result_.feasible; }
  [[nodiscard]] double total_cost() const noexcept {
    return result_.total_cost;
  }
  [[nodiscard]] double avg_delay_ms() const noexcept {
    return evaluation_.avg_delay_ms;
  }
  [[nodiscard]] double max_delay_ms() const noexcept {
    return evaluation_.max_delay_ms;
  }
  [[nodiscard]] double max_utilization() const noexcept {
    return evaluation_.max_utilization;
  }
  [[nodiscard]] std::size_t overloaded_servers() const noexcept {
    return evaluation_.overloaded_servers;
  }
  [[nodiscard]] double solve_wall_ms() const noexcept {
    return result_.wall_ms;
  }
  [[nodiscard]] bool proven_optimal() const noexcept {
    return result_.proven_optimal;
  }
  [[nodiscard]] const gap::Evaluation& evaluation() const noexcept {
    return evaluation_;
  }
  /// Fingerprint of the Scenario this configuration was solved against
  /// (Scenario::fingerprint()); 0 when built outside a configurator. Compare
  /// against a scenario's fingerprint before re-evaluating or simulating a
  /// stored configuration to detect scenario mismatches.
  [[nodiscard]] std::uint64_t scenario_fingerprint() const noexcept {
    return scenario_fingerprint_;
  }

 private:
  Algorithm algorithm_;
  solvers::SolveResult result_;
  gap::Evaluation evaluation_;
  std::uint64_t scenario_fingerprint_ = 0;
};

/// Result of a portfolio fan-out: every requested configuration (in request
/// order) plus the index of the winner — the cheapest feasible
/// configuration, falling back to the cheapest overall when none is
/// feasible; ties break toward the lower request index, so the outcome is
/// deterministic regardless of thread count.
struct PortfolioOutcome {
  static constexpr std::size_t kNoWinner = static_cast<std::size_t>(-1);

  std::vector<ClusterConfiguration> configurations;
  std::size_t winner_index = kNoWinner;  ///< kNoWinner iff no requests
  runtime::RunStats stats;

  [[nodiscard]] bool has_winner() const noexcept {
    return winner_index != kNoWinner;
  }
  [[nodiscard]] const ClusterConfiguration& winner() const {
    if (!has_winner()) {
      throw std::logic_error("PortfolioOutcome::winner: empty portfolio");
    }
    return configurations[winner_index];
  }
};

/// Thin façade over a Scenario that turns ConfigureRequests into
/// ClusterConfigurations.
///
/// Ownership: the configurator stores a pointer to the scenario and NEVER
/// copies it — the Scenario must stay alive (and unmoved) for the lifetime
/// of the configurator. The constructor takes a reference precisely so a
/// null can't sneak in; binding a temporary
/// (`ClusterConfigurator(Scenario::smart_city(...))`) is the classic
/// footgun: the temporary dies at the end of the statement and every later
/// configure() call is a use-after-free. Hold the Scenario in a named
/// variable that outlives the configurator.
class ClusterConfigurator {
 public:
  explicit ClusterConfigurator(const Scenario& scenario)
      : scenario_(&scenario) {}

  /// The single entry point: solves on the instance selected by
  /// `request.cost_model`, evaluates against the true topology-aware
  /// instance, and stamps the scenario fingerprint.
  [[nodiscard]] ClusterConfiguration configure(
      const ConfigureRequest& request) const;

  /// Fans `requests` out over a worker pool (threads = 0 picks the hardware
  /// concurrency) and returns every configuration plus the feasible winner.
  /// Results are bit-identical for any thread count. Defined in the
  /// `tacc_runtime` library — link it to use portfolio mode.
  [[nodiscard]] PortfolioOutcome configure_portfolio(
      std::span<const ConfigureRequest> requests,
      std::size_t threads = 0) const;

  [[nodiscard]] const Scenario& scenario() const noexcept {
    return *scenario_;
  }

 private:
  const Scenario* scenario_;  // non-null by construction; never owned
};

}  // namespace tacc
