// Tabular temporal-difference learning on the assignment MDP: the paper's
// "RL based heuristics".
//
// Two variants share one trainer:
//   Q-learning — off-policy (max over next actions),
//   SARSA      — on-policy (the action actually taken next).
// The learner runs E episodes with ε-greedy exploration (ε and α decay per
// episode), keeps the best feasible assignment seen, and optionally polishes
// it with local search before returning.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "rl/environment.hpp"
#include "solvers/local_search.hpp"
#include "solvers/solver.hpp"

namespace tacc::rl {

struct RlOptions {
  EnvOptions env;
  std::size_t episodes = 600;
  double epsilon0 = 0.4;       ///< initial exploration rate
  double epsilon_min = 0.02;
  /// Restrict ε-greedy choices to capacity-feasible candidates when any
  /// exist (the agent still learns penalties for the rest via fallback).
  bool mask_infeasible = true;
  /// Local-search polish on the best episode's assignment (A2 ablation).
  bool polish = true;
  /// After training, replay the learned policy greedily (ε = 0) over this
  /// many shuffled device orders and keep the best run — training's "best
  /// episode" still contains exploration noise; the greedy policy does not.
  std::size_t greedy_eval_episodes = 16;
  std::uint64_t seed = 1;
};

/// Per-episode learning trace — the F4 convergence experiment's series.
struct EpisodeStats {
  std::size_t episode = 0;
  double total_reward = 0.0;
  double episode_cost = 0.0;
  bool feasible = false;
  double best_cost_so_far = 0.0;
  double epsilon = 0.0;
};

struct TrainResult {
  gap::Assignment best_assignment;
  double best_cost = 0.0;
  bool best_feasible = false;
  std::vector<EpisodeStats> trace;
  std::size_t total_steps = 0;
};

/// Dense Q-table over (state, action).
class QTable {
 public:
  /// Throws std::invalid_argument if actions is above
  /// AssignmentEnv::kMaxCandidates (masks are 64 bits) or states × actions
  /// overflows size_t.
  QTable(std::size_t states, std::size_t actions);

  [[nodiscard]] double get(std::size_t state, std::size_t action) const {
    return values_.at(state * actions_ + action);
  }
  void set(std::size_t state, std::size_t action, double value) {
    values_.at(state * actions_ + action) = value;
  }
  /// The action values of one state: one bounds check for the whole row.
  [[nodiscard]] std::span<const double> row(std::size_t state) const {
    if (state >= states_) throw std::out_of_range("QTable: bad state");
    return {values_.data() + state * actions_, actions_};
  }
  [[nodiscard]] std::span<double> row(std::size_t state) {
    if (state >= states_) throw std::out_of_range("QTable: bad state");
    return {values_.data() + state * actions_, actions_};
  }
  /// Argmax over actions, restricted to `mask` when nonzero; ties go to
  /// the lowest action. The first permitted action is taken outright and a
  /// later one replaces it only when strictly greater (a NaN never does);
  /// action 0 if the mask permits none. This runs once per training step,
  /// and its compares are data-dependent, so the running best is updated
  /// by a bit-mask select rather than a branch (GCC turns a plain ternary
  /// back into a jump).
  [[nodiscard]] std::size_t best_action(std::size_t state,
                                        std::uint64_t mask) const {
    const std::span<const double> q = row(state);
    const std::uint64_t all = actions_ == AssignmentEnv::kMaxCandidates
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << actions_) - 1;
    const std::uint64_t permitted = mask == 0 ? all : mask & all;
    if (permitted == 0) return 0;
    auto best = static_cast<std::uint64_t>(std::countr_zero(permitted));
    double best_value = q[best];
    for (std::size_t a = best + 1; a < actions_; ++a) {
      const std::uint64_t take =
          0 - (((permitted >> a) & 1u) & std::uint64_t{q[a] > best_value});
      best = (a & take) | (best & ~take);
      best_value =
          std::bit_cast<double>((std::bit_cast<std::uint64_t>(q[a]) & take) |
                                (std::bit_cast<std::uint64_t>(best_value) &
                                 ~take));
    }
    return static_cast<std::size_t>(best);
  }
  [[nodiscard]] double max_value(std::size_t state, std::uint64_t mask) const;
  [[nodiscard]] std::size_t state_count() const noexcept { return states_; }
  [[nodiscard]] std::size_t action_count() const noexcept { return actions_; }

 private:
  std::size_t states_;
  std::size_t actions_;
  std::vector<double> values_;
};

enum class TdVariant { kQLearning, kSarsa };

/// Runs the full training loop on `instance`; the returned assignment is the
/// best feasible episode (polished if configured), falling back to the best
/// infeasible one if feasibility was never reached. If `table_out` is
/// non-null it receives the learned Q-table (see rl/policy.hpp for reuse).
[[nodiscard]] TrainResult train(const gap::Instance& instance,
                                const RlOptions& options, TdVariant variant,
                                QTable* table_out = nullptr);

class QLearningSolver final : public solvers::Solver {
 public:
  explicit QLearningSolver(RlOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "q-learning";
  }
  [[nodiscard]] solvers::SolveResult solve(
      const gap::Instance& instance) override;

 private:
  RlOptions options_;
};

class SarsaSolver final : public solvers::Solver {
 public:
  explicit SarsaSolver(RlOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sarsa";
  }
  [[nodiscard]] solvers::SolveResult solve(
      const gap::Instance& instance) override;

 private:
  RlOptions options_;
};

}  // namespace tacc::rl
