// UCB1-rollout heuristic: the third "RL based" algorithm.
//
// Devices are committed one at a time (largest demand first). For the device
// in hand, each of its K candidate servers is an arm; pulling an arm plays
// the tentative assignment and completes the remaining devices with a
// randomized greedy rollout, observing the final (penalty-adjusted) episode
// cost. UCB1 spends the per-device rollout budget on the most promising
// arms; the arm with the best mean is committed. A Monte-Carlo tree search
// of depth one — far cheaper than Q-learning, no training phase, and
// markedly better look-ahead than pure greedy.
#pragma once

#include "solvers/solver.hpp"

namespace tacc::rl {

struct UcbRolloutOptions {
  std::size_t candidate_count = 4;   ///< arms per device (K nearest)
  std::size_t rollouts_per_device = 12;  ///< total pulls across arms
  std::uint64_t seed = 1;
};

class UcbRolloutSolver final : public solvers::Solver {
 public:
  explicit UcbRolloutSolver(UcbRolloutOptions options = {})
      : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "ucb-rollout";
  }
  [[nodiscard]] solvers::SolveResult solve(
      const gap::Instance& instance) override;

 private:
  UcbRolloutOptions options_;
};

}  // namespace tacc::rl
