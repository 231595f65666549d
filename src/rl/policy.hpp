// Trained-policy reuse: persistence and cross-instance transfer.
//
// Because the environment's state abstraction is device- and
// instance-independent (buckets of demand, delay spread and residual
// capacity — never raw ids), a Q-table learned on one scenario can steer
// assignment on *another* scenario of similar character with zero training:
// replay the greedy policy over a few shuffled orders and polish. This is
// the "train once, configure many clusters" mode of operation, and the A4
// experiment quantifies what it trades against training from scratch.
#pragma once

#include <iosfwd>
#include <string>

#include "rl/qlearning.hpp"

namespace tacc::rl {

/// A learned policy: the Q-table plus the env options it was trained under
/// (the state encoding must match exactly when the policy is applied).
struct TrainedPolicy {
  EnvOptions env;
  QTable table{0, 0};
};

/// Trains on `instance` and returns the policy (same loop as train()).
[[nodiscard]] TrainedPolicy train_policy(const gap::Instance& instance,
                                         const RlOptions& options,
                                         TdVariant variant);

/// apply_policy replays a fixed number of greedy episodes over shuffled
/// device orders (policy.cpp) and keeps the best one.
struct ApplyOptions {
  bool polish = true;
  std::uint64_t seed = 1;
};

/// Applies a trained policy to a (possibly different) instance with no
/// learning: greedy action selection under the feasibility mask. The
/// instance must have at least as many servers as the policy's candidate
/// count expects (the env clamps K otherwise). Throws std::invalid_argument
/// if the table is empty or its shape cannot serve the env options.
[[nodiscard]] solvers::SolveResult apply_policy(const gap::Instance& instance,
                                                const TrainedPolicy& policy,
                                                const ApplyOptions& options);

// ---- Persistence -----------------------------------------------------------
// Line-oriented text format ("tacc-policy v1"): env options, table shape,
// then one Q value per line. Exact round trip (max-precision doubles).

void save_policy(const TrainedPolicy& policy, std::ostream& out);
[[nodiscard]] TrainedPolicy load_policy(std::istream& in);
void save_policy_file(const TrainedPolicy& policy, const std::string& path);
[[nodiscard]] TrainedPolicy load_policy_file(const std::string& path);

}  // namespace tacc::rl
