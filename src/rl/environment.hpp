// The assignment-construction MDP that the paper's RL heuristics learn on.
//
// An episode assigns every IoT device in a (per-episode shuffled) order.
// At each step the agent observes a compact, device-independent state built
// from topology-aware features of the K lowest-delay candidate servers and
// picks one of them. Keeping the state abstract — buckets, not raw ids — is
// what lets tabular learning generalize across devices and episodes:
//
//   state = demand bucket of the device
//         × delay-spread bucket (is the nearest server much better than #2?)
//         × residual-capacity bucket of each of the K candidates
//
// Reward is the negative normalized assignment cost, with a penalty whenever
// the agent's choice (or the forced fallback) violates capacity, so the
// learned policy keeps slack on well-connected servers for the devices that
// have no alternative — the foresight greedy lacks.
//
// The per-step path is flat: a step reads the device's rank row, delay row
// and demand row once, and each server's residual-capacity bucket is cached
// in a byte array that only the server a step loads is recomputed for —
// by comparing its new load against per-server thresholds found at
// construction, not by dividing. A step whose pick does not fit redirects
// by walking the device's rank row, nearest first, rather than scanning
// every server.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gap/instance.hpp"
#include "gap/solution.hpp"
#include "util/rng.hpp"

namespace tacc::rl {

/// What the agent sees before a step: the encoded state and the feasibility
/// mask over the K candidates, computed in one pass.
struct Observation {
  std::size_t state = 0;
  std::uint64_t mask = 0;
};

struct EnvOptions {
  std::size_t candidate_count = 4;  ///< K lowest-delay servers offered
  std::size_t load_buckets = 4;     ///< residual-capacity quantization B
  std::size_t demand_buckets = 3;
  std::size_t spread_buckets = 3;
  /// Penalty (in normalized cost units) added when a step overloads.
  double overload_penalty = 8.0;
  /// Shuffle device order each episode (exploration across orders).
  bool shuffle_order = true;
};

/// Residual-capacity bucket of a server carrying `load`: the residual
/// fraction 1 - load / capacity, clamped to [0, 1], split into `buckets`
/// equal bins (a full residual lands in the top one). Never increases as
/// the load grows: each operation on the way is monotone under rounding.
/// Requires capacity > 0 and buckets >= 1.
[[nodiscard]] std::uint8_t residual_bucket(double load, double capacity,
                                           std::size_t buckets);

/// The buckets - 1 loads at which residual_bucket() steps down, in
/// descending order: entry k - 1 is the largest load in [0, capacity] whose
/// bucket is at least k (+inf for every entry when capacity is +inf). For
/// any finite load, residual_bucket(load, capacity, buckets) is the number
/// of entries t with load <= t. Found by bisection over the bit patterns of
/// the doubles in [0, capacity], which order like their values. Requires
/// capacity > 0 and buckets >= 1.
[[nodiscard]] std::vector<double> residual_bucket_thresholds(
    double capacity, std::size_t buckets);

class AssignmentEnv {
 public:
  /// At most this many candidates: the feasibility mask is 64 bits wide.
  static constexpr std::size_t kMaxCandidates = 64;
  /// At most this many buckets per feature: bucket indices are bytes.
  static constexpr std::size_t kMaxBuckets = 256;

  /// Throws std::invalid_argument if the effective K (candidate_count
  /// clamped to the server count) is 0 or above kMaxCandidates, a bucket
  /// count is above kMaxBuckets, or state_count() overflows size_t.
  AssignmentEnv(const gap::Instance& instance, EnvOptions options,
                std::uint64_t seed);

  [[nodiscard]] std::size_t state_count() const noexcept {
    return state_count_;
  }
  [[nodiscard]] std::size_t action_count() const noexcept { return k_; }

  /// Starts a new episode; device order is reshuffled if configured.
  void reset();

  [[nodiscard]] bool done() const noexcept {
    return step_ >= order_.size();
  }
  /// State and feasibility mask for the device about to be assigned, in
  /// one pass over its K candidates. Precondition: !done.
  [[nodiscard]] Observation observe() const;
  /// observe().state.
  [[nodiscard]] std::size_t state() const { return observe().state; }
  /// Bitmask over action ranks: bit a set iff candidate a fits its server;
  /// 0 once the episode is done.
  [[nodiscard]] std::uint64_t feasible_mask() const {
    return done() ? 0 : observe().mask;
  }

  /// Assigns the current device to candidate `action` (rank into its
  /// delay-sorted server list). If that server cannot fit the device, the
  /// env redirects to the cheapest server anywhere that still fits (lowest
  /// index among equal costs; a cost must be below +inf) — charging the
  /// redirect penalty so the policy learns to keep its candidates viable —
  /// and only genuinely overloads (the least-utilized server, full
  /// penalty) when no server in the cluster fits. Returns the step reward.
  /// Precondition: !done.
  double step(std::size_t action);

  /// Complete after done(); partial before.
  [[nodiscard]] const gap::Assignment& assignment() const noexcept {
    return assignment_;
  }
  [[nodiscard]] double episode_cost() const noexcept { return episode_cost_; }
  [[nodiscard]] bool episode_feasible() const noexcept {
    return violations_ == 0;
  }
  [[nodiscard]] std::size_t violations() const noexcept { return violations_; }

  /// Mean over devices of their minimum cost — the reward normalizer; a
  /// per-step reward near -1 means "as good as the unconstrained optimum".
  [[nodiscard]] double cost_scale() const noexcept { return cost_scale_; }

  /// Server index behind action rank `a` for the *current* device.
  [[nodiscard]] gap::ServerIndex action_server(std::size_t a) const;

  [[nodiscard]] const gap::Instance& instance() const noexcept {
    return *instance_;
  }

 private:
  [[nodiscard]] gap::DeviceIndex current_device() const {
    return order_[step_];
  }
  /// The current device's servers, nearest first (all m of them).
  [[nodiscard]] const std::uint32_t* current_ranks() const {
    return ranks_.data() + current_device() * instance_->server_count();
  }

  const gap::Instance* instance_;
  EnvOptions options_;
  std::size_t k_;
  std::size_t state_count_ = 0;
  util::Rng rng_;
  std::span<const std::uint32_t> ranks_;  ///< the instance's rank table

  std::vector<gap::DeviceIndex> order_;
  std::size_t step_ = 0;
  gap::Assignment assignment_;
  std::vector<double> loads_;
  std::vector<std::uint8_t> load_bucket_;  ///< residual_bucket per server
  /// residual_bucket_thresholds() of each server, B - 1 per server.
  std::vector<double> load_thresholds_;
  double episode_cost_ = 0.0;
  std::size_t violations_ = 0;

  double cost_scale_ = 1.0;
  std::vector<std::uint8_t> demand_bucket_;  ///< per device, precomputed
  std::vector<std::uint8_t> spread_bucket_;  ///< per device, precomputed
};

}  // namespace tacc::rl
