// Background re-optimization: budgeted incremental repair of a live
// DynamicCluster.
//
// The paper's configuration quality only holds at solve time; under churn
// the greedy local placements drift from the portfolio optimum. Instead of
// periodically re-solving from scratch (expensive, and a full reassignment
// churns every session), a Reoptimizer continuously narrows the gap with
// bounded local-search passes:
//
//   proposal      propose_plan() scans a bounded, dirty-row-prioritized
//                 slice of the population and emits a MovePlan
//   budget filter the plan is capped by the BudgetLedger's remaining
//                 window headroom before proposal, and every move is
//                 re-checked against the per-device rate at apply
//   atomic apply  DynamicCluster::apply_move_plan() under the cluster
//                 lock, optionally bracketed by check_invariants()
//   ledger        ReoptStats accumulates proposed/applied/rejected moves
//                 and predicted/achieved gain; the outcome counts
//                 partition the proposals exactly (check_invariants())
//
// Threading: the owner hands the Reoptimizer the tacc::Mutex that
// serializes all mutation of the cluster (in service::Engine, the
// per-session cluster mutex). The background thread only ever try_locks
// it — the serving path always wins, and stop() can never deadlock
// against a lock holder asking the optimizer to shut down. run_pass()
// takes the lock unconditionally for deterministic use in tests and
// benches. The try-lock-only rule and the cluster/stats guard split are
// Clang Thread Safety-annotated and enforced at compile time.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "core/dynamic.hpp"
#include "core/move_plan.hpp"
#include "optimize/planner.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::opt {

struct ReoptOptions {
  MigrationBudget budget;
  /// Pause between background passes (the thread try_locks the cluster
  /// mutex after each pause; a busy serving path just skips the pass).
  double interval_ms = 50.0;
  /// Bracket every non-empty apply with DynamicCluster::check_invariants()
  /// (one delay spot-check Dijkstra per check). Cold-path insurance for
  /// soaks; leave off in production serving.
  bool validate = false;
  /// Seed for the planner's swap-sampling stream.
  std::uint64_t seed = 0x0500B1ull;
};

/// Cumulative optimizer ledger. moves_proposed is partitioned exactly by
/// moves_applied + the four rejection counts.
struct ReoptStats {
  std::uint64_t passes = 0;          ///< run_pass() calls (incl. empty)
  std::uint64_t plans = 0;           ///< non-empty plans applied
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_applied = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_target_failed = 0;
  std::uint64_t rejected_infeasible = 0;
  std::uint64_t rejected_budget = 0;
  double predicted_gain = 0.0;  ///< Σ plan predictions (cost-model units)
  double achieved_gain = 0.0;   ///< Σ live improvement actually applied

  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_stale + rejected_target_failed + rejected_infeasible +
           rejected_budget;
  }
};

class Reoptimizer {
 public:
  /// `cluster_mutex` must be the mutex serializing every mutation of
  /// `cluster`; both must outlive the Reoptimizer.
  Reoptimizer(DynamicCluster& cluster, Mutex& cluster_mutex,
              const ReoptOptions& options = {});
  ~Reoptimizer();  // stops the background thread if running

  Reoptimizer(const Reoptimizer&) = delete;
  Reoptimizer& operator=(const Reoptimizer&) = delete;

  /// Launches the background pass loop (idempotent).
  void start();
  /// Stops and joins the background thread (idempotent). Safe to call
  /// while holding the cluster mutex: the thread never blocks on it.
  void stop();
  [[nodiscard]] bool running() const noexcept;

  /// One synchronous pass under the cluster lock: advance the budget
  /// window, propose, apply, account. Returns moves applied.
  std::size_t run_pass() TACC_EXCLUDES(cluster_mutex_);

  [[nodiscard]] ReoptStats stats() const TACC_EXCLUDES(stats_mutex_);
  [[nodiscard]] const ReoptOptions& options() const noexcept {
    return options_;
  }

  /// Validates the stats ledger identity (proposed == applied + rejected)
  /// through the contracts failure handler.
  void check_invariants() const;

 private:
  void loop(const std::stop_token& token) TACC_EXCLUDES(cluster_mutex_);
  std::size_t pass_locked() TACC_REQUIRES(cluster_mutex_);
  [[nodiscard]] double elapsed_s() const;

  /// The cluster and the planner/budget state that mutates it are all
  /// guarded by *cluster_mutex_ (owned by the caller, not us).
  Mutex* const cluster_mutex_;
  DynamicCluster* const cluster_ TACC_PT_GUARDED_BY(cluster_mutex_);
  ReoptOptions options_;
  PlannerState state_ TACC_GUARDED_BY(cluster_mutex_);
  BudgetLedger ledger_ TACC_GUARDED_BY(cluster_mutex_);
  std::chrono::steady_clock::time_point epoch_;  // immutable after ctor

  mutable Mutex stats_mutex_;
  ReoptStats stats_ TACC_GUARDED_BY(stats_mutex_);

  std::jthread thread_;
};

}  // namespace tacc::opt
