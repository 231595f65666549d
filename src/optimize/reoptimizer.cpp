#include "optimize/reoptimizer.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/mutex.hpp"

namespace tacc::opt {

Reoptimizer::Reoptimizer(DynamicCluster& cluster, Mutex& cluster_mutex,
                         const ReoptOptions& options)
    : cluster_mutex_(&cluster_mutex),
      cluster_(&cluster),
      options_(options),
      state_(options.seed),
      ledger_(options.budget),
      epoch_(std::chrono::steady_clock::now()) {}

Reoptimizer::~Reoptimizer() { stop(); }

void Reoptimizer::start() {
  if (thread_.joinable()) return;
  thread_ = std::jthread(
      [this](const std::stop_token& token) { loop(token); });
}

void Reoptimizer::stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  thread_.join();
  thread_ = std::jthread();
}

bool Reoptimizer::running() const noexcept { return thread_.joinable(); }

double Reoptimizer::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::size_t Reoptimizer::run_pass() {
  const MutexLock lock(cluster_mutex_);
  return pass_locked();
}

std::size_t Reoptimizer::pass_locked() {
  ledger_.advance(elapsed_s());

  {
    const MutexLock stats_lock(&stats_mutex_);
    ++stats_.passes;
  }
  const std::size_t headroom = ledger_.remaining();
  if (headroom == 0) return 0;  // window exhausted; wait for the roll

  // Cap the proposal by the window headroom so a plan never promises more
  // migration than the budget can honour.
  const MovePlan plan =
      propose_plan(*cluster_, std::min(kMaxPlanMoves, headroom), state_);
  if (plan.empty()) return 0;

  const DynamicCluster::InvariantOptions validate_options{
      .require_feasible = false, .forbid_failed_residents = false};
  if (options_.validate) cluster_->check_invariants(validate_options);
  const MovePlanReport report = cluster_->apply_move_plan(plan, &ledger_);
  if (options_.validate) cluster_->check_invariants(validate_options);

  const MutexLock stats_lock(&stats_mutex_);
  ++stats_.plans;
  stats_.moves_proposed += plan.moves.size();
  stats_.moves_applied += report.applied;
  stats_.rejected_stale += report.rejected_stale;
  stats_.rejected_target_failed += report.rejected_target_failed;
  stats_.rejected_infeasible += report.rejected_infeasible;
  stats_.rejected_budget += report.rejected_budget;
  stats_.predicted_gain += plan.predicted_gain();
  stats_.achieved_gain += report.achieved_gain;
  return report.applied;
}

void Reoptimizer::loop(const std::stop_token& token) {
  Mutex sleep_mutex;
  CondVar wakeup;
  const auto interval =
      std::chrono::duration<double, std::milli>(options_.interval_ms);
  while (!token.stop_requested()) {
    {
      const MutexLock sleep_lock(&sleep_mutex);
      wakeup.wait_for(sleep_mutex, token, interval, [] { return false; });
    }
    if (token.stop_requested()) break;
    // try_lock only: the serving path always wins, and a stop() issued by
    // a thread holding the cluster mutex can never deadlock against us.
    const TryLock cluster_lock(cluster_mutex_);
    if (!cluster_lock) continue;
    pass_locked();
  }
}

ReoptStats Reoptimizer::stats() const {
  const MutexLock stats_lock(&stats_mutex_);
  return stats_;
}

void Reoptimizer::check_invariants() const {
  const ReoptStats snapshot = stats();
  TACC_CHECK_INVARIANT(
      snapshot.moves_proposed ==
          snapshot.moves_applied + snapshot.rejected(),
      "reopt ledger: proposals must be partitioned by outcomes");
  TACC_CHECK_INVARIANT(snapshot.plans <= snapshot.passes,
                       "reopt ledger: more plans than passes");
}

}  // namespace tacc::opt
