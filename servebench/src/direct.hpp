// The cluster-direct rung: a session's wire lines applied straight to a
// DynamicCluster, with the same calls service::Engine::apply makes. It is
// both the bottom of the layer ladder and the reference the daemon's final
// state is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "streams.hpp"

namespace servebench {

struct DirectResult {
  // Final cluster state, as STATS reports it.
  std::size_t devices = 0;
  std::uint64_t delay_epoch = 0;
  double avg_delay_ms = 0.0;
  double max_utilization = 0.0;

  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  // Timed replays only (microseconds unless named otherwise).
  double scenario_s = 0.0;  ///< Scenario::smart_city
  double cluster_s = 0.0;   ///< DynamicCluster constructor (initial solve)
  std::vector<double> join_us, move_us, leave_us;
  std::vector<double> link_fail_us, link_restore_us, link_set_us;
  std::vector<double> snapshot_us;  ///< Engine's per-batch accessor set
  std::vector<double> request_us;   ///< op + snapshot, per request
  std::uint64_t overload_fallbacks = 0;
  std::uint64_t link_ops = 0;
  std::uint64_t nodes_affected = 0;
  std::uint64_t nodes_saved = 0;
  std::uint64_t rows_refreshed = 0;
  std::uint64_t oracle_queries = 0;
  std::uint64_t oracle_row_fills = 0;
  // Re-optimizer brackets, run as synchronous passes.
  std::vector<double> reopt_pass_us;
  std::uint64_t reopt_proposed = 0;
  std::uint64_t reopt_applied = 0;
  double reopt_gain = 0.0;
};

/// Replays `stream` (CONFIGURE, then every line, with a settled
/// re-optimizer bracket at each quiet mark). `timed` records per-call
/// times; untimed replays only produce the final state.
[[nodiscard]] DirectResult replay_direct(const SessionStream& stream,
                                         bool timed);

/// replay_direct() of every stream at once, one thread per session (the
/// engine's one worker per shard). Rethrows the first replay's exception.
[[nodiscard]] std::vector<DirectResult> replay_direct_all(
    const std::vector<SessionStream>& streams, bool timed);

/// Fails `report` unless the session's final STATS reply shows the state
/// `direct` reached: devices, delay_epoch, avg_delay_ms, max_utilization.
void check_state(const std::string& stats, const DirectResult& direct,
                 RunReport& report);

/// Passes without a new applied move that end a bracket (shared with the
/// socket client's REOPT_STATS polling).
inline constexpr std::uint64_t kSettlePasses = 16;
/// REOPT_START budget knobs sized never to bind inside one bracket.
inline constexpr std::size_t kBracketMoves = 1'000'000;
inline constexpr double kBracketWindowS = 3600.0;

/// The REOPT_START line that opens a bracket on `session`: the budget
/// above, one pass per millisecond.
[[nodiscard]] std::string reopt_start_line(const std::string& session);

}  // namespace servebench
