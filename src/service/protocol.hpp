// Wire protocol for taccd: line-delimited, space-separated text requests.
//
// One request per line, one response line per request:
//
//   CONFIGURE <session> <iot> <edge> [seed=N] [algo=NAME] [preset=NAME]
//             [oracle=exact]           (the one delay-oracle backend; any
//                                       other spec is a BAD_REQUEST — see
//                                       topology/oracle/config.hpp)
//   JOIN      <session> <x> <y> [demand=D] [rate=HZ]
//   MOVE      <session> <device> <x> <y> [pinned=0|1]
//   LEAVE     <session> <device>
//   FAIL      <session> <server> [evacuate=0|1]
//   RECOVER   <session> <server>
//   EVACUATE  <session> <server>
//   LINK_FAIL    <session> <u> <v>         (backbone link churn; u, v are
//   LINK_RESTORE <session> <u> <v>          router node ids — see LINKS)
//   LINK_SET     <session> <u> <v> <latency_ms>
//                (LINK_* replies carry affected=/saved=: shortest-path-tree
//                 nodes the repair examined / a full recompute would have
//                 settled beyond them. The trees span routers only — hosts,
//                 devices and servers alike, never relay — so affected=
//                 counts routers only, and so does STATS'
//                 link_nodes_affected.)
//   LINKS     <session> [limit=K]          (list live backbone links)
//   REOPT_START <session> [moves=N] [device_moves=N] [window_s=S]
//               [interval_ms=T]          (attach + start the background
//                                         re-optimizer; omitted knobs use
//                                         the daemon's --reopt-* defaults)
//   REOPT_STOP  <session>                (stop; idempotent; the ledger
//                                         stays readable until the next
//                                         REOPT_START or CONFIGURE)
//   REOPT_STATS <session>                (optimizer ledger, running=0
//                                         after REOPT_STOP)
//   ORACLE_STATS <session>               (delay-oracle counters: rows,
//                                         epoch, queries, row fills (always
//                                         0), bytes resident)
//   SLEEP     <session> <ms>               (diagnostic: occupies the session)
//   STATS     [<session>] [shards=0|1]   (shards=1: per-shard breakdown)
//   PING
//   SHUTDOWN
//
// Every session verb additionally accepts timeout_ms=T (at most 86400000),
// overriding the server's default admission deadline for that request.
// Numbers must be finite: nan and inf are rejected. Responses are either
// "OK key=value ..." or "ERR <CODE> <message>"; see DESIGN.md for the
// semantics. The verb table in protocol.cpp is the authoritative grammar;
// this summary mirrors it.
//
// This header is pure parsing/formatting — no sockets, no sessions — so the
// protocol is unit-testable in isolation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/algorithms.hpp"

namespace tacc::service {

/// The largest admission deadline, one day: any deadline up to it fits in
/// an Engine::Clock::duration. Bounds timeout_ms= on the wire and
/// EngineOptions::default_timeout_ms.
inline constexpr double kMaxTimeoutMs = 86'400'000.0;

/// The shortest positive re-optimizer budget window (s). BudgetLedger
/// numbers windows floor(now_s / window_s) as a uint64, which a shorter
/// window can overflow.
inline constexpr double kMinReoptWindowS = 1e-3;

/// The re-optimizer timing check shared by REOPT_START's options and
/// EngineOptions::reopt: a budget window of at least kMinReoptWindowS, or
/// <= 0 for the one infinite window, and a pause between passes in
/// (0, kMaxTimeoutMs], which the pass loop's nanosecond wait can hold.
/// NaN fails both.
[[nodiscard]] constexpr bool reopt_window_ok(double window_s) noexcept {
  return window_s <= 0.0 || window_s >= kMinReoptWindowS;
}
[[nodiscard]] constexpr bool reopt_interval_ok(double interval_ms) noexcept {
  return interval_ms > 0.0 && interval_ms <= kMaxTimeoutMs;
}

enum class Verb {
  kConfigure,
  kJoin,
  kMove,
  kLeave,
  kFail,
  kRecover,
  kEvacuate,
  kLinkFail,
  kLinkRestore,
  kLinkSet,
  kLinks,
  kReoptStart,
  kReoptStop,
  kReoptStats,
  kOracleStats,
  kSleep,
  kStats,
  kPing,
  kShutdown,
};
[[nodiscard]] std::string_view to_string(Verb verb) noexcept;

/// Error codes a response line can carry. OVERLOADED and DEADLINE_EXCEEDED
/// are the two admission-control rejections the paper-level deadlines call
/// for; the rest are protocol/session errors.
enum class ErrorCode {
  kBadRequest,        ///< unparseable or precondition-violating request
  kNotFound,          ///< unknown session
  kOverloaded,        ///< admission queue full — retry later
  kDeadlineExceeded,  ///< request expired before a worker reached it
  kShuttingDown,      ///< daemon is draining; no new work admitted
  kInternal,          ///< unexpected server-side failure
};
[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

enum class ScenarioPreset { kSmartCity, kFactory, kCampus };
[[nodiscard]] std::string_view to_string(ScenarioPreset preset) noexcept;

/// One parsed request. Only the fields relevant to `verb` are meaningful;
/// the rest keep their defaults.
struct Request {
  Verb verb = Verb::kPing;
  std::string session;  ///< empty only for PING/SHUTDOWN/global STATS

  // CONFIGURE
  std::size_t iot = 0;
  std::size_t edge = 0;
  std::uint64_t seed = 1;
  Algorithm algorithm = Algorithm::kGreedyBestFit;
  ScenarioPreset preset = ScenarioPreset::kSmartCity;
  /// Delay-oracle spec (oracle=SPEC, validated at parse time); empty keeps
  /// the daemon's --oracle default.
  std::string oracle;

  // JOIN / MOVE coordinates and device load
  double x = 0.0;
  double y = 0.0;
  double demand = 1.0;
  double rate_hz = 5.0;
  bool pinned = false;

  // MOVE/LEAVE device index; FAIL/RECOVER/EVACUATE server index
  std::size_t index = 0;
  bool evacuate = true;

  // LINK_FAIL / LINK_RESTORE / LINK_SET endpoints (router node ids, as
  // reported by LINKS) and the new latency for LINK_SET.
  std::size_t link_u = 0;
  std::size_t link_v = 0;
  double latency_ms = 0.0;
  // LINKS: max links listed per response line.
  std::size_t limit = 16;

  // REOPT_START migration-budget overrides; 0 keeps the engine default.
  std::size_t reopt_moves = 0;         ///< moves=N (max moves per window)
  std::size_t reopt_device_moves = 0;  ///< device_moves=N (per-device cap)
  double reopt_window_s = 0.0;         ///< window_s=S (budget window)
  double reopt_interval_ms = 0.0;      ///< interval_ms=T (pass cadence)

  // SLEEP
  double sleep_ms = 0.0;

  // STATS: shards=1 appends the per-shard ledger breakdown
  // (s<k>_depth/accepted/completed/failed/deadline/sessions) to the
  // global reply.
  bool per_shard = false;

  /// Per-request admission deadline override (timeout_ms=T).
  std::optional<double> timeout_ms;
};

/// Outcome of parse_request: either a request or a human-readable error.
struct ParseResult {
  std::optional<Request> request;
  std::string error;
  [[nodiscard]] bool ok() const noexcept { return request.has_value(); }
};

/// Parses one wire line (without the trailing newline; a trailing '\r' is
/// tolerated). Never throws.
[[nodiscard]] ParseResult parse_request(std::string_view line);

/// Formats "ERR <CODE> <message>".
[[nodiscard]] std::string err_line(ErrorCode code, std::string_view message);

/// Assembles "OK key=value ..." response lines with consistent numeric
/// formatting (doubles use %.6g so lines stay short).
class OkLine {
 public:
  OkLine& field(std::string_view key, std::string_view value);
  OkLine& field(std::string_view key, const std::string& value) {
    return field(key, std::string_view(value));
  }
  OkLine& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  OkLine& field(std::string_view key, std::size_t value);
  OkLine& field(std::string_view key, double value);
  OkLine& field(std::string_view key, bool value);

  [[nodiscard]] std::string str() const { return line_; }

 private:
  std::string line_ = "OK";
};

}  // namespace tacc::service
