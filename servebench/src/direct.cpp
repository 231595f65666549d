#include "direct.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "core/dynamic.hpp"
#include "core/scenario.hpp"
#include "optimize/reoptimizer.hpp"
#include "service/protocol.hpp"
#include "topology/oracle/config.hpp"
#include "util/mutex.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;
using tacc::service::Verb;

/// Hard cap on synchronous passes per bracket (the daemon side caps by
/// time instead).
constexpr std::uint64_t kMaxBracketPasses = 20'000;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Mirrors the serving calls of service::Engine::apply for the verbs the
/// workload streams contain; records timing by verb when `timed`.
void apply(tacc::DynamicCluster& cluster, const tacc::service::Request& r,
           bool timed, DirectResult& out) {
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
  std::vector<double>* sink = nullptr;
  switch (r.verb) {
    case Verb::kJoin: {
      tacc::workload::IotDevice device;
      device.position = {r.x, r.y};
      device.request_rate_hz = r.rate_hz;
      device.demand = r.demand;
      out.overload_fallbacks += cluster.join(device).overload_fallback;
      sink = &out.join_us;
      break;
    }
    case Verb::kMove: {
      const tacc::topo::Point2D position{r.x, r.y};
      const tacc::JoinResult moved = r.pinned
                                         ? cluster.move_pinned(r.index, position)
                                         : cluster.move(r.index, position);
      out.overload_fallbacks += moved.overload_fallback;
      sink = &out.move_us;
      break;
    }
    case Verb::kLeave:
      cluster.leave(r.index);
      sink = &out.leave_us;
      break;
    case Verb::kLinkFail:
    case Verb::kLinkRestore:
    case Verb::kLinkSet: {
      const auto u = static_cast<tacc::topo::NodeId>(r.link_u);
      const auto v = static_cast<tacc::topo::NodeId>(r.link_v);
      const tacc::LinkUpdateReport report =
          r.verb == Verb::kLinkFail      ? cluster.fail_link(u, v)
          : r.verb == Verb::kLinkRestore ? cluster.restore_link(u, v)
                                         : cluster.set_link_latency(
                                               u, v, r.latency_ms);
      ++out.link_ops;
      out.nodes_affected += report.nodes_affected;
      out.nodes_saved += report.nodes_saved;
      out.rows_refreshed += report.rows_refreshed;
      sink = r.verb == Verb::kLinkFail      ? &out.link_fail_us
             : r.verb == Verb::kLinkRestore ? &out.link_restore_us
                                            : &out.link_set_us;
      break;
    }
    default:
      throw std::invalid_argument("verb not in a workload stream: " +
                                  std::string(tacc::service::to_string(r.verb)));
  }
  if (!timed) return;
  const Clock::time_point t1 = Clock::now();
  // The accessor set Engine::drain_session samples after every batch.
  double sink_value = cluster.avg_delay_ms() + cluster.max_utilization();
  sink_value += cluster.feasible() ? 1.0 : 0.0;
  sink_value += static_cast<double>(cluster.healthy_server_count());
  const Clock::time_point t2 = Clock::now();
  if (!(sink_value >= 0.0)) throw std::logic_error("negative snapshot");
  sink->push_back(us_between(t0, t1));
  out.snapshot_us.push_back(us_between(t1, t2));
  out.request_us.push_back(us_between(t0, t2));
}

/// One quiet window: synchronous passes until kSettlePasses in a row apply
/// nothing — the same stop rule the socket client uses on REOPT_STATS.
void bracket(tacc::DynamicCluster& cluster, bool timed, DirectResult& out) {
  tacc::Mutex mutex;
  tacc::opt::ReoptOptions options;
  options.budget.max_moves_per_window = kBracketMoves;
  options.budget.max_device_moves_per_window = kBracketMoves;
  options.budget.window_s = kBracketWindowS;
  tacc::opt::Reoptimizer reoptimizer(cluster, mutex, options);
  std::uint64_t idle = 0;
  for (std::uint64_t pass = 0; idle < kSettlePasses && pass < kMaxBracketPasses;
       ++pass) {
    const Clock::time_point t0 = Clock::now();
    const std::size_t applied = reoptimizer.run_pass();
    if (timed) out.reopt_pass_us.push_back(us_between(t0, Clock::now()));
    idle = applied == 0 ? idle + 1 : 0;
  }
  const tacc::opt::ReoptStats stats = reoptimizer.stats();
  out.reopt_proposed += stats.moves_proposed;
  out.reopt_applied += stats.moves_applied;
  out.reopt_gain += stats.achieved_gain;
}

}  // namespace

DirectResult replay_direct(const SessionStream& stream, bool timed) {
  DirectResult out;
  std::vector<tacc::service::Request> requests;
  requests.reserve(stream.lines.size());
  for (const std::string& line : stream.lines) {
    tacc::service::ParseResult parsed = tacc::service::parse_request(line);
    if (!parsed.ok()) throw std::runtime_error("unparseable line: " + line);
    requests.push_back(std::move(*parsed.request));
  }
  const tacc::service::ParseResult configure =
      tacc::service::parse_request(stream.configure);
  if (!configure.ok()) throw std::runtime_error("unparseable CONFIGURE");
  const tacc::service::Request& c = *configure.request;

  // The same construction Engine::apply performs for CONFIGURE.
  const Clock::time_point t0 = Clock::now();
  const tacc::Scenario scenario =
      tacc::Scenario::smart_city(c.iot, c.edge, c.seed);
  const Clock::time_point t1 = Clock::now();
  tacc::AlgorithmOptions algorithm_options;
  algorithm_options.apply_seed(c.seed);
  const tacc::ConfigureRequest request(
      c.algorithm, algorithm_options, tacc::CostModel::kTopologyAware, 10.0,
      tacc::topo::oracle::parse_oracle_spec(c.oracle));
  tacc::DynamicCluster cluster(scenario, request);
  const Clock::time_point t2 = Clock::now();
  out.scenario_s = std::chrono::duration<double>(t1 - t0).count();
  out.cluster_s = std::chrono::duration<double>(t2 - t1).count();

  std::size_t next_quiet = 0;
  for (std::size_t i = 0; i <= requests.size(); ++i) {
    while (next_quiet < stream.quiet.size() && stream.quiet[next_quiet] == i) {
      bracket(cluster, timed, out);
      ++next_quiet;
    }
    if (i == requests.size()) break;
    ++out.requests;
    try {
      apply(cluster, requests[i], timed, out);
    } catch (const std::exception& error) {
      if (out.failed++ == 0) out.first_error = stream.lines[i] + ": " + error.what();
    }
  }

  out.devices = cluster.active_count();
  out.delay_epoch = cluster.link_stats().epoch;
  out.avg_delay_ms = cluster.avg_delay_ms();
  out.max_utilization = cluster.max_utilization();
  const tacc::topo::oracle::OracleStats oracle = cluster.delay_oracle().stats();
  out.oracle_queries = oracle.queries;
  out.oracle_row_fills = oracle.row_fills;
  return out;
}

std::vector<DirectResult> replay_direct_all(
    const std::vector<SessionStream>& streams, bool timed) {
  std::vector<DirectResult> results(streams.size());
  std::vector<std::exception_ptr> errors(streams.size());
  {
    std::vector<std::jthread> workers;
    for (std::size_t c = 0; c < streams.size(); ++c) {
      workers.emplace_back([&, c] {
        try {
          results[c] = replay_direct(streams[c], timed);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

std::string reopt_start_line(const std::string& session) {
  const std::string budget = std::to_string(kBracketMoves);
  return "REOPT_START " + session + " moves=" + budget +
         " device_moves=" + budget +
         " window_s=" + std::to_string(static_cast<int>(kBracketWindowS)) +
         " interval_ms=1";
}

void check_state(const std::string& stats, const DirectResult& direct,
                 RunReport& report) {
  if (direct.failed > 0) report.fail("direct replay: " + direct.first_error);
  const bool same =
      reply_field(stats, "devices") == static_cast<double>(direct.devices) &&
      reply_field(stats, "delay_epoch") ==
          static_cast<double>(direct.delay_epoch) &&
      reply_text(stats, "avg_delay_ms") == wire6(direct.avg_delay_ms) &&
      reply_text(stats, "max_utilization") == wire6(direct.max_utilization);
  if (!same) {
    report.fail("served state differs from the direct replay: " + stats +
                " vs devices=" + std::to_string(direct.devices) +
                " delay_epoch=" + std::to_string(direct.delay_epoch) +
                " avg_delay_ms=" + wire6(direct.avg_delay_ms) +
                " max_utilization=" + wire6(direct.max_utilization));
  }
}

}  // namespace servebench
