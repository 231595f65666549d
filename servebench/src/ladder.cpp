// Traced in-process run: the same wire streams replayed down a ladder of
// public entry points, each timed from outside.
//
//   cluster-direct   DynamicCluster calls (direct.cpp), one thread per session
//   engine-direct    service::Engine::submit of pre-parsed requests
//   engine+protocol  service::parse_request + Engine::submit per line
//   socket           service::Server over a Unix socket, closed-loop client
//
// Every rung keeps the load shape of the end-to-end run: two sessions on
// distinct shards of a 2-shard, 2-thread engine, one request in flight per
// session, windows that close when the first session runs out of lines. A
// layer's self time is the difference of adjacent rungs' median request
// times. The socket rung runs twice, with client spans kept and without,
// to measure what tracing costs.
#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <fstream>
#include <future>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "common.hpp"
#include "core/scenario.hpp"
#include "direct.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "topology/incremental/engine.hpp"
#include "util/mutex.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;
using tacc::service::Engine;
using tacc::service::Request;
using tacc::service::Verb;

constexpr std::size_t kParsePasses = 3;
constexpr auto kBracketCap = std::chrono::seconds(5);

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

tacc::service::EngineOptions ladder_engine_options() {
  tacc::service::EngineOptions options;
  options.threads = 2;
  options.shards = 2;
  options.default_timeout_ms = 60'000.0;
  return options;
}

Request parse_or_throw(std::string_view line) {
  tacc::service::ParseResult parsed = tacc::service::parse_request(line);
  if (!parsed.ok()) {
    throw std::runtime_error("unparseable line: " + std::string(line));
  }
  return std::move(*parsed.request);
}

/// Engine responses, handed from worker threads to the driving thread.
class Completions {
 public:
  struct Item {
    std::size_t session = 0;
    std::string reply;
    Clock::time_point at{};
  };

  Engine::Responder responder(std::size_t session) {
    return [this, session](std::string reply) {
      const Clock::time_point at = Clock::now();
      {
        const tacc::MutexLock lock(&mutex_);
        items_.push_back({session, std::move(reply), at});
      }
      cv_.notify_one();
    };
  }

  Item pop() {
    const tacc::MutexLock lock(&mutex_);
    while (items_.empty()) cv_.wait(mutex_);
    Item item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  tacc::Mutex mutex_;
  tacc::CondVar cv_;
  std::deque<Item> items_ TACC_GUARDED_BY(mutex_);
};

/// Submits one line and blocks for its reply.
std::string call(Engine& engine, std::string_view line) {
  std::promise<std::string> reply;
  std::future<std::string> ready = reply.get_future();
  engine.submit(parse_or_throw(line),
                [&reply](std::string text) { reply.set_value(std::move(text)); });
  return ready.get();
}

/// One quiet window through the engine: REOPT_START, REOPT_STATS every
/// millisecond until kSettlePasses passes add no applied move, REOPT_STOP.
void engine_bracket(Engine& engine, const std::string& session,
                    RunReport& report) {
  const std::string start = call(engine, reopt_start_line(session));
  if (!start.starts_with("OK")) report.fail("REOPT_START: " + start);
  const Clock::time_point deadline = Clock::now() + kBracketCap;
  double last_applied = -1.0;
  double passes_at_change = 0.0;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::string stats = call(engine, "REOPT_STATS " + session);
    const double applied = reply_field(stats, "applied");
    const double passes = reply_field(stats, "passes");
    if (applied != last_applied) {
      last_applied = applied;
      passes_at_change = passes;
    }
    if (passes >= passes_at_change + static_cast<double>(kSettlePasses)) break;
  }
  const std::string stop = call(engine, "REOPT_STOP " + session);
  if (!stop.starts_with("OK")) report.fail("REOPT_STOP: " + stop);
}

struct EngineRung {
  WindowLog windows;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> stats;   ///< final STATS per session
  std::vector<std::string> oracle;  ///< final ORACLE_STATS per session
  tacc::service::EngineCounters counters;
};

/// Engine-direct (`protocol` false: requests parsed up front) or
/// engine+protocol (`protocol` true: parse_request inside the timed span).
EngineRung engine_rung(const std::vector<SessionStream>& streams,
                       bool protocol, RunReport& report) {
  const std::size_t n = streams.size();
  std::vector<std::vector<Request>> parsed(n);
  std::vector<std::vector<std::size_t>> bounds(n);
  for (std::size_t c = 0; c < n; ++c) {
    bounds[c] = segment_bounds(streams[c]);
    if (protocol) continue;
    for (const std::string& line : streams[c].lines) {
      parsed[c].push_back(parse_or_throw(line));
    }
  }

  EngineRung rung;
  Engine engine(ladder_engine_options());
  Completions done;
  for (std::size_t c = 0; c < n; ++c) {
    engine.submit(parse_or_throw(streams[c].configure), done.responder(c));
  }
  for (std::size_t c = 0; c < n; ++c) {
    const Completions::Item item = done.pop();
    if (!item.reply.starts_with("OK")) report.fail("CONFIGURE: " + item.reply);
  }

  std::vector<std::size_t> next(n);
  std::vector<std::size_t> end(n);
  std::vector<std::size_t> measure_from(n);
  std::vector<Clock::time_point> sent(n);
  // As in replay(): a segment's window opens once every session is past
  // its settle lines.
  std::size_t settling = 0;
  bool window_opened = true;
  auto send = [&](std::size_t c) {
    sent[c] = Clock::now();
    ++rung.requests;
    if (next[c] == measure_from[c] && --settling == 0 && !window_opened) {
      window_opened = true;
      rung.windows.open(sent[c]);
    }
    if (!protocol) {
      engine.submit(parsed[c][next[c]], done.responder(c));
      return;
    }
    tacc::service::ParseResult request =
        tacc::service::parse_request(streams[c].lines[next[c]]);
    if (!request.ok()) throw std::runtime_error("unparseable: " + request.error);
    engine.submit(*request.request, done.responder(c));
  };

  const bool reopt = !streams.front().quiet.empty();
  for (std::size_t seg = 0; seg + 1 < bounds.front().size(); ++seg) {
    std::size_t active = 0;
    auto close_window = [&](Clock::time_point at) {
      if (rung.windows.is_open()) rung.windows.close(at);
    };
    for (std::size_t c = 0; c < n; ++c) {
      next[c] = bounds[c][seg];
      end[c] = bounds[c][seg + 1];
      measure_from[c] = std::min(next[c] + kSettleLines, end[c]);
      if (next[c] < end[c]) ++active;
    }
    settling = active;
    window_opened = seg == 0 || active < n;
    for (std::size_t c = 0; c < n; ++c) {
      if (next[c] < end[c]) send(c);
    }
    while (active > 0) {
      const Completions::Item item = done.pop();
      const std::size_t c = item.session;
      if (!item.reply.starts_with("OK")) {
        ++rung.failed;
        report.fail(streams[c].lines[next[c]] + " -> " + item.reply);
      }
      if (rung.windows.is_open()) {
        rung.windows.add(item.at, us_between(sent[c], item.at));
      }
      if (++next[c] < end[c]) {
        send(c);
      } else {
        close_window(item.at);
        --active;
      }
    }
    if (reopt) {
      for (const SessionStream& s : streams) {
        engine_bracket(engine, s.session, report);
      }
    }
  }

  for (const SessionStream& s : streams) {
    std::string stats = call(engine, "STATS " + s.session);
    for (int tries = 0; reply_field(stats, "in_flight") != 0.0; ++tries) {
      if (tries == 1000) throw std::runtime_error("requests stuck: " + stats);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      stats = call(engine, "STATS " + s.session);
    }
    rung.stats.push_back(stats);
    rung.oracle.push_back(call(engine, "ORACLE_STATS " + s.session));
  }
  rung.counters = engine.counters();
  return rung;
}

struct SocketRung {
  ReplayResult served;
  std::vector<std::string> stats;
};

/// In-process service::Server, driven by the end-to-end run's client.
SocketRung socket_rung(const std::vector<SessionStream>& streams, bool spans,
                       RunReport& report) {
  tacc::service::ServerOptions options;
  options.unix_path = "ladder.sock";
  options.engine = ladder_engine_options();
  tacc::service::Server server(options);
  std::exception_ptr run_error;
  SocketRung rung;
  {
    std::jthread runner([&server, &run_error] {
      try {
        server.run();
      } catch (...) {
        run_error = std::current_exception();
      }
    });
    // Destroyed before `runner` joins: ask the server to drain and return.
    struct StopOnExit {
      tacc::service::Server& server;
      ~StopOnExit() { server.request_shutdown(); }
    } stop_on_exit{server};

    WireClient first(options.unix_path);
    WireClient second(options.unix_path);
    std::vector<WireClient*> conns = {&first, &second};
    std::vector<std::string> configure;
    for (const SessionStream& s : streams) configure.push_back(s.configure);
    for (const std::string& reply : exchange_lines(conns, configure)) {
      if (!reply.starts_with("OK")) report.fail("CONFIGURE: " + reply);
    }
    replay(conns, streams, 0, segment_bounds(streams.front()).size() - 1,
           spans, rung.served);
    for (std::size_t c = 0; c < streams.size(); ++c) {
      rung.stats.push_back(settled_stats(*conns[c], streams[c].session));
    }
  }
  if (run_error) std::rethrow_exception(run_error);
  for (const std::string& error : rung.served.errors) report.fail(error);
  return rung;
}

/// protocol.parse_us: parse_request over every line, median of passes.
double parse_us_per_line(const std::vector<SessionStream>& streams) {
  std::vector<double> passes;
  std::size_t lines = 0;
  std::size_t ok = 0;
  for (std::size_t pass = 0; pass < kParsePasses; ++pass) {
    lines = 0;
    const Clock::time_point t0 = Clock::now();
    for (const SessionStream& s : streams) {
      for (const std::string& line : s.lines) {
        if (tacc::service::parse_request(line).ok()) ++ok;
        ++lines;
      }
    }
    passes.push_back(us_between(t0, Clock::now()) / static_cast<double>(lines));
  }
  if (ok != lines * kParsePasses) throw std::runtime_error("unparseable line");
  return quantile(passes, 0.5);
}

/// incr.repair_us: a standalone IncrementalDelayEngine over each session's
/// scenario, applying the same link events.
std::vector<double> incremental_repair_us(
    const std::vector<SessionStream>& streams) {
  std::vector<double> samples;
  for (const SessionStream& s : streams) {
    const Request c = parse_or_throw(s.configure);
    const tacc::Scenario scenario =
        tacc::Scenario::smart_city(c.iot, c.edge, c.seed);
    tacc::topo::NetworkTopology net = scenario.network();
    tacc::topo::incr::IncrementalDelayEngine engine(net);
    for (const std::string& line : s.lines) {
      if (!line.starts_with("LINK_")) continue;
      const Request r = parse_or_throw(line);
      const auto u = static_cast<tacc::topo::NodeId>(r.link_u);
      const auto v = static_cast<tacc::topo::NodeId>(r.link_v);
      const Clock::time_point t0 = Clock::now();
      if (r.verb == Verb::kLinkFail) {
        (void)engine.fail_link(u, v);
      } else if (r.verb == Verb::kLinkRestore) {
        (void)engine.restore_link(u, v);
      } else {
        (void)engine.set_link_latency(u, v, r.latency_ms);
      }
      samples.push_back(us_between(t0, Clock::now()));
    }
  }
  return samples;
}

template <typename Member>
std::vector<double> merged(const std::vector<DirectResult>& direct,
                           Member member) {
  std::vector<double> all;
  for (const DirectResult& d : direct) {
    all.insert(all.end(), (d.*member).begin(), (d.*member).end());
  }
  return all;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "span,parent,session,request,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << "socket.request,," << s.session << ',' << s.request << ','
        << s.send_ns << ',' << s.recv_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

RunReport run_trace(const Args& args) {
  RunReport report;
  const WorkloadDef& def = find_workload(args.workload);
  // The end-to-end run's streams: the workloads are not stationary from the
  // first line (reopt_hotspot only turns capacity-tight as demand pulses
  // accumulate), so every rung replays them whole.
  const std::vector<SessionStream> streams = checked_streams(
      def, args.seed, measured_lines(def, args.seconds), report);
  const bool reopt = def.pause_s > 0.0;

  // Rung 1: cluster-direct, one thread per session like the engine's shards.
  const std::vector<DirectResult> direct = replay_direct_all(streams, true);
  const std::vector<double> repair_us = incremental_repair_us(streams);
  const double parse_us = parse_us_per_line(streams);

  // Rungs 2-4.
  EngineRung engine = engine_rung(streams, false, report);
  EngineRung protocol = engine_rung(streams, true, report);
  SocketRung traced = socket_rung(streams, true, report);
  SocketRung untraced = socket_rung(streams, false, report);

  // Output checks.
  std::uint64_t served_requests = 0;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    served_requests += direct[c].requests;
    if (reply_field(untraced.stats[c], "shard") ==
        reply_field(untraced.stats[streams.size() - 1 - c], "shard")) {
      report.fail("both sessions on one shard");
    }
    for (const std::string* stats :
         {&engine.stats[c], &protocol.stats[c], &untraced.stats[c]}) {
      const double accepted = reply_field(*stats, "accepted");
      if (accepted != reply_field(*stats, "completed") +
                          reply_field(*stats, "failed") +
                          reply_field(*stats, "rejected_deadline")) {
        report.fail("ledger identity broken: " + *stats);
      }
      if (!reopt) check_state(*stats, direct[c], report);
    }
  }
  const tacc::service::EngineCounters& ec = engine.counters;
  const tacc::service::EngineCounters& pc = protocol.counters;
  const std::uint64_t rejected =
      ec.rejected_overload + ec.rejected_deadline + ec.rejected_not_found +
      ec.rejected_shutdown + pc.rejected_overload + pc.rejected_deadline +
      pc.rejected_not_found + pc.rejected_shutdown;
  if (rejected != 0) report.fail("engine rejected requests");
  for (const DirectResult& d : direct) {
    if (d.failed > 0) report.fail("direct replay: " + d.first_error);
  }
  report.attempted = served_requests + engine.requests + protocol.requests +
                     traced.served.attempted + untraced.served.attempted;
  std::uint64_t direct_failed = 0;
  for (const DirectResult& d : direct) direct_failed += d.failed;
  report.failed = direct_failed + engine.failed + protocol.failed +
                  traced.served.failed + traced.served.bracket_failed +
                  untraced.served.failed + untraced.served.bracket_failed;

  // Rung medians and self times.
  std::vector<double> cluster_request = merged(direct, &DirectResult::request_us);
  const double cluster_p50 = quantile(cluster_request, 0.5);
  const WindowLog::Summary engine_w = engine.windows.summarize();
  const WindowLog::Summary protocol_w = protocol.windows.summarize();
  const WindowLog::Summary traced_w = traced.served.windows.summarize();
  const WindowLog::Summary socket_w = untraced.served.windows.summarize();
  const double engine_p50 = engine_w.p50_us;
  const double engine_p99 = engine_w.p99_us;
  const double protocol_p50 = protocol_w.p50_us;
  const double socket_p50 = socket_w.p50_us;
  const double rps_on = traced_w.rps;
  const double rps_off = socket_w.rps;

  double server_p50 = 0.0;
  double server_p99 = 0.0;
  double completed = 0.0;
  double batches = 0.0;
  double queries = 0.0;
  double row_fills = 0.0;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    server_p50 += reply_field(engine.stats[c], "p50_us") / 2.0;
    server_p99 = std::max(server_p99, reply_field(engine.stats[c], "p99_us"));
    completed += reply_field(engine.stats[c], "completed");
    batches += reply_field(engine.stats[c], "batches");
    queries += reply_field(engine.oracle[c], "queries");
    row_fills += reply_field(engine.oracle[c], "row_fills");
  }

  std::uint64_t link_ops = 0;
  double affected = 0.0;
  double saved = 0.0;
  double rows = 0.0;
  double overloads = 0.0;
  double proposed = 0.0;
  double applied = 0.0;
  double gain = 0.0;
  double scenario_s = 0.0;
  double cluster_s = 0.0;
  for (const DirectResult& d : direct) {
    link_ops += d.link_ops;
    affected += static_cast<double>(d.nodes_affected);
    saved += static_cast<double>(d.nodes_saved);
    rows += static_cast<double>(d.rows_refreshed);
    overloads += static_cast<double>(d.overload_fallbacks);
    proposed += static_cast<double>(d.reopt_proposed);
    applied += static_cast<double>(d.reopt_applied);
    gain += d.reopt_gain;
    scenario_s += d.scenario_s / static_cast<double>(direct.size());
    cluster_s += d.cluster_s / static_cast<double>(direct.size());
  }
  std::vector<double> link_us = merged(direct, &DirectResult::link_fail_us);
  for (const double v : merged(direct, &DirectResult::link_restore_us)) {
    link_us.push_back(v);
  }
  for (const double v : merged(direct, &DirectResult::link_set_us)) {
    link_us.push_back(v);
  }
  const double repair = mean(repair_us);
  const std::vector<double> pass_us = merged(direct, &DirectResult::reopt_pass_us);
  const double links = static_cast<double>(link_ops);

  report.metric("server.self_us", socket_p50 - protocol_p50, "us");
  report.metric("socket.request_p50_us", socket_p50, "us");
  report.metric("protocol.parse_us", parse_us, "us");
  report.metric("protocol.self_us", protocol_p50 - engine_p50, "us");
  report.metric("protocol.request_p50_us", protocol_p50, "us");
  report.metric("engine.request_p50_us", engine_p50, "us");
  report.metric("engine.request_p99_us", engine_p99, "us");
  report.metric("engine.self_us", engine_p50 - cluster_p50, "us");
  report.metric("engine.server_p50_us", server_p50, "us");
  report.metric("engine.server_p99_us", server_p99, "us");
  report.metric("engine.batch_mean", ratio(completed, batches), "count");
  report.metric("engine.rejected", static_cast<double>(rejected), "count");
  report.metric("cluster.request_p50_us", cluster_p50, "us");
  report.metric("cluster.join_us", mean(merged(direct, &DirectResult::join_us)), "us");
  report.metric("cluster.move_us", mean(merged(direct, &DirectResult::move_us)), "us");
  report.metric("cluster.leave_us", mean(merged(direct, &DirectResult::leave_us)), "us");
  report.metric("cluster.link_fail_us",
                mean(merged(direct, &DirectResult::link_fail_us)), "us");
  report.metric("cluster.link_restore_us",
                mean(merged(direct, &DirectResult::link_restore_us)), "us");
  report.metric("cluster.link_set_us",
                mean(merged(direct, &DirectResult::link_set_us)), "us");
  report.metric("cluster.snapshot_us",
                mean(merged(direct, &DirectResult::snapshot_us)), "us");
  report.metric("cluster.overload_fallbacks", overloads, "count");
  report.metric("incr.repair_us", repair, "us");
  report.metric("incr.nodes_affected_per_link", ratio(affected, links), "count");
  report.metric("incr.saved_frac", ratio(saved, affected + saved), "ratio");
  report.metric("oracle.refresh_us", link_us.empty() ? 0.0 : mean(link_us) - repair,
                "us");
  report.metric("oracle.rows_refreshed_per_link", ratio(rows, links), "count");
  report.metric("oracle.queries_per_req",
                ratio(queries, static_cast<double>(engine.requests)), "count");
  report.metric("oracle.row_fills", row_fills, "count");
  report.metric("reopt.pass_us", mean(pass_us), "us");
  report.metric("reopt.passes", static_cast<double>(pass_us.size()), "count");
  report.metric("reopt.proposed", proposed, "count");
  report.metric("reopt.applied", applied, "count");
  report.metric("reopt.apply_frac", ratio(applied, proposed), "ratio");
  report.metric("reopt.gain", gain, "cost");
  report.metric("configure.scenario_s", scenario_s, "s");
  report.metric("configure.cluster_s", cluster_s, "s");
  report.metric("trace.rps_spans_on", rps_on, "1/s");
  report.metric("trace.rps_spans_off", rps_off, "1/s");
  report.metric("trace.overhead_pct", 100.0 * (rps_off - rps_on) / rps_off, "%");

  report.note("engine.latency_samples", static_cast<double>(engine_w.samples),
              "count");
  report.note("socket.latency_samples", static_cast<double>(socket_w.samples),
              "count");
  report.note("link_ops", links, "count");
  if (!args.spans_out.empty()) write_spans(args.spans_out, traced.served.spans);
  return report;
}

}  // namespace servebench
