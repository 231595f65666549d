// taccd — the topology-aware cluster-configuration daemon.
//
// Serves named, long-lived DynamicCluster sessions over a Unix-domain
// socket (and optionally TCP), speaking the line protocol in
// src/service/protocol.hpp:
//
//   taccd --socket=/tmp/taccd.sock [--port=7433] [--host=127.0.0.1]
//         [--shards=N] [--threads=N] [--max-queue=256] [--timeout-ms=1000]
//         [--max-batch=32] [--max-line=4096] [--verbose]
//         [--reopt] [--reopt-moves=32] [--reopt-device-moves=1]
//         [--reopt-window-s=10] [--reopt-interval-ms=50]
//
// Sessions are hash-partitioned across --shards engine shards (default:
// one per core), each with its own admission queue and workers; --threads
// is the total worker budget split across shards. Admission is bounded
// (--max-queue, split per shard) and every request carries a deadline
// (--timeout-ms default, timeout_ms= per request); excess load answers
// OVERLOADED / DEADLINE_EXCEEDED instead of queuing unboundedly. SIGINT or
// SIGTERM (or the SHUTDOWN verb) drains in-flight requests and exits 0.
// Every session serves exact shortest-path delays from its DelayOracle;
// there is no backend to pick, so the daemon takes no oracle flag.
#include <iostream>
#include <stdexcept>

#include "service/server.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace {

using namespace tacc;

int run(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  service::ServerOptions options;
  options.unix_path = flags.get_string("socket", "");
  options.tcp_port = static_cast<int>(flags.get_int("port", -1));
  options.tcp_host = flags.get_string("host", "127.0.0.1");
  options.max_line =
      static_cast<std::size_t>(flags.get_int("max-line", 4096));
  options.engine.threads =
      static_cast<std::size_t>(flags.get_int("threads", 0));
  options.engine.shards =
      static_cast<std::size_t>(flags.get_int("shards", 0));
  options.engine.max_queue =
      static_cast<std::size_t>(flags.get_int("max-queue", 256));
  options.engine.default_timeout_ms =
      flags.get_double("timeout-ms", 1000.0);
  options.engine.max_batch =
      static_cast<std::size_t>(flags.get_int("max-batch", 32));
  // --reopt attaches a background re-optimizer to every session at
  // CONFIGURE time; the knobs below set the daemon-wide migration budget
  // (REOPT_START options still override per session).
  options.engine.auto_reopt = flags.get_bool("reopt", false);
  options.engine.reopt.budget.max_moves_per_window = static_cast<std::size_t>(
      flags.get_int("reopt-moves",
                    static_cast<std::int64_t>(
                        options.engine.reopt.budget.max_moves_per_window)));
  options.engine.reopt.budget.max_device_moves_per_window =
      static_cast<std::size_t>(flags.get_int(
          "reopt-device-moves",
          static_cast<std::int64_t>(
              options.engine.reopt.budget.max_device_moves_per_window)));
  options.engine.reopt.budget.window_s = flags.get_double(
      "reopt-window-s", options.engine.reopt.budget.window_s);
  options.engine.reopt.interval_ms =
      flags.get_double("reopt-interval-ms", options.engine.reopt.interval_ms);
  // A zero --max-batch never drains a request, and a --timeout-ms outside
  // (0, one day] expires every request: refuse both at startup.
  try {
    service::validate_engine_options(options.engine);
  } catch (const std::invalid_argument& error) {
    std::cerr << "taccd: bad engine option: " << error.what() << "\n";
    return 2;
  }
  if (flags.get_bool("verbose", false)) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  if (options.unix_path.empty() && options.tcp_port < 0) {
    std::cerr << "usage: taccd --socket=<path> [--port=N] [--host=ADDR] "
                 "[--shards=N] [--threads=N] [--max-queue=N] [--timeout-ms=T] "
                 "[--max-batch=N] [--max-line=BYTES] [--verbose] [--reopt] "
                 "[--reopt-moves=N] [--reopt-device-moves=N] "
                 "[--reopt-window-s=S] [--reopt-interval-ms=T]\n"
                 "at least one of --socket / --port is required\n";
    return 2;
  }
  for (const std::string& name : flags.unused()) {
    std::cerr << "warning: unknown flag --" << name << " ignored\n";
  }

  service::Server server(std::move(options));
  server.install_signal_handlers();
  std::cout << "taccd: listening (shards=" << server.engine().shard_count()
            << ")";
  if (!server.unix_path().empty()) {
    std::cout << " on unix:" << server.unix_path();
  }
  if (server.tcp_port() >= 0) {
    std::cout << " on tcp:" << server.tcp_port();
  }
  std::cout << std::endl;  // flush so launch scripts can wait on this line

  server.run();

  const service::EngineCounters counters = server.engine().counters();
  std::cout << "taccd: exiting (accepted=" << counters.accepted
            << " completed=" << counters.completed
            << " failed=" << counters.failed
            << " rejected_overload=" << counters.rejected_overload
            << " rejected_deadline=" << counters.rejected_deadline
            << " rejected_shutdown=" << counters.rejected_shutdown
            << " rejected_not_found=" << counters.rejected_not_found
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "taccd: " << error.what() << "\n";
    return 1;
  }
}
