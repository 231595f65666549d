// Untraced end-to-end run: the real taccd binary as a child process, driven
// by the closed-loop client, with the daemon's CPU and memory read from
// /proc/<pid>. The final state is checked against the cluster-direct
// replay of the same lines.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "client.hpp"
#include "common.hpp"
#include "direct.hpp"

extern char** environ;

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

/// CONFIGURE rounds per run: until kSetupMinRounds clean rounds and
/// kSetupMinS of set-up in total, but never past kSetupMaxS; setup_s is
/// the median of the clean rounds (of the kSetupMinRounds least stolen if
/// fewer were clean).
constexpr std::size_t kSetupMinRounds = 5;
constexpr double kSetupMinS = 2.0;
constexpr double kSetupMaxS = 5.0;
/// cpu_us_per_req uses the segments without steal when there are at least
/// this many, and this many least stolen segments otherwise.
constexpr std::size_t kMinCleanSegments = 3;

/// The taccd child process. The destructor stops and reaps it on every
/// path, so no run leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    std::vector<std::string> args = {binary, "--socket=" + socket,
                                     "--shards=2", "--threads=2"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = -1;
      ::close(out_fd_);
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
    // A constructor that throws runs no destructor: reap the child here.
    try {
      await_listening();
    } catch (...) {
      (void)stop();
      ::close(out_fd_);
      throw;
    }
  }

  ~Daemon() {
    if (pid_ > 0) (void)stop();
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// SIGTERM (graceful drain), then SIGKILL after 20 s. Returns the wait
  /// status.
  int stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_ || (done < 0 && errno != EINTR)) break;
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return status;
  }

 private:
  /// taccd prints its "listening" line once the socket is bound.
  void await_listening() {
    std::string seen;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (seen.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (Clock::now() > deadline || ::poll(&p, 1, 1000) < 0) {
        throw std::runtime_error("taccd did not start listening");
      }
      char chunk[256];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n == 0) throw std::runtime_error("taccd exited at startup");
      if (n > 0) seen.append(chunk, static_cast<std::size_t>(n));
    }
    if (seen.find("listening") == std::string::npos) {
      throw std::runtime_error("unexpected taccd banner: " + seen);
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// utime + stime of every thread of `pid`, in seconds.
double proc_cpu_s(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// VmHWM (peak resident set) of `pid`, in MiB.
double proc_hwm_mb(pid_t pid) {
  std::istringstream status(
      read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for taccd");
}

/// The paper's objective over one cut of both sessions: avg_delay_ms is the
/// mean over sessions, max_utilization the max over sessions.
std::pair<double, double> objective(const std::vector<std::string>& stats) {
  double delay = 0.0;
  double util = 0.0;
  for (const std::string& reply : stats) {
    delay += reply_field(reply, "avg_delay_ms");
    util = std::max(util, reply_field(reply, "max_utilization"));
  }
  return {delay / static_cast<double>(stats.size()), util};
}

}  // namespace

RunReport run_e2e(const Args& args) {
  RunReport report;
  const WorkloadDef& def = find_workload(args.workload);
  const std::vector<SessionStream> streams = checked_streams(
      def, args.seed, measured_lines(def, args.seconds), report);

  Daemon daemon(args.taccd, "taccd.sock");
  WireClient first("taccd.sock");
  WireClient second("taccd.sock");
  std::vector<WireClient*> conns = {&first, &second};

  // Set-up: both sessions CONFIGURE at once (one per shard), several times.
  std::vector<std::string> configure;
  for (const SessionStream& s : streams) configure.push_back(s.configure);
  // Rounds during which the host stole CPU are dropped, like slices.
  std::vector<double> setup_s;
  std::vector<double> setup_steal;
  std::size_t clean_rounds = 0;
  double setup_total_s = 0.0;
  while (setup_total_s < kSetupMaxS &&
         (clean_rounds < kSetupMinRounds || setup_total_s < kSetupMinS)) {
    const double steal0 = steal_s();
    const Clock::time_point t0 = Clock::now();
    for (const std::string& reply : exchange_lines(conns, configure)) {
      if (!reply.starts_with("OK")) report.fail("CONFIGURE: " + reply);
    }
    const double round_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    setup_s.push_back(round_s);
    setup_steal.push_back(steal_share(steal_s() - steal0, round_s));
    setup_total_s += round_s;
    if (setup_steal.back() <= kMaxStealShare) ++clean_rounds;
  }
  std::vector<double> rated_setup_s;
  for (const std::size_t i : least_stolen(setup_steal, kSetupMinRounds)) {
    rated_setup_s.push_back(setup_s[i]);
  }
  report.note("setup_rounds", static_cast<double>(setup_s.size()), "count");
  report.note("setup_clean_rounds", static_cast<double>(clean_rounds),
              "count");
  std::vector<double> shard;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    shard.push_back(reply_field(
        conns[c]->roundtrip("STATS " + streams[c].session), "shard"));
  }
  if (shard[0] == shard[1]) report.fail("both sessions on one shard");

  ReplayResult served;
  const std::size_t segments = segment_bounds(streams.front()).size() - 1;
  const pid_t pid = daemon.pid();
  const Pacing pacing{[pid] { return proc_cpu_s(pid); }};
  replay(conns, streams, 0, 1, false, served, &pacing);  // warm-up
  const std::uint64_t warm_attempted = served.attempted;
  replay(conns, streams, 1, segments, false, served, &pacing);

  // Final STATS once every request has flushed its batch snapshot.
  std::vector<std::string> finals;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const std::string stats = settled_stats(*conns[c], streams[c].session);
    finals.push_back(stats);
    const double accepted = reply_field(stats, "accepted");
    const double settled = reply_field(stats, "completed") +
                           reply_field(stats, "failed") +
                           reply_field(stats, "rejected_deadline");
    if (accepted != settled) {
      report.fail("ledger identity broken for " + streams[c].session + ": " +
                  stats);
    }
  }
  const double hwm_mb = proc_hwm_mb(daemon.pid());
  const int status = daemon.stop();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.fail("taccd did not exit cleanly (status " +
                std::to_string(status) + ")");
  }

  report.attempted = served.attempted;
  report.failed = served.failed + served.bracket_failed;
  for (const std::string& error : served.errors) report.fail(error);
  if (served.brackets_unsettled > 0) {
    report.note("brackets_unsettled",
                static_cast<double>(served.brackets_unsettled), "count");
  }

  // Output check: the cluster-direct rung must reach the daemon's state.
  if (def.pause_s == 0.0) {
    const std::vector<DirectResult> direct = replay_direct_all(streams, false);
    for (std::size_t c = 0; c < streams.size(); ++c) {
      check_state(finals[c], direct[c], report);
    }
  }

  const double measured_requests =
      static_cast<double>(served.attempted - warm_attempted);
  const WindowLog::Summary windows = served.windows.summarize();
  report.metric("throughput_rps", windows.rps, "1/s");
  report.metric("latency_p50_us", windows.p50_us, "us");
  report.metric("latency_p99_us", windows.p99_us, "us");
  // Daemon CPU per request over the measured segments (brackets included)
  // during which the host stole nothing noticeable: steal also inflates
  // the guest's own CPU accounting.
  std::vector<double> segment_steal;
  std::size_t clean_segments = 0;
  for (const SegmentLog& log : served.segments) {
    segment_steal.push_back(log.steal_share);
    if (log.steal_share <= kMaxStealShare) ++clean_segments;
  }
  double cpu_s = 0.0;
  double cpu_requests = 0.0;
  for (const std::size_t i : least_stolen(segment_steal, kMinCleanSegments)) {
    cpu_s += served.segments[i].cpu_s;
    cpu_requests += static_cast<double>(served.segments[i].requests);
  }
  report.metric("cpu_us_per_req", cpu_s * 1e6 / cpu_requests, "us");
  report.metric("peak_rss_mb", hwm_mb, "MiB");
  report.metric("setup_s", quantile(rated_setup_s, 0.5), "s");
  // The objective at the end of the stream; on reopt workloads, averaged
  // over the cut after every measured bracket (the last one is the end).
  std::pair<double, double> cut = objective(finals);
  if (!served.checkpoints.empty()) {
    std::map<std::size_t, std::vector<std::string>> by_bracket;
    for (const Checkpoint& point : served.checkpoints) {
      if (point.segment >= 1) by_bracket[point.segment].push_back(point.stats);
    }
    cut = {0.0, 0.0};
    for (const auto& [segment, stats] : by_bracket) {
      const auto [delay, util] = objective(stats);
      cut.first += delay / static_cast<double>(by_bracket.size());
      cut.second += util / static_cast<double>(by_bracket.size());
    }
    report.note("checkpoints", static_cast<double>(by_bracket.size()), "count");
  }
  report.metric("avg_delay_ms", cut.first, "model_ms");
  report.metric("max_utilization", cut.second, "ratio");
  report.note("latency_samples", static_cast<double>(windows.samples),
              "count");
  report.note("slices", static_cast<double>(windows.slices), "count");
  report.note("clean_slices", static_cast<double>(windows.clean_slices),
              "count");
  report.note("steal_share", windows.steal_share, "ratio");
  report.note("window_s", windows.seconds, "s");
  report.note("throughput_rps_all", windows.rps_all, "1/s");
  report.note("latency_p50_all_us", windows.p50_all_us, "us");
  report.note("latency_p99_all_us", windows.p99_all_us, "us");
  report.note("measured_requests", measured_requests, "count");
  report.note("segments", static_cast<double>(served.segments.size()),
              "count");
  report.note("clean_segments", static_cast<double>(clean_segments), "count");
  report.note("backoff_s", served.backoff_s, "s");
  report.note("bracket_requests", static_cast<double>(served.bracket_requests),
              "count");
  return report;
}

}  // namespace servebench
