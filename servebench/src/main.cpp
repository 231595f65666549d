// servebench — the taccd serving benchmark driver binary.
//
//   servebench e2e   --workload=W --seed=N --seconds=S --taccd=PATH --rundir=DIR
//   servebench trace --workload=W --seed=N --seconds=S --rundir=DIR
//                    [--spans-out=FILE]
//   servebench streams --workload=W --seed=N --seconds=S
//
// `e2e` spawns the taccd binary and measures it end to end; `trace` runs
// the in-process layer ladder; `streams` prints the end-to-end run's wire
// streams (one "# session" header, then the CONFIGURE and serving lines,
// with "# quiet" where a re-optimizer bracket runs). Either prints one JSON object on stdout:
// the result counts, the metrics, and the provenance of every stream (seed
// and FNV-1a hash). The process works inside --rundir, where the Unix
// socket lives. Exit code 0 when the run completed (the JSON says whether
// its outputs were correct), 1 when it could not run, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "common.hpp"
#include "util/flags.hpp"

namespace servebench {

std::size_t measured_lines(const WorkloadDef& def, double seconds) {
  return static_cast<std::size_t>(std::llround(def.lines_per_second * seconds));
}

std::vector<SessionStream> checked_streams(const WorkloadDef& def,
                                           std::uint64_t seed,
                                           std::size_t measured,
                                           RunReport& report) {
  std::vector<SessionStream> streams = make_streams(def, seed, measured);
  const std::vector<SessionStream> again = make_streams(def, seed, measured);
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const SessionStream& s = streams[c];
    if (s.hash != again[c].hash) {
      report.fail("stream " + s.session + " hashes differently when regenerated");
    }
    report.streams.push_back({s.session, s.scenario_seed, s.stream_seed,
                              s.lines.size(), s.quiet.size(), s.hash});
  }
  return streams;
}

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void print_report(const RunReport& report, std::string_view workload,
                  std::uint64_t seed) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": " + json_metrics(report.metrics);
  out += ", \"detail\": " + json_metrics(report.detail);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(report.problems[i]);
  }
  out += "], \"provenance\": {\"workload\": " + json_string(workload) +
         ", \"seed\": " + std::to_string(seed) + ", \"streams\": [";
  for (std::size_t i = 0; i < report.streams.size(); ++i) {
    const StreamInfo& s = report.streams[i];
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(s.hash));
    if (i > 0) out += ", ";
    out += "{\"session\": " + json_string(s.session) +
           ", \"scenario_seed\": " + std::to_string(s.scenario_seed) +
           ", \"stream_seed\": " + std::to_string(s.stream_seed) +
           ", \"lines\": " + std::to_string(s.lines) +
           ", \"quiet_windows\": " + std::to_string(s.quiet_windows) +
           ", \"fnv1a64\": \"" + hash + "\"}";
  }
  out += "]}}";
  std::cout << out << std::endl;
}

void print_streams(const WorkloadDef& def, std::uint64_t seed,
                   std::size_t measured) {
  for (const SessionStream& s : make_streams(def, seed, measured)) {
    std::cout << "# session " << s.session << " warmup=" << s.warmup << "\n"
              << s.configure << "\n";
    std::size_t quiet = 0;
    for (std::size_t i = 0; i <= s.lines.size(); ++i) {
      for (; quiet < s.quiet.size() && s.quiet[quiet] == i; ++quiet) {
        std::cout << "# quiet\n";
      }
      if (i < s.lines.size()) std::cout << s.lines[i] << "\n";
    }
  }
}

}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  if (argc < 2) {
    std::cerr << "usage: servebench e2e|trace|streams --workload=W --seed=N "
                 "--seconds=S --rundir=DIR [--taccd=PATH] [--spans-out=FILE]\n";
    return 2;
  }
  Args args;
  args.mode = argv[1];
  try {
    const auto flags = tacc::util::Flags::parse(argc - 1, argv + 1);
    args.workload = flags.get_string("workload", "");
    args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    args.seconds = flags.get_double("seconds", 10.0);
    args.taccd = flags.get_string("taccd", "");
    args.rundir = flags.get_string("rundir", "");
    args.spans_out = flags.get_string("spans-out", "");
    (void)find_workload(args.workload);
    if (args.mode == "streams") {
      print_streams(find_workload(args.workload), args.seed,
                    measured_lines(find_workload(args.workload), args.seconds));
      return 0;
    }
    if ((args.mode != "e2e" && args.mode != "trace") || args.rundir.empty() ||
        !(args.seconds > 0.0) || (args.mode == "e2e" && args.taccd.empty())) {
      throw std::invalid_argument("bad arguments");
    }
  } catch (const std::exception& error) {
    std::cerr << "servebench: " << error.what() << "\n";
    return 2;
  }
  try {
    // Writes to a peer that hung up must surface as errors, not kill us.
    std::signal(SIGPIPE, SIG_IGN);
    if (::chdir(args.rundir.c_str()) != 0) {
      throw std::runtime_error("cannot enter " + args.rundir);
    }
    const RunReport report =
        args.mode == "e2e" ? run_e2e(args) : run_trace(args);
    print_report(report, args.workload, args.seed);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "servebench: " << error.what() << "\n";
    return 1;
  }
}
