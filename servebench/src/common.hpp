// Shared result plumbing for the two benchmark modes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "streams.hpp"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Provenance of one generated stream.
struct StreamInfo {
  std::string session;
  std::uint64_t scenario_seed = 0;
  std::uint64_t stream_seed = 0;
  std::size_t lines = 0;
  std::size_t quiet_windows = 0;
  std::uint64_t hash = 0;
};

/// What one mode reports: the counts and metrics of the final result line,
/// plus free-form detail (sample counts, failure reasons) for humans.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::vector<StreamInfo> streams;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
inline double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// %.6g, the precision taccd's OK lines carry doubles with.
inline std::string wire6(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

/// Prints every session stream of (workload, seed) as wire lines.
void print_streams(const WorkloadDef& def, std::uint64_t seed,
                   std::size_t measured);

/// Prints the report and the stream provenance as one JSON object.
void print_report(const RunReport& report, std::string_view workload,
                  std::uint64_t seed);

struct Args {
  std::string mode;  ///< "e2e" or "trace"
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string taccd;   ///< daemon binary (e2e)
  std::string rundir;  ///< scratch directory for the Unix socket
  std::string spans_out;  ///< optional CSV of client spans (trace)
};

/// Measured serving lines per session for a run of `seconds`.
[[nodiscard]] std::size_t measured_lines(const WorkloadDef& def,
                                         double seconds);

/// Builds the streams twice and fails `report` when the second build
/// hashes differently (the inputs must be a pure function of the seed);
/// records the provenance of every stream in `report`.
[[nodiscard]] std::vector<SessionStream> checked_streams(
    const WorkloadDef& def, std::uint64_t seed, std::size_t measured,
    RunReport& report);

RunReport run_e2e(const Args& args);
RunReport run_trace(const Args& args);

}  // namespace servebench
