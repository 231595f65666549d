// Workload definitions and seed-deterministic wire streams for the taccd
// serving benchmark.
//
// A workload is a fixed deployment (scenario size and per-session scenario
// seed) plus a WorkloadProvider spec. The run seed draws only the churn: it
// seeds the provider stream of each session, so two seeds replay different
// event sequences against the same topology and initial configuration.
// Every line is rendered by workload::WireAdapter with predicted device
// indices, so no reply needs to be read to build the next request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

inline constexpr std::size_t kSessions = 2;
/// Nominal length of one measured chunk of a stream without quiet windows.
inline constexpr double kChunkS = 1.0;

struct WorkloadDef {
  std::string_view name;
  std::string_view provider;  ///< WorkloadProvider spec
  std::size_t iot = 0;
  std::size_t edge = 0;
  /// Scenario seed per session: the deployment stays fixed across runs.
  std::uint64_t scenario_seed[kSessions] = {0, 0};
  /// Nominal requests per second per session; with --seconds it sizes the
  /// measured part of each stream.
  double lines_per_second = 0.0;
  /// When > 0, a stream ends only at a simulated time that is a multiple of
  /// this (for regional_link_failure: between outages, every link live).
  double align_s = 0.0;
  /// reopt_pause cycle (active seconds, quiet seconds); 0 = no quiet
  /// windows. Each quiet window becomes one re-optimizer bracket.
  double active_s = 0.0;
  double pause_s = 0.0;
};

/// The workload called `name`; throws std::invalid_argument if none is.
[[nodiscard]] const WorkloadDef& find_workload(std::string_view name);

/// One session's replay: a CONFIGURE line, then serving lines. `quiet`
/// holds the line positions at which a re-optimizer bracket runs (before
/// lines[quiet[k]]), ascending; empty outside reopt workloads.
struct SessionStream {
  std::string session;
  std::uint64_t scenario_seed = 0;
  std::uint64_t stream_seed = 0;
  std::string configure;
  std::vector<std::string> lines;
  std::vector<std::size_t> quiet;
  /// Lines [0, warmup) warm the daemon up and are not measured.
  std::size_t warmup = 0;
  /// Outside reopt workloads: line positions that cut the measured part
  /// into chunks of about kChunkS nominal seconds each, ascending. The
  /// client may pause between chunks (see replay()); the lines, and so
  /// the final state, do not depend on it.
  std::vector<std::size_t> cuts;
  /// FNV-1a 64 over the CONFIGURE line and every serving line.
  std::uint64_t hash = 0;
};

/// Builds both sessions' streams for (workload, seed). `measured_lines` is
/// the target count of measured serving lines per session; the stream may
/// run a little longer to end on a clean boundary (align_s, or the end of
/// an active window for reopt workloads).
[[nodiscard]] std::vector<SessionStream> make_streams(const WorkloadDef& def,
                                                      std::uint64_t seed,
                                                      std::size_t measured_lines);

}  // namespace servebench
