#include "streams.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/scenario.hpp"
#include "workload/provider.hpp"
#include "workload/wire.hpp"

namespace servebench {

namespace {

/// Cap on simulated steps per stream: a provider that stops emitting must
/// fail the run instead of spinning.
constexpr std::size_t kMaxSteps = 50'000'000;

/// The three workloads, in documentation order.
const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      // Device churn on a small deployment: transport, parse, admission,
      // per-batch snapshot and oracle row reads dominate.
      {"device_churn", "steady,link_rate=0", 500, 16, {11, 12}, 20'000.0,
       0.0, 0.0, 0.0},
      // Backbone link churn on a large deployment: incremental tree repair
      // and oracle row refresh dominate. Streams end between outages. Each
      // reweight multiplies a latency by U(0.5, 2), whose log has mean
      // +0.155, so the default rate (0.5/s) inflates latencies ~200-fold
      // over a run; 0.02/s keeps the final delay near its initial value.
      {"link_churn", "regional_link_failure,reweight_rate=0.02", 2000, 32,
       {21, 22}, 4'500.0, 60.0, 0.0, 0.0},
      // Capacity-tight hotspot with quiet windows for the re-optimizer.
      // Joins and leaves random-walk the population by ~sqrt(events); ten
      // times the default move density packs a run into a tenth of the
      // simulated time, so that walk stays a few percent.
      {"reopt_hotspot", "hotspot_adversary,move_rate=150", 1000, 24, {31, 32},
       18'000.0, 0.0, 40.0, 4.0},
  };
  return defs;
}

/// FNV-1a 64 of `text`, continuing from `hash`.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = 14695981039346656037ull) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Two session names that route to distinct shards of a 2-shard engine
/// (Engine::shard_of is FNV-1a(name) % shards).
std::vector<std::string> session_names(std::string_view workload) {
  std::vector<std::string> names(kSessions);
  std::vector<bool> found(kSessions, false);
  std::size_t missing = kSessions;
  for (std::size_t i = 0; missing > 0; ++i) {
    std::string name = std::string(workload) + "-" + std::to_string(i);
    const std::size_t shard = fnv1a(name) % kSessions;
    if (!found[shard]) {
      found[shard] = true;
      names[shard] = std::move(name);
      --missing;
    }
  }
  return names;
}

}  // namespace

const WorkloadDef& find_workload(std::string_view name) {
  for (const WorkloadDef& def : workloads()) {
    if (def.name == name) return def;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::vector<SessionStream> make_streams(const WorkloadDef& def,
                                        std::uint64_t seed,
                                        std::size_t measured_lines) {
  const std::vector<std::string> names = session_names(def.name);
  const bool reopt = def.pause_s > 0.0;
  std::string spec(def.provider);
  if (reopt) {
    spec += ",reopt_pause=" + tacc::workload::wire_double(def.pause_s) +
            ",reopt_active_s=" + tacc::workload::wire_double(def.active_s);
  }
  // Reopt streams end at the start of a quiet window; session 0 fixes the
  // window count so both sessions run the same number of brackets.
  std::size_t windows = 0;

  std::vector<SessionStream> streams;
  for (std::size_t k = 0; k < kSessions; ++k) {
    SessionStream s;
    s.session = names[k];
    s.scenario_seed = def.scenario_seed[k];
    s.stream_seed = seed * kSessions + k + 1;
    const tacc::Scenario scenario =
        tacc::Scenario::smart_city(def.iot, def.edge, s.scenario_seed);
    const tacc::workload::ProviderContext ctx = tacc::workload::make_context(
        scenario.network(), scenario.workload(),
        scenario.params().workload.area_km, s.stream_seed);
    auto provider = tacc::workload::make_provider(spec, ctx);
    tacc::workload::WireAdapter adapter(ctx, s.session);
    s.configure = adapter.configure_line(def.iot, def.edge, s.scenario_seed,
                                         "q-learning", "") +
                  " timeout_ms=60000";

    const double cycle = def.active_s + def.pause_s;
    bool was_quiet = false;
    for (std::size_t step = 0;; ++step) {
      if (step == kMaxSteps) {
        throw std::runtime_error("stream generation did not terminate");
      }
      const double now = provider->now_s();
      if (reopt) {
        const bool quiet = std::fmod(now, cycle) >= def.active_s;
        if (quiet && !was_quiet) {
          s.quiet.push_back(s.lines.size());
          const bool done = k == 0 ? s.lines.size() >= s.quiet.front() +
                                                           measured_lines
                                   : s.quiet.size() == windows;
          if (done) break;
        }
        was_quiet = quiet;
      } else {
        const std::size_t warmup = measured_lines / 10;
        const bool aligned =
            def.align_s <= 0.0 || std::fmod(now, def.align_s) == 0.0;
        if (s.lines.size() >= warmup + measured_lines && aligned) {
          s.warmup = warmup;
          // Equal cuts on every session, so both have the same chunks.
          const auto chunks = static_cast<std::size_t>(std::max(
              1.0, std::round(static_cast<double>(measured_lines) /
                              (def.lines_per_second * kChunkS))));
          for (std::size_t j = 1; j < chunks; ++j) {
            s.cuts.push_back(warmup + j * measured_lines / chunks);
          }
          break;
        }
      }
      for (const tacc::workload::Event& event : provider->step(1.0)) {
        for (std::string& line : adapter.render(event)) {
          s.lines.push_back(std::move(line));
        }
      }
    }
    if (reopt) {
      if (k == 0) windows = s.quiet.size();
      s.warmup = s.quiet.front();
    }

    s.hash = fnv1a(s.configure + "\n");
    for (const std::string& line : s.lines) {
      s.hash = fnv1a(line, s.hash);
      s.hash = fnv1a("\n", s.hash);
    }
    streams.push_back(std::move(s));
  }
  return streams;
}

}  // namespace servebench
