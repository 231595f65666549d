// M2: long-horizon churn soak for the dynamic reconfiguration engine.
//
// Drives O(100k) workload-provider events (join/leave/move/demand-pulse,
// plus backbone link churn if the provider emits it) against a
// DynamicCluster, interleaved with bench-local server fail/recover/rebalance
// stress, and HARD-GATES the properties that make sustained churn viable:
//   1. Zero net growth: graph node count and device-slot (delay-row) storage
//      return exactly to baseline across move cycles, and track the *peak*
//      live population across the soak — the engine recycles departed
//      nodes/slots instead of leaking one per event.
//   2. Flat per-event latency: the mean event latency late in the run stays
//      within a small factor of the early mean (a leak shows up here too —
//      every Dijkstra pays for dead nodes).
// Exit code 1 if a gate fails, so CI can run it as a regression check.
//
// The event stream comes from a pluggable WorkloadProvider
// (--workload=NAME[,k=v...], default "steady"); --stream-out=FILE dumps the
// exact taccd wire rendering of the stream (byte-identical across runs with
// the same seed and spec) for replay via `tacc_client --stdin`. The soak
// applies every event exactly as taccd would: WireAdapter renders it,
// parse_request parses it and service::apply applies it, so in-process and
// replayed runs agree on device indices by construction. A demand pulse is
// the adapter's LEAVE + JOIN pair (the wire has no in-place demand verb),
// timed as one event. About 10% of MOVEs are applied pinned, drawn from a
// bench-local rng; the dumped stream carries them unpinned.
//
//   ./bench_m2_churn [--events=100000] [--iot=200] [--edge=10] [--seed=...]
//                    [--workload=steady] [--stream-out=FILE]
//   --quick shrinks to 20k events for sanitizer/CI runs.
#include <cstdint>
#include <fstream>
#include <string_view>
#include <variant>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/dynamic.hpp"
#include "metrics/stats.hpp"
#include "service/apply.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/wire.hpp"

namespace {

using namespace tacc;

double mean(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

int run(int argc, char** argv) {
  const auto config = bench::BenchConfig::parse(argc, argv);
  const auto iot = static_cast<std::size_t>(
      config.flags.get_int("iot", config.quick ? 120 : 200));
  const auto edge = static_cast<std::size_t>(config.flags.get_int("edge", 10));
  const auto events = static_cast<std::size_t>(
      config.flags.get_int("events", config.quick ? 20'000 : 100'000));
  const std::string workload_spec = config.workload_or("steady");
  const std::string stream_out = config.flags.get_string("stream-out", "");

  const Scenario scenario = Scenario::smart_city(iot, edge, config.base_seed);
  AlgorithmOptions options = bench::experiment_options(config.quick);
  options.apply_seed(config.base_seed);
  // Greedy keeps startup cheap; the soak exercises the dynamic path, not
  // the initial configuration.
  DynamicCluster cluster(scenario, Algorithm::kGreedyBestFit, options);

  const workload::ProviderContext ctx =
      bench::provider_context(scenario, config.base_seed);
  // Bench-local stress (server failures, rebalance, pinned handovers) uses
  // its own rng so the provider stream stays replay-identical.
  util::Rng rng(config.base_seed * 7 + 5);

  bench::BenchReport report(config, "m2_churn");
  report.set_provider(workload_spec);
  bench::CsvFile csv(config, "m2_churn");
  csv.writer().header({"event", "event_type", "window_mean_us",
                       "graph_nodes", "device_slots", "active",
                       "avg_delay_ms"});

  std::ofstream stream_file;
  if (!stream_out.empty()) {
    stream_file.open(stream_out);
    if (!stream_file) {
      std::cerr << "cannot open " << stream_out << " for writing\n";
      return 1;
    }
  }

  // ---- Gate 1a: a pure move cycle must not grow anything. ------------------
  // A dedicated mobility_trace provider walks only the base devices, whose
  // provider ids coincide with their cluster indices.
  const std::size_t baseline_nodes = cluster.graph_node_count();
  const std::size_t baseline_slots = cluster.device_slot_count();
  {
    auto mobility = workload::make_provider("mobility_trace", ctx);
    bool grew = false;
    for (int cycle = 0; cycle < 1'000 && !grew; ++cycle) {
      for (const workload::Event& event : mobility->step(5.0)) {
        (void)cluster.move(event.device, event.position);
      }
      if (cluster.graph_node_count() != baseline_nodes ||
          cluster.device_slot_count() != baseline_slots) {
        std::cerr << "move cycle " << cycle << " grew storage ("
                  << cluster.graph_node_count() << " nodes vs "
                  << baseline_nodes << ", " << cluster.device_slot_count()
                  << " slots vs " << baseline_slots << ")\n";
        grew = true;
      }
    }
    report.gate("move_cycle_zero_growth", !grew);
    if (grew) return 1;
  }

  // ---- Mixed soak ----------------------------------------------------------
  auto provider = workload::make_provider(workload_spec, ctx);
  workload::WireAdapter adapter(ctx, "m2");
  if (stream_file.is_open()) {
    stream_file << adapter.configure_line(iot, edge, config.base_seed,
                                          "greedy-bestfit", "smart_city")
                << "\n";
  }

  std::size_t peak_active = cluster.active_count();
  std::vector<double> latency_us;
  latency_us.reserve(events);
  std::vector<std::string_view> types;
  types.reserve(events);
  bool index_parity = true;

  const auto record = [&](std::string_view type, double us) {
    latency_us.push_back(us);
    types.push_back(type);
    peak_active = std::max(peak_active, cluster.active_count());
  };

  util::ConsoleTable table({"events", "window mean (us)", "graph nodes",
                            "device slots", "active", "avg delay (ms)"});
  const std::size_t window = std::max<std::size_t>(events / 20, 1);
  std::size_t next_emit = window;
  std::size_t emitted = 0;
  util::WallTimer soak_timer;

  while (latency_us.size() < events && index_parity) {
    for (const workload::Event& event : provider->step(1.0)) {
      if (latency_us.size() >= events) break;
      // Render and parse outside the timed region. The adapter predicts the
      // slot the cluster is about to assign, and the dump must contain
      // every event the cluster sees.
      std::vector<service::Request> requests;
      for (const std::string& line : adapter.render(event)) {
        if (stream_file.is_open()) stream_file << line << "\n";
        requests.push_back(service::parse_request(line).request.value());
      }
      std::string_view type = event.kind == workload::EventKind::kLinkSetLatency
                                  ? "link_set"
                                  : workload::to_string(event.kind);
      if (event.kind == workload::EventKind::kMove) {
        service::Request& move = requests.front();
        move.pinned = rng.bernoulli(0.1) &&
                      !cluster.server_failed(cluster.server_of(move.index));
        if (move.pinned) type = "move_pinned";
      }
      // A demand pulse is one LEAVE + JOIN pair and one latency sample.
      util::WallTimer timer;
      service::ApplyResult applied;
      for (const service::Request& request : requests) {
        applied = service::apply(cluster, request);
      }
      record(type, timer.elapsed_ms() * 1e3);
      if (event.kind == workload::EventKind::kJoin ||
          event.kind == workload::EventKind::kDemandPulse) {
        const std::size_t slot = std::get<JoinResult>(applied).device_index;
        if (slot != adapter.slot_of(event.device)) {
          std::cerr << "wire adapter predicted slot "
                    << adapter.slot_of(event.device) << " but join got "
                    << slot << "\n";
          index_parity = false;
        }
      }
    }

    // Bench-local stress, outside the replayable stream: occasional server
    // failures and a bounded repair/rebalance pass.
    if (rng.bernoulli(0.10)) {
      if (cluster.healthy_server_count() > 2) {
        std::size_t j = rng.index(cluster.server_count());
        while (cluster.server_failed(j)) j = rng.index(cluster.server_count());
        (void)cluster.fail_server(j, /*evacuate=*/rng.bernoulli(0.5));
      } else {
        for (std::size_t j = 0; j < cluster.server_count(); ++j) {
          if (cluster.server_failed(j)) {
            (void)cluster.evacuate_server(j);
            cluster.recover_server(j);
            break;
          }
        }
      }
    }
    if (rng.bernoulli(0.10)) {
      (void)cluster.repair(16);
      (void)cluster.rebalance(16);
    }

    // Emit one CSV/table row per completed window (steps may cross a
    // boundary mid-iteration, so catch up here).
    const std::size_t done = latency_us.size();
    if (done > 0 && (done >= next_emit || done == events)) {
      // Deep invariant sweep once per window: slot/row/load accounting, node
      // recycling, and one shortest-path tree spot-checked against a fresh
      // Dijkstra (rotating through servers across windows). The default
      // abort handler makes any violation a hard bench failure.
      cluster.check_invariants();
      const std::size_t lo = done > window ? done - window : 0;
      const double window_mean = mean(latency_us, lo, done);
      csv.writer().row(done, types.back(), window_mean,
                       cluster.graph_node_count(),
                       cluster.device_slot_count(), cluster.active_count(),
                       cluster.avg_delay_ms());
      if (emitted % 4 == 0 || done == events) {
        table.add_row({std::to_string(done),
                       util::format_double(window_mean, 2),
                       std::to_string(cluster.graph_node_count()),
                       std::to_string(cluster.device_slot_count()),
                       std::to_string(cluster.active_count()),
                       util::format_double(cluster.avg_delay_ms(), 2)});
      }
      ++emitted;
      while (next_emit <= done) next_emit += window;
    }
  }
  const double soak_s = soak_timer.elapsed_seconds();

  std::cout << table.to_string(
      "M2 — churn soak (" + std::to_string(events) + " events, provider " +
      workload_spec + ", " + std::to_string(iot) + " base devices, " +
      std::to_string(edge) + " servers):");

  report.gate("wire_index_parity", index_parity);

  // ---- Gate 1b: storage tracks peak population, not cumulative events. -----
  const std::size_t expected_slots = peak_active;
  const std::size_t expected_nodes = baseline_nodes + (peak_active - iot);
  const bool storage_ok = cluster.device_slot_count() == expected_slots &&
                          cluster.graph_node_count() == expected_nodes;
  if (!storage_ok) {
    std::cerr << "storage grew past peak population ("
              << cluster.device_slot_count() << " slots, expected "
              << expected_slots << "; " << cluster.graph_node_count()
              << " nodes, expected " << expected_nodes << ")\n";
  }
  report.gate("storage_tracks_peak", storage_ok);

  // ---- Gate 2: flat per-event latency (early decile vs late decile). -------
  // Skip the first decile entirely: allocator warm-up makes it artificially
  // cheap or noisy depending on the platform.
  const std::size_t decile = events / 10;
  const double early = mean(latency_us, decile, 2 * decile);
  const double late = mean(latency_us, events - decile, events);
  std::cout << "\nPer-event latency: early mean "
            << util::format_double(early, 2) << " us, late mean "
            << util::format_double(late, 2) << " us\n";
  const bool latency_ok = !(late > early * 2.0 + 1.0);
  if (!latency_ok) {
    std::cerr << "per-event latency drifted (" << late << " us late vs "
              << early << " us early)\n";
  }
  report.gate("flat_latency", latency_ok);

  report.metric("events", static_cast<double>(latency_us.size()));
  report.metric("throughput_per_s",
                soak_s > 0.0 ? static_cast<double>(latency_us.size()) / soak_s
                             : 0.0);
  report.metric("early_mean_us", early);
  report.metric("late_mean_us", late);
  report.metric("p50_us", metrics::percentile(latency_us, 0.5));
  report.metric("p99_us", metrics::percentile(latency_us, 0.99));
  report.metric("peak_active", static_cast<double>(peak_active));
  report.metric("device_slots",
                static_cast<double>(cluster.device_slot_count()));
  report.metric("graph_nodes", static_cast<double>(cluster.graph_node_count()));
  report.write();

  const bool ok = report.all_gates_passed();
  if (ok) {
    std::cout << "All churn gates passed: zero net storage growth, wire "
                 "index parity, flat latency.\n";
  }
  if (stream_file.is_open()) {
    std::cout << "[wire] wrote " << stream_out << "\n";
  }
  config.check_unused();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
