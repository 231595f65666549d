// M4: backbone link churn vs the incremental delay engine.
//
// Drives provider-generated link events (correlated regional outages plus
// background reweights by default — fail when live, restore when failed,
// reweight live links) against an IncrementalDelayEngine + the
// DelayOracle and HARD-GATES the three properties the engine exists for:
//   1. Exactness: at sampled epochs the engine's per-server distances are
//      bit-identical to a from-scratch dijkstra_fan_out on the same graph.
//   2. Speed: the median incremental update (engine + oracle refresh) beats
//      the median full recompute (fan-out + rebuilding every device row) by
//      at least 10x. Skipped under --quick: sanitizers skew timings. That
//      recompute is the full-graph path the engine first replaced; the
//      rebuild the engine's own layout would need — routers-only trees plus
//      one row per oracle key — is timed beside it as the honest baseline
//      (median_rebuild_us, rebuild_speedup; reported, not gated), and its
//      key rows must match the oracle's bit for bit.
//   3. Flat memory: engine scratch stays flat across the whole run
//      (100k link events by default) — repairs must reuse epoch-marked
//      scratch, not allocate per event.
// Exit code 1 if a gate fails, so CI can run it as a regression check.
//
// The event stream comes from a pluggable WorkloadProvider
// (--workload=NAME[,k=v...]); the default spec densifies
// regional_link_failure so the target event count arrives in a reasonable
// number of simulated seconds. Providers guarantee link-op legality (fail
// only live, restore only failed), so any spec that emits link events is a
// valid driver. Non-link events are ignored — this bench stresses the delay
// engine, not the cluster.
//
//   ./bench_m4_linkchurn [--events=100000] [--iot=200] [--edge=10]
//                        [--workload=SPEC] [--seed=...]
//   --quick shrinks to 10k events and drops the timing gate.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/scenario.hpp"
#include "metrics/stats.hpp"
#include "topology/oracle/oracle.hpp"
#include "topology/shortest_paths.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace tacc;

constexpr const char* kDefaultWorkload =
    "regional_link_failure,outage_every_s=4,outage_s=2,radius_km=3,"
    "reweight_rate=10";

/// One full recompute, the baseline the engine replaces: fan-out Dijkstra
/// from every server plus rewriting every device row. Returns the trees so
/// the equivalence gate can reuse them.
std::vector<topo::ShortestPathTree> full_recompute(
    const topo::NetworkTopology& net, std::vector<std::vector<double>>& rows) {
  std::vector<topo::ShortestPathTree> trees =
      topo::dijkstra_fan_out(net.graph, net.edge_nodes);
  for (std::size_t i = 0; i < net.iot_nodes.size(); ++i) {
    for (std::size_t j = 0; j < trees.size(); ++j) {
      rows[i][j] = trees[j].distance_ms[net.iot_nodes[i]];
    }
  }
  return trees;
}

/// The rebuild the engine's layout needs: routers-only trees (hosts never
/// relay) plus one row per distinct oracle key node. Fills key_rows[k] for
/// keys[k].
void routers_only_rebuild(const topo::NetworkTopology& net,
                          const std::vector<topo::NodeId>& keys,
                          std::vector<std::vector<double>>& key_rows) {
  const std::vector<topo::ShortestPathTree> trees =
      topo::dijkstra_fan_out(net.graph, net.edge_nodes, net.router_count());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (std::size_t j = 0; j < trees.size(); ++j) {
      key_rows[k][j] = trees[j].distance_ms[keys[k]];
    }
  }
}

bool trees_match(const topo::incr::IncrementalDelayEngine& engine,
                 const std::vector<topo::ShortestPathTree>& reference,
                 std::size_t node_count) {
  for (std::size_t j = 0; j < reference.size(); ++j) {
    for (topo::NodeId n = 0; n < node_count; ++n) {
      const double expected = reference[j].distance_ms[n];
      const double actual = engine.delay_ms(j, n);
      // Bitwise agreement, except both-unreachable compares equal.
      if (actual != expected &&
          !(actual == topo::kUnreachable && expected == topo::kUnreachable)) {
        return false;
      }
    }
  }
  return true;
}

int run(int argc, char** argv) {
  const auto config = bench::BenchConfig::parse(argc, argv);
  const auto iot = static_cast<std::size_t>(
      config.flags.get_int("iot", config.quick ? 120 : 200));
  const auto edge = static_cast<std::size_t>(config.flags.get_int("edge", 10));
  const auto events = static_cast<std::size_t>(
      config.flags.get_int("events", config.quick ? 10'000 : 100'000));
  const std::string workload_spec = config.workload_or(kDefaultWorkload);

  const Scenario scenario = Scenario::smart_city(iot, edge, config.base_seed);
  topo::NetworkTopology net = scenario.network();
  topo::incr::IncrementalDelayEngine engine(net);
  topo::oracle::DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_nodes.size(); ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }

  const workload::ProviderContext ctx =
      bench::provider_context(scenario, config.base_seed);
  auto provider = workload::make_provider(workload_spec, ctx);

  bench::BenchReport report(config, "m4_linkchurn");
  report.set_provider(workload_spec);
  bench::CsvFile csv(config, "m4_linkchurn");
  csv.writer().header({"event", "kind", "inc_us", "scratch_bytes",
                       "dirty_rows"});

  std::vector<double> inc_us;
  inc_us.reserve(events);
  std::vector<double> full_us;
  std::vector<double> rebuild_us;
  std::vector<std::vector<double>> reference_rows(
      iot, std::vector<double>(edge, 0.0));
  // The distinct key nodes the bound rows read through, with the key slot
  // of each; backbone link events never rebind a row, so they stay fixed.
  std::vector<topo::NodeId> keys;
  std::vector<std::uint32_t> key_slots;
  for (std::size_t i = 0; i < iot; ++i) {
    const std::uint32_t slot = oracle.row_key_slot(i);
    if (std::find(key_slots.begin(), key_slots.end(), slot) ==
        key_slots.end()) {
      key_slots.push_back(slot);
      keys.push_back(oracle.row_key(i));
    }
  }
  std::vector<std::vector<double>> key_rows(
      keys.size(), std::vector<double>(edge, 0.0));
  // ~50 full-recompute samples paired with equivalence checks.
  const std::size_t sample_every = std::max<std::size_t>(1, events / 50);
  std::size_t scratch_early = 0;
  std::size_t scratch_peak = 0;
  std::uint64_t equivalence_checks = 0;
  bool exact = true;
  std::size_t event_count = 0;

  while (event_count < events && exact) {
    for (const workload::Event& event : provider->step(1.0)) {
      if (event_count >= events || !exact) break;
      const char* kind;
      util::WallTimer timer;
      switch (event.kind) {
        case workload::EventKind::kLinkFail: {
          const auto& [u, v] = ctx.links[event.link];
          kind = "fail";
          timer.reset();
          engine.fail_link(u, v);
          break;
        }
        case workload::EventKind::kLinkRestore: {
          const auto& [u, v] = ctx.links[event.link];
          kind = "restore";
          timer.reset();
          engine.restore_link(u, v);
          break;
        }
        case workload::EventKind::kLinkSetLatency: {
          const auto& [u, v] = ctx.links[event.link];
          kind = "reweight";
          timer.reset();
          engine.set_link_latency(u, v, event.latency_ms);
          break;
        }
        default:
          continue;  // device churn is out of scope here
      }
      const std::size_t refreshed = oracle.refresh();
      inc_us.push_back(timer.elapsed_ms() * 1e3);
      const std::size_t event_index = event_count++;

      const std::size_t scratch = engine.scratch_bytes();
      scratch_peak = std::max(scratch_peak, scratch);
      // "Early" is the peak over the first quarter: regional outages size
      // the scratch arenas to the affected region, so the baseline must
      // have seen a representative set of epicenters, not just the first
      // few events.
      if (event_index < events / 4) {
        scratch_early = std::max(scratch_early, scratch);
      }

      if (event_index % sample_every == 0 || event_index + 1 == events) {
        csv.writer().row(event_index, kind, inc_us.back(), scratch,
                         refreshed);
        timer.reset();
        const auto reference = full_recompute(net, reference_rows);
        full_us.push_back(timer.elapsed_ms() * 1e3);
        ++equivalence_checks;
        if (!trees_match(engine, reference, net.graph.node_count())) {
          std::cerr << "engine diverged from full recompute at event "
                    << event_index << " (" << kind << ")\n";
          exact = false;
          break;
        }
        for (std::size_t i = 0; i < iot; ++i) {
          if (oracle.row(i) != reference_rows[i]) {
            std::cerr << "cached delay row " << i << " diverged at event "
                      << event_index << "\n";
            exact = false;
            break;
          }
        }
        if (!exact) break;
        timer.reset();
        routers_only_rebuild(net, keys, key_rows);
        rebuild_us.push_back(timer.elapsed_ms() * 1e3);
        for (std::size_t k = 0; k < keys.size() && exact; ++k) {
          for (std::size_t j = 0; j < edge; ++j) {
            if (oracle.key_value(key_slots[k], j) != key_rows[k][j]) {
              std::cerr << "routers-only rebuild of key node " << keys[k]
                        << " diverged at event " << event_index << "\n";
              exact = false;
              break;
            }
          }
        }
        if (!exact) break;
        // Deep validators at the same sampled epochs: dirty-set bookkeeping,
        // row-epoch coherence, and dirty-set soundness of the oracle. Spot
        // checks are 0 here — the gate above already compared every tree
        // against the fresh fan-out. The default abort handler makes any
        // violation a hard bench failure.
        engine.check_invariants(/*spot_check_trees=*/0);
        oracle.check_invariants();
      }
    }
  }
  report.gate("bit_exact_vs_recompute", exact);

  const double inc_median = metrics::percentile(inc_us, 0.5);
  const double full_median = metrics::percentile(full_us, 0.5);
  const double speedup = inc_median > 0.0 ? full_median / inc_median : 0.0;
  const double rebuild_median = metrics::percentile(rebuild_us, 0.5);
  const double rebuild_speedup =
      inc_median > 0.0 ? rebuild_median / inc_median : 0.0;
  const auto& stats = engine.stats();

  util::ConsoleTable table({"metric", "value"});
  table.add_row({"link events", std::to_string(stats.link_updates)});
  table.add_row({"workload", workload_spec});
  table.add_row({"median incremental (us)",
                 util::format_double(inc_median, 2)});
  table.add_row({"median full recompute (us)",
                 util::format_double(full_median, 2)});
  table.add_row({"speedup", util::format_double(speedup, 1) + "x"});
  table.add_row({"median routers-only rebuild (us)",
                 util::format_double(rebuild_median, 2)});
  table.add_row({"rebuild speedup",
                 util::format_double(rebuild_speedup, 1) + "x"});
  table.add_row({"key rows", std::to_string(keys.size())});
  table.add_row({"nodes affected",
                 std::to_string(stats.nodes_affected)});
  table.add_row({"node visits saved", std::to_string(stats.nodes_saved)});
  table.add_row({"rows refreshed",
                 std::to_string(oracle.rows_refreshed())});
  table.add_row({"rows saved", std::to_string(oracle.rows_saved())});
  table.add_row({"scratch bytes (early/peak)",
                 std::to_string(scratch_early) + " / " +
                     std::to_string(scratch_peak)});
  table.add_row({"equivalence checks", std::to_string(equivalence_checks)});
  std::cout << table.to_string(
      "M4 — incremental engine vs full recompute (" +
      std::to_string(event_count) + " link events, " + std::to_string(iot) +
      " devices, " + std::to_string(edge) + " servers):");

  // ---- Gate 2: >=10x median speedup (timing gates are meaningless under
  // sanitizers, so --quick only reports the number). --------------------------
  if (!config.quick) {
    const bool fast_enough = speedup >= 10.0;
    if (!fast_enough) {
      std::cerr << "incremental speedup " << speedup
                << "x is below the 10x floor (" << inc_median << " us vs "
                << full_median << " us)\n";
    }
    report.gate("incremental_speedup_10x", fast_enough);
  }

  // ---- Gate 3: flat scratch memory across the run. -------------------------
  // Node count never changes during link churn, so scratch must not grow
  // beyond its first-quarter peak (small slack for lazily-grown heap
  // storage).
  const bool scratch_flat =
      !(scratch_early > 0 &&
        scratch_peak > scratch_early + scratch_early / 4);
  if (!scratch_flat) {
    std::cerr << "engine scratch grew from " << scratch_early << " to "
              << scratch_peak << " bytes during link churn\n";
  }
  report.gate("flat_scratch", scratch_flat);

  report.metric("events", static_cast<double>(event_count));
  report.metric("median_incremental_us", inc_median);
  report.metric("median_full_recompute_us", full_median);
  report.metric("speedup", speedup);
  report.metric("median_rebuild_us", rebuild_median);
  report.metric("rebuild_speedup", rebuild_speedup);
  report.metric("p50_us", inc_median);
  report.metric("p99_us", metrics::percentile(inc_us, 0.99));
  report.metric("scratch_early_bytes", static_cast<double>(scratch_early));
  report.metric("scratch_peak_bytes", static_cast<double>(scratch_peak));
  report.metric("equivalence_checks",
                static_cast<double>(equivalence_checks));
  report.write();

  const bool ok = report.all_gates_passed();
  if (ok) {
    std::cout << "All link-churn gates passed: bit-exact vs recompute, "
              << (config.quick ? "timing gate skipped (--quick), "
                               : "10x+ median speedup, ")
              << "flat scratch memory.\n";
  }
  config.check_unused();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
