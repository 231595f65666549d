// M6: the pluggable DelayOracle — landmark/ALT approximation vs exact.
//
// Two phases, one report (BENCH_m6_oracle.json):
//
// Phase 1 — quality (moderate smart-city scenario). Two DynamicClusters,
// one on the exact oracle and one on --oracle=landmark, consume the SAME
// provider-generated link-churn stream and rebalance on the same cadence.
// Gates:
//   * solve_gap: the landmark cluster's assignment, re-priced with EXACT
//     delays, is within the certified eps of the exact cluster's average.
//   * envelope_containment: at every sampled epoch, for sampled
//     (device, server) pairs the exact delay lies inside the oracle's
//     [lo, hi] envelope and the served value within (1+eps)*exact (plus
//     quantization slack from the cold-row store).
// Phase 2 — scale (standalone landmark oracle, no dense rows).
// A generated topology with --devices IoT nodes (default 1M, 100k under
// --quick) and --servers edge servers; link churn is mirrored through
// apply_mutation(). Gates:
//   * memory_reduction: resident bytes are >= 10x below the exact
//     equivalent (per-server trees + one dense row per distinct anchor
//     router + the dense store's per-device record).
//   * incremental_invalidation: zero landmark rebuilds across the run —
//     churn must be absorbed by incremental tree repair.
//   * engine_memory / engine_build: the exact IncrementalDelayEngine, built
//     on the same topology before the churn, holds under 50 MB of scratch
//     and builds in under 10 s — its trees span the routers only.
//
//   ./bench_m6_oracle [--iot=400] [--edge=16] [--events=4000]
//                     [--devices=1000000] [--servers=256] [--landmarks=8]
//                     [--eps=0.1] [--workload=SPEC] [--seed=...] [--quick]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/dynamic.hpp"
#include "core/scenario.hpp"
#include "service/apply.hpp"
#include "topology/failures.hpp"
#include "topology/generators.hpp"
#include "topology/network.hpp"
#include "topology/oracle/landmark.hpp"
#include "topology/oracle/oracle.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/wire.hpp"

namespace {

using namespace tacc;

constexpr const char* kDefaultWorkload =
    "regional_link_failure,outage_every_s=4,outage_s=2,radius_km=3,"
    "reweight_rate=10";

double max_finite(const std::vector<double>& row) {
  double best = 0.0;
  for (const double v : row) {
    if (v != topo::kUnreachable) best = std::max(best, v);
  }
  return best;
}

struct QualityResult {
  bool containment = true;
  double worst_gap = 0.0;
  double exact_fallback_rate = 0.0;
  std::uint64_t samples = 0;
};

/// Phase 1: exact and landmark clusters ride the same churn stream; the
/// landmark cluster's decisions are re-priced with exact delays.
QualityResult run_quality(const bench::BenchConfig& config,
                          bench::BenchReport& report, double eps,
                          std::size_t landmarks) {
  const auto iot = static_cast<std::size_t>(
      config.flags.get_int("iot", config.quick ? 150 : 400));
  const auto edge = static_cast<std::size_t>(config.flags.get_int("edge", 16));
  const auto events = static_cast<std::size_t>(
      config.flags.get_int("events", config.quick ? 800 : 4'000));
  const std::string workload_spec = config.workload_or(kDefaultWorkload);

  const Scenario scenario = Scenario::smart_city(iot, edge, config.base_seed);
  AlgorithmOptions algorithm_options;
  algorithm_options.apply_seed(config.base_seed);

  ConfigureRequest exact_request(Algorithm::kGreedyBestFit, algorithm_options);
  ConfigureRequest landmark_request = exact_request;
  landmark_request.oracle.backend = topo::oracle::OracleBackend::kLandmark;
  landmark_request.oracle.landmarks = landmarks;
  landmark_request.oracle.max_rel_error = eps;
  landmark_request.oracle.seed = config.base_seed;

  DynamicCluster exact_cluster(scenario, exact_request);
  DynamicCluster landmark_cluster(scenario, landmark_request);

  const workload::ProviderContext ctx =
      bench::provider_context(scenario, config.base_seed);
  auto provider = workload::make_provider(workload_spec, ctx);
  workload::WireAdapter adapter(ctx, "m6");

  bench::CsvFile csv(config, "m6_oracle");
  csv.writer().header({"event", "exact_avg_ms", "landmark_true_avg_ms",
                       "gap_rel", "bound_hits", "exact_fallbacks"});

  QualityResult result;
  const std::size_t sample_every = std::max<std::size_t>(1, events / 25);
  util::Rng sample_rng(config.base_seed ^ 0x6E6Eu);
  std::size_t event_count = 0;

  while (event_count < events && result.containment) {
    for (const workload::Event& event : provider->step(1.0)) {
      if (event_count >= events || !result.containment) break;
      if (!workload::is_link_event(event.kind)) {
        continue;  // device churn is out of scope here
      }
      for (const std::string& line : adapter.render(event)) {
        const service::Request request =
            service::parse_request(line).request.value();
        (void)service::apply(exact_cluster, request);
        (void)service::apply(landmark_cluster, request);
      }
      const std::size_t event_index = event_count++;
      if (event_index % sample_every != 0 && event_index + 1 != events) {
        continue;
      }

      // Same repair budget on both sides: the landmark cluster rebalances
      // on approximate costs, the exact one on the truth.
      exact_cluster.rebalance(32);
      landmark_cluster.rebalance(32);

      // Re-price the landmark cluster's assignment with EXACT delays (both
      // networks saw the identical mutation stream, so the exact cluster's
      // rows are ground truth for any (device, server) pair).
      double exact_sum = 0.0;
      double landmark_true_sum = 0.0;
      std::size_t reachable = 0;
      for (std::size_t i = 0; i < iot; ++i) {
        const std::vector<double>& truth = exact_cluster.delay_row(i);
        const double exact_delay = truth[exact_cluster.server_of(i)];
        const double landmark_delay = truth[landmark_cluster.server_of(i)];
        if (exact_delay == topo::kUnreachable ||
            landmark_delay == topo::kUnreachable) {
          continue;  // outage islands price as inf on both sides
        }
        exact_sum += exact_delay;
        landmark_true_sum += landmark_delay;
        ++reachable;
      }
      const double gap_rel =
          exact_sum > 0.0 ? (landmark_true_sum - exact_sum) / exact_sum : 0.0;
      result.worst_gap = std::max(result.worst_gap, gap_rel);

      // Envelope containment + served-value bound on sampled pairs.
      const topo::oracle::DelayOracle& oracle =
          landmark_cluster.delay_oracle();
      for (std::size_t s = 0; s < 16 && result.containment; ++s) {
        const std::size_t i = sample_rng.index(iot);
        const std::size_t j = sample_rng.index(edge);
        const double exact_delay = exact_cluster.delay_row(i)[j];
        const topo::oracle::DelayBounds bounds = oracle.bounds_ms(i, j);
        const std::vector<double>& served_row = oracle.row(i);
        // Quantized cold rows decode within one scale step above the stored
        // value; allow that on top of the certified envelope.
        const double q_slack = max_finite(served_row) / 65534.0 + 1e-6;
        const double served = served_row[j];
        ++result.samples;
        if (exact_delay == topo::kUnreachable) {
          if (served != topo::kUnreachable) result.containment = false;
          continue;
        }
        const double fp_slack = 1e-9 * (1.0 + exact_delay);
        if (bounds.lo_ms > exact_delay + fp_slack ||
            (bounds.hi_ms != topo::kUnreachable &&
             bounds.hi_ms + fp_slack < exact_delay)) {
          std::cerr << "envelope [" << bounds.lo_ms << ", " << bounds.hi_ms
                    << "] excludes exact " << exact_delay << " at (" << i
                    << ", " << j << ")\n";
          result.containment = false;
        }
        if (served + fp_slack < exact_delay - q_slack ||
            served > (1.0 + eps) * exact_delay + fp_slack + q_slack) {
          std::cerr << "served " << served << " outside (1+eps) of exact "
                    << exact_delay << " at (" << i << ", " << j << ")\n";
          result.containment = false;
        }
      }
      landmark_cluster.check_invariants();

      const topo::oracle::OracleStats& stats = oracle.stats();
      const auto denom =
          static_cast<double>(std::max<std::size_t>(1, reachable));
      csv.writer().row(event_index, exact_sum / denom,
                       landmark_true_sum / denom, gap_rel,
                       static_cast<double>(stats.bound_hits),
                       static_cast<double>(stats.exact_fallbacks));
    }
  }

  const topo::oracle::OracleStats& stats =
      landmark_cluster.delay_oracle().stats();
  const std::uint64_t answered = stats.bound_hits + stats.exact_fallbacks;
  result.exact_fallback_rate =
      answered > 0 ? static_cast<double>(stats.exact_fallbacks) /
                         static_cast<double>(answered)
                   : 0.0;

  report.metric("quality_events", static_cast<double>(event_count));
  report.metric("solve_gap_rel", result.worst_gap);
  report.metric("exact_fallback_rate", result.exact_fallback_rate);
  report.metric("containment_samples", static_cast<double>(result.samples));
  report.gate("solve_gap", result.worst_gap <= eps + 1e-9);
  report.gate("envelope_containment", result.containment);
  return result;
}

/// Phase 2: standalone landmark oracle on a ~100x-larger topology than
/// bench_f7 ever touches. No engine, no dense rows — the point is that
/// resident memory stays k trees + a bounded row store.
void run_scale(const bench::BenchConfig& config, bench::BenchReport& report,
               std::size_t landmarks) {
  const std::size_t devices =
      config.devices > 0 ? config.devices : (config.quick ? 100'000 : 1'000'000);
  // Server count stays at 256 even under --quick: the exact-equivalent
  // footprint scales with it while the landmark side's barely moves, so
  // shrinking it would make the memory gate measure the wrong thing.
  const std::size_t servers = config.servers > 0 ? config.servers : 256;
  const std::size_t routers = config.quick ? 256 : 512;
  const std::size_t rounds = config.quick ? 32 : 64;

  util::Rng rng(config.base_seed ^ 0x5CA1Eu);
  topo::LinkDelayModel delay_model;
  topo::GeneratorParams params;
  params.node_count = routers;
  params.area_km = 50.0;
  const topo::GeoGraph infra =
      topo::generate(topo::TopologyFamily::kWaxman, params, delay_model, rng);

  std::vector<topo::Point2D> iot_positions(devices);
  std::vector<topo::Point2D> edge_positions(servers);
  for (auto& p : iot_positions) {
    p = {rng.uniform(0.0, params.area_km), rng.uniform(0.0, params.area_km)};
  }
  for (auto& p : edge_positions) {
    p = {rng.uniform(0.0, params.area_km), rng.uniform(0.0, params.area_km)};
  }
  util::WallTimer timer;
  topo::NetworkTopology net = topo::build_network(
      infra, iot_positions, edge_positions, delay_model);
  const double build_ms = timer.elapsed_ms();

  // The exact engine on the same topology, measured and dropped before the
  // standalone churn below mutates the network behind its back.
  timer.reset();
  std::size_t engine_scratch = 0;
  {
    const topo::incr::IncrementalDelayEngine engine(net);
    engine_scratch = engine.scratch_bytes();
  }
  const double engine_build_ms = timer.elapsed_ms();

  topo::oracle::OracleConfig oracle_config;
  oracle_config.backend = topo::oracle::OracleBackend::kLandmark;
  oracle_config.landmarks = landmarks;
  // Looser than phase 1: at this scale the gate is memory and incremental
  // repair; fallbacks are counted, not gated.
  oracle_config.max_rel_error = 0.25;
  oracle_config.seed = config.base_seed;
  timer.reset();
  topo::oracle::LandmarkOracle oracle(net, oracle_config);
  for (std::size_t i = 0; i < devices; ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  const double select_ms = timer.elapsed_ms();

  const auto links = topo::backbone_links(net);
  timer.reset();
  for (std::size_t round = 0; round < rounds; ++round) {
    // Reweight a random backbone link, mirrored into the oracle exactly
    // the way the engine's MutationListener would deliver it.
    const auto& [u, v] = links[rng.index(links.size())];
    const double new_ms = rng.uniform(0.5, 8.0);
    const topo::EdgeProps old_props = net.set_link_latency(u, v, new_ms);
    oracle.apply_mutation(/*kind=*/2, u, v, old_props.latency_ms, new_ms);
    oracle.refresh();
    for (std::size_t q = 0; q < 4; ++q) {
      (void)oracle.row(rng.index(devices));
    }
    if (round % (rounds / 4) == 0) oracle.check_invariants();
  }
  const double churn_ms = timer.elapsed_ms();

  const std::size_t graph_nodes = net.graph.node_count();
  // What the exact backend would hold at this size: one shortest-path tree
  // per server (8B distance + 4B parent per node — an over-count now that
  // the trees span the routers only; engine_scratch_bytes is the measured
  // figure), one dense 8B row per
  // distinct anchor router (single-homed devices share their anchor's
  // row), and the dense store's record per bound device.
  std::vector<bool> anchors(graph_nodes, false);
  std::size_t anchor_count = 0;
  for (const topo::NodeId device : net.iot_nodes) {
    const topo::NodeId anchor = net.graph.neighbors(device).front().to;
    if (!anchors[anchor]) {
      anchors[anchor] = true;
      ++anchor_count;
    }
  }
  const double exact_equiv_bytes =
      static_cast<double>(servers) * static_cast<double>(graph_nodes) * 12.0 +
      static_cast<double>(anchor_count) * static_cast<double>(servers) * 8.0 +
      static_cast<double>(devices) *
          static_cast<double>(topo::oracle::RowStore::kDenseRowBytes);
  const double resident = static_cast<double>(oracle.resident_bytes());
  const double memory_ratio = resident > 0.0 ? exact_equiv_bytes / resident
                                             : 0.0;
  const topo::oracle::OracleStats& stats = oracle.stats();

  util::ConsoleTable table({"metric", "value"});
  table.add_row({"devices", std::to_string(devices)});
  table.add_row({"servers", std::to_string(servers)});
  table.add_row({"landmarks", std::to_string(oracle.landmark_nodes().size())});
  table.add_row({"build network (ms)", util::format_double(build_ms, 1)});
  table.add_row({"exact engine build (ms)",
                 util::format_double(engine_build_ms, 1)});
  table.add_row({"exact engine scratch bytes", std::to_string(engine_scratch)});
  table.add_row({"landmark selection (ms)",
                 util::format_double(select_ms, 1)});
  table.add_row({"churn+queries (ms)", util::format_double(churn_ms, 1)});
  table.add_row({"resident bytes", util::format_double(resident, 0)});
  table.add_row({"exact-equivalent bytes",
                 util::format_double(exact_equiv_bytes, 0)});
  table.add_row({"memory ratio", util::format_double(memory_ratio, 1) + "x"});
  table.add_row({"landmark rebuilds", std::to_string(stats.rebuilds)});
  table.add_row({"row fills", std::to_string(stats.row_fills)});
  std::cout << table.to_string("M6 phase 2 — standalone landmark oracle at "
                               "scale:");

  report.metric("devices", static_cast<double>(devices));
  report.metric("servers", static_cast<double>(servers));
  report.metric("landmarks",
                static_cast<double>(oracle.landmark_nodes().size()));
  report.metric("memory_ratio", memory_ratio);
  report.metric("resident_bytes", resident);
  report.metric("exact_equiv_bytes", exact_equiv_bytes);
  report.metric("scale_rebuilds", static_cast<double>(stats.rebuilds));
  report.metric("engine_scratch_bytes", static_cast<double>(engine_scratch));
  report.metric("engine_build_ms", engine_build_ms);

  const bool memory_ok = memory_ratio >= 10.0;
  if (!memory_ok) {
    std::cerr << "memory ratio " << memory_ratio
              << "x is below the 10x floor\n";
  }
  report.gate("memory_reduction", memory_ok);
  const bool incremental = stats.rebuilds == 0;
  if (!incremental) {
    std::cerr << stats.rebuilds << " full landmark rebuilds mid-run\n";
  }
  report.gate("incremental_invalidation", incremental);
  const bool engine_small = engine_scratch < 50'000'000;
  if (!engine_small) {
    std::cerr << "exact engine scratch " << engine_scratch
              << " bytes is not below 50 MB\n";
  }
  report.gate("engine_memory", engine_small);
  const bool engine_fast = engine_build_ms < 10'000.0;
  if (!engine_fast) {
    std::cerr << "exact engine build took " << engine_build_ms
              << " ms, not under 10 s\n";
  }
  report.gate("engine_build", engine_fast);
}

int run(int argc, char** argv) {
  const auto config = bench::BenchConfig::parse(argc, argv);
  const double eps = config.flags.get_double("eps", 0.1);
  const auto landmarks =
      static_cast<std::size_t>(config.flags.get_int("landmarks", 8));

  bench::BenchReport report(config, "m6_oracle");
  report.set_provider(config.workload_or(kDefaultWorkload));
  report.metric("certified_eps", eps);

  const QualityResult quality = run_quality(config, report, eps, landmarks);
  run_scale(config, report, landmarks);

  report.write();
  const bool ok = report.all_gates_passed();
  if (ok) {
    std::cout << "All oracle gates passed: solve gap "
              << util::format_double(quality.worst_gap, 4) << " <= eps " << eps
              << ", envelopes contain exact, 10x+ memory reduction, "
                 "incremental invalidation, exact engine small and fast.\n";
  }
  config.check_unused();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
