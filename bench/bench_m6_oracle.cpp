// M6: the delay oracle at scale — the exact backend, measured.
//
// A generated Waxman topology with --devices IoT nodes (default 1M, 100k
// under --quick) and --servers edge servers (default 256). The
// IncrementalDelayEngine and the DelayOracle are built on it and every
// device is bound; then backbone links are reweighted one at a time, each
// followed by refresh() and a few row reads. Reported (BENCH_m6_oracle.json):
// the engine's scratch bytes right after the build and after the churn, the
// oracle's resident bytes and their sum, the engine build and bind times,
// the median and max per-reweight time (engine mutation plus refresh()), the
// mean dirty-set size per reweight, and the whole churn loop's time. Gates:
//   * engine_memory / engine_build: the engine holds under 50 MB of scratch
//     and builds in under 10 s — its trees span the routers only.
//   * scale_free_reweight: no reweight's dirty set holds a device, or more
//     nodes than there are routers, however many devices the moved routers
//     anchor.
//   * rows_bit_exact: after the churn, sampled rows are bit-equal to a
//     no-relay dijkstra(graph, server, router_count()) reference.
//
//   ./bench_m6_oracle [--devices=1000000] [--servers=256] [--seed=...]
//                     [--quick]
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "bench/bench_common.hpp"
#include "topology/failures.hpp"
#include "topology/generators.hpp"
#include "topology/network.hpp"
#include "topology/oracle/oracle.hpp"
#include "topology/shortest_paths.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace tacc;

/// Rows compared against the reference after the churn.
constexpr std::size_t kSampledRows = 64;

int run(int argc, char** argv) {
  const auto config = bench::BenchConfig::parse(argc, argv);
  const std::size_t devices =
      config.devices > 0 ? config.devices
                         : (config.quick ? 100'000 : 1'000'000);
  const std::size_t servers = config.servers > 0 ? config.servers : 256;
  const std::size_t routers = config.quick ? 256 : 512;
  const std::size_t rounds = config.quick ? 32 : 64;

  util::Rng rng(config.base_seed ^ 0x5CA1Eu);
  topo::GeneratorParams params;
  params.node_count = routers;
  params.area_km = 50.0;
  const topo::GeoGraph infra =
      topo::generate(topo::TopologyFamily::kWaxman, params, rng);

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
      infra, iot_positions, edge_positions);
  const double network_ms = timer.elapsed_ms();

  timer.reset();
  topo::incr::IncrementalDelayEngine engine(net);
  const double engine_build_ms = timer.elapsed_ms();
  const std::size_t engine_scratch_build = engine.scratch_bytes();

  timer.reset();
  topo::oracle::DelayOracle oracle(engine);
  for (std::size_t i = 0; i < devices; ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  const double bind_ms = timer.elapsed_ms();

  // The churn: reweight a random backbone link, refresh, read a few rows.
  // Between the mutation and the refresh (untimed) the dirty set is sized
  // and every device is checked to be outside it.
  const auto links = topo::backbone_links(net);
  const std::size_t key_bound = net.router_count();
  std::vector<double> reweight_ms;
  reweight_ms.reserve(rounds);
  std::size_t dirty_keys = 0;
  std::size_t dirty_devices = 0;
  std::size_t max_dirty = 0;
  double check_ms = 0.0;
  util::WallTimer churn_timer;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto& [u, v] = links[rng.index(links.size())];
    timer.reset();
    engine.set_link_latency(u, v, rng.uniform(0.5, 8.0));
    const double mutate_ms = timer.elapsed_ms();
    timer.reset();
    dirty_keys += engine.dirty_count();
    max_dirty = std::max(max_dirty, engine.dirty_count());
    for (const topo::NodeId device : net.iot_nodes) {
      if (engine.is_dirty(device)) ++dirty_devices;
    }
    check_ms += timer.elapsed_ms();
    timer.reset();
    oracle.refresh();
    reweight_ms.push_back(mutate_ms + timer.elapsed_ms());
    for (std::size_t q = 0; q < 4; ++q) {
      (void)oracle.row(rng.index(devices));
    }
  }
  const double churn_ms = churn_timer.elapsed_ms() - check_ms;
  const double dirty_keys_per_reweight =
      static_cast<double>(dirty_keys) / static_cast<double>(rounds);

  const std::size_t engine_scratch = engine.scratch_bytes();
  const std::size_t oracle_resident = oracle.resident_bytes();
  const std::size_t exact_resident = engine_scratch + oracle_resident;
  std::sort(reweight_ms.begin(), reweight_ms.end());
  const double reweight_median_ms = reweight_ms[reweight_ms.size() / 2];
  const double reweight_max_ms = reweight_ms.back();

  // The reference: one no-relay Dijkstra per server, read at the sampled
  // devices, every entry compared bit for bit.
  std::vector<std::size_t> sampled(kSampledRows);
  for (std::size_t& i : sampled) i = rng.index(devices);
  std::vector<double> served(kSampledRows * servers);
  for (std::size_t s = 0; s < kSampledRows; ++s) {
    const std::vector<double>& row = oracle.row(sampled[s]);
    std::copy(row.begin(), row.end(),
              served.begin() + static_cast<std::ptrdiff_t>(s * servers));
  }
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < servers; ++j) {
    const topo::ShortestPathTree tree =
        topo::dijkstra(net.graph, net.edge_nodes[j], net.router_count());
    for (std::size_t s = 0; s < kSampledRows; ++s) {
      const double expected = tree.distance_ms[net.iot_nodes[sampled[s]]];
      if (std::bit_cast<std::uint64_t>(served[s * servers + j]) !=
          std::bit_cast<std::uint64_t>(expected)) {
        if (mismatches++ == 0) {
          std::cerr << "row " << sampled[s] << ", server " << j << ": served "
                    << served[s * servers + j] << ", reference " << expected
                    << "\n";
        }
      }
    }
  }

  util::ConsoleTable table({"metric", "value"});
  table.add_row({"devices", std::to_string(devices)});
  table.add_row({"servers", std::to_string(servers)});
  table.add_row({"build network (ms)", util::format_double(network_ms, 1)});
  table.add_row({"engine build (ms)", util::format_double(engine_build_ms, 1)});
  table.add_row({"bind every device (ms)", util::format_double(bind_ms, 1)});
  table.add_row({"engine scratch bytes after build",
                 std::to_string(engine_scratch_build)});
  table.add_row({"engine scratch bytes after churn",
                 std::to_string(engine_scratch)});
  table.add_row({"oracle resident bytes", std::to_string(oracle_resident)});
  table.add_row({"exact resident bytes", std::to_string(exact_resident)});
  table.add_row({"reweight median (ms)",
                 util::format_double(reweight_median_ms, 3)});
  table.add_row({"reweight max (ms)", util::format_double(reweight_max_ms, 3)});
  table.add_row({"dirty keys per reweight (mean)",
                 util::format_double(dirty_keys_per_reweight, 1)});
  table.add_row({"dirty keys, largest reweight", std::to_string(max_dirty)});
  table.add_row({"churn+queries (ms)", util::format_double(churn_ms, 1)});
  table.add_row({"sampled entries off the reference",
                 std::to_string(mismatches)});
  std::cout << table.to_string("M6 — exact delay oracle at scale:");

  bench::BenchReport report(config, "m6_oracle");
  report.metric("devices", static_cast<double>(devices));
  report.metric("servers", static_cast<double>(servers));
  report.metric("engine_scratch_bytes", static_cast<double>(engine_scratch));
  report.metric("engine_scratch_build_bytes",
                static_cast<double>(engine_scratch_build));
  report.metric("oracle_resident_bytes",
                static_cast<double>(oracle_resident));
  report.metric("exact_resident_bytes", static_cast<double>(exact_resident));
  report.metric("engine_build_ms", engine_build_ms);
  report.metric("bind_ms", bind_ms);
  report.metric("reweight_median_ms", reweight_median_ms);
  report.metric("reweight_max_ms", reweight_max_ms);
  report.metric("dirty_keys_per_reweight", dirty_keys_per_reweight);
  report.metric("churn_ms", churn_ms);
  report.metric("sampled_rows", static_cast<double>(kSampledRows));

  const bool engine_small = engine_scratch < 50'000'000;
  if (!engine_small) {
    std::cerr << "engine scratch " << engine_scratch
              << " bytes is not below 50 MB\n";
  }
  report.gate("engine_memory", engine_small);
  const bool engine_fast = engine_build_ms < 10'000.0;
  if (!engine_fast) {
    std::cerr << "engine build took " << engine_build_ms
              << " ms, not under 10 s\n";
  }
  report.gate("engine_build", engine_fast);
  const bool scale_free = dirty_devices == 0 && max_dirty <= key_bound;
  if (!scale_free) {
    std::cerr << dirty_devices << " devices were dirty; the largest dirty "
              << "set held " << max_dirty << " nodes against " << key_bound
              << " routers\n";
  }
  report.gate("scale_free_reweight", scale_free);
  if (mismatches != 0) {
    std::cerr << mismatches << " sampled entries differ from the reference\n";
  }
  report.gate("rows_bit_exact", mismatches == 0);

  report.write();
  const bool ok = report.all_gates_passed();
  if (ok) {
    std::cout << "All oracle gates passed: engine small and fast, reweights "
                 "dirty keys only, sampled rows bit-equal to the no-relay "
                 "reference.\n";
  }
  config.check_unused();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
