#include "core/scenario.hpp"

#include <bit>

namespace tacc {

namespace {

/// Order-sensitive 64-bit mix over the values fed in; splitmix64-based so it
/// replays identically on every platform.
class FingerprintMixer {
 public:
  void mix(std::uint64_t value) noexcept {
    state_ ^= value;
    digest_ = util::splitmix64(state_);
  }
  void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t state_ = 0x7ACC5EEDULL;  // arbitrary nonzero start
  std::uint64_t digest_ = 0;
};

[[nodiscard]] std::uint64_t compute_fingerprint(const ScenarioParams& params,
                                                const gap::Instance& inst) {
  FingerprintMixer mixer;
  mixer.mix(params.seed);
  mixer.mix(static_cast<std::uint64_t>(params.family));
  mixer.mix(static_cast<std::uint64_t>(params.topology.node_count));
  mixer.mix(params.topology.area_km);
  mixer.mix(static_cast<std::uint64_t>(params.workload.iot_count));
  mixer.mix(static_cast<std::uint64_t>(params.workload.edge_count));
  mixer.mix(params.workload.load_factor);
  const std::size_t n = inst.device_count();
  const std::size_t m = inst.server_count();
  mixer.mix(static_cast<std::uint64_t>(n));
  mixer.mix(static_cast<std::uint64_t>(m));
  mixer.mix(inst.total_capacity());
  // A strided sample of the delay matrix ties the digest to the realized
  // topology, not just the knobs that produced it.
  const std::size_t stride = std::max<std::size_t>(1, (n * m) / 64);
  for (std::size_t flat = 0; flat < n * m; flat += stride) {
    mixer.mix(inst.delay_ms(flat / m, flat % m));
  }
  return mixer.digest();
}

}  // namespace

Scenario Scenario::generate(const ScenarioParams& params) {
  Scenario scenario;
  scenario.params_ = params;

  util::Rng rng(params.seed);
  util::Rng topo_rng = rng.fork(1);
  util::Rng workload_rng = rng.fork(2);

  const topo::GeoGraph infra =
      topo::generate(params.family, params.topology, topo_rng);
  scenario.workload_ =
      workload::generate_workload(params.workload, workload_rng);
  scenario.network_ = topo::build_network(
      infra, scenario.workload_.iot_positions(),
      scenario.workload_.edge_positions());
  scenario.instance_ = std::make_shared<const gap::Instance>(
      gap::build_instance(scenario.network_, scenario.workload_));
  scenario.fingerprint_ =
      compute_fingerprint(params, *scenario.instance_);
  return scenario;
}

Scenario Scenario::smart_city(std::size_t iot_count, std::size_t edge_count,
                              std::uint64_t seed) {
  ScenarioParams params;
  params.seed = seed;
  params.family = topo::TopologyFamily::kWaxman;
  params.topology.node_count = std::max<std::size_t>(30, edge_count * 2);
  params.topology.area_km = 12.0;
  params.workload.iot_count = iot_count;
  params.workload.edge_count = edge_count;
  params.workload.area_km = params.topology.area_km;
  params.workload.iot_placement = workload::PlacementPattern::kClustered;
  params.workload.hotspot_count = 6;
  params.workload.load_factor = 0.7;
  return generate(params);
}

Scenario Scenario::factory(std::size_t iot_count, std::size_t edge_count,
                           std::uint64_t seed) {
  ScenarioParams params;
  params.seed = seed;
  params.family = topo::TopologyFamily::kRandomGeometric;
  params.topology.node_count = std::max<std::size_t>(25, edge_count * 2);
  params.topology.area_km = 1.0;           // one plant
  params.topology.geometric_radius_km = 0.3;
  params.workload.iot_count = iot_count;
  params.workload.edge_count = edge_count;
  params.workload.area_km = params.topology.area_km;
  params.workload.iot_placement = workload::PlacementPattern::kUniform;
  params.workload.deadline_min_ms = 5.0;   // stringent real-time deadlines
  params.workload.deadline_max_ms = 15.0;
  params.workload.load_factor = 0.85;      // tight capacity
  params.workload.rate_mean_hz = 20.0;
  return generate(params);
}

Scenario Scenario::campus(std::size_t iot_count, std::size_t edge_count,
                          std::uint64_t seed) {
  ScenarioParams params;
  params.seed = seed;
  params.family = topo::TopologyFamily::kHierarchical;
  params.topology.node_count = std::max<std::size_t>(40, edge_count * 3);
  params.topology.area_km = 4.0;
  params.topology.hierarchical_branching = 3;
  params.workload.iot_count = iot_count;
  params.workload.edge_count = edge_count;
  params.workload.area_km = params.topology.area_km;
  params.workload.iot_placement = workload::PlacementPattern::kClustered;
  params.workload.hotspot_count = 8;
  params.workload.load_factor = 0.6;
  return generate(params);
}

}  // namespace tacc
