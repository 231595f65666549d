// Scenario: one self-contained experimental world — infrastructure topology,
// workload, deployed network, and the derived GAP instance.
#pragma once

#include <memory>
#include <optional>

#include "gap/builder.hpp"
#include "gap/instance.hpp"
#include "topology/generators.hpp"
#include "topology/network.hpp"
#include "workload/generator.hpp"

namespace tacc {

struct ScenarioParams {
  topo::TopologyFamily family = topo::TopologyFamily::kWaxman;
  topo::GeneratorParams topology;
  workload::WorkloadParams workload;
  std::uint64_t seed = 42;
};

/// Immutable after construction; the instance is built eagerly so
/// accessors are cheap, const and data-race-free under concurrent
/// portfolio solves. The Euclidean-cost twin that CostModel::kEuclidean
/// solves on is built per configure() call, not here.
class Scenario {
 public:
  /// Generates everything deterministically from params.seed.
  [[nodiscard]] static Scenario generate(const ScenarioParams& params);

  // ---- Presets (domain examples; see examples/) --------------------------
  /// Metropolitan smart city: Waxman backbone, clustered devices around
  /// points of interest, moderate load.
  [[nodiscard]] static Scenario smart_city(std::size_t iot_count,
                                           std::size_t edge_count,
                                           std::uint64_t seed);
  /// Factory floor: dense geometric mesh over a small area, uniform device
  /// scatter, tight deadlines, high load factor.
  [[nodiscard]] static Scenario factory(std::size_t iot_count,
                                        std::size_t edge_count,
                                        std::uint64_t seed);
  /// Campus: hierarchical aggregation tree (cloudlet per building tier).
  [[nodiscard]] static Scenario campus(std::size_t iot_count,
                                       std::size_t edge_count,
                                       std::uint64_t seed);

  [[nodiscard]] const ScenarioParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] const topo::NetworkTopology& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const workload::Workload& workload() const noexcept {
    return workload_;
  }
  /// Topology-aware instance (shortest-path delay costs).
  [[nodiscard]] const gap::Instance& instance() const noexcept {
    return *instance_;
  }

  /// Deterministic 64-bit digest of the scenario's identity: generation
  /// parameters plus sampled instance data. Two scenarios generated from the
  /// same params share a fingerprint; any change to seed, sizes, family, or
  /// the derived instance changes it (with overwhelming probability). Stamped
  /// onto every ClusterConfiguration so mismatched evaluations are
  /// detectable.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  Scenario() = default;

  ScenarioParams params_;
  topo::NetworkTopology network_;
  workload::Workload workload_;
  std::shared_ptr<const gap::Instance> instance_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace tacc
