// Synthetic infrastructure-topology generators.
//
// Each generator produces a geometric graph of routers/access points inside
// an area_km × area_km square; link latencies come from the link-delay
// model (delay_model.hpp).
// Generators may emit disconnected graphs; ensure_connected() repairs them
// by adding the shortest possible bridging links, so downstream code can
// assume connectivity.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "topology/geometry.hpp"
#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace tacc::topo {

/// A graph together with the physical position of every node.
struct GeoGraph {
  Graph graph;
  std::vector<Point2D> positions;
};

enum class TopologyFamily {
  kWaxman,          ///< classic internet-like random graph (Waxman '88)
  kBarabasiAlbert,  ///< preferential attachment, heavy-tailed degrees
  kErdosRenyi,      ///< uniform random edges
  kRandomGeometric, ///< unit-disk: connect within radius (dense mesh/WSN)
  kGrid,            ///< 2-D lattice (metro street grid)
  kHierarchical,    ///< b-ary aggregation tree (cloudlet hierarchy)
};

[[nodiscard]] std::string_view to_string(TopologyFamily family) noexcept;
/// Parses the names printed by to_string; throws std::invalid_argument.
[[nodiscard]] TopologyFamily topology_family_from_string(
    std::string_view name);
/// All families, for sweep-style experiments.
[[nodiscard]] std::vector<TopologyFamily> all_topology_families();

struct GeneratorParams {
  std::size_t node_count = 50;
  double area_km = 10.0;
  // Waxman: P(u,v) = alpha * exp(-d(u,v) / (beta * max_distance)), with
  // beta fixed at kWaxmanBeta (generators.cpp).
  double waxman_alpha = 0.4;
  // Barabási–Albert: edges added per new node.
  std::size_t ba_attach_count = 2;
  // Erdős–Rényi edge probability.
  double er_edge_probability = 0.08;
  // Random geometric connection radius (km).
  double geometric_radius_km = 2.5;
  // Hierarchical: children per aggregation node.
  std::size_t hierarchical_branching = 3;
};

[[nodiscard]] GeoGraph generate_waxman(const GeneratorParams& params,
                                       util::Rng& rng);
[[nodiscard]] GeoGraph generate_barabasi_albert(const GeneratorParams& params,
                                                util::Rng& rng);
[[nodiscard]] GeoGraph generate_erdos_renyi(const GeneratorParams& params,
                                            util::Rng& rng);
[[nodiscard]] GeoGraph generate_random_geometric(
    const GeneratorParams& params, util::Rng& rng);
/// Lattice over ceil(sqrt(node_count))²-truncated nodes; deterministic.
[[nodiscard]] GeoGraph generate_grid(const GeneratorParams& params);
[[nodiscard]] GeoGraph generate_hierarchical(const GeneratorParams& params,
                                             util::Rng& rng);

/// Dispatch by family; every result is post-processed by ensure_connected.
[[nodiscard]] GeoGraph generate(TopologyFamily family,
                                const GeneratorParams& params, util::Rng& rng);

/// Adds backbone links between nearest node pairs of distinct components
/// until the graph is connected.
void ensure_connected(GeoGraph& geo);

}  // namespace tacc::topo
