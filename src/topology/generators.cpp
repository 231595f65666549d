#include <numbers>
#include "topology/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "topology/delay_model.hpp"
#include "topology/shortest_paths.hpp"

namespace tacc::topo {

namespace {

[[nodiscard]] std::vector<Point2D> random_positions(std::size_t count,
                                                    double area_km,
                                                    util::Rng& rng) {
  std::vector<Point2D> positions(count);
  for (auto& p : positions) {
    p = {rng.uniform(0.0, area_km), rng.uniform(0.0, area_km)};
  }
  return positions;
}

void add_backbone(GeoGraph& geo, NodeId u, NodeId v) {
  geo.graph.add_edge(
      u, v,
      backbone_link(euclidean_distance(geo.positions[u], geo.positions[v])));
}

/// Waxman's distance scale: link probability decays over this fraction of
/// the area's diagonal.
constexpr double kWaxmanBeta = 0.3;

}  // namespace

std::string_view to_string(TopologyFamily family) noexcept {
  switch (family) {
    case TopologyFamily::kWaxman:
      return "waxman";
    case TopologyFamily::kBarabasiAlbert:
      return "barabasi-albert";
    case TopologyFamily::kErdosRenyi:
      return "erdos-renyi";
    case TopologyFamily::kRandomGeometric:
      return "geometric";
    case TopologyFamily::kGrid:
      return "grid";
    case TopologyFamily::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

TopologyFamily topology_family_from_string(std::string_view name) {
  for (TopologyFamily family : all_topology_families()) {
    if (to_string(family) == name) return family;
  }
  throw std::invalid_argument("unknown topology family: " + std::string(name));
}

std::vector<TopologyFamily> all_topology_families() {
  return {TopologyFamily::kWaxman,          TopologyFamily::kBarabasiAlbert,
          TopologyFamily::kErdosRenyi,      TopologyFamily::kRandomGeometric,
          TopologyFamily::kGrid,            TopologyFamily::kHierarchical};
}

GeoGraph generate_waxman(const GeneratorParams& params, util::Rng& rng) {
  GeoGraph geo{Graph(params.node_count),
               random_positions(params.node_count, params.area_km, rng)};
  const double max_distance = params.area_km * std::numbers::sqrt2;
  for (NodeId u = 0; u < params.node_count; ++u) {
    for (NodeId v = u + 1; v < params.node_count; ++v) {
      const double d = euclidean_distance(geo.positions[u], geo.positions[v]);
      const double p =
          params.waxman_alpha *
          std::exp(-d / (kWaxmanBeta * max_distance));
      if (rng.bernoulli(p)) add_backbone(geo, u, v);
    }
  }
  return geo;
}

GeoGraph generate_barabasi_albert(const GeneratorParams& params,
                                  util::Rng& rng) {
  const std::size_t m = std::max<std::size_t>(1, params.ba_attach_count);
  const std::size_t seed_size = std::min(params.node_count, m + 1);
  GeoGraph geo{Graph(params.node_count),
               random_positions(params.node_count, params.area_km, rng)};

  // `targets` holds one entry per edge endpoint, so sampling uniformly from
  // it implements preferential attachment.
  std::vector<NodeId> endpoint_pool;
  for (NodeId u = 0; u < seed_size; ++u) {
    for (NodeId v = u + 1; v < seed_size; ++v) {
      add_backbone(geo, u, v);
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }
  for (NodeId node = static_cast<NodeId>(seed_size);
       node < params.node_count; ++node) {
    std::vector<NodeId> chosen;
    while (chosen.size() < std::min(m, static_cast<std::size_t>(node))) {
      const NodeId target = endpoint_pool[rng.index(endpoint_pool.size())];
      if (std::find(chosen.begin(), chosen.end(), target) == chosen.end()) {
        chosen.push_back(target);
      }
    }
    for (NodeId target : chosen) {
      add_backbone(geo, node, target);
      endpoint_pool.push_back(node);
      endpoint_pool.push_back(target);
    }
  }
  return geo;
}

GeoGraph generate_erdos_renyi(const GeneratorParams& params, util::Rng& rng) {
  GeoGraph geo{Graph(params.node_count),
               random_positions(params.node_count, params.area_km, rng)};
  for (NodeId u = 0; u < params.node_count; ++u) {
    for (NodeId v = u + 1; v < params.node_count; ++v) {
      if (rng.bernoulli(params.er_edge_probability)) {
        add_backbone(geo, u, v);
      }
    }
  }
  return geo;
}

GeoGraph generate_random_geometric(const GeneratorParams& params,
                                   util::Rng& rng) {
  GeoGraph geo{Graph(params.node_count),
               random_positions(params.node_count, params.area_km, rng)};
  for (NodeId u = 0; u < params.node_count; ++u) {
    for (NodeId v = u + 1; v < params.node_count; ++v) {
      if (euclidean_distance(geo.positions[u], geo.positions[v]) <=
          params.geometric_radius_km) {
        add_backbone(geo, u, v);
      }
    }
  }
  return geo;
}

GeoGraph generate_grid(const GeneratorParams& params) {
  const auto side = static_cast<std::size_t>(
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(
                        std::max<std::size_t>(1, params.node_count))))));
  const std::size_t count = side * side;
  GeoGraph geo{Graph(count), std::vector<Point2D>(count)};
  const double step = side > 1 ? params.area_km / static_cast<double>(side - 1)
                               : 0.0;
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      geo.positions[r * side + c] = {static_cast<double>(c) * step,
                                     static_cast<double>(r) * step};
    }
  }
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      const auto id = static_cast<NodeId>(r * side + c);
      if (c + 1 < side) add_backbone(geo, id, id + 1);
      if (r + 1 < side) {
        add_backbone(geo, id, static_cast<NodeId>(id + side));
      }
    }
  }
  return geo;
}

GeoGraph generate_hierarchical(const GeneratorParams& params,
                               util::Rng& rng) {
  const std::size_t branching =
      std::max<std::size_t>(2, params.hierarchical_branching);
  const std::size_t count = std::max<std::size_t>(1, params.node_count);
  GeoGraph geo{Graph(count), std::vector<Point2D>(count)};

  // BFS-order b-ary tree. Node 0 is the root gateway at the area centre;
  // deeper tiers are spread over rings of growing radius with jitter, which
  // makes tree distance correlate only loosely with geometric distance —
  // exactly the regime where topology-oblivious assignment goes wrong.
  const Point2D centre{params.area_km / 2.0, params.area_km / 2.0};
  geo.positions[0] = centre;
  std::size_t tier_begin = 0;
  std::size_t tier_size = 1;
  std::size_t depth = 0;
  while (tier_begin + tier_size < count) {
    const std::size_t next_begin = tier_begin + tier_size;
    const std::size_t next_size =
        std::min(tier_size * branching, count - next_begin);
    const double radius =
        params.area_km / 2.0 *
        (static_cast<double>(depth + 1) / static_cast<double>(depth + 2));
    for (std::size_t k = 0; k < next_size; ++k) {
      const double angle = 2.0 * std::numbers::pi *
                               static_cast<double>(k) /
                               static_cast<double>(next_size) +
                           rng.uniform(0.0, 0.3);
      const double r = radius * rng.uniform(0.7, 1.0);
      geo.positions[next_begin + k] = {
          std::clamp(centre.x + r * std::cos(angle), 0.0, params.area_km),
          std::clamp(centre.y + r * std::sin(angle), 0.0, params.area_km)};
      const auto parent =
          static_cast<NodeId>(tier_begin + k / branching);
      add_backbone(geo, static_cast<NodeId>(next_begin + k), parent);
    }
    tier_begin = next_begin;
    tier_size = next_size;
    ++depth;
  }
  return geo;
}

GeoGraph generate(TopologyFamily family, const GeneratorParams& params,
                  util::Rng& rng) {
  GeoGraph geo = [&] {
    switch (family) {
      case TopologyFamily::kWaxman:
        return generate_waxman(params, rng);
      case TopologyFamily::kBarabasiAlbert:
        return generate_barabasi_albert(params, rng);
      case TopologyFamily::kErdosRenyi:
        return generate_erdos_renyi(params, rng);
      case TopologyFamily::kRandomGeometric:
        return generate_random_geometric(params, rng);
      case TopologyFamily::kGrid:
        return generate_grid(params);
      case TopologyFamily::kHierarchical:
        return generate_hierarchical(params, rng);
    }
    throw std::invalid_argument("unknown topology family");
  }();
  ensure_connected(geo);
  return geo;
}

void ensure_connected(GeoGraph& geo) {
  while (true) {
    const auto labels = connected_components(geo.graph);
    const auto component_count =
        labels.empty() ? 0u
                       : *std::max_element(labels.begin(), labels.end()) + 1;
    if (component_count <= 1) return;

    // Bridge component 0 to the nearest node of any other component.
    NodeId best_u = kInvalidNode;
    NodeId best_v = kInvalidNode;
    double best_distance = std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < geo.graph.node_count(); ++u) {
      if (labels[u] != 0) continue;
      for (NodeId v = 0; v < geo.graph.node_count(); ++v) {
        if (labels[v] == 0) continue;
        const double d =
            euclidean_distance(geo.positions[u], geo.positions[v]);
        if (d < best_distance) {
          best_distance = d;
          best_u = u;
          best_v = v;
        }
      }
    }
    add_backbone(geo, best_u, best_v);
  }
}

}  // namespace tacc::topo
