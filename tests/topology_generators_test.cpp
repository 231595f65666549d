#include "topology/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "topology/shortest_paths.hpp"
#include "util/rng.hpp"

namespace tacc::topo {
namespace {


// Property sweep: every family × several seeds yields a connected graph of
// the right size with positive link latencies and in-area positions.
struct FamilySeed {
  TopologyFamily family;
  // GoogleTest prints this type as its raw bytes and CTest names each case by
  // that print. Implicit padding would carry heap garbage into the names (it
  // is not copied member-wise), so the padding is a named member kept at 0.
  std::uint32_t zero_pad;
  std::uint64_t seed;
};
static_assert(sizeof(FamilySeed) == 16, "FamilySeed must have no implicit padding");

class GeneratorProperties : public ::testing::TestWithParam<FamilySeed> {};

TEST_P(GeneratorProperties, ConnectedSizedInArea) {
  const TopologyFamily family = GetParam().family;
  const std::uint64_t seed = GetParam().seed;
  util::Rng rng(seed);
  GeneratorParams params;
  params.node_count = 40;
  params.area_km = 8.0;
  const GeoGraph geo = generate(family, params, rng);

  // Grid truncates to a square; everything else hits the request exactly.
  if (family == TopologyFamily::kGrid) {
    EXPECT_EQ(geo.graph.node_count(), 36u);  // floor(sqrt(40))^2
  } else {
    EXPECT_EQ(geo.graph.node_count(), params.node_count);
  }
  EXPECT_EQ(geo.positions.size(), geo.graph.node_count());
  EXPECT_TRUE(is_connected(geo.graph));
  for (const auto& p : geo.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, params.area_km);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, params.area_km);
  }
  for (NodeId u = 0; u < geo.graph.node_count(); ++u) {
    for (const auto& adj : geo.graph.neighbors(u)) {
      EXPECT_GT(adj.props.latency_ms, 0.0);
      EXPECT_GT(adj.props.bandwidth_mbps, 0.0);
    }
  }
}

TEST_P(GeneratorProperties, DeterministicForSameSeed) {
  const TopologyFamily family = GetParam().family;
  const std::uint64_t seed = GetParam().seed;
  util::Rng rng1(seed);
  util::Rng rng2(seed);
  GeneratorParams params;
  params.node_count = 30;
  const GeoGraph a = generate(family, params, rng1);
  const GeoGraph b = generate(family, params, rng2);
  ASSERT_EQ(a.graph.node_count(), b.graph.node_count());
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (NodeId u = 0; u < a.graph.node_count(); ++u) {
    EXPECT_EQ(a.positions[u].x, b.positions[u].x);
    ASSERT_EQ(a.graph.degree(u), b.graph.degree(u));
  }
}

std::vector<FamilySeed> family_seed_matrix() {
  std::vector<FamilySeed> cases;
  for (TopologyFamily family : all_topology_families()) {
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      cases.push_back({family, 0, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, GeneratorProperties,
                         ::testing::ValuesIn(family_seed_matrix()));

TEST(Waxman, DenserWithHigherAlpha) {
  GeneratorParams sparse_params;
  sparse_params.node_count = 60;
  sparse_params.waxman_alpha = 0.05;
  GeneratorParams dense_params = sparse_params;
  dense_params.waxman_alpha = 0.9;
  util::Rng rng1(5), rng2(5);
  const auto sparse = generate_waxman(sparse_params, rng1);
  const auto dense = generate_waxman(dense_params, rng2);
  EXPECT_GT(dense.graph.edge_count(), sparse.graph.edge_count());
}

TEST(BarabasiAlbert, EdgeCountMatchesAttachment) {
  GeneratorParams params;
  params.node_count = 50;
  params.ba_attach_count = 2;
  util::Rng rng(7);
  const auto geo = generate_barabasi_albert(params, rng);
  // Seed clique of m+1=3 nodes has 3 edges; each later node adds m=2.
  EXPECT_EQ(geo.graph.edge_count(), 3u + (50u - 3u) * 2u);
}

TEST(BarabasiAlbert, HasHubs) {
  GeneratorParams params;
  params.node_count = 200;
  params.ba_attach_count = 2;
  util::Rng rng(9);
  const auto geo = generate_barabasi_albert(params, rng);
  std::size_t max_degree = 0;
  for (NodeId u = 0; u < geo.graph.node_count(); ++u) {
    max_degree = std::max(max_degree, geo.graph.degree(u));
  }
  // Preferential attachment produces hubs far above the mean degree (~4).
  EXPECT_GE(max_degree, 12u);
}

TEST(Grid, LatticeStructure) {
  GeneratorParams params;
  params.node_count = 16;
  params.area_km = 3.0;
  const auto geo = generate_grid(params);
  EXPECT_EQ(geo.graph.node_count(), 16u);
  EXPECT_EQ(geo.graph.edge_count(), 24u);  // 2*4*3
  // Corners have degree 2, centre nodes degree 4.
  EXPECT_EQ(geo.graph.degree(0), 2u);
  EXPECT_EQ(geo.graph.degree(5), 4u);
}

TEST(Grid, SingleNode) {
  GeneratorParams params;
  params.node_count = 1;
  const auto geo = generate_grid(params);
  EXPECT_EQ(geo.graph.node_count(), 1u);
  EXPECT_EQ(geo.graph.edge_count(), 0u);
}

TEST(Hierarchical, IsTreePlusNothing) {
  GeneratorParams params;
  params.node_count = 40;
  params.hierarchical_branching = 3;
  util::Rng rng(3);
  const auto geo = generate_hierarchical(params, rng);
  // A tree on n nodes has exactly n-1 edges.
  EXPECT_EQ(geo.graph.edge_count(), geo.graph.node_count() - 1);
  EXPECT_TRUE(is_connected(geo.graph));
}

TEST(RandomGeometric, RadiusControlsEdges) {
  GeneratorParams small_params;
  small_params.node_count = 50;
  small_params.geometric_radius_km = 1.0;
  GeneratorParams big_params = small_params;
  big_params.geometric_radius_km = 5.0;
  util::Rng rng1(13), rng2(13);
  const auto small_r = generate_random_geometric(small_params, rng1);
  const auto big_r = generate_random_geometric(big_params, rng2);
  EXPECT_GT(big_r.graph.edge_count(), small_r.graph.edge_count());
}

TEST(EnsureConnected, RepairsFragments) {
  GeoGraph geo{Graph(4),
               {{0.0, 0.0}, {1.0, 0.0}, {5.0, 0.0}, {6.0, 0.0}}};
  geo.graph.add_edge(0, 1, {1.0, 1.0});
  geo.graph.add_edge(2, 3, {1.0, 1.0});
  ensure_connected(geo);
  EXPECT_TRUE(is_connected(geo.graph));
  // Nearest cross pair is 1–2.
  EXPECT_TRUE(geo.graph.has_edge(1, 2));
}

TEST(FamilyNames, RoundTrip) {
  for (TopologyFamily family : all_topology_families()) {
    EXPECT_EQ(topology_family_from_string(to_string(family)), family);
  }
  EXPECT_THROW((void)topology_family_from_string("nope"),
               std::invalid_argument);
}

}  // namespace
}  // namespace tacc::topo
