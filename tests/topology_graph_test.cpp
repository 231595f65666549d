#include "topology/graph.hpp"

#include <gtest/gtest.h>

#include "tests/test_helpers.hpp"
#include "util/contracts.hpp"

namespace tacc::topo {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, AddNodeReturnsSequentialIds) {
  Graph g;
  EXPECT_EQ(g.add_node(), 0u);
  EXPECT_EQ(g.add_node(), 1u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(Graph, AddEdgeIsUndirected) {
  Graph g(3);
  g.add_edge(0, 1, {2.0, 50.0});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, NeighborsCarryProps) {
  Graph g(2);
  g.add_edge(0, 1, {3.5, 75.0});
  const auto neighbors = g.neighbors(0);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0].to, 1u);
  EXPECT_DOUBLE_EQ(neighbors[0].props.latency_ms, 3.5);
  EXPECT_DOUBLE_EQ(neighbors[0].props.bandwidth_mbps, 75.0);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, {1.0, 1.0}), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 0, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, {-1.0, 1.0}), std::invalid_argument);
}

TEST(Graph, NeighborsOutOfRangeThrows) {
  Graph g(1);
  EXPECT_THROW((void)g.neighbors(3), std::out_of_range);
}

TEST(Graph, ParallelEdgesAllowedAndCounted) {
  Graph g(2);
  g.add_edge(0, 1, {1.0, 1.0});
  g.add_edge(0, 1, {2.0, 1.0});
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

// Each list keeps its entries in insertion order through removals and
// reweights, and mirror entries stay paired: the trees' parent tie-breaks
// depend on that order.
TEST(Graph, NeighborsKeepInsertionOrderThroughRemovals) {
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  Graph g(5);
  for (NodeId v = 1; v < 5; ++v) g.add_edge(0, v, {1.0 * v, 1.0});
  g.add_edge(0, 2, {9.0, 1.0});  // a parallel link goes to the back
  ASSERT_TRUE(g.remove_edge(2, 0));  // the first 0-2 link
  ASSERT_TRUE(g.set_edge_latency(0, 3, 7.0));
  const auto list = g.neighbors(0);
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0].to, 1u);
  EXPECT_EQ(list[1].to, 3u);
  EXPECT_EQ(list[1].props.latency_ms, 7.0);
  EXPECT_EQ(list[2].to, 4u);
  EXPECT_EQ(list[3].to, 2u);
  EXPECT_EQ(list[3].props.latency_ms, 9.0);
  EXPECT_EQ(g.edge_props(3, 0)->latency_ms, 7.0);
  EXPECT_EQ(g.edge_count(), 4u);
  g.check_invariants();
}

TEST(KnownGraph, HelperShape) {
  const Graph g = test::known_graph();
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_TRUE(g.has_edge(4, 5));
}

}  // namespace
}  // namespace tacc::topo
