#include "topology/oracle/oracle.hpp"

#include <string>

#include "topology/oracle/exact.hpp"
#include "topology/oracle/landmark.hpp"
#include "util/contracts.hpp"

namespace tacc::topo::oracle {

DelayOracle::~DelayOracle() = default;

bool RowBindings::bind(std::size_t row, NodeId node) {
  if (row >= nodes.size()) {
    nodes.resize(row + 1, kInvalidNode);
    epochs.resize(row + 1, 0);
  }
  if (node >= node_to_row.size()) node_to_row.resize(node + 1, kUnbound);
  const bool rebind = nodes[row] != kInvalidNode;
  if (rebind) {
    node_to_row[nodes[row]] = kUnbound;
  } else {
    ++bound;
  }
  nodes[row] = node;
  node_to_row[node] = row;
  return rebind;
}

bool RowBindings::unbind(std::size_t row) {
  if (row >= nodes.size() || nodes[row] == kInvalidNode) return false;
  node_to_row[nodes[row]] = kUnbound;
  nodes[row] = kInvalidNode;
  --bound;
  return true;
}

void RowBindings::check_invariants() const {
  TACC_CHECK_INVARIANT(epochs.size() == nodes.size(),
                       "row/epoch arrays must stay parallel");
  std::size_t bound_seen = 0;
  for (std::size_t row = 0; row < nodes.size(); ++row) {
    const NodeId node = nodes[row];
    if (node == kInvalidNode) continue;
    ++bound_seen;
    TACC_CHECK_INVARIANT(node < node_to_row.size() &&
                             node_to_row[node] == row,
                         "bound row missing from the node->row index: row " +
                             std::to_string(row));
  }
  TACC_CHECK_INVARIANT(bound_seen == bound,
                       "bound-row count out of sync with bindings");
  for (std::size_t node = 0; node < node_to_row.size(); ++node) {
    const std::size_t row = node_to_row[node];
    if (row == kUnbound) continue;
    TACC_CHECK_INVARIANT(row < nodes.size() &&
                             nodes[row] == static_cast<NodeId>(node),
                         "node->row index points at a row bound elsewhere: "
                         "node " +
                             std::to_string(node));
  }
}

std::size_t width_bucket(double relative_width) noexcept {
  constexpr std::array<double, 7> kEdges = {1e-3, 3e-3, 1e-2, 3e-2,
                                            1e-1, 3e-1, 1.0};
  for (std::size_t b = 0; b < kEdges.size(); ++b) {
    if (relative_width < kEdges[b]) return b;
  }
  return kEdges.size();
}

std::unique_ptr<DelayOracle> make_oracle(
    const OracleConfig& config, incr::IncrementalDelayEngine& engine) {
  if (config.backend == OracleBackend::kLandmark) {
    return std::make_unique<LandmarkOracle>(engine, config);
  }
  return std::make_unique<ExactOracle>(engine, config);
}

}  // namespace tacc::topo::oracle
