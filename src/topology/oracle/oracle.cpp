#include "topology/oracle/oracle.hpp"

#include <utility>

#include "topology/oracle/exact.hpp"
#include "topology/oracle/landmark.hpp"

namespace tacc::topo::oracle {

DelayOracle::DelayOracle(RowEncoding encoding, std::size_t width,
                         std::size_t hot_rows, RowStore::Resolve resolve)
    : store_(encoding, width, hot_rows,
             [this](std::size_t row, NodeId node, std::span<double> out) {
               return fill_row(row, node, out);
             },
             std::move(resolve)) {}

DelayOracle::~DelayOracle() = default;

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
