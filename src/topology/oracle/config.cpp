#include "topology/oracle/config.hpp"

#include <stdexcept>
#include <string>

namespace tacc::topo::oracle {

OracleConfig parse_oracle_spec(std::string_view spec) {
  if (spec.empty() || spec == "exact") return {};
  throw std::invalid_argument("parse_oracle_spec: unknown spec \"" +
                              std::string(spec) + "\"; expected exact");
}

}  // namespace tacc::topo::oracle
