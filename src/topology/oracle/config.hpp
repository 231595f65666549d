// The delay-oracle spec (see oracle.hpp).
//
// Deliberately a light header — core/configurator.hpp embeds an OracleConfig
// in every ConfigureRequest, and the service layer parses the CONFIGURE
// wire option oracle= into one. The oracle itself lives in oracle.hpp.
#pragma once

#include <string_view>

namespace tacc::topo::oracle {

/// Everything needed to build a DelayOracle. There is one backend, the exact
/// one, so there is nothing to choose or tune: the struct keeps
/// ConfigureRequest's and the wire spec's shape.
struct OracleConfig {
  friend bool operator==(const OracleConfig&, const OracleConfig&) = default;
};

/// Parses the spec accepted by the CONFIGURE wire option oracle=: "exact",
/// or empty for the same default. Throws std::invalid_argument on anything
/// else.
[[nodiscard]] OracleConfig parse_oracle_spec(std::string_view spec);

}  // namespace tacc::topo::oracle
