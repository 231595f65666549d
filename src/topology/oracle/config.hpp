// Backend selection for the pluggable delay oracle (see oracle.hpp).
//
// Deliberately a light header — core/configurator.hpp embeds an OracleConfig
// in every ConfigureRequest, and the service layer parses wire specs
// ("exact", "landmark,k=8,eps=0.2") into one. The heavy machinery lives in
// oracle.hpp / exact.hpp / landmark.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tacc::topo::oracle {

enum class OracleBackend : std::uint8_t {
  kExact,     ///< rows filled from the engine's trees (bit-exact when dense)
  kLandmark,  ///< landmark/ALT envelopes with exact fallback
};

[[nodiscard]] std::string_view to_string(OracleBackend backend) noexcept;

/// Everything needed to build a DelayOracle (see make_oracle in oracle.hpp).
/// Defaults reproduce today's behavior exactly: the exact backend with no
/// row compression.
struct OracleConfig {
  OracleBackend backend = OracleBackend::kExact;
  /// Landmark count k (farthest-point sampled over router nodes).
  std::size_t landmarks = 8;
  /// Max certified relative error eps: a bound envelope [lo, hi] is served
  /// only when hi <= lo * (1 + eps) (+ tiny absolute slack); otherwise the
  /// entry falls back to an exact shortest-path value.
  double max_rel_error = 0.1;
  /// Exact backend only: keep rows in the bounded row store (LRU hot set
  /// of exact rows, uint16-quantized cold rows) instead of dense. Opt-in:
  /// it trades bit-exactness for bounded memory. The landmark backend is
  /// always bounded and rejects the key.
  bool compress = false;
  /// Hot (exact, uncompressed) rows kept by a bounded row store; the cold
  /// quantized tier holds kColdPerHot x this many rows.
  std::size_t hot_rows = 64;
  /// Seed for the deterministic landmark selection.
  std::uint64_t seed = 1;

  friend bool operator==(const OracleConfig&, const OracleConfig&) = default;
};

/// Parses "exact[,compress=0|1][,hot=N]" or
/// "landmark[,k=N][,eps=X][,hot=N][,seed=N]" — the same spec
/// accepted by `taccd --oracle=` and the CONFIGURE wire option. Throws
/// std::invalid_argument (listing the valid keys) on an unknown backend,
/// unknown key, or out-of-range value. An empty spec means the default
/// exact backend.
[[nodiscard]] OracleConfig parse_oracle_spec(std::string_view spec);

/// Canonical spec round-trip: parse_oracle_spec(to_string(c)) == c for every
/// parsed config (a landmark spec never carries compress=).
[[nodiscard]] std::string to_string(const OracleConfig& config);

}  // namespace tacc::topo::oracle
