#include "topology/oracle/config.hpp"

#include <charconv>
#include <stdexcept>

namespace tacc::topo::oracle {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw std::invalid_argument(
      "parse_oracle_spec: " + why + " in \"" + std::string(spec) +
      "\"; expected exact[,compress=0|1][,hot=N] or "
      "landmark[,k=N][,eps=X][,hot=N][,seed=N]");
}

double parse_number(std::string_view spec, std::string_view key,
                    std::string_view value) {
  double out = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    bad_spec(spec, "malformed value for " + std::string(key));
  }
  return out;
}

}  // namespace

std::string_view to_string(OracleBackend backend) noexcept {
  switch (backend) {
    case OracleBackend::kExact:
      return "exact";
    case OracleBackend::kLandmark:
      return "landmark";
  }
  return "exact";
}

OracleConfig parse_oracle_spec(std::string_view spec) {
  OracleConfig config;
  if (spec.empty()) return config;

  std::size_t start = 0;
  bool first = true;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string_view token =
        spec.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    start = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (first) {
      first = false;
      if (token == "exact") {
        config.backend = OracleBackend::kExact;
      } else if (token == "landmark") {
        config.backend = OracleBackend::kLandmark;
      } else {
        bad_spec(spec, "unknown backend \"" + std::string(token) + "\"");
      }
      continue;
    }
    if (token.empty()) bad_spec(spec, "empty parameter");
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      bad_spec(spec, "parameter without '=' (\"" + std::string(token) + "\")");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    const bool landmark = config.backend == OracleBackend::kLandmark;
    if (key == "k" && landmark) {
      const double k = parse_number(spec, key, value);
      if (k < 1.0 || k != static_cast<double>(static_cast<std::size_t>(k))) {
        bad_spec(spec, "k must be a positive integer");
      }
      config.landmarks = static_cast<std::size_t>(k);
    } else if (key == "eps" && landmark) {
      const double eps = parse_number(spec, key, value);
      if (eps < 0.0 || eps > 10.0) bad_spec(spec, "eps must be in [0, 10]");
      config.max_rel_error = eps;
    } else if (key == "seed" && landmark) {
      config.seed = static_cast<std::uint64_t>(parse_number(spec, key, value));
    } else if (key == "compress" && !landmark) {
      const double flag = parse_number(spec, key, value);
      if (flag != 0.0 && flag != 1.0) bad_spec(spec, "compress must be 0 or 1");
      config.compress = flag != 0.0;
    } else if (key == "hot") {
      const double hot = parse_number(spec, key, value);
      if (hot < 1.0) bad_spec(spec, "hot must be >= 1");
      config.hot_rows = static_cast<std::size_t>(hot);
    } else {
      bad_spec(spec, "unknown key \"" + std::string(key) + "\" for backend " +
                         std::string(to_string(config.backend)));
    }
  }
  return config;
}

std::string to_string(const OracleConfig& config) {
  std::string out(to_string(config.backend));
  if (config.backend == OracleBackend::kLandmark) {
    out += ",k=" + std::to_string(config.landmarks);
    out += ",eps=" + std::to_string(config.max_rel_error);
    out += ",seed=" + std::to_string(config.seed);
  } else {
    out += ",compress=" + std::to_string(config.compress ? 1 : 0);
  }
  out += ",hot=" + std::to_string(config.hot_rows);
  return out;
}

}  // namespace tacc::topo::oracle
