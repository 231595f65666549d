#include "service/protocol.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "topology/graph.hpp"
#include "topology/oracle/config.hpp"

namespace tacc::service {

namespace {

/// Splits on runs of spaces/tabs; no empty tokens.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

std::optional<double> parse_double(std::string_view token) {
  double value = 0.0;
  const auto* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::size_t> parse_size(std::string_view token) {
  std::size_t value = 0;
  const auto* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Link endpoints are topo::NodeId router ids; a larger value would wrap
/// onto another node when narrowed.
constexpr std::size_t kMaxNode = std::numeric_limits<topo::NodeId>::max();

std::optional<bool> parse_bool(std::string_view token) {
  if (token == "1" || token == "true") return true;
  if (token == "0" || token == "false") return false;
  return std::nullopt;
}

bool valid_session_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == '_' || c == '-' || c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

ParseResult fail(std::string message) {
  return ParseResult{std::nullopt, std::move(message)};
}

/// Applies one key=value option token to `request`. Keys not in `allowed`
/// (a space-separated list) are rejected so typos surface immediately.
bool apply_option(Request& request, std::string_view key,
                  std::string_view value, std::string_view allowed,
                  std::string& error) {
  const auto permitted = [&](std::string_view k) {
    // Exact-word containment in the allowed list.
    std::size_t pos = 0;
    while (pos <= allowed.size()) {
      const std::size_t next = allowed.find(' ', pos);
      const std::string_view word =
          allowed.substr(pos, next == std::string_view::npos ? allowed.size() - pos
                                                             : next - pos);
      if (word == k) return true;
      if (next == std::string_view::npos) break;
      pos = next + 1;
    }
    return false;
  };
  if (!permitted(key)) {
    error = "unknown option '" + std::string(key) + "' for this verb";
    return false;
  }

  const auto bad_value = [&] {
    error = "bad value for option '" + std::string(key) + "'";
    return false;
  };
  if (key == "timeout_ms") {
    const auto v = parse_double(value);
    if (!v || *v <= 0.0) return bad_value();
    request.timeout_ms = *v;
  } else if (key == "seed") {
    const auto v = parse_size(value);
    if (!v) return bad_value();
    request.seed = *v;
  } else if (key == "algo") {
    try {
      request.algorithm = algorithm_from_string(value);
    } catch (const std::invalid_argument&) {
      return bad_value();
    }
  } else if (key == "oracle") {
    // Validate eagerly so a typo'd spec is a parse error, not a session
    // failure later; the engine re-parses the stored string at CONFIGURE.
    try {
      (void)topo::oracle::parse_oracle_spec(value);
    } catch (const std::invalid_argument& e) {
      error = "bad value for option 'oracle': ";
      error += e.what();
      return false;
    }
    request.oracle = std::string(value);
  } else if (key == "preset") {
    if (value == "smart_city") {
      request.preset = ScenarioPreset::kSmartCity;
    } else if (value == "factory") {
      request.preset = ScenarioPreset::kFactory;
    } else if (value == "campus") {
      request.preset = ScenarioPreset::kCampus;
    } else {
      return bad_value();
    }
  } else if (key == "demand") {
    const auto v = parse_double(value);
    if (!v || *v <= 0.0) return bad_value();
    request.demand = *v;
  } else if (key == "rate") {
    const auto v = parse_double(value);
    if (!v || *v <= 0.0) return bad_value();
    request.rate_hz = *v;
  } else if (key == "pinned") {
    const auto v = parse_bool(value);
    if (!v) return bad_value();
    request.pinned = *v;
  } else if (key == "evacuate") {
    const auto v = parse_bool(value);
    if (!v) return bad_value();
    request.evacuate = *v;
  } else if (key == "limit") {
    const auto v = parse_size(value);
    if (!v || *v == 0) return bad_value();
    request.limit = *v;
  } else if (key == "shards") {
    const auto v = parse_bool(value);
    if (!v) return bad_value();
    request.per_shard = *v;
  } else if (key == "moves") {
    const auto v = parse_size(value);
    if (!v || *v == 0) return bad_value();
    request.reopt_moves = *v;
  } else if (key == "device_moves") {
    const auto v = parse_size(value);
    if (!v || *v == 0) return bad_value();
    request.reopt_device_moves = *v;
  } else if (key == "window_s") {
    const auto v = parse_double(value);
    if (!v || *v <= 0.0) return bad_value();
    request.reopt_window_s = *v;
  } else if (key == "interval_ms") {
    const auto v = parse_double(value);
    if (!v || *v <= 0.0) return bad_value();
    request.reopt_interval_ms = *v;
  } else {
    error = "unhandled option '" + std::string(key) + "'";
    return false;
  }
  return true;
}

/// Consumes trailing key=value tokens starting at `first`.
bool apply_options(Request& request,
                   const std::vector<std::string_view>& tokens,
                   std::size_t first, std::string_view allowed,
                   std::string& error) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      error = "expected key=value option, got '" + std::string(token) + "'";
      return false;
    }
    if (!apply_option(request, token.substr(0, eq), token.substr(eq + 1),
                      allowed, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view to_string(Verb verb) noexcept {
  switch (verb) {
    case Verb::kConfigure: return "CONFIGURE";
    case Verb::kJoin: return "JOIN";
    case Verb::kMove: return "MOVE";
    case Verb::kLeave: return "LEAVE";
    case Verb::kFail: return "FAIL";
    case Verb::kRecover: return "RECOVER";
    case Verb::kEvacuate: return "EVACUATE";
    case Verb::kLinkFail: return "LINK_FAIL";
    case Verb::kLinkRestore: return "LINK_RESTORE";
    case Verb::kLinkSet: return "LINK_SET";
    case Verb::kLinks: return "LINKS";
    case Verb::kReoptStart: return "REOPT_START";
    case Verb::kReoptStop: return "REOPT_STOP";
    case Verb::kReoptStats: return "REOPT_STATS";
    case Verb::kOracleStats: return "ORACLE_STATS";
    case Verb::kSleep: return "SLEEP";
    case Verb::kStats: return "STATS";
    case Verb::kPing: return "PING";
    case Verb::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "BAD_REQUEST";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "?";
}

std::string_view to_string(ScenarioPreset preset) noexcept {
  switch (preset) {
    case ScenarioPreset::kSmartCity: return "smart_city";
    case ScenarioPreset::kFactory: return "factory";
    case ScenarioPreset::kCampus: return "campus";
  }
  return "?";
}

ParseResult parse_request(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = tokenize(line);
  if (tokens.empty()) return fail("empty request");

  Request request;
  std::string error;
  const std::string_view verb = tokens[0];

  const auto session_at = [&](std::size_t i) {
    if (i >= tokens.size()) {
      error = "missing session name";
      return false;
    }
    if (!valid_session_name(tokens[i])) {
      error = "bad session name '" + std::string(tokens[i]) +
              "' (1-64 chars of [A-Za-z0-9_.:-])";
      return false;
    }
    request.session = std::string(tokens[i]);
    return true;
  };
  const auto double_at = [&](std::size_t i, double& out,
                             std::string_view what) {
    if (i >= tokens.size()) {
      error = "missing " + std::string(what);
      return false;
    }
    const auto v = parse_double(tokens[i]);
    if (!v) {
      error = "bad " + std::string(what) + " '" + std::string(tokens[i]) + "'";
      return false;
    }
    out = *v;
    return true;
  };
  const auto size_at = [&](std::size_t i, std::size_t& out,
                           std::string_view what,
                           std::size_t max =
                               std::numeric_limits<std::size_t>::max()) {
    if (i >= tokens.size()) {
      error = "missing " + std::string(what);
      return false;
    }
    const auto v = parse_size(tokens[i]);
    if (!v || *v > max) {
      error = "bad " + std::string(what) + " '" + std::string(tokens[i]) + "'";
      return false;
    }
    out = *v;
    return true;
  };
  const auto options_from = [&](std::size_t first, std::string_view allowed) {
    return apply_options(request, tokens, first, allowed, error);
  };
  const auto done = [&]() -> ParseResult {
    return ParseResult{std::move(request), {}};
  };

  if (verb == "CONFIGURE") {
    request.verb = Verb::kConfigure;
    if (!session_at(1) || !size_at(2, request.iot, "iot count") ||
        !size_at(3, request.edge, "edge count") ||
        !options_from(4, "seed algo preset oracle timeout_ms")) {
      return fail(std::move(error));
    }
    if (request.iot == 0 || request.edge == 0) {
      return fail("iot and edge counts must be positive");
    }
    return done();
  }
  if (verb == "JOIN") {
    request.verb = Verb::kJoin;
    if (!session_at(1) || !double_at(2, request.x, "x coordinate") ||
        !double_at(3, request.y, "y coordinate") ||
        !options_from(4, "demand rate timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "MOVE") {
    request.verb = Verb::kMove;
    if (!session_at(1) || !size_at(2, request.index, "device index") ||
        !double_at(3, request.x, "x coordinate") ||
        !double_at(4, request.y, "y coordinate") ||
        !options_from(5, "pinned timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "LEAVE") {
    request.verb = Verb::kLeave;
    if (!session_at(1) || !size_at(2, request.index, "device index") ||
        !options_from(3, "timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "FAIL" || verb == "RECOVER" || verb == "EVACUATE") {
    request.verb = verb == "FAIL"      ? Verb::kFail
                   : verb == "RECOVER" ? Verb::kRecover
                                       : Verb::kEvacuate;
    const std::string_view allowed =
        verb == "FAIL" ? "evacuate timeout_ms" : "timeout_ms";
    if (!session_at(1) || !size_at(2, request.index, "server index") ||
        !options_from(3, allowed)) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "LINK_FAIL" || verb == "LINK_RESTORE") {
    request.verb = verb == "LINK_FAIL" ? Verb::kLinkFail : Verb::kLinkRestore;
    if (!session_at(1) ||
        !size_at(2, request.link_u, "link endpoint u", kMaxNode) ||
        !size_at(3, request.link_v, "link endpoint v", kMaxNode) ||
        !options_from(4, "timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "LINK_SET") {
    request.verb = Verb::kLinkSet;
    if (!session_at(1) ||
        !size_at(2, request.link_u, "link endpoint u", kMaxNode) ||
        !size_at(3, request.link_v, "link endpoint v", kMaxNode) ||
        !double_at(4, request.latency_ms, "latency ms") ||
        !options_from(5, "timeout_ms")) {
      return fail(std::move(error));
    }
    if (request.latency_ms <= 0.0) {
      return fail("latency ms must be positive");
    }
    return done();
  }
  if (verb == "LINKS") {
    request.verb = Verb::kLinks;
    if (!session_at(1) || !options_from(2, "limit timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "REOPT_START") {
    request.verb = Verb::kReoptStart;
    if (!session_at(1) ||
        !options_from(2,
                      "moves device_moves window_s interval_ms timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "REOPT_STOP" || verb == "REOPT_STATS") {
    request.verb =
        verb == "REOPT_STOP" ? Verb::kReoptStop : Verb::kReoptStats;
    if (!session_at(1) || !options_from(2, "timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "ORACLE_STATS") {
    request.verb = Verb::kOracleStats;
    if (!session_at(1) || !options_from(2, "timeout_ms")) {
      return fail(std::move(error));
    }
    return done();
  }
  if (verb == "SLEEP") {
    request.verb = Verb::kSleep;
    if (!session_at(1) || !double_at(2, request.sleep_ms, "sleep ms") ||
        !options_from(3, "timeout_ms")) {
      return fail(std::move(error));
    }
    if (request.sleep_ms < 0.0 || request.sleep_ms > 10'000.0) {
      return fail("sleep ms out of range [0, 10000]");
    }
    return done();
  }
  if (verb == "STATS") {
    request.verb = Verb::kStats;
    // Session names cannot contain '=', so the first token either names a
    // session or starts the key=value options.
    std::size_t first_option = 1;
    if (tokens.size() > 1 && tokens[1].find('=') == std::string_view::npos) {
      if (!session_at(1)) return fail(std::move(error));
      first_option = 2;
    }
    if (!options_from(first_option, "shards")) return fail(std::move(error));
    return done();
  }
  if (verb == "PING") {
    request.verb = Verb::kPing;
    if (tokens.size() > 1) return fail("PING takes no arguments");
    return done();
  }
  if (verb == "SHUTDOWN") {
    request.verb = Verb::kShutdown;
    if (tokens.size() > 1) return fail("SHUTDOWN takes no arguments");
    return done();
  }
  return fail("unknown verb '" + std::string(verb) + "'");
}

std::string err_line(ErrorCode code, std::string_view message) {
  std::string line = "ERR ";
  line += to_string(code);
  if (!message.empty()) {
    line += ' ';
    line += message;
  }
  return line;
}

OkLine& OkLine::field(std::string_view key, std::string_view value) {
  line_ += ' ';
  line_ += key;
  line_ += '=';
  line_ += value;
  return *this;
}

OkLine& OkLine::field(std::string_view key, std::size_t value) {
  return field(key, std::to_string(value));
}

OkLine& OkLine::field(std::string_view key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return field(key, std::string_view(buffer));
}

OkLine& OkLine::field(std::string_view key, bool value) {
  return field(key, std::string_view(value ? "1" : "0"));
}

}  // namespace tacc::service
