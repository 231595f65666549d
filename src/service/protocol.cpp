#include "service/protocol.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>
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

/// A size or a finite double; from_chars alone would accept nan and inf.
template <typename T>
std::optional<T> parse_number(std::string_view token) {
  T value{};
  const auto* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

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

// ---- Option keys -----------------------------------------------------------
// A handler parses one option value into the request and returns false when
// the value is malformed; it may leave a detail for the error message.

using OptionHandler = bool (*)(Request&, std::string_view, std::string&);

/// A 0|1 flag, or a positive size or double, into the Request field.
template <auto Field>
bool set_field(Request& request, std::string_view value, std::string&) {
  using T = std::remove_reference_t<decltype(request.*Field)>;
  if constexpr (std::is_same_v<T, bool>) {
    const auto v = parse_bool(value);
    if (v) request.*Field = *v;
    return v.has_value();
  } else {
    const auto v = parse_number<T>(value);
    if (!v || *v <= T{0}) return false;
    request.*Field = *v;
    return true;
  }
}

bool timeout_option(Request& request, std::string_view value, std::string&) {
  const auto v = parse_number<double>(value);
  if (!v || *v <= 0.0 || *v > kMaxTimeoutMs) return false;
  request.timeout_ms = *v;
  return true;
}

/// window_s=: positive here (0 is the engine default, not a wire value).
bool window_option(Request& request, std::string_view value, std::string&) {
  const auto v = parse_number<double>(value);
  if (!v || *v <= 0.0 || !reopt_window_ok(*v)) return false;
  request.reopt_window_s = *v;
  return true;
}

bool interval_option(Request& request, std::string_view value,
                     std::string&) {
  const auto v = parse_number<double>(value);
  if (!v || !reopt_interval_ok(*v)) return false;
  request.reopt_interval_ms = *v;
  return true;
}

bool seed_option(Request& request, std::string_view value, std::string&) {
  const auto v = parse_number<std::size_t>(value);
  if (v) request.seed = *v;
  return v.has_value();
}

bool algo_option(Request& request, std::string_view value, std::string&) {
  try {
    request.algorithm = algorithm_from_string(value);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

bool oracle_option(Request& request, std::string_view value,
                   std::string& detail) {
  // Validate eagerly so a typo'd spec is a parse error, not a session
  // failure later; the engine re-parses the stored string on configure.
  try {
    (void)topo::oracle::parse_oracle_spec(value);
  } catch (const std::invalid_argument& e) {
    detail = e.what();
    return false;
  }
  request.oracle = std::string(value);
  return true;
}

bool preset_option(Request& request, std::string_view value, std::string&) {
  for (const ScenarioPreset preset :
       {ScenarioPreset::kSmartCity, ScenarioPreset::kFactory,
        ScenarioPreset::kCampus}) {
    if (value == to_string(preset)) {
      request.preset = preset;
      return true;
    }
  }
  return false;
}

enum OptionBit : std::uint16_t {
  kTimeout = 1U << 0U, kSeed = 1U << 1U, kAlgo = 1U << 2U,
  kOracle = 1U << 3U, kPreset = 1U << 4U, kDemand = 1U << 5U,
  kRate = 1U << 6U, kPinned = 1U << 7U, kEvacuate = 1U << 8U,
  kLimit = 1U << 9U, kShards = 1U << 10U, kMoves = 1U << 11U,
  kDeviceMoves = 1U << 12U, kWindow = 1U << 13U, kInterval = 1U << 14U
};

struct OptionKey {
  std::string_view key;
  OptionBit bit;
  OptionHandler apply;
};

constexpr OptionKey kOptionKeys[] = {
    {"timeout_ms", kTimeout, &timeout_option},
    {"seed", kSeed, &seed_option},
    {"algo", kAlgo, &algo_option},
    {"oracle", kOracle, &oracle_option},
    {"preset", kPreset, &preset_option},
    {"demand", kDemand, &set_field<&Request::demand>},
    {"rate", kRate, &set_field<&Request::rate_hz>},
    {"pinned", kPinned, &set_field<&Request::pinned>},
    {"evacuate", kEvacuate, &set_field<&Request::evacuate>},
    {"limit", kLimit, &set_field<&Request::limit>},
    {"shards", kShards, &set_field<&Request::per_shard>},
    {"moves", kMoves, &set_field<&Request::reopt_moves>},
    {"device_moves", kDeviceMoves, &set_field<&Request::reopt_device_moves>},
    {"window_s", kWindow, &window_option},
    {"interval_ms", kInterval, &interval_option},
};

// ---- Verb table: the wire grammar ------------------------------------------

enum SessionRule : std::uint8_t { kSession, kOptionalSession, kNoSession };

/// One positional argument after the session: a size (at most `max`) or a
/// double, stored into its Request field; `noun` names it in errors.
struct Arg {
  std::string_view noun;
  std::size_t Request::*size = nullptr;
  double Request::*real = nullptr;
  std::size_t max = std::numeric_limits<std::size_t>::max();
};
using Args = std::array<Arg, 3>;  ///< in order; unused slots have no noun

constexpr Arg kIot = {.noun = "iot count", .size = &Request::iot};
constexpr Arg kEdge = {.noun = "edge count", .size = &Request::edge};
constexpr Arg kX = {.noun = "x coordinate", .real = &Request::x};
constexpr Arg kY = {.noun = "y coordinate", .real = &Request::y};
constexpr Arg kDevice = {.noun = "device index", .size = &Request::index};
constexpr Arg kServer = {.noun = "server index", .size = &Request::index};
// Link endpoints are topo::NodeId router ids; a larger value would wrap onto
// another node when narrowed.
constexpr std::size_t kMaxNode = std::numeric_limits<topo::NodeId>::max();
constexpr Arg kEndU = {"link endpoint u", &Request::link_u, nullptr, kMaxNode};
constexpr Arg kEndV = {"link endpoint v", &Request::link_v, nullptr, kMaxNode};
constexpr Arg kLatency = {.noun = "latency ms", .real = &Request::latency_ms};
constexpr Arg kSleepMs = {.noun = "sleep ms", .real = &Request::sleep_ms};

struct VerbRow {
  Verb verb;
  std::string_view name;
  SessionRule session;
  Args args;
  std::uint16_t options;  ///< OptionBit mask of the accepted keys
};

constexpr VerbRow kVerbs[] = {
    {Verb::kConfigure, "CONFIGURE", kSession, {kIot, kEdge},
     kSeed | kAlgo | kPreset | kOracle | kTimeout},
    {Verb::kJoin, "JOIN", kSession, {kX, kY}, kDemand | kRate | kTimeout},
    {Verb::kMove, "MOVE", kSession, {kDevice, kX, kY}, kPinned | kTimeout},
    {Verb::kLeave, "LEAVE", kSession, {kDevice}, kTimeout},
    {Verb::kFail, "FAIL", kSession, {kServer}, kEvacuate | kTimeout},
    {Verb::kRecover, "RECOVER", kSession, {kServer}, kTimeout},
    {Verb::kEvacuate, "EVACUATE", kSession, {kServer}, kTimeout},
    {Verb::kLinkFail, "LINK_FAIL", kSession, {kEndU, kEndV}, kTimeout},
    {Verb::kLinkRestore, "LINK_RESTORE", kSession, {kEndU, kEndV}, kTimeout},
    {Verb::kLinkSet, "LINK_SET", kSession, {kEndU, kEndV, kLatency}, kTimeout},
    {Verb::kLinks, "LINKS", kSession, {}, kLimit | kTimeout},
    {Verb::kReoptStart, "REOPT_START", kSession, {},
     kMoves | kDeviceMoves | kWindow | kInterval | kTimeout},
    {Verb::kReoptStop, "REOPT_STOP", kSession, {}, kTimeout},
    {Verb::kReoptStats, "REOPT_STATS", kSession, {}, kTimeout},
    {Verb::kOracleStats, "ORACLE_STATS", kSession, {}, kTimeout},
    {Verb::kSleep, "SLEEP", kSession, {kSleepMs}, kTimeout},
    {Verb::kStats, "STATS", kOptionalSession, {}, kShards},
    {Verb::kPing, "PING", kNoSession, {}, 0},
    {Verb::kShutdown, "SHUTDOWN", kNoSession, {}, 0},
};

constexpr bool rows_follow_verbs() {
  for (std::size_t i = 0; i < std::size(kVerbs); ++i) {
    if (kVerbs[i].verb != static_cast<Verb>(i)) return false;
  }
  return std::size(kVerbs) == static_cast<std::size_t>(Verb::kShutdown) + 1;
}
static_assert(rows_follow_verbs(), "kVerbs must list every Verb in order");

/// Applies one key=value option token to `request`. Keys outside the verb's
/// mask are rejected so typos surface immediately.
bool apply_option(Request& request, std::string_view token,
                  std::uint16_t allowed, std::string& error) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    error = "expected key=value option, got '" + std::string(token) + "'";
    return false;
  }
  const std::string_view key = token.substr(0, eq);
  for (const OptionKey& option : kOptionKeys) {
    if (option.key != key || (allowed & option.bit) == 0) continue;
    std::string detail;
    if (option.apply(request, token.substr(eq + 1), detail)) return true;
    error = "bad value for option '" + std::string(key) + "'";
    if (!detail.empty()) error += ": " + detail;
    return false;
  }
  error = "unknown option '" + std::string(key) + "' for this verb";
  return false;
}

/// Parses positional `token` as `arg` describes into `request`.
bool apply_arg(Request& request, const Arg& arg, std::string_view token) {
  if (arg.real != nullptr) {
    const auto v = parse_number<double>(token);
    if (v) request.*arg.real = *v;
    return v.has_value();
  }
  const auto v = parse_number<std::size_t>(token);
  if (!v || *v > arg.max) return false;
  request.*arg.size = *v;
  return true;
}

}  // namespace

std::string_view to_string(Verb verb) noexcept {
  const auto index = static_cast<std::size_t>(verb);
  return index < std::size(kVerbs) ? kVerbs[index].name : "?";
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

  const VerbRow* row = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                                    [&](const VerbRow& candidate) {
                                      return candidate.name == tokens[0];
                                    });
  if (row == std::end(kVerbs)) {
    return fail("unknown verb '" + std::string(tokens[0]) + "'");
  }
  if (row->session == kNoSession && tokens.size() > 1) {
    return fail(std::string(row->name) + " takes no arguments");
  }

  Request request;
  request.verb = row->verb;
  std::size_t next = 1;
  // Session names cannot contain '=', so an optional session is present
  // exactly when the first argument is not a key=value option.
  if (row->session == kSession ||
      (row->session == kOptionalSession && tokens.size() > 1 &&
       tokens[1].find('=') == std::string_view::npos)) {
    if (tokens.size() < 2) return fail("missing session name");
    if (!valid_session_name(tokens[1])) {
      return fail("bad session name '" + std::string(tokens[1]) +
                  "' (1-64 chars of [A-Za-z0-9_.:-])");
    }
    request.session = std::string(tokens[1]);
    next = 2;
  }

  for (const Arg& arg : row->args) {
    if (arg.noun.empty()) break;
    if (next >= tokens.size()) return fail("missing " + std::string(arg.noun));
    const std::string_view token = tokens[next++];
    if (!apply_arg(request, arg, token)) {
      return fail("bad " + std::string(arg.noun) + " '" + std::string(token) +
                  "'");
    }
  }
  std::string error;
  for (; next < tokens.size(); ++next) {
    if (!apply_option(request, tokens[next], row->options, error)) {
      return fail(std::move(error));
    }
  }
  if (request.verb == Verb::kConfigure &&
      (request.iot == 0 || request.edge == 0)) {
    return fail("iot and edge counts must be positive");
  }
  if (request.verb == Verb::kLinkSet && request.latency_ms <= 0.0) {
    return fail("latency ms must be positive");
  }
  if (request.verb == Verb::kSleep &&
      (request.sleep_ms < 0.0 || request.sleep_ms > 10'000.0)) {
    return fail("sleep ms out of range [0, 10000]");
  }
  return ParseResult{std::move(request), {}};
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
