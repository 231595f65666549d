// Wire-protocol unit tests: parse_request over every verb, the malformed
// lines a hostile or buggy client can send, and the response formatters.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace tacc::service {
namespace {

Request parse_ok(const std::string& line) {
  const ParseResult result = parse_request(line);
  EXPECT_TRUE(result.ok()) << "'" << line << "': " << result.error;
  return result.request.value_or(Request{});
}

std::string parse_error(const std::string& line) {
  const ParseResult result = parse_request(line);
  EXPECT_FALSE(result.ok()) << "'" << line << "' parsed unexpectedly";
  EXPECT_FALSE(result.error.empty());
  return result.error;
}

// ---- Happy paths -----------------------------------------------------------

TEST(Protocol, ConfigureDefaults) {
  const Request r = parse_ok("CONFIGURE city 200 10");
  EXPECT_EQ(r.verb, Verb::kConfigure);
  EXPECT_EQ(r.session, "city");
  EXPECT_EQ(r.iot, 200u);
  EXPECT_EQ(r.edge, 10u);
  EXPECT_EQ(r.seed, 1u);
  EXPECT_EQ(r.algorithm, Algorithm::kGreedyBestFit);
  EXPECT_EQ(r.preset, ScenarioPreset::kSmartCity);
  EXPECT_FALSE(r.timeout_ms.has_value());
}

TEST(Protocol, ConfigureWithAllOptions) {
  const Request r = parse_ok(
      "CONFIGURE f1 50 5 seed=42 algo=local-search preset=factory "
      "timeout_ms=250");
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.algorithm, Algorithm::kLocalSearch);
  EXPECT_EQ(r.preset, ScenarioPreset::kFactory);
  ASSERT_TRUE(r.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*r.timeout_ms, 250.0);
}

TEST(Protocol, JoinParsesCoordinatesAndLoad) {
  const Request r = parse_ok("JOIN city 1.5 -2.25 demand=2.5 rate=10");
  EXPECT_EQ(r.verb, Verb::kJoin);
  EXPECT_DOUBLE_EQ(r.x, 1.5);
  EXPECT_DOUBLE_EQ(r.y, -2.25);
  EXPECT_DOUBLE_EQ(r.demand, 2.5);
  EXPECT_DOUBLE_EQ(r.rate_hz, 10.0);
}

TEST(Protocol, MoveParsesDeviceAndPinned) {
  const Request r = parse_ok("MOVE city 17 3.0 4.0 pinned=1");
  EXPECT_EQ(r.verb, Verb::kMove);
  EXPECT_EQ(r.index, 17u);
  EXPECT_TRUE(r.pinned);
  EXPECT_FALSE(parse_ok("MOVE city 17 3.0 4.0").pinned);
}

TEST(Protocol, ServerVerbsParseIndex) {
  EXPECT_EQ(parse_ok("LEAVE s 3").verb, Verb::kLeave);
  EXPECT_EQ(parse_ok("FAIL s 2").verb, Verb::kFail);
  EXPECT_TRUE(parse_ok("FAIL s 2").evacuate);  // evacuation is the default
  EXPECT_FALSE(parse_ok("FAIL s 2 evacuate=0").evacuate);
  EXPECT_EQ(parse_ok("RECOVER s 2").verb, Verb::kRecover);
  EXPECT_EQ(parse_ok("EVACUATE s 2").verb, Verb::kEvacuate);
  EXPECT_EQ(parse_ok("EVACUATE s 2").index, 2u);
}

TEST(Protocol, LinkVerbsParseEndpoints) {
  const Request failed = parse_ok("LINK_FAIL s 12 34");
  EXPECT_EQ(failed.verb, Verb::kLinkFail);
  EXPECT_EQ(failed.link_u, 12u);
  EXPECT_EQ(failed.link_v, 34u);
  EXPECT_EQ(parse_ok("LINK_RESTORE s 12 34").verb, Verb::kLinkRestore);

  const Request set = parse_ok("LINK_SET s 12 34 7.5 timeout_ms=100");
  EXPECT_EQ(set.verb, Verb::kLinkSet);
  EXPECT_DOUBLE_EQ(set.latency_ms, 7.5);
  ASSERT_TRUE(set.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*set.timeout_ms, 100.0);

  EXPECT_EQ(parse_ok("LINKS s").verb, Verb::kLinks);
  EXPECT_EQ(parse_ok("LINKS s").limit, 16u);  // default
  EXPECT_EQ(parse_ok("LINKS s limit=3").limit, 3u);
}

TEST(Protocol, LinkVerbsRejectMalformedArguments) {
  parse_error("LINK_FAIL s 12");          // missing endpoint
  parse_error("LINK_FAIL s a b");         // non-numeric endpoints
  parse_error("LINK_RESTORE s -1 2");     // negative endpoint
  parse_error("LINK_SET s 1 2");          // missing latency
  parse_error("LINK_SET s 1 2 0");        // latency must be positive
  parse_error("LINK_SET s 1 2 -3.5");
  parse_error("LINK_FAIL s 1 2 limit=4");  // limit is LINKS-only
  parse_error("LINKS s limit=0");
  parse_error("LINKS s 5");  // bare token, not key=value
}

TEST(Protocol, LinkEndpointsMustFitANodeId) {
  // 2^32 would wrap onto node 0 when narrowed to topo::NodeId.
  for (const std::string verb : {"LINK_FAIL", "LINK_RESTORE", "LINK_SET"}) {
    const std::string latency = verb == "LINK_SET" ? " 7.5" : "";
    const std::string error =
        parse_error(verb + " s 4294967296 11" + latency);
    EXPECT_NE(error.find("link endpoint u"), std::string::npos) << error;
    parse_error(verb + " s 11 4294967296" + latency);
    parse_error(verb + " s 18446744073709551615 11" + latency);
    // The largest node id is still a well-formed endpoint.
    const Request max = parse_ok(verb + " s 4294967295 11" + latency);
    EXPECT_EQ(max.link_u, 4294967295u);
  }
}

TEST(Protocol, SleepStatsPingShutdown) {
  const Request sleep = parse_ok("SLEEP s 250");
  EXPECT_EQ(sleep.verb, Verb::kSleep);
  EXPECT_DOUBLE_EQ(sleep.sleep_ms, 250.0);

  EXPECT_EQ(parse_ok("STATS").session, "");
  EXPECT_EQ(parse_ok("STATS city").session, "city");
  EXPECT_EQ(parse_ok("PING").verb, Verb::kPing);
  EXPECT_EQ(parse_ok("SHUTDOWN").verb, Verb::kShutdown);
}

TEST(Protocol, StatsPerShardOption) {
  EXPECT_FALSE(parse_ok("STATS").per_shard);
  EXPECT_FALSE(parse_ok("STATS city").per_shard);
  EXPECT_FALSE(parse_ok("STATS shards=0").per_shard);

  const Request global = parse_ok("STATS shards=1");
  EXPECT_TRUE(global.per_shard);
  EXPECT_EQ(global.session, "");

  const Request scoped = parse_ok("STATS city shards=1");
  EXPECT_TRUE(scoped.per_shard);
  EXPECT_EQ(scoped.session, "city");

  parse_error("STATS shards=maybe");
  parse_error("STATS city limit=4");  // limit is LINKS-only
  parse_error("STATS shards=1 city");  // session must precede options
}

TEST(Protocol, ToleratesWhitespaceAndCarriageReturn) {
  const Request r = parse_ok("  JOIN \t city   1.0  2.0 \r");
  EXPECT_EQ(r.verb, Verb::kJoin);
  EXPECT_EQ(r.session, "city");
}

TEST(Protocol, SessionNameAcceptsFullAlphabet) {
  EXPECT_EQ(parse_ok("STATS a-b_c.d:e9").session, "a-b_c.d:e9");
  EXPECT_EQ(parse_ok("STATS " + std::string(64, 'x')).session,
            std::string(64, 'x'));
}

// ---- Malformed requests ----------------------------------------------------

TEST(Protocol, RejectsEmptyAndUnknown) {
  parse_error("");
  parse_error("   ");
  EXPECT_NE(parse_error("FROBNICATE x").find("unknown verb"),
            std::string::npos);
  parse_error("configure city 10 2");  // verbs are case-sensitive
}

TEST(Protocol, RejectsMissingAndNonNumericArguments) {
  parse_error("CONFIGURE");
  parse_error("CONFIGURE city");
  parse_error("CONFIGURE city 10");
  parse_error("CONFIGURE city ten 2");
  parse_error("CONFIGURE city 0 5");  // zero-sized scenario
  parse_error("CONFIGURE city 5 0");
  parse_error("JOIN city 1.0");
  parse_error("JOIN city abc 2.0");
  parse_error("MOVE city 1 2.0");
  parse_error("MOVE city -1 2.0 3.0");  // negative index
  parse_error("LEAVE city");
  parse_error("FAIL city x");
}

TEST(Protocol, RejectsBadSessionNames) {
  parse_error("STATS bad/name");
  parse_error("STATS " + std::string(65, 'x'));
  parse_error("JOIN 'quoted' 1 2");
}

TEST(Protocol, RejectsBadOptions) {
  // Unknown key, valid key on the wrong verb, malformed value, bare token.
  EXPECT_NE(parse_error("JOIN city 1 2 bogus=1").find("unknown option"),
            std::string::npos);
  parse_error("JOIN city 1 2 seed=7");  // seed is CONFIGURE-only
  parse_error("CONFIGURE city 10 2 algo=does-not-exist");
  parse_error("CONFIGURE city 10 2 preset=moonbase");
  parse_error("CONFIGURE city 10 2 seed=abc");
  parse_error("JOIN city 1 2 demand=-1");
  parse_error("JOIN city 1 2 rate=0");
  parse_error("MOVE city 1 2 3 pinned=maybe");
  parse_error("JOIN city 1 2 =5");
  parse_error("JOIN city 1 2 trailing");
  parse_error("JOIN city 1 2 timeout_ms=0");  // deadline must be positive
  parse_error("JOIN city 1 2 timeout_ms=-5");
}

TEST(Protocol, RejectsArgumentsOnArgumentlessVerbs) {
  parse_error("PING now");
  parse_error("SHUTDOWN please");
  parse_error("STATS one two");
  parse_error("SLEEP s 250 extra");
}

TEST(Protocol, SleepRangeIsBounded) {
  parse_error("SLEEP s -1");
  parse_error("SLEEP s 10001");
  EXPECT_DOUBLE_EQ(parse_ok("SLEEP s 10000").sleep_ms, 10'000.0);
  EXPECT_DOUBLE_EQ(parse_ok("SLEEP s 0").sleep_ms, 0.0);
}

// std::from_chars accepts nan, inf and infinity. A NaN slipped past every
// "<= 0" and range check, and an overflowing timeout_ms made the engine's
// deadline an out-of-range double-to-integer cast.
TEST(Protocol, RejectsNonFiniteNumbers) {
  EXPECT_EQ(parse_error("JOIN s nan 1"), "bad x coordinate 'nan'");
  EXPECT_EQ(parse_error("JOIN s 1 -inf"), "bad y coordinate '-inf'");
  EXPECT_EQ(parse_error("MOVE s 0 infinity 1"), "bad x coordinate 'infinity'");
  EXPECT_EQ(parse_error("SLEEP s nan"), "bad sleep ms 'nan'");
  EXPECT_EQ(parse_error("LINK_SET s 1 2 inf"), "bad latency ms 'inf'");
  EXPECT_EQ(parse_error("REOPT_START s window_s=inf"),
            "bad value for option 'window_s'");
  EXPECT_EQ(parse_error("REOPT_START s interval_ms=nan"),
            "bad value for option 'interval_ms'");
  EXPECT_EQ(parse_error("JOIN s 1 1 demand=nan"),
            "bad value for option 'demand'");
  EXPECT_EQ(parse_error("JOIN s 1 1 rate=inf"), "bad value for option 'rate'");
  // Finite but far coordinates still parse; the cluster rejects them.
  EXPECT_DOUBLE_EQ(parse_ok("JOIN s 1e308 1e308").x, 1e308);
}

TEST(Protocol, TimeoutIsFiniteAndAtMostOneDay) {
  for (const char* line :
       {"JOIN s 1 1 timeout_ms=nan", "JOIN s 1 1 timeout_ms=inf",
        "JOIN s 1 1 timeout_ms=1e300", "JOIN s 1 1 timeout_ms=86400001"}) {
    EXPECT_EQ(parse_error(line), "bad value for option 'timeout_ms'") << line;
  }
  const Request day = parse_ok("JOIN s 1 1 timeout_ms=86400000");
  ASSERT_TRUE(day.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*day.timeout_ms, 86'400'000.0);
}

// A tiny budget window overflowed the optimizer's uint64 window index, and
// a huge pass interval its nanosecond wait.
TEST(Protocol, ReoptTimingIsBounded) {
  for (const char* line :
       {"REOPT_START s window_s=1e-300", "REOPT_START s window_s=0.0009"}) {
    EXPECT_EQ(parse_error(line), "bad value for option 'window_s'") << line;
  }
  for (const char* line : {"REOPT_START s interval_ms=1e300",
                           "REOPT_START s interval_ms=86400001"}) {
    EXPECT_EQ(parse_error(line), "bad value for option 'interval_ms'")
        << line;
  }
  const Request edge =
      parse_ok("REOPT_START s window_s=0.001 interval_ms=86400000");
  EXPECT_DOUBLE_EQ(edge.reopt_window_s, kMinReoptWindowS);
  EXPECT_DOUBLE_EQ(edge.reopt_interval_ms, kMaxTimeoutMs);
}

// ---- Response formatting ---------------------------------------------------

TEST(Protocol, ErrLineFormat) {
  EXPECT_EQ(err_line(ErrorCode::kOverloaded, "queue full"),
            "ERR OVERLOADED queue full");
  EXPECT_EQ(err_line(ErrorCode::kBadRequest, ""), "ERR BAD_REQUEST");
  EXPECT_EQ(err_line(ErrorCode::kDeadlineExceeded, "expired"),
            "ERR DEADLINE_EXCEEDED expired");
}

TEST(Protocol, OkLineFormatsEveryFieldType) {
  const std::string line = OkLine()
                               .field("name", "city")
                               .field("count", std::size_t{42})
                               .field("delay", 5.25)
                               .field("feasible", true)
                               .field("pinned", false)
                               .str();
  EXPECT_EQ(line, "OK name=city count=42 delay=5.25 feasible=1 pinned=0");
}

TEST(Protocol, OkLineDoublesUseCompactPrecision) {
  // %.6g keeps lines short and round-trippable to ~6 significant digits.
  EXPECT_EQ(OkLine().field("v", 0.000125).str(), "OK v=0.000125");
  EXPECT_EQ(OkLine().field("v", 1234567.0).str(), "OK v=1.23457e+06");
}

TEST(ReoptProtocol, StartParsesBudgetOverrides) {
  const Request r = parse_ok(
      "REOPT_START city moves=8 device_moves=2 window_s=0.5 interval_ms=10 "
      "timeout_ms=250");
  EXPECT_EQ(r.verb, Verb::kReoptStart);
  EXPECT_EQ(r.session, "city");
  EXPECT_EQ(r.reopt_moves, 8u);
  EXPECT_EQ(r.reopt_device_moves, 2u);
  EXPECT_DOUBLE_EQ(r.reopt_window_s, 0.5);
  EXPECT_DOUBLE_EQ(r.reopt_interval_ms, 10.0);
  ASSERT_TRUE(r.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*r.timeout_ms, 250.0);
}

TEST(ReoptProtocol, StartDefaultsKeepEngineTuning) {
  const Request r = parse_ok("REOPT_START city");
  // Zero means "keep the engine default" for every budget knob.
  EXPECT_EQ(r.reopt_moves, 0u);
  EXPECT_EQ(r.reopt_device_moves, 0u);
  EXPECT_DOUBLE_EQ(r.reopt_window_s, 0.0);
  EXPECT_DOUBLE_EQ(r.reopt_interval_ms, 0.0);
}

TEST(ReoptProtocol, StopAndStatsParse) {
  EXPECT_EQ(parse_ok("REOPT_STOP city").verb, Verb::kReoptStop);
  EXPECT_EQ(parse_ok("REOPT_STATS city timeout_ms=50").verb,
            Verb::kReoptStats);
}

TEST(ReoptProtocol, RejectsMalformedRequests) {
  parse_error("REOPT_START");                    // missing session
  parse_error("REOPT_START city moves=abc");     // non-numeric option
  parse_error("REOPT_START city budget=5");      // unknown option
  parse_error("REOPT_STOP city moves=5");        // option not valid here
  parse_error("REOPT_STATS");                    // missing session
}

TEST(ReoptProtocol, VerbNamesRoundTrip) {
  EXPECT_EQ(to_string(Verb::kReoptStart), "REOPT_START");
  EXPECT_EQ(to_string(Verb::kReoptStop), "REOPT_STOP");
  EXPECT_EQ(to_string(Verb::kReoptStats), "REOPT_STATS");
}

TEST(OracleProtocol, ConfigureStoresValidatedSpec) {
  EXPECT_EQ(parse_ok("CONFIGURE city 50 5 oracle=exact").oracle, "exact");
  // Absent option leaves the spec empty: the same exact backend.
  EXPECT_TRUE(parse_ok("CONFIGURE city 50 5").oracle.empty());
}

TEST(OracleProtocol, RejectsMalformedSpecsEagerly) {
  // A typo'd spec must fail at parse time, not at CONFIGURE apply time.
  EXPECT_NE(parse_error("CONFIGURE city 50 5 oracle=alt")
                .find("bad value for option 'oracle'"),
            std::string::npos);
  // "exact" is the whole grammar: no other backend, no keys.
  parse_error("CONFIGURE city 50 5 oracle=landmark,k=4,eps=0.2");
  parse_error("CONFIGURE city 50 5 oracle=exact,compress=1");
  parse_error("CONFIGURE city 50 5 oracle=exact,hot=8");
  parse_error("JOIN city 1 2 oracle=exact");  // CONFIGURE-only option
}

TEST(OracleProtocol, StatsParsesAndRoundTrips) {
  const Request r = parse_ok("ORACLE_STATS city timeout_ms=50");
  EXPECT_EQ(r.verb, Verb::kOracleStats);
  EXPECT_EQ(r.session, "city");
  ASSERT_TRUE(r.timeout_ms.has_value());
  EXPECT_DOUBLE_EQ(*r.timeout_ms, 50.0);
  parse_error("ORACLE_STATS");             // missing session
  parse_error("ORACLE_STATS city k=4");    // unknown option
  EXPECT_EQ(to_string(Verb::kOracleStats), "ORACLE_STATS");
}

// ---- Golden parse corpus ---------------------------------------------------
//
// Every verb's minimal line, each positional missing or replaced by a hostile
// token, each option key with a valid and an invalid value, and a trailing
// bare token. The outcome of every line (the exact error text, or every
// Request field) is pinned in tests/data/protocol_corpus.golden, so a
// grammar refactor must leave accepted requests and error texts unchanged.
// Non-finite tokens (nan, inf) are deliberately absent: they are covered by
// targeted tests below.

struct CorpusVerb {
  const char* name;
  std::vector<std::string> positionals;  // a valid value for each
};

std::vector<std::string> golden_corpus() {
  const std::vector<CorpusVerb> verbs = {
      {"CONFIGURE", {"s", "10", "2"}},
      {"JOIN", {"s", "1.5", "-2.25"}},
      {"MOVE", {"s", "3", "1.5", "-2.25"}},
      {"LEAVE", {"s", "3"}},
      {"FAIL", {"s", "2"}},
      {"RECOVER", {"s", "2"}},
      {"EVACUATE", {"s", "2"}},
      {"LINK_FAIL", {"s", "12", "34"}},
      {"LINK_RESTORE", {"s", "12", "34"}},
      {"LINK_SET", {"s", "12", "34", "7.5"}},
      {"LINKS", {"s"}},
      {"REOPT_START", {"s"}},
      {"REOPT_STOP", {"s"}},
      {"REOPT_STATS", {"s"}},
      {"ORACLE_STATS", {"s"}},
      {"SLEEP", {"s", "250"}},
      {"STATS", {"s"}},
      {"PING", {}},
      {"SHUTDOWN", {}},
  };
  const std::vector<std::string> bad_tokens = {
      "x", "-1", "0", "4294967296", "99999999999999999999", "bad/name"};
  const std::vector<std::pair<std::string, std::string>> options = {
      {"timeout_ms=250", "timeout_ms=0"},
      {"seed=42", "seed=abc"},
      {"algo=local-search", "algo=does-not-exist"},
      {"oracle=exact", "oracle=alt"},
      {"preset=factory", "preset=moonbase"},
      {"demand=2.5", "demand=-1"},
      {"rate=10", "rate=0"},
      {"pinned=1", "pinned=maybe"},
      {"evacuate=0", "evacuate=maybe"},
      {"limit=3", "limit=0"},
      {"shards=1", "shards=maybe"},
      {"moves=8", "moves=0"},
      {"device_moves=2", "device_moves=0"},
      {"window_s=0.5", "window_s=0"},
      {"interval_ms=10", "interval_ms=-3"},
  };
  const auto join = [](const std::string& verb,
                       const std::vector<std::string>& args) {
    std::string line = verb;
    for (const std::string& arg : args) line += " " + arg;
    return line;
  };

  std::vector<std::string> corpus = {
      "",           "   ",           "FROBNICATE s",      "ping",
      "\tJOIN  s\t1 2\r", "STATS shards=1", "STATS shards=1 s", "STATS s t"};
  for (const CorpusVerb& verb : verbs) {
    const std::string minimal = join(verb.name, verb.positionals);
    corpus.push_back(minimal);
    for (std::size_t i = 0; i < verb.positionals.size(); ++i) {
      // Truncated before positional i, then positional i alone dropped.
      const auto at = verb.positionals.begin() + static_cast<std::ptrdiff_t>(i);
      corpus.push_back(join(verb.name, {verb.positionals.begin(), at}));
      std::vector<std::string> args = verb.positionals;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      corpus.push_back(join(verb.name, args));
      for (const std::string& bad : bad_tokens) {
        args = verb.positionals;
        args[i] = bad;
        corpus.push_back(join(verb.name, args));
      }
    }
    for (const auto& [valid, invalid] : options) {
      corpus.push_back(minimal + " " + valid);
      corpus.push_back(minimal + " " + invalid);
    }
    corpus.push_back(minimal + " extra");
  }
  return corpus;
}

std::string render_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The corpus line with tabs and carriage returns made visible, so the
/// golden file stays one tab-separated record per line.
std::string render_line(const std::string& line) {
  std::string out;
  for (const char c : line) {
    if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out += c;
    }
  }
  return out;
}

/// "ERR <text>" for a rejected line; every Request field otherwise.
std::string render_outcome(const ParseResult& result) {
  if (!result.ok()) return "ERR " + result.error;
  const Request& r = *result.request;
  std::ostringstream out;
  out << "verb=" << static_cast<int>(r.verb) << " session=" << r.session
      << " iot=" << r.iot << " edge=" << r.edge << " seed=" << r.seed
      << " algo=" << to_string(r.algorithm)
      << " preset=" << to_string(r.preset) << " oracle=" << r.oracle
      << " x=" << render_double(r.x) << " y=" << render_double(r.y)
      << " demand=" << render_double(r.demand)
      << " rate=" << render_double(r.rate_hz) << " pinned=" << r.pinned
      << " index=" << r.index << " evacuate=" << r.evacuate
      << " link_u=" << r.link_u << " link_v=" << r.link_v
      << " latency=" << render_double(r.latency_ms) << " limit=" << r.limit
      << " moves=" << r.reopt_moves
      << " device_moves=" << r.reopt_device_moves
      << " window_s=" << render_double(r.reopt_window_s)
      << " interval_ms=" << render_double(r.reopt_interval_ms)
      << " sleep_ms=" << render_double(r.sleep_ms)
      << " per_shard=" << r.per_shard << " timeout_ms="
      << (r.timeout_ms ? render_double(*r.timeout_ms) : "none");
  return out.str();
}

TEST(ProtocolGolden, CorpusOutcomesMatchGoldenFile) {
  std::vector<std::string> actual;
  for (const std::string& line : golden_corpus()) {
    actual.push_back(render_line(line) + "\t" +
                     render_outcome(parse_request(line)));
  }

  const std::string path = TACC_TEST_DATA_DIR "/protocol_corpus.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  const bool same = actual == expected;
  if (!same) {
    // Leave the full rendering next to the test so a deliberate grammar
    // change can be reviewed with diff and copied over the golden file.
    const std::string dump =
        ::testing::TempDir() + "protocol_corpus.actual";
    std::ofstream out(dump);
    for (const std::string& line : actual) out << line << '\n';
    ADD_FAILURE() << "corpus outcomes differ from " << path
                  << "; actual outcomes written to " << dump;
  }
  const std::size_t common = std::min(actual.size(), expected.size());
  std::size_t reported = 0;
  for (std::size_t i = 0; i < common && reported < 10; ++i) {
    if (actual[i] != expected[i]) {
      ++reported;
      EXPECT_EQ(actual[i], expected[i]) << "corpus line " << i;
    }
  }
  EXPECT_EQ(actual.size(), expected.size());
}

TEST(ProtocolGolden, VerbNamesAreUniqueAndParse) {
  std::vector<std::string> names;
  for (int v = 0; v <= static_cast<int>(Verb::kShutdown); ++v) {
    const Verb verb = static_cast<Verb>(v);
    const std::string name(to_string(verb));
    for (const std::string& seen : names) EXPECT_NE(name, seen);
    names.push_back(name);
    const ParseResult result = parse_request(name);
    if (!result.ok()) {
      EXPECT_EQ(result.error.find("unknown verb"), std::string::npos)
          << name << ": " << result.error;
    } else {
      EXPECT_EQ(result.request->verb, verb) << name;
    }
  }
}

TEST(Protocol, EnumNamesRoundTrip) {
  EXPECT_EQ(to_string(Verb::kConfigure), "CONFIGURE");
  EXPECT_EQ(to_string(Verb::kShutdown), "SHUTDOWN");
  EXPECT_EQ(to_string(ErrorCode::kShuttingDown), "SHUTTING_DOWN");
  EXPECT_EQ(to_string(ScenarioPreset::kCampus), "campus");
}

}  // namespace
}  // namespace tacc::service
