// Engine tests: session lifecycle, admission control (OVERLOADED /
// DEADLINE_EXCEEDED / SHUTTING_DOWN), micro-batching counters, and the
// exactly-one-terminal-response invariant — all without sockets.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace tacc::service {
namespace {

Request must_parse(const std::string& line) {
  ParseResult result = parse_request(line);
  EXPECT_TRUE(result.ok()) << "'" << line << "': " << result.error;
  return result.request.value_or(Request{});
}

/// Submits one request and blocks for its terminal response.
std::string call(Engine& engine, const Request& request) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  engine.submit(request, [&promise](std::string response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

std::string call(Engine& engine, const std::string& line) {
  return call(engine, must_parse(line));
}

EngineOptions small_options() {
  EngineOptions options;
  options.threads = 2;
  // Pinned (not hardware-dependent) so admission math and routing are the
  // same on every machine the suite runs on.
  options.shards = 2;
  options.max_queue = 64;
  options.default_timeout_ms = 5'000.0;
  return options;
}

/// Extracts the integer value of `key=` from an OK response line.
std::uint64_t field_value(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  EXPECT_NE(at, std::string::npos) << "missing " << key << " in: " << line;
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size() + 2));
}

/// The "s<shard>_" prefix of a STATS shards=1 block, appended piecewise as
/// Engine::stats_line builds it (GCC 12 flags "s" + ... + "_" with a
/// false -Wrestrict).
std::string shard_prefix(std::size_t shard) {
  std::string prefix = "s";
  prefix += std::to_string(shard);
  prefix += '_';
  return prefix;
}

/// Session names, one per shard, discovered by probing the stable hash.
std::vector<std::string> sessions_covering_all_shards(const Engine& engine) {
  std::vector<std::string> names(engine.shard_count());
  std::vector<bool> found(engine.shard_count(), false);
  std::size_t covered = 0;
  for (int i = 0; covered < engine.shard_count() && i < 10'000; ++i) {
    std::string name = "probe" + std::to_string(i);
    const std::size_t shard = engine.shard_of(name);
    if (!found[shard]) {
      found[shard] = true;
      names[shard] = std::move(name);
      ++covered;
    }
  }
  EXPECT_EQ(covered, engine.shard_count()) << "hash never covered all shards";
  return names;
}

TEST(Engine, ConfigureJoinMoveLeaveRoundTrip) {
  Engine engine(small_options());
  const std::string configured = call(engine, "CONFIGURE city 40 5 seed=9");
  ASSERT_EQ(configured.rfind("OK", 0), 0u) << configured;
  EXPECT_NE(configured.find("session=city"), std::string::npos);
  EXPECT_NE(configured.find("devices=40"), std::string::npos);
  EXPECT_NE(configured.find("servers=5"), std::string::npos);

  const std::string joined = call(engine, "JOIN city 1.0 2.0");
  ASSERT_EQ(joined.rfind("OK", 0), 0u) << joined;
  EXPECT_NE(joined.find("device=40"), std::string::npos);  // first new slot

  EXPECT_EQ(call(engine, "MOVE city 0 3.0 3.0").rfind("OK", 0), 0u);
  EXPECT_EQ(call(engine, "LEAVE city 40").rfind("OK", 0), 0u);
  EXPECT_EQ(engine.session_count(), 1u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

TEST(Engine, FailEvacuateRecoverRoundTrip) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE f 30 4 seed=3").rfind("OK", 0), 0u);
  const std::string failed = call(engine, "FAIL f 1");
  EXPECT_EQ(failed.rfind("OK", 0), 0u) << failed;
  EXPECT_NE(failed.find("evacuated="), std::string::npos);
  EXPECT_EQ(call(engine, "RECOVER f 1").rfind("OK", 0), 0u);
  // EVACUATE applies to an already-failed server (FAIL evacuate=0 leaves
  // the devices stranded for a later explicit evacuation).
  ASSERT_EQ(call(engine, "FAIL f 2 evacuate=0").rfind("OK", 0), 0u);
  EXPECT_EQ(call(engine, "EVACUATE f 2").rfind("OK", 0), 0u);
  // Evacuating a healthy server is a precondition violation, not a crash.
  EXPECT_EQ(call(engine, "EVACUATE f 0").rfind("ERR BAD_REQUEST", 0), 0u);
}

TEST(Engine, MutationOnUnknownSessionIsNotFound) {
  Engine engine(small_options());
  const std::string response = call(engine, "JOIN nosuch 1.0 1.0");
  EXPECT_EQ(response.rfind("ERR NOT_FOUND", 0), 0u) << response;
  // NOT_FOUND is a terminal response: it must not leak in-flight slots.
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(Engine, ClusterPreconditionViolationIsBadRequest) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE c 20 3 seed=5").rfind("OK", 0), 0u);
  // Device 999 does not exist; DynamicCluster throws, the engine maps it.
  const std::string response = call(engine, "MOVE c 999 1.0 1.0");
  EXPECT_EQ(response.rfind("ERR BAD_REQUEST", 0), 0u) << response;
  // The session survives a failed request.
  EXPECT_EQ(call(engine, "MOVE c 0 1.0 1.0").rfind("OK", 0), 0u);
}

TEST(Engine, PingAndShutdownBelongToTransport) {
  Engine engine(small_options());
  EXPECT_EQ(call(engine, "PING").rfind("ERR BAD_REQUEST", 0), 0u);
  EXPECT_EQ(call(engine, "SHUTDOWN").rfind("ERR BAD_REQUEST", 0), 0u);
}

TEST(Engine, ConstructionRejectsZeroBatchAndUnusableDeadlines) {
  EngineOptions zero_batch = small_options();
  zero_batch.max_batch = 0;
  EXPECT_THROW(Engine{zero_batch}, std::invalid_argument);
  for (const double timeout_ms :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e300,
        std::nextafter(kMaxTimeoutMs, 1e300)}) {
    EngineOptions options = small_options();
    options.default_timeout_ms = timeout_ms;
    EXPECT_THROW(Engine{options}, std::invalid_argument) << timeout_ms;
  }
  for (const double window_s :
       {1e-300, 0.0009, std::numeric_limits<double>::quiet_NaN()}) {
    EngineOptions options = small_options();
    options.reopt.budget.window_s = window_s;
    EXPECT_THROW(Engine{options}, std::invalid_argument) << window_s;
  }
  for (const double interval_ms :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), 1e300,
        std::nextafter(kMaxTimeoutMs, 1e300)}) {
    EngineOptions options = small_options();
    options.reopt.interval_ms = interval_ms;
    EXPECT_THROW(Engine{options}, std::invalid_argument) << interval_ms;
  }
  // A window <= 0 is the one infinite window.
  for (const double window_s : {0.0, -3.0}) {
    EngineOptions options = small_options();
    options.reopt.budget.window_s = window_s;
    EXPECT_NO_THROW(Engine{options}) << window_s;
  }
  // The bounds themselves are usable.
  EngineOptions edge = small_options();
  edge.max_batch = 1;
  edge.default_timeout_ms = kMaxTimeoutMs;
  edge.reopt.budget.window_s = kMinReoptWindowS;
  edge.reopt.interval_ms = kMaxTimeoutMs;
  Engine engine(edge);
  EXPECT_EQ(call(engine, "CONFIGURE s 20 3 seed=1").rfind("OK", 0), 0u);
  EXPECT_EQ(call(engine, "JOIN s 1.0 1.0").rfind("OK", 0), 0u);
}

TEST(Engine, GlobalAndSessionStats) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE s 25 4 seed=2").rfind("OK", 0), 0u);
  ASSERT_EQ(call(engine, "JOIN s 0.5 0.5").rfind("OK", 0), 0u);
  engine.drain();  // counters/snapshot flush with the batch, post-response

  const std::string global = call(engine, "STATS");
  EXPECT_NE(global.find("sessions=1"), std::string::npos) << global;
  EXPECT_NE(global.find("accepted=2"), std::string::npos);
  EXPECT_NE(global.find("completed=2"), std::string::npos);

  const std::string session = call(engine, "STATS s");
  EXPECT_NE(session.find("configured=1"), std::string::npos) << session;
  EXPECT_NE(session.find("devices=26"), std::string::npos);
  EXPECT_NE(session.find("latency_count=2"), std::string::npos);
  EXPECT_NE(session.find("p50_us="), std::string::npos);

  EXPECT_EQ(call(engine, "STATS nosuch").rfind("ERR NOT_FOUND", 0), 0u);
}

TEST(Engine, LinkChurnRoundTripThroughWireVerbs) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE net 30 4 seed=5").rfind("OK", 0), 0u);

  // Discover a live backbone link via the LINKS diagnostic verb.
  const std::string links = call(engine, "LINKS net limit=1");
  ASSERT_EQ(links.rfind("OK", 0), 0u) << links;
  ASSERT_NE(links.find("failed=0"), std::string::npos) << links;
  const std::size_t at = links.find("links=");
  ASSERT_NE(at, std::string::npos) << links;
  const std::size_t dash = links.find('-', at);
  const std::size_t end = links.find_first_of(", ", dash);
  ASSERT_NE(dash, std::string::npos) << links;
  const std::string u = links.substr(at + 6, dash - (at + 6));
  const std::string v = links.substr(dash + 1, end - (dash + 1));

  const std::string failed = call(engine, "LINK_FAIL net " + u + " " + v);
  ASSERT_EQ(failed.rfind("OK", 0), 0u) << failed;
  EXPECT_NE(failed.find("epoch="), std::string::npos);
  EXPECT_NE(failed.find("rows_refreshed="), std::string::npos);
  EXPECT_NE(call(engine, "LINKS net limit=1").find("failed=1"),
            std::string::npos);

  // Failing the same link twice is a precondition violation.
  EXPECT_EQ(call(engine, "LINK_FAIL net " + u + " " + v)
                .rfind("ERR BAD_REQUEST", 0),
            0u);
  ASSERT_EQ(call(engine, "LINK_RESTORE net " + u + " " + v).rfind("OK", 0),
            0u);
  const std::string set = call(engine, "LINK_SET net " + u + " " + v + " 9.5");
  ASSERT_EQ(set.rfind("OK", 0), 0u) << set;
  EXPECT_NE(set.find("latency_ms="), std::string::npos);  // previous latency

  // An out-of-range endpoint is rejected before touching the topology.
  EXPECT_EQ(call(engine, "LINK_FAIL net 999999 0").rfind("ERR BAD_REQUEST", 0),
            0u);

  engine.drain();
  const std::string stats = call(engine, "STATS net");
  // 3 successful updates (fail, restore, set); rejected ones don't count.
  EXPECT_NE(stats.find("link_updates=3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("delay_epoch="), std::string::npos);
  EXPECT_NE(stats.find("link_nodes_affected="), std::string::npos);
  EXPECT_NE(stats.find("delay_rows_refreshed="), std::string::npos);
}

// Golden reply bytes for every cluster-mutating verb on one seeded session.
// A change to how requests reach DynamicCluster or how replies are
// formatted must keep these lines byte-identical.
TEST(Engine, ClusterVerbRepliesAreByteStable) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE g 20 4 seed=3").rfind("OK", 0), 0u);
  const std::pair<const char*, const char*> golden[] = {
      {"JOIN g 1.5 2.5 demand=2 rate=3",
       "OK device=20 server=0 feasible=1 overload=0"},
      {"MOVE g 0 3 4", "OK device=0 server=2 feasible=1 overload=0"},
      {"MOVE g 1 2 2 pinned=1", "OK device=1 server=1 feasible=1 overload=0"},
      {"LEAVE g 20", "OK device=20"},
      {"FAIL g 1 evacuate=0", "OK server=1 evacuated=0 overloaded=0"},
      {"EVACUATE g 1", "OK server=1 evacuated=7 overloaded=2"},
      {"RECOVER g 1", "OK server=1"},
      {"FAIL g 2 evacuate=1", "OK server=2 evacuated=10 overloaded=0"},
      {"RECOVER g 2", "OK server=2"},
      {"LINK_FAIL g 1 10",
       "OK u=1 v=10 epoch=7 affected=25 saved=95 rows_refreshed=14 "
       "latency_ms=0.574309 avg_delay_ms=6.79288"},
      {"LINK_RESTORE g 1 10",
       "OK u=1 v=10 epoch=8 affected=25 saved=95 rows_refreshed=14 "
       "latency_ms=0.574309 avg_delay_ms=6.33448"},
      {"LINK_SET g 1 13 7.5",
       "OK u=1 v=13 epoch=9 affected=11 saved=109 rows_refreshed=9 "
       "latency_ms=2.30054 avg_delay_ms=6.4065"},
  };
  for (const auto& [request, reply] : golden) {
    EXPECT_EQ(call(engine, request), reply) << request;
  }
}

// Golden STATS bytes for the cluster snapshot (everything before the
// request counters, whose latency quantiles depend on timing). A change to
// how the snapshot is sampled or rendered must keep them byte-identical.
TEST(Engine, StatsSnapshotFieldsAreByteStable) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE g 20 4 seed=3").rfind("OK", 0), 0u);
  ASSERT_EQ(call(engine, "LINK_FAIL g 1 10").rfind("OK", 0), 0u);
  ASSERT_EQ(call(engine, "LINK_SET g 1 13 7.5").rfind("OK", 0), 0u);
  engine.drain();
  const std::string stats = call(engine, "STATS g");
  EXPECT_EQ(stats.substr(0, stats.find(" accepted=")),
            "OK session=g shard=0 configured=1 devices=20 servers=4 "
            "healthy_servers=4 avg_delay_ms=6.49671 max_utilization=0.989946 "
            "feasible=1 delay_epoch=2 link_updates=2 link_nodes_affected=28 "
            "link_nodes_saved=212 delay_rows_refreshed=15 delay_rows_saved=25 "
            "reopt_running=0 reopt_passes=0 reopt_proposed=0 reopt_applied=0 "
            "reopt_rejected=0 reopt_gain=0");
}

// Device churn writes the host table and runs no tree code: MOVE, JOIN and
// LEAVE leave the cumulative link counters alone while the delay epoch
// rises by one per attach and one per detach.
TEST(Engine, DeviceChurnLeavesLinkCountersAlone) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE g 20 4 seed=3").rfind("OK", 0), 0u);
  engine.drain();
  const std::pair<const char*, std::uint64_t> steps[] = {
      {"MOVE g 1 2 2", 2}, {"JOIN g 1.5 2.5", 1}, {"LEAVE g 3", 1}};
  std::string before = call(engine, "STATS g");
  for (const auto& [request, epochs] : steps) {
    ASSERT_EQ(call(engine, request).rfind("OK", 0), 0u) << request;
    engine.drain();
    const std::string after = call(engine, "STATS g");
    EXPECT_EQ(field_value(after, "link_nodes_saved"),
              field_value(before, "link_nodes_saved"))
        << request;
    EXPECT_EQ(field_value(after, "link_nodes_affected"),
              field_value(before, "link_nodes_affected"))
        << request;
    EXPECT_EQ(field_value(after, "delay_epoch"),
              field_value(before, "delay_epoch") + epochs)
        << request;
    before = after;
  }
  EXPECT_EQ(field_value(before, "link_nodes_saved"), 0u);
}

// Devices the cluster cannot place (a position with no finite router
// distance, a non-finite demand) are rejected before they touch the session:
// avg_delay_ms once became inf for good after JOIN u 1e308 1e308.
TEST(Engine, UnplaceableDevicesAnswerBadRequest) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE u 50 4 seed=3").rfind("OK", 0), 0u);
  const auto avg_delay = [&] {
    const std::string stats = call(engine, "STATS u");
    const std::size_t at = stats.find(" avg_delay_ms=");
    return stats.substr(at, stats.find(' ', at + 1) - at);
  };
  engine.drain();
  const std::string before = avg_delay();

  Request infinite_demand = must_parse("JOIN u 1 1");
  infinite_demand.demand = std::numeric_limits<double>::infinity();
  const Request lines[] = {must_parse("JOIN u 1e308 1e308"),
                           must_parse("MOVE u 0 1e308 1e308"),
                           must_parse("MOVE u 0 -1e308 1e308 pinned=1"),
                           infinite_demand};
  for (const Request& request : lines) {
    EXPECT_EQ(call(engine, request).rfind("ERR BAD_REQUEST", 0), 0u);
  }
  engine.drain();
  EXPECT_EQ(avg_delay(), before);
  EXPECT_EQ(field_value(call(engine, "STATS u"), "devices"), 50u);
}

// A link endpoint past topo::NodeId must not wrap onto a real node. These
// lines once failed link 0-11 and reweighted link 0-12; they go through the
// server's path here: parse, and submit only what parses.
TEST(Engine, OversizedLinkEndpointsLeaveTheTopologyAlone) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE s 20 4 seed=3").rfind("OK", 0), 0u);
  for (const char* line :
       {"LINK_FAIL s 4294967296 11", "LINK_SET s 4294967296 12 7.5"}) {
    const ParseResult parsed = parse_request(line);
    EXPECT_FALSE(parsed.ok()) << line;
    if (parsed.ok()) (void)call(engine, *parsed.request);
  }
  const std::string links = call(engine, "LINKS s");
  EXPECT_NE(links.find(" failed=0"), std::string::npos) << links;
  // LINK_SET reports the latency the link had before: still the original.
  const std::string set = call(engine, "LINK_SET s 0 12 7.5");
  EXPECT_NE(set.find(" latency_ms=2.57059 "), std::string::npos) << set;
}

TEST(Engine, StatsAnswersWhileSessionIsBusy) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE busy 20 3 seed=4").rfind("OK", 0), 0u);

  std::promise<std::string> slept;
  std::future<std::string> slept_future = slept.get_future();
  engine.submit(must_parse("SLEEP busy 300"), [&slept](std::string r) {
    slept.set_value(std::move(r));
  });

  // STATS bypasses admission and answers from the snapshot immediately.
  const util::WallTimer timer;
  const std::string stats = call(engine, "STATS busy");
  EXPECT_LT(timer.elapsed_ms(), 250.0) << "STATS blocked behind SLEEP";
  EXPECT_EQ(stats.rfind("OK", 0), 0u);

  EXPECT_EQ(slept_future.get().rfind("OK", 0), 0u);
}

TEST(Engine, OverflowRejectsWithOverloaded) {
  EngineOptions options = small_options();
  options.max_queue = 1;
  Engine engine(options);
  ASSERT_EQ(call(engine, "CONFIGURE o 20 3 seed=6").rfind("OK", 0), 0u);
  engine.drain();  // the CONFIGURE's admission slot frees after its response

  // The SLEEP occupies the single admission slot until it completes...
  std::promise<std::string> slept;
  std::future<std::string> slept_future = slept.get_future();
  engine.submit(must_parse("SLEEP o 300"), [&slept](std::string r) {
    slept.set_value(std::move(r));
  });

  // ...so every request submitted meanwhile bounces synchronously.
  for (int i = 0; i < 3; ++i) {
    const std::string rejected = call(engine, "JOIN o 1.0 1.0");
    EXPECT_EQ(rejected.rfind("ERR OVERLOADED", 0), 0u) << rejected;
  }
  EXPECT_EQ(slept_future.get().rfind("OK", 0), 0u);
  engine.drain();  // the in-flight slot frees shortly AFTER the response
  EXPECT_EQ(engine.counters().rejected_overload, 3u);

  // Capacity freed: the same request is admitted again.
  EXPECT_EQ(call(engine, "JOIN o 1.0 1.0").rfind("OK", 0), 0u);
}

TEST(Engine, ExpiredQueuedRequestAnswersDeadlineExceeded) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE d 20 3 seed=8").rfind("OK", 0), 0u);

  // The SLEEP holds the session's single drainer for 200ms; a 1ms-deadline
  // request queued behind it must expire before execution.
  std::promise<std::string> slept;
  std::future<std::string> slept_future = slept.get_future();
  engine.submit(must_parse("SLEEP d 200"), [&slept](std::string r) {
    slept.set_value(std::move(r));
  });
  const std::string expired = call(engine, "JOIN d 1.0 1.0 timeout_ms=1");
  EXPECT_EQ(expired.rfind("ERR DEADLINE_EXCEEDED", 0), 0u) << expired;
  EXPECT_EQ(slept_future.get().rfind("OK", 0), 0u);
  engine.drain();  // counters flush with the batch, after the responses
  EXPECT_EQ(engine.counters().rejected_deadline, 1u);
}

TEST(Engine, ShutdownRejectsNewWorkButDrainsAdmitted) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE z 20 3 seed=1").rfind("OK", 0), 0u);

  std::promise<std::string> slept;
  std::future<std::string> slept_future = slept.get_future();
  engine.submit(must_parse("SLEEP z 150"), [&slept](std::string r) {
    slept.set_value(std::move(r));
  });
  engine.begin_shutdown();

  const std::string rejected = call(engine, "JOIN z 1.0 1.0");
  EXPECT_EQ(rejected.rfind("ERR SHUTTING_DOWN", 0), 0u) << rejected;

  engine.drain();
  // The admitted SLEEP still got its real response, not a shutdown error.
  EXPECT_EQ(slept_future.get().rfind("OK", 0), 0u);
  EXPECT_EQ(engine.counters().rejected_shutdown, 1u);
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(Engine, EveryRequestGetsExactlyOneResponse) {
  EngineOptions options = small_options();
  options.max_queue = 8;  // small enough that the burst trips OVERLOADED
  Engine engine(options);
  ASSERT_EQ(call(engine, "CONFIGURE a 30 4 seed=11").rfind("OK", 0), 0u);

  constexpr std::size_t kBurst = 200;
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> ok{0};
  for (std::size_t i = 0; i < kBurst; ++i) {
    engine.submit(must_parse("MOVE a " + std::to_string(i % 30) + " 1.0 1.0"),
                  [&responses, &ok](const std::string& response) {
                    responses.fetch_add(1);
                    if (response.rfind("OK", 0) == 0) ok.fetch_add(1);
                  });
  }
  engine.begin_shutdown();
  engine.drain();
  EXPECT_EQ(responses.load(), kBurst);
  EXPECT_GT(ok.load(), 0u);

  // Ledger closes: every accepted request completed or failed, every other
  // submission was rejected with a terminal error.
  const EngineCounters counters = engine.counters();
  // Every accepted request (the CONFIGURE included) ends as completed,
  // failed, or expired...
  EXPECT_EQ(counters.completed + counters.failed + counters.rejected_deadline,
            counters.accepted);
  // ...and every burst submission was either accepted or bounced.
  EXPECT_EQ(counters.accepted - 1 + counters.rejected_overload +
                counters.rejected_shutdown,
            kBurst);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

TEST(Engine, BatchingCoalescesBurstsIntoFewerDrains) {
  EngineOptions options = small_options();
  options.threads = 1;  // one worker: the burst piles up behind the sleep
  options.max_batch = 16;
  options.max_queue = 128;
  Engine engine(options);
  ASSERT_EQ(call(engine, "CONFIGURE b 20 3 seed=13").rfind("OK", 0), 0u);

  constexpr std::size_t kBurst = 64;
  std::atomic<std::size_t> responses{0};
  // Park the lone worker first so every MOVE queues up behind it; without
  // this the drainer can keep pace with the submission loop and legitimately
  // take one pass per event.
  engine.submit(must_parse("SLEEP b 100"), [](const std::string&) {});
  for (std::size_t i = 0; i < kBurst; ++i) {
    engine.submit(must_parse("MOVE b " + std::to_string(i % 20) + " 2.0 2.0"),
                  [&responses](const std::string&) {
                    responses.fetch_add(1);
                  });
  }
  engine.begin_shutdown();
  engine.drain();
  ASSERT_EQ(responses.load(), kBurst);

  // batches is visible via STATS; with max_batch=16 the 64 MOVEs need at
  // least 4 passes but far fewer than 64 if batching works at all.
  const std::string stats = call(engine, "STATS b");
  const std::size_t pos = stats.find("batches=");
  ASSERT_NE(pos, std::string::npos) << stats;
  const std::size_t batches =
      static_cast<std::size_t>(std::stoul(stats.substr(pos + 8)));
  EXPECT_LT(batches, kBurst) << "no coalescing happened: " << stats;
}

TEST(Engine, RunBatchRunsOnePassOnTheCallerAndPoolsTheRest) {
  EngineOptions options = small_options();
  options.max_batch = 8;
  Engine engine(options);
  ASSERT_EQ(call(engine, "CONFIGURE c 20 3 seed=16").rfind("OK", 0), 0u);
  // The reply leaves before the pool task's ledger flush releases the
  // claim; the session must be idle for the first admission to claim it.
  engine.drain();

  constexpr std::size_t kEvents = 20;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::size_t> on_caller{0};
  std::atomic<std::size_t> answered{0};
  Engine::Claim claim;
  for (std::size_t i = 0; i < kEvents; ++i) {
    Engine::Claim admitted = engine.admit(
        must_parse("MOVE c " + std::to_string(i) + " 1.0 1.0"),
        [&](const std::string& response) {
          EXPECT_EQ(response.rfind("OK", 0), 0u) << response;
          if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
          answered.fetch_add(1);
        });
    // Only the admission that found the session idle hands out its claim.
    EXPECT_EQ(static_cast<bool>(admitted), i == 0) << "event " << i;
    if (admitted) claim = std::move(admitted);
  }
  EXPECT_EQ(answered.load(), 0u) << "admission must not execute anything";

  engine.run_batch(std::move(claim));
  EXPECT_EQ(on_caller.load(), options.max_batch);  // exactly one pass here
  engine.drain();
  EXPECT_EQ(answered.load(), kEvents);
  EXPECT_EQ(on_caller.load(), options.max_batch);
  engine.check_invariants();
  // CONFIGURE, the caller's pass, and two pool passes over the other 12.
  EXPECT_EQ(field_value(call(engine, "STATS c"), "batches"), 4u);
}

TEST(Engine, SessionsDrainConcurrently) {
  EngineOptions options = small_options();
  options.threads = 2;
  // One shard so both workers serve the same pool: the overlap being
  // tested must not depend on which shards the two names hash to.
  options.shards = 1;
  Engine engine(options);
  ASSERT_EQ(call(engine, "CONFIGURE s1 20 3 seed=21").rfind("OK", 0), 0u);
  ASSERT_EQ(call(engine, "CONFIGURE s2 20 3 seed=22").rfind("OK", 0), 0u);

  // Two 200ms sleeps on different sessions should overlap on the two
  // workers: total wall time well under the 400ms serial bound.
  const util::WallTimer timer;
  std::promise<std::string> first;
  std::promise<std::string> second;
  std::future<std::string> first_future = first.get_future();
  std::future<std::string> second_future = second.get_future();
  engine.submit(must_parse("SLEEP s1 200"), [&first](std::string r) {
    first.set_value(std::move(r));
  });
  engine.submit(must_parse("SLEEP s2 200"), [&second](std::string r) {
    second.set_value(std::move(r));
  });
  EXPECT_EQ(first_future.get().rfind("OK", 0), 0u);
  EXPECT_EQ(second_future.get().rfind("OK", 0), 0u);
  EXPECT_LT(timer.elapsed_ms(), 390.0) << "sessions serialized";
}

// ---- Sharding --------------------------------------------------------------

TEST(EngineSharding, RoutingIsStableAcrossEngineInstances) {
  EngineOptions options = small_options();
  options.shards = 4;
  const Engine first(options);
  const Engine second(options);
  EXPECT_EQ(first.shard_count(), 4u);
  for (const std::string name :
       {"city", "factory", "a", "session-with-a-long-name", "x:y.z_9"}) {
    // Same name ⇒ same shard, in this engine and in a freshly constructed
    // one (i.e. across daemon restarts).
    EXPECT_EQ(first.shard_of(name), second.shard_of(name)) << name;

    // Pin the routing function itself: FNV-1a 64-bit mod shard count.
    // std::hash would be allowed to change between libstdc++ versions.
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : name) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    EXPECT_EQ(first.shard_of(name), hash % 4u) << name;
  }
}

TEST(EngineSharding, SessionStatsReportOwningShard) {
  EngineOptions options = small_options();
  options.shards = 4;
  Engine engine(options);
  const std::vector<std::string> names = sessions_covering_all_shards(engine);
  for (std::size_t shard = 0; shard < names.size(); ++shard) {
    ASSERT_EQ(call(engine, "CONFIGURE " + names[shard] + " 20 3 seed=1")
                  .rfind("OK", 0),
              0u);
    const std::string stats = call(engine, "STATS " + names[shard]);
    EXPECT_EQ(field_value(stats, "shard"), shard) << stats;
  }
}

TEST(EngineSharding, ShardQuotasAreIndependent) {
  EngineOptions options = small_options();
  options.shards = 2;
  options.max_queue = 2;  // one admission slot per shard
  Engine engine(options);
  ASSERT_EQ(engine.shard_quota(), 1u);
  const std::vector<std::string> names = sessions_covering_all_shards(engine);
  for (const std::string& name : names) {
    ASSERT_EQ(call(engine, "CONFIGURE " + name + " 20 3 seed=1").rfind("OK", 0),
              0u);
    engine.drain();
  }

  // Fill shard 0's only slot with a parked SLEEP...
  std::promise<std::string> slept;
  std::future<std::string> slept_future = slept.get_future();
  engine.submit(must_parse("SLEEP " + names[0] + " 200"),
                [&slept](std::string r) { slept.set_value(std::move(r)); });

  // ...shard 0 is now full, but shard 1 still admits: overload on one
  // shard must not reject traffic routed to another.
  EXPECT_EQ(call(engine, "JOIN " + names[0] + " 1.0 1.0")
                .rfind("ERR OVERLOADED", 0),
            0u);
  EXPECT_EQ(call(engine, "JOIN " + names[1] + " 1.0 1.0").rfind("OK", 0), 0u);
  EXPECT_EQ(slept_future.get().rfind("OK", 0), 0u);
  engine.drain();
  EXPECT_EQ(engine.counters().rejected_overload, 1u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

TEST(EngineSharding, DrainOnShutdownCoversEveryShard) {
  EngineOptions options = small_options();
  options.shards = 4;
  options.threads = 4;
  Engine engine(options);
  const std::vector<std::string> names = sessions_covering_all_shards(engine);
  for (const std::string& name : names) {
    ASSERT_EQ(call(engine, "CONFIGURE " + name + " 20 3 seed=1").rfind("OK", 0),
              0u);
  }

  // Park in-flight work on EVERY shard, then shut down: drain() must not
  // return until each shard's admitted work reached its terminal response.
  std::vector<std::future<std::string>> futures;
  std::vector<std::promise<std::string>> promises(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    futures.push_back(promises[i].get_future());
    engine.submit(must_parse("SLEEP " + names[i] + " 100"),
                  [&promise = promises[i]](std::string r) {
                    promise.set_value(std::move(r));
                  });
  }
  engine.begin_shutdown();
  EXPECT_EQ(call(engine, "JOIN " + names[0] + " 1.0 1.0")
                .rfind("ERR SHUTTING_DOWN", 0),
            0u);
  engine.drain();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "drain() returned with work still in flight";
    EXPECT_EQ(future.get().rfind("OK", 0), 0u);
  }
  EXPECT_EQ(engine.queue_depth(), 0u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

TEST(EngineSharding, NotFoundIsCountedAsRejectionNotFailure) {
  Engine engine(small_options());
  EXPECT_EQ(call(engine, "JOIN nosuch 1.0 1.0").rfind("ERR NOT_FOUND", 0), 0u);
  const EngineCounters counters = engine.counters();
  // The old engine counted this as `failed` without `accepted`, silently
  // breaking accepted == completed + failed + expired + in_flight.
  EXPECT_EQ(counters.rejected_not_found, 1u);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.accepted, 0u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

TEST(EngineSharding, GlobalStatsCarryShardFieldsAndBreakdown) {
  EngineOptions options = small_options();
  options.shards = 2;
  Engine engine(options);
  const std::vector<std::string> names = sessions_covering_all_shards(engine);
  for (const std::string& name : names) {
    ASSERT_EQ(call(engine, "CONFIGURE " + name + " 20 3 seed=1").rfind("OK", 0),
              0u);
    ASSERT_EQ(call(engine, "JOIN " + name + " 1.0 1.0").rfind("OK", 0), 0u);
  }
  engine.drain();

  const std::string global = call(engine, "STATS");
  EXPECT_EQ(field_value(global, "shards"), 2u);
  EXPECT_EQ(field_value(global, "shard_quota"), 32u);  // ceil(64 / 2)
  EXPECT_EQ(field_value(global, "rejected_not_found"), 0u);
  EXPECT_EQ(global.find("s0_depth="), std::string::npos)
      << "breakdown must be opt-in: " << global;

  const std::string detailed = call(engine, "STATS shards=1");
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::string p = shard_prefix(shard);
    // Each shard processed its one session's CONFIGURE + JOIN.
    EXPECT_EQ(field_value(detailed, p + "accepted"), 2u) << detailed;
    EXPECT_EQ(field_value(detailed, p + "completed"), 2u) << detailed;
    EXPECT_EQ(field_value(detailed, p + "sessions"), 1u) << detailed;
  }
}

// ---- Deadlines -------------------------------------------------------------

TEST(EngineDeadline, BoundaryExactlyAtDequeueCountsAsExpired) {
  const Engine::Clock::time_point t{std::chrono::nanoseconds(1'000'000)};
  const Engine::Clock::duration tick{std::chrono::nanoseconds(1)};
  EXPECT_TRUE(Engine::deadline_expired(t, t));  // the pinned boundary
  EXPECT_TRUE(Engine::deadline_expired(t, t + tick));
  EXPECT_FALSE(Engine::deadline_expired(t + tick, t));
}

TEST(EngineDeadline, ExecutionOverrunIsRejectedNotCompleted) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE late 20 3 seed=1").rfind("OK", 0), 0u);
  engine.drain();

  // The request is dequeued while its 40ms deadline is still live, but the
  // 120ms execution overruns it. The old engine answered OK and counted it
  // `completed`; the deadline contract says ERR DEADLINE_EXCEEDED.
  const std::string late = call(engine, "SLEEP late 120 timeout_ms=40");
  EXPECT_EQ(late.rfind("ERR DEADLINE_EXCEEDED", 0), 0u) << late;
  engine.drain();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.rejected_deadline, 1u);
  EXPECT_EQ(counters.completed, 1u);  // the CONFIGURE only
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

// ---- STATS coherence under concurrency -------------------------------------

TEST(EngineConcurrency, StatsIdentityHoldsUnderConcurrentTraffic) {
  EngineOptions options = small_options();
  options.shards = 2;
  options.threads = 2;
  options.max_queue = 32;
  Engine engine(options);
  const std::vector<std::string> names = sessions_covering_all_shards(engine);
  for (const std::string& name : names) {
    ASSERT_EQ(call(engine, "CONFIGURE " + name + " 20 3 seed=1").rfind("OK", 0),
              0u);
  }
  engine.drain();

  // Drivers push MOVE traffic at both shards while a reader hammers STATS.
  // Every per-shard block in every reply must satisfy the accounting
  // identity exactly — the pre-shard engine could serve a torn snapshot
  // (counters split across two mutexes). Run under TSan for the data-race
  // side of the same bug.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> responses{0};
  std::vector<std::thread> drivers;
  drivers.reserve(names.size());
  for (const std::string& name : names) {
    drivers.emplace_back([&engine, &responses, &stop, name] {
      while (!stop.load(std::memory_order_relaxed)) {
        engine.submit(must_parse("MOVE " + name + " 0 1.0 1.0"),
                      [&responses](const std::string&) {
                        responses.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    });
  }

  const auto end = Engine::Clock::now() + std::chrono::milliseconds(150);
  std::size_t checked = 0;
  while (Engine::Clock::now() < end) {
    const std::string stats = call(engine, "STATS shards=1");
    ASSERT_EQ(stats.rfind("OK", 0), 0u) << stats;
    for (std::size_t shard = 0; shard < 2; ++shard) {
      const std::string p = shard_prefix(shard);
      const std::uint64_t accepted = field_value(stats, p + "accepted");
      const std::uint64_t settled = field_value(stats, p + "completed") +
                                    field_value(stats, p + "failed") +
                                    field_value(stats, p + "deadline") +
                                    field_value(stats, p + "depth");
      ASSERT_EQ(accepted, settled)
          << "torn shard " << shard << " snapshot: " << stats;
    }
    ++checked;
  }
  stop.store(true);
  for (std::thread& driver : drivers) driver.join();
  engine.begin_shutdown();
  engine.drain();
  EXPECT_GT(checked, 0u);
  EXPECT_GT(responses.load(), 0u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

// ---- Background re-optimizer attach/detach ---------------------------------

TEST(ReoptEngine, StartStatsStopLifecycle) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE city 40 5 seed=9").rfind("OK", 0), 0u);

  const std::string started =
      call(engine, "REOPT_START city moves=8 device_moves=2 window_s=0.5");
  ASSERT_EQ(started.rfind("OK", 0), 0u) << started;
  EXPECT_EQ(field_value(started, "running"), 1u);
  EXPECT_EQ(field_value(started, "moves_per_window"), 8u);
  EXPECT_EQ(field_value(started, "device_moves_per_window"), 2u);

  const std::string stats = call(engine, "REOPT_STATS city");
  ASSERT_EQ(stats.rfind("OK", 0), 0u) << stats;
  EXPECT_EQ(field_value(stats, "running"), 1u);
  // The ledger partition identity must hold in any sampled snapshot.
  EXPECT_EQ(field_value(stats, "proposed"),
            field_value(stats, "applied") +
                field_value(stats, "rejected_stale") +
                field_value(stats, "rejected_target_failed") +
                field_value(stats, "rejected_infeasible") +
                field_value(stats, "rejected_budget"));

  // Session STATS carries the optimizer ledger too.
  const std::string session_stats = call(engine, "STATS city");
  EXPECT_EQ(field_value(session_stats, "reopt_running"), 1u);

  // Let the background thread run at least one pass before stopping it.
  std::uint64_t passes = 0;
  for (int attempt = 0; attempt < 1000 && passes == 0; ++attempt) {
    passes = field_value(call(engine, "REOPT_STATS city"), "passes");
    if (passes == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GT(passes, 0u);

  const std::string stopped = call(engine, "REOPT_STOP city");
  ASSERT_EQ(stopped.rfind("OK", 0), 0u) << stopped;
  EXPECT_EQ(field_value(stopped, "running"), 0u);
  // The stopped run's ledger stays readable, through both verbs.
  const std::string after = call(engine, "REOPT_STATS city");
  EXPECT_EQ(field_value(after, "running"), 0u);
  EXPECT_GE(field_value(after, "passes"), passes);
  EXPECT_EQ(field_value(after, "applied"),
            field_value(stopped, "moves_applied"));
  const std::string stopped_stats = call(engine, "STATS city");
  EXPECT_EQ(field_value(stopped_stats, "reopt_running"), 0u);
  EXPECT_EQ(field_value(stopped_stats, "reopt_passes"),
            field_value(after, "passes"));
  EXPECT_EQ(field_value(stopped_stats, "reopt_applied"),
            field_value(stopped, "moves_applied"));
  // Idempotent: stopping a stopped optimizer is still OK, and changes
  // nothing.
  const std::string again = call(engine, "REOPT_STOP city");
  ASSERT_EQ(again.rfind("OK", 0), 0u) << again;
  EXPECT_EQ(field_value(again, "moves_applied"),
            field_value(stopped, "moves_applied"));
  // CONFIGURE does not restart a stopped optimizer: the new cluster starts
  // with no ledger.
  ASSERT_EQ(call(engine, "CONFIGURE city 40 5 seed=9").rfind("OK", 0), 0u);
  const std::string reconfigured = call(engine, "REOPT_STATS city");
  EXPECT_EQ(field_value(reconfigured, "running"), 0u);
  EXPECT_EQ(field_value(reconfigured, "passes"), 0u);

  engine.begin_shutdown();
  engine.drain();
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

TEST(ReoptEngine, StatsWithoutOptimizerReportZeros) {
  Engine engine(small_options());
  ASSERT_EQ(call(engine, "CONFIGURE quiet 30 4").rfind("OK", 0), 0u);
  const std::string stats = call(engine, "REOPT_STATS quiet");
  ASSERT_EQ(stats.rfind("OK", 0), 0u) << stats;
  EXPECT_EQ(field_value(stats, "running"), 0u);
  EXPECT_EQ(field_value(stats, "passes"), 0u);
  EXPECT_EQ(field_value(call(engine, "STATS quiet"), "reopt_running"), 0u);
}

TEST(ReoptEngine, VerbsRequireAnExistingSession) {
  Engine engine(small_options());
  EXPECT_EQ(call(engine, "REOPT_START ghost").rfind("ERR", 0), 0u);
  EXPECT_EQ(call(engine, "REOPT_STOP ghost").rfind("ERR", 0), 0u);
  EXPECT_EQ(call(engine, "REOPT_STATS ghost").rfind("ERR", 0), 0u);
}

TEST(ReoptEngine, AutoReoptAttachesOnConfigure) {
  EngineOptions options = small_options();
  options.auto_reopt = true;
  options.reopt.interval_ms = 1.0;
  Engine engine(options);
  ASSERT_EQ(call(engine, "CONFIGURE auto 40 5 seed=3").rfind("OK", 0), 0u);
  EXPECT_EQ(field_value(call(engine, "REOPT_STATS auto"), "running"), 1u);
  // Reconfiguring the session re-attaches a fresh optimizer.
  ASSERT_EQ(call(engine, "CONFIGURE auto 30 5 seed=4").rfind("OK", 0), 0u);
  EXPECT_EQ(field_value(call(engine, "REOPT_STATS auto"), "running"), 1u);
  engine.begin_shutdown();
  engine.drain();
}

// ---- Delay-oracle selection and stats --------------------------------------

TEST(OracleEngine, ConfigureReportsBackendAndStatsRespond) {
  Engine engine(small_options());
  const std::string ok =
      call(engine, "CONFIGURE city 40 5 seed=9 oracle=exact");
  ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
  EXPECT_NE(ok.find(" oracle=exact"), std::string::npos) << ok;

  const std::string stats = call(engine, "ORACLE_STATS city");
  ASSERT_EQ(stats.rfind("OK", 0), 0u) << stats;
  EXPECT_NE(stats.find(" backend=exact"), std::string::npos) << stats;
  // CONFIGURE solves the initial placement, so the oracle has been queried.
  EXPECT_GT(field_value(stats, "queries"), 0u);
  EXPECT_GT(field_value(stats, "rows"), 0u);
  EXPECT_GT(field_value(stats, "resident_bytes"), 0u);
  // Rows are filled on bind and refresh, never on a read.
  EXPECT_EQ(field_value(stats, "row_fills"), 0u);
  // No envelope or landmark counters: the one backend has none.
  for (const char* gone :
       {" bound_hits=", " exact_fallbacks=", " rebuilds=", " width_hist="}) {
    EXPECT_EQ(stats.find(gone), std::string::npos) << stats;
  }
}

TEST(OracleEngine, DefaultsToExactBackend) {
  Engine engine(small_options());
  const std::string ok = call(engine, "CONFIGURE city 30 4");
  ASSERT_EQ(ok.rfind("OK", 0), 0u) << ok;
  EXPECT_NE(ok.find(" oracle=exact"), std::string::npos) << ok;
  const std::string stats = call(engine, "ORACLE_STATS city");
  EXPECT_NE(stats.find(" backend=exact"), std::string::npos) << stats;
}

TEST(OracleEngine, StatsRequireAnExistingSession) {
  Engine engine(small_options());
  EXPECT_EQ(call(engine, "ORACLE_STATS ghost").rfind("ERR", 0), 0u);
}

TEST(ReoptConcurrency, OptimizerRacesServingPathAndStats) {
  EngineOptions options = small_options();
  options.auto_reopt = true;
  options.reopt.interval_ms = 0.1;
  options.reopt.validate = true;  // bracket applies with check_invariants
  Engine engine(options);
  const std::vector<std::string> names = sessions_covering_all_shards(engine);
  for (const std::string& name : names) {
    ASSERT_EQ(
        call(engine, "CONFIGURE " + name + " 40 5 seed=6").rfind("OK", 0),
        0u);
  }
  engine.drain();

  // Closed-loop MOVE storm per session while the attached optimizers race
  // the drain tasks for the cluster mutex and STATS snapshots read the
  // optimizer ledgers concurrently.
  std::atomic<std::size_t> responded{0};
  std::size_t submitted = 0;
  constexpr std::size_t kPerSession = 120;
  for (std::size_t r = 0; r < kPerSession; ++r) {
    for (const std::string& name : names) {
      // Closed-loop window so admission never sees an overloaded queue.
      while (submitted - responded.load(std::memory_order_acquire) >= 32) {
        std::this_thread::yield();
      }
      Request move = must_parse("MOVE " + name + " " +
                                std::to_string(r % 40) + " 1.0 1.0");
      engine.submit(move, [&responded](const std::string& response) {
        EXPECT_EQ(response.rfind("OK", 0), 0u) << response;
        responded.fetch_add(1, std::memory_order_release);
      });
      ++submitted;
    }
    if (r % 10 == 0) {
      for (const std::string& name : names) {
        EXPECT_EQ(call(engine, "REOPT_STATS " + name).rfind("OK", 0), 0u);
      }
    }
  }
  engine.drain();
  EXPECT_EQ(responded.load(), kPerSession * names.size());
  engine.begin_shutdown();
  engine.drain();
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  engine.check_invariants();
}

}  // namespace
}  // namespace tacc::service
