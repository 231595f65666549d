#include "workload/provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "core/dynamic.hpp"
#include "core/scenario.hpp"
#include "service/apply.hpp"
#include "service/protocol.hpp"
#include "workload/wire.hpp"

namespace tacc::workload {
namespace {

ProviderContext test_context(std::uint64_t seed = 7) {
  const Scenario scenario = Scenario::smart_city(30, 4, seed);
  return make_context(scenario.network(), scenario.workload(),
                      scenario.params().workload.area_km, seed);
}

/// Replays a stream against reference bookkeeping and fails on any
/// legality violation (the provider contract consumers rely on).
class StreamChecker {
 public:
  explicit StreamChecker(const ProviderContext& ctx)
      : live_(ctx.base_devices(), true),
        link_failed_(ctx.links.size(), false) {}

  void apply(const Event& event) {
    switch (event.kind) {
      case EventKind::kJoin:
        ASSERT_EQ(event.device, live_.size()) << "ids must be minted densely";
        ASSERT_GT(event.demand, 0.0);
        ASSERT_GT(event.rate_hz, 0.0);
        live_.push_back(true);
        break;
      case EventKind::kLeave:
        ASSERT_TRUE(is_live(event.device));
        live_[event.device] = false;
        break;
      case EventKind::kMove:
        ASSERT_TRUE(is_live(event.device));
        break;
      case EventKind::kDemandPulse:
        ASSERT_TRUE(is_live(event.device));
        ASSERT_GT(event.demand, 0.0);
        break;
      case EventKind::kLinkFail:
        ASSERT_LT(event.link, link_failed_.size());
        ASSERT_FALSE(link_failed_[event.link]);
        link_failed_[event.link] = true;
        break;
      case EventKind::kLinkRestore:
        ASSERT_LT(event.link, link_failed_.size());
        ASSERT_TRUE(link_failed_[event.link]);
        link_failed_[event.link] = false;
        break;
      case EventKind::kLinkSetLatency:
        ASSERT_LT(event.link, link_failed_.size());
        ASSERT_FALSE(link_failed_[event.link]);
        ASSERT_GT(event.latency_ms, 0.0);
        break;
    }
  }

  [[nodiscard]] std::size_t live_count() const {
    return static_cast<std::size_t>(
        std::count(live_.begin(), live_.end(), true));
  }

 private:
  [[nodiscard]] bool is_live(std::size_t id) const {
    return id < live_.size() && live_[id];
  }

  std::vector<bool> live_;
  std::vector<bool> link_failed_;
};

std::vector<Event> run_steps(WorkloadProvider& provider, int steps,
                             double dt_s) {
  std::vector<Event> all;
  for (int i = 0; i < steps; ++i) {
    for (const Event& event : provider.step(dt_s)) all.push_back(event);
  }
  return all;
}

TEST(MakeContext, SnapshotsScenario) {
  const Scenario scenario = Scenario::smart_city(30, 4, 7);
  const ProviderContext ctx = test_context(7);
  EXPECT_EQ(ctx.base_devices(), scenario.workload().iot.size());
  EXPECT_EQ(ctx.base_demands.size(), ctx.base_devices());
  EXPECT_EQ(ctx.base_rates_hz.size(), ctx.base_devices());
  EXPECT_EQ(ctx.links.size(),
            topo::backbone_links(scenario.network()).size());
  EXPECT_EQ(ctx.link_midpoints.size(), ctx.links.size());
  EXPECT_EQ(ctx.link_latency_ms.size(), ctx.links.size());
  for (const double latency : ctx.link_latency_ms) EXPECT_GT(latency, 0.0);
}

TEST(MakeContext, MismatchedWorkloadThrows) {
  const Scenario a = Scenario::smart_city(30, 4, 7);
  const Scenario b = Scenario::smart_city(31, 4, 7);
  EXPECT_THROW((void)make_context(a.network(), b.workload(), 10.0, 7),
               std::invalid_argument);
}

TEST(Registry, EveryNameConstructsAndRoundTrips) {
  const ProviderContext ctx = test_context();
  for (const std::string_view name : provider_names()) {
    auto provider = make_provider(name, ctx);
    ASSERT_NE(provider, nullptr) << name;
    EXPECT_EQ(provider->name(), name);
    EXPECT_EQ(provider->live_devices(), ctx.base_devices()) << name;
    EXPECT_EQ(provider->now_s(), 0.0) << name;
  }
}

TEST(Registry, UnknownNameThrowsListingKnown) {
  const ProviderContext ctx = test_context();
  try {
    (void)make_provider("bogus", ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("steady"), std::string::npos);
  }
}

TEST(Registry, UnknownParameterThrowsListingValid) {
  const ProviderContext ctx = test_context();
  try {
    (void)make_provider("steady,bogus_rate=3", ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("join_rate"), std::string::npos);
  }
}

TEST(Registry, MalformedSpecThrows) {
  const ProviderContext ctx = test_context();
  EXPECT_THROW((void)make_provider("steady,join_rate", ctx),
               std::invalid_argument);
  EXPECT_THROW((void)make_provider("steady,join_rate=abc", ctx),
               std::invalid_argument);
  EXPECT_THROW((void)make_provider("steady,=3", ctx), std::invalid_argument);
}

TEST(Registry, ParametersChangeTheStream) {
  const ProviderContext ctx = test_context();
  auto slow = make_provider("steady,join_rate=0.1", ctx);
  auto fast = make_provider("steady,join_rate=50", ctx);
  EXPECT_NE(run_steps(*slow, 20, 1.0).size(),
            run_steps(*fast, 20, 1.0).size());
}

TEST(Provider, DeterministicPerSpecAndSeed) {
  for (const std::string_view name : provider_names()) {
    const ProviderContext ctx = test_context(11);
    auto a = make_provider(name, ctx);
    auto b = make_provider(name, ctx);
    EXPECT_EQ(run_steps(*a, 50, 0.5), run_steps(*b, 50, 0.5)) << name;
    EXPECT_EQ(a->now_s(), b->now_s());
    EXPECT_EQ(a->live_devices(), b->live_devices());
  }
}

TEST(Provider, DifferentSeedsDiverge) {
  auto a = make_provider("steady", test_context(1));
  auto b = make_provider("steady", test_context(2));
  EXPECT_NE(run_steps(*a, 20, 1.0), run_steps(*b, 20, 1.0));
}

TEST(Provider, StreamsAreLegalAndLiveCountsAgree) {
  for (const std::string_view name : provider_names()) {
    const ProviderContext ctx = test_context(13);
    auto provider = make_provider(
        name == "steady" ? std::string_view("steady,link_rate=1") : name,
        ctx);
    StreamChecker checker(ctx);
    for (int i = 0; i < 120; ++i) {
      for (const Event& event : provider->step(1.0)) {
        checker.apply(event);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_EQ(checker.live_count(), provider->live_devices()) << name;
    // No provider drains the cluster below half its base population.
    EXPECT_GE(provider->live_devices(), ctx.base_devices() / 2) << name;
    EXPECT_DOUBLE_EQ(provider->now_s(), 120.0) << name;
  }
}

TEST(Provider, MobilityTraceOnlyMovesBaseDevices) {
  const ProviderContext ctx = test_context();
  auto provider = make_provider("mobility_trace", ctx);
  const std::vector<Event> events = run_steps(*provider, 30, 1.0);
  EXPECT_FALSE(events.empty());
  for (const Event& event : events) {
    EXPECT_EQ(event.kind, EventKind::kMove);
    EXPECT_LT(event.device, ctx.base_devices());
  }
  EXPECT_EQ(provider->live_devices(), ctx.base_devices());
}

TEST(Provider, RegionalLinkFailureFailsAndRestoresInReverse) {
  const ProviderContext ctx = test_context();
  auto provider = make_provider(
      "regional_link_failure,outage_every_s=5,outage_s=3,reweight_rate=0",
      ctx);
  const std::vector<Event> events = run_steps(*provider, 60, 1.0);
  std::vector<std::size_t> failed;
  bool saw_outage = false;
  for (const Event& event : events) {
    if (event.kind == EventKind::kLinkFail) {
      failed.push_back(event.link);
      saw_outage = true;
    } else if (event.kind == EventKind::kLinkRestore) {
      ASSERT_FALSE(failed.empty());
      EXPECT_EQ(event.link, failed.back()) << "restore must run in reverse";
      failed.pop_back();
    }
  }
  EXPECT_TRUE(saw_outage);
}

TEST(Provider, NonPositiveDtThrows) {
  auto provider = make_provider("steady", test_context());
  EXPECT_THROW((void)provider->step(0.0), std::invalid_argument);
  EXPECT_THROW((void)provider->step(-1.0), std::invalid_argument);
}

// ---- reopt_pause quiet windows ---------------------------------------------

TEST(ReoptPause, QuietWindowsSuppressEventsButAdvanceClock) {
  const ProviderContext ctx = test_context(31);
  auto provider =
      make_provider("steady,reopt_pause=2,reopt_active_s=3", ctx);
  // Cycle of 5 s: steps starting at phase 0,1,2 are active, 3,4 quiet.
  for (int step = 0; step < 20; ++step) {
    const double phase = std::fmod(provider->now_s(), 5.0);
    const std::vector<Event> events = provider->step(1.0);
    if (phase >= 3.0) {
      EXPECT_TRUE(events.empty())
          << "quiet step at t=" << provider->now_s() - 1.0 << " emitted "
          << events.size() << " events";
    }
  }
  EXPECT_DOUBLE_EQ(provider->now_s(), 20.0);
}

TEST(ReoptPause, StreamStaysDeterministic) {
  const std::string spec = "diurnal,reopt_pause=2,reopt_active_s=3";
  auto a = make_provider(spec, test_context(32));
  auto b = make_provider(spec, test_context(32));
  for (int step = 0; step < 15; ++step) {
    const std::vector<Event> ea = a->step(1.0);
    const std::vector<Event> eb = b->step(1.0);
    ASSERT_EQ(ea.size(), eb.size()) << "step " << step;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].kind, eb[i].kind);
      EXPECT_EQ(ea[i].device, eb[i].device);
    }
  }
}

TEST(ReoptPause, EveryProviderAcceptsTheSharedParams) {
  const ProviderContext ctx = test_context(33);
  for (const std::string name :
       {"steady", "diurnal", "flash_crowd", "mobility_trace",
        "regional_link_failure", "hotspot_adversary"}) {
    auto provider =
        make_provider(name + ",reopt_pause=1,reopt_active_s=2", ctx);
    for (int step = 0; step < 6; ++step) (void)provider->step(1.0);
    EXPECT_DOUBLE_EQ(provider->now_s(), 6.0) << name;
  }
}

TEST(ReoptPause, InvalidParametersThrow) {
  const ProviderContext ctx = test_context(34);
  EXPECT_THROW((void)make_provider("steady,reopt_pause=-1", ctx),
               std::invalid_argument);
  EXPECT_THROW(
      (void)make_provider("steady,reopt_pause=1,reopt_active_s=0", ctx),
      std::invalid_argument);
}

TEST(EventKindNames, AllDistinct) {
  EXPECT_EQ(to_string(EventKind::kJoin), "join");
  EXPECT_EQ(to_string(EventKind::kDemandPulse), "demand_pulse");
  EXPECT_EQ(to_string(EventKind::kLinkSetLatency), "link_set_latency");
}

// ---- WireAdapter ----------------------------------------------------------

TEST(WireAdapter, RendersHandBuiltSequence) {
  ProviderContext ctx;
  ctx.base_positions = {{1.0, 1.0}, {2.0, 2.0}};
  ctx.base_demands = {1.0, 1.0};
  ctx.base_rates_hz = {5.0, 5.0};
  ctx.links = {{3, 4}};
  ctx.link_midpoints = {{0.0, 0.0}};
  ctx.link_latency_ms = {2.0};
  WireAdapter adapter(ctx, "s");

  Event join;
  join.kind = EventKind::kJoin;
  join.device = 2;
  join.position = {0.5, 0.25};
  join.rate_hz = 4.0;
  join.demand = 2.0;
  EXPECT_EQ(adapter.render(join),
            std::vector<std::string>{"JOIN s 0.5 0.25 demand=2 rate=4"});
  EXPECT_EQ(adapter.slot_of(2), 2u);  // minted past the base population

  Event leave;
  leave.kind = EventKind::kLeave;
  leave.device = 0;
  EXPECT_EQ(adapter.render(leave), std::vector<std::string>{"LEAVE s 0"});

  // Next join recycles slot 0 (LIFO), exactly like DynamicCluster.
  Event join2 = join;
  join2.device = 3;
  EXPECT_EQ(adapter.render(join2),
            std::vector<std::string>{"JOIN s 0.5 0.25 demand=2 rate=4"});
  EXPECT_EQ(adapter.slot_of(3), 0u);

  Event move;
  move.kind = EventKind::kMove;
  move.device = 1;
  move.position = {3.0, 4.0};
  EXPECT_EQ(adapter.render(move), std::vector<std::string>{"MOVE s 1 3 4"});

  Event fail;
  fail.kind = EventKind::kLinkFail;
  fail.link = 0;
  EXPECT_EQ(adapter.render(fail),
            std::vector<std::string>{"LINK_FAIL s 3 4"});
  Event set;
  set.kind = EventKind::kLinkSetLatency;
  set.link = 0;
  set.latency_ms = 2.5;
  EXPECT_EQ(adapter.render(set),
            std::vector<std::string>{"LINK_SET s 3 4 2.5"});

  EXPECT_EQ(adapter.slots_ever(), 3u);
}

TEST(WireAdapter, DemandPulseRendersLeaveJoinIntoSameSlot) {
  ProviderContext ctx;
  ctx.base_positions = {{1.0, 1.0}};
  ctx.base_demands = {1.0};
  ctx.base_rates_hz = {5.0};
  WireAdapter adapter(ctx, "s");

  Event pulse;
  pulse.kind = EventKind::kDemandPulse;
  pulse.device = 0;
  pulse.position = {1.0, 1.0};
  pulse.rate_hz = 5.0;
  pulse.demand = 3.0;
  const std::vector<std::string> lines = adapter.render(pulse);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "LEAVE s 0");
  EXPECT_EQ(lines[1], "JOIN s 1 1 demand=3 rate=5");
  EXPECT_EQ(adapter.slot_of(0), 0u);  // back in its slot
  EXPECT_EQ(adapter.slots_ever(), 1u);
}

TEST(WireAdapter, DeadDeviceThrows) {
  ProviderContext ctx;
  ctx.base_positions = {{1.0, 1.0}};
  ctx.base_demands = {1.0};
  ctx.base_rates_hz = {5.0};
  WireAdapter adapter(ctx, "s");
  Event leave;
  leave.kind = EventKind::kLeave;
  leave.device = 0;
  (void)adapter.render(leave);
  EXPECT_THROW((void)adapter.slot_of(0), std::out_of_range);
  EXPECT_THROW((void)adapter.render(leave), std::out_of_range);
}

TEST(WireAdapter, RenderedLinesParse) {
  const ProviderContext ctx = test_context();
  auto provider = make_provider("steady,link_rate=1", ctx);
  WireAdapter adapter(ctx, "sess");
  const auto parse_ok = [](const std::string& line) {
    const service::ParseResult parsed = service::parse_request(line);
    EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.error;
  };
  parse_ok(adapter.configure_line(ctx.base_devices(), 4, 7, "greedy-bestfit",
                                  "smart_city"));
  for (int i = 0; i < 40; ++i) {
    for (const std::string& line : adapter.render(provider->step(1.0))) {
      parse_ok(line);
    }
  }
}

// The load-bearing parity property: the adapter's predicted slots match the
// indices a real DynamicCluster assigns when the rendered stream is parsed
// and applied through service::apply, exactly as taccd applies it.
TEST(WireAdapter, SlotPredictionsMatchDynamicCluster) {
  const std::uint64_t seed = 21;
  const Scenario scenario = Scenario::smart_city(24, 4, seed);
  const ProviderContext ctx =
      make_context(scenario.network(), scenario.workload(),
                   scenario.params().workload.area_km, seed);
  DynamicCluster cluster(scenario, Algorithm::kGreedyBestFit);
  auto provider = make_provider("steady,link_rate=0.5", ctx);
  WireAdapter adapter(ctx, "s");

  for (int step = 0; step < 60; ++step) {
    for (const Event& event : provider->step(1.0)) {
      // A demand pulse renders as LEAVE + JOIN; the JOIN is applied last.
      service::ApplyResult applied;
      for (const std::string& line : adapter.render(event)) {
        applied = service::apply(
            cluster, service::parse_request(line).request.value());
      }
      if (event.kind == EventKind::kJoin ||
          event.kind == EventKind::kDemandPulse) {
        ASSERT_EQ(std::get<JoinResult>(applied).device_index,
                  adapter.slot_of(event.device));
      }
    }
  }
  EXPECT_EQ(adapter.slots_ever(), cluster.device_slot_count());
  cluster.check_invariants();
}

}  // namespace
}  // namespace tacc::workload
