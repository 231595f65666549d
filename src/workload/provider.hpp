// Pluggable workload providers: named, seed-deterministic streams of typed
// churn events (device join/leave/move, backbone link fail/restore/reweight,
// demand pulses).
//
// Every event-driven bench used to hand-roll its own event mix, so traffic
// shapes could not be shared between benches, replayed through taccd, or
// compared across PRs. A WorkloadProvider is the one place a scenario's
// dynamics live:
//
//   ProviderContext ctx = make_context(scenario.network(),
//                                      scenario.workload(),
//                                      scenario.params().workload.area_km,
//                                      seed);
//   auto provider = make_provider("flash_crowd,burst_s=30", ctx);
//   for (const Event& event : provider->step(1.0)) { ...apply... }
//
// Determinism contract: two providers built from the same (spec, context)
// and stepped with the same dt sequence emit byte-identical event streams.
// Everything flows through util::Rng forks of the context seed; a provider
// never sees consumer state, so the stream is independent of how events are
// applied (directly to a DynamicCluster, or rendered to wire verbs and
// replayed through taccd — see workload/wire.hpp).
//
// Providers (registry names, see make_provider):
//   steady               balanced join/leave + random-jump moves + pulses
//   diurnal              sinusoidal traffic waves (population breathes)
//   flash_crowd          clustered join bursts around a hotspot, then drain
//   mobility_trace       random-waypoint moves (wraps RandomWaypointModel)
//   regional_link_failure correlated outages of geographically close links
//   hotspot_adversary    demand chases a shifting hotspot (joins, pulls,
//                        demand pulses concentrated on one region)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "topology/failures.hpp"
#include "topology/geometry.hpp"
#include "topology/network.hpp"
#include "workload/devices.hpp"

namespace tacc::workload {

enum class EventKind : std::uint8_t {
  kJoin,            ///< new device appears (position, rate, demand)
  kLeave,           ///< live device departs
  kMove,            ///< live device re-attaches at a new position
  kLinkFail,        ///< backbone link goes down
  kLinkRestore,     ///< previously failed backbone link comes back
  kLinkSetLatency,  ///< live backbone link reweighted (new absolute latency)
  kDemandPulse,     ///< live device's demand changes (new absolute demand)
};

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// True for the backbone-link kinds: kLinkFail, kLinkRestore and
/// kLinkSetLatency.
[[nodiscard]] constexpr bool is_link_event(EventKind kind) noexcept {
  return kind == EventKind::kLinkFail || kind == EventKind::kLinkRestore ||
         kind == EventKind::kLinkSetLatency;
}

/// One typed workload event. `device` is a provider-scoped id: base devices
/// are 0..base-1, each kJoin mints the next id. Consumers map provider ids
/// to their own device handles (see workload/wire.hpp for the canonical
/// mapping onto DynamicCluster slot indices). `link` indexes
/// ProviderContext::links. Only the fields relevant to `kind` are
/// meaningful; the rest keep their defaults.
struct Event {
  EventKind kind = EventKind::kJoin;
  double time_s = 0.0;       ///< simulated time at emission
  std::size_t device = 0;    ///< kJoin/kLeave/kMove/kDemandPulse
  topo::Point2D position{};  ///< kJoin/kMove
  double rate_hz = 5.0;      ///< kJoin
  double demand = 1.0;       ///< kJoin; kDemandPulse: new absolute demand
  std::size_t link = 0;      ///< kLink*: index into ProviderContext::links
  double latency_ms = 0.0;   ///< kLinkSetLatency: new absolute latency

  friend bool operator==(const Event&, const Event&) = default;
};

/// Everything a provider may condition on: the static deployment at t=0.
/// Built once per scenario via make_context() and shared by providers and
/// the wire adapter (both must agree on link indexing and base devices).
struct ProviderContext {
  std::uint64_t seed = 1;
  double area_km = 10.0;

  // Devices alive at t=0 (provider ids 0..n-1), in workload order.
  std::vector<topo::Point2D> base_positions;
  std::vector<double> base_demands;
  std::vector<double> base_rates_hz;

  // Failable backbone links, in topo::backbone_links order (the indexing
  // every kLink* event and the wire adapter use).
  std::vector<topo::LinkEndpoints> links;
  std::vector<topo::Point2D> link_midpoints;  ///< parallel to links
  std::vector<double> link_latency_ms;        ///< initial latency, parallel

  [[nodiscard]] std::size_t base_devices() const noexcept {
    return base_positions.size();
  }
};

/// Snapshot of a scenario into a ProviderContext. Deterministic in its
/// inputs; `area_km` comes from the scenario's workload params.
[[nodiscard]] ProviderContext make_context(const topo::NetworkTopology& net,
                                           const Workload& workload,
                                           double area_km,
                                           std::uint64_t seed);

/// A named, seed-deterministic event stream (see file comment for the
/// contract). Implementations guarantee stream legality: kLeave/kMove/
/// kDemandPulse only reference live ids, kLinkFail only live links,
/// kLinkRestore only failed ones, and latencies/demands stay positive — so
/// consumers can apply events without defensive checks.
class WorkloadProvider {
 public:
  virtual ~WorkloadProvider();

  /// Registry name this provider was created under (no parameters).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Events for the next `dt_s` seconds of simulated time, in emission
  /// order (time_s nondecreasing). May be empty (a quiet window).
  [[nodiscard]] virtual std::vector<Event> step(double dt_s) = 0;

  /// Simulated clock: sum of all step() durations so far.
  [[nodiscard]] virtual double now_s() const noexcept = 0;

  /// Currently live device count (base devices plus net joins).
  [[nodiscard]] virtual std::size_t live_devices() const noexcept = 0;
};

/// The registry names, in documentation order.
[[nodiscard]] std::vector<std::string_view> provider_names();

/// The `key=value` parameter keys `name` accepts in a spec, in consumption
/// order — including the shared reopt_pause/reopt_active_s every provider
/// honours. Throws std::invalid_argument for an unknown name. Backs
/// `tacc_workload --list`.
[[nodiscard]] std::vector<std::string> provider_param_keys(
    std::string_view name);

/// Creates a provider from "NAME[,key=value...]" — e.g. "steady" or
/// "flash_crowd,burst_s=30,burst_rate=40". Every parameter is numeric.
/// Throws std::invalid_argument for an unknown name, an unknown key (the
/// message lists the provider's valid keys), or a malformed spec.
[[nodiscard]] std::unique_ptr<WorkloadProvider> make_provider(
    std::string_view spec, const ProviderContext& context);

}  // namespace tacc::workload
