// Renders WorkloadProvider events into taccd wire-protocol lines, so the
// exact same deterministic stream a bench applies in-process can be replayed
// against a live daemon (`tacc_client --stdin < stream.txt`).
//
// The adapter's job is index translation. Provider events carry
// provider-scoped device ids; taccd's MOVE/LEAVE verbs take DynamicCluster
// slot indices, which the daemon assigns on JOIN. Reading each JOIN response
// would serialize the replay, so the adapter *predicts* the indices instead
// by mirroring DynamicCluster's slot allocator exactly: base devices occupy
// slots 0..n-1, a join recycles the most recently freed slot (LIFO), else
// mints slot == slots_ever. Pipelined replay then needs no responses at all.
//
// kDemandPulse has no wire verb; it renders as LEAVE + JOIN at the same
// position with the new demand. LIFO recycling guarantees the rejoining
// device lands back in the slot it just left, so later MOVE/LEAVE lines for
// it stay valid. In-process consumers apply events the same way taccd
// does: parse each rendered line and pass it to service::apply
// (service/apply.hpp), so the adapter stays the only slot predictor.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "workload/provider.hpp"

namespace tacc::workload {

/// Stateful event→wire-line renderer for one taccd session. Feed it every
/// event of the stream in order; skipping events desynchronizes the slot
/// mirror (the adapter cannot know about joins it never saw).
class WireAdapter {
 public:
  /// `context` supplies the base population (slots 0..n-1) and the link
  /// index → router endpoints mapping; `session` names the taccd session.
  WireAdapter(const ProviderContext& context, std::string session);

  /// The CONFIGURE line that creates the adapter's session with `iot`
  /// devices and `edge` servers from `preset` (must match the scenario the
  /// provider context was built from, or replayed indices are meaningless).
  [[nodiscard]] std::string configure_line(std::size_t iot, std::size_t edge,
                                           std::uint64_t seed,
                                           std::string_view algo,
                                           std::string_view preset) const;

  /// Wire lines for one event, in order (kDemandPulse yields two). Updates
  /// the slot mirror.
  [[nodiscard]] std::vector<std::string> render(const Event& event);

  /// Renders a whole step's worth of events.
  [[nodiscard]] std::vector<std::string> render(
      const std::vector<Event>& events);

  /// Predicted DynamicCluster slot of a live provider device id. Throws
  /// std::out_of_range for ids the adapter has not seen or that have left.
  [[nodiscard]] std::size_t slot_of(std::size_t device) const;

  /// Slots ever allocated by the mirror (== DynamicCluster::
  /// device_slot_count() after replay). Peak population, not arrivals.
  [[nodiscard]] std::size_t slots_ever() const noexcept { return slots_; }

 private:
  [[nodiscard]] std::size_t allocate_slot();

  ProviderContext ctx_;
  std::string session_;
  std::vector<std::size_t> slot_of_;  ///< provider id -> slot (live only)
  std::vector<bool> live_;            ///< provider id -> currently joined
  std::vector<std::size_t> free_slots_;  ///< LIFO, mirrors DynamicCluster
  std::size_t slots_ = 0;                ///< slots ever allocated
};

/// Formats a double for the wire with full round-trip precision (%.17g), so
/// a replayed stream reproduces bit-identical positions and demands.
[[nodiscard]] std::string wire_double(double value);

}  // namespace tacc::workload
