// Builds a GAP instance from a network topology and a workload — the bridge
// between the physical model and the optimization problem.
#pragma once

#include "gap/instance.hpp"
#include "topology/network.hpp"
#include "workload/devices.hpp"

namespace tacc::gap {

struct BuilderOptions {
  /// Use straight-line distance instead of shortest-path delay as the cost
  /// metric — the *topology-oblivious* ablation (experiment A1). The true
  /// delay matrix is always kept for reporting realized delays.
  bool topology_oblivious_costs = false;
  /// Replacement for infinite (unreachable) delay entries, which appear
  /// when failure injection disconnects a device from *some* servers.
  /// 0 keeps the infinities (solvers then naturally avoid those servers,
  /// but averages over assignments using them are infinite). A large
  /// finite value keeps all arithmetic well-behaved while still making
  /// unreachable servers unattractive.
  double unreachable_delay_ms = 0.0;
};

/// `net` must have the same device/server counts (and order) as `workload`.
/// Traffic weights are the devices' request rates, and the workload's
/// per-device deadlines are attached, so evaluations report deadline
/// violations (and with_deadline_penalty() is available).
[[nodiscard]] Instance build_instance(const topo::NetworkTopology& net,
                                      const workload::Workload& workload,
                                      const BuilderOptions& options = {});

}  // namespace tacc::gap
