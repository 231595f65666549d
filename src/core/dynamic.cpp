#include "core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"

namespace tacc {

namespace {
constexpr double kEps = 1e-9;

// Objective terms are fixed point at 2^-40 ms: %.6g cannot tell their mean
// from a double scan. A delay below 2^23 ms scales to under 2^63, so a term
// fits in int64 and the __int128 sum of any slot count cannot overflow.
// Delays are non-negative, so adding a half and truncating rounds to
// nearest, in one conversion instruction rather than a libm call.
constexpr double kTermScale = 0x1p40;
constexpr double kTermLimitMs = 0x1p23;
constexpr std::int64_t kUnreachableTerm =
    std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kWideTerm = kUnreachableTerm + 1;  ///< out of range

std::int64_t to_term(double delay_ms) {
  if (delay_ms == topo::kUnreachable) return kUnreachableTerm;
  if (!(std::fabs(delay_ms) < kTermLimitMs)) return kWideTerm;
  return static_cast<std::int64_t>(delay_ms * kTermScale + 0.5);
}
}

void DynamicCluster::TermSum::add(std::int64_t term, std::int64_t count) {
  if (term == kUnreachableTerm) {
    unreachable += count;
  } else if (term == kWideTerm) {
    wide += count;
  } else {
    sum += static_cast<__int128>(term) * count;
  }
}

DynamicCluster::TermSum& DynamicCluster::TermSum::operator+=(
    const TermSum& other) {
  sum += other.sum;
  unreachable += other.unreachable;
  wide += other.wide;
  return *this;
}

DynamicCluster::TermSum& DynamicCluster::TermSum::operator-=(
    const TermSum& other) {
  sum -= other.sum;
  unreachable -= other.unreachable;
  wide -= other.wide;
  return *this;
}

DynamicCluster::DynamicCluster(const Scenario& scenario, Algorithm initial,
                               const AlgorithmOptions& options)
    : DynamicCluster(scenario, ConfigureRequest{initial, options}) {}

DynamicCluster::DynamicCluster(const Scenario& scenario,
                               const ConfigureRequest& request)
    : net_(scenario.network()),
      engine_(net_),
      oracle_(engine_),
      router_positions_(net_.positions.begin(),
                        net_.positions.begin() +
                            static_cast<std::ptrdiff_t>(net_.router_count())),
      cost_model_(request.cost_model),
      penalty_factor_(request.penalty_factor) {

  const auto& wl = scenario.workload();
  devices_ = wl.iot;
  capacities_.reserve(wl.edges.size());
  for (const auto& server : wl.edges) capacities_.push_back(server.capacity);

  const ClusterConfigurator configurator(scenario);
  const ClusterConfiguration conf = configurator.configure(request);
  assignment_ = conf.assignment();

  loads_.assign(capacities_.size(), 0.0);
  failed_.assign(capacities_.size(), false);
  generations_.assign(devices_.size(), 0);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    // Filled from the engine's server trees — the same Dijkstra values the
    // scenario's instance matrix was built from.
    oracle_.bind_row(i, net_.iot_nodes[i]);
    loads_[static_cast<std::size_t>(assignment_[i])] += devices_[i].demand;
    count_slot(i, 1);
  }
  active_ = devices_.size();
}

double DynamicCluster::placement_cost(std::size_t device_index,
                                      std::size_t server) const {
  return cost_of(device_index, oracle_.delay_ms(device_index, server));
}

double DynamicCluster::cost_of(std::size_t device_index, double delay) const {
  const workload::IotDevice& device = devices_[device_index];
  double cost = device.request_rate_hz * delay;
  // kEuclidean deliberately scores as kTopologyAware here: the live engine
  // only ever knows true shortest-path delays (see the ctor comment).
  if (cost_model_ == CostModel::kDeadlinePenalized &&
      delay > device.deadline_ms) {
    cost *= penalty_factor_;
  }
  return cost;
}

double DynamicCluster::total_cost() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (assignment_[i] == gap::kUnassigned) continue;
    sum += placement_cost(i, static_cast<std::size_t>(assignment_[i]));
  }
  return sum;
}

void DynamicCluster::assign(std::size_t slot, std::int32_t server) {
  if (assignment_[slot] != gap::kUnassigned) count_slot(slot, -1);
  assignment_[slot] = server;
  if (server != gap::kUnassigned) count_slot(slot, 1);
}

void DynamicCluster::relocate(std::size_t slot, std::size_t to) {
  const double demand = devices_[slot].demand;
  loads_[static_cast<std::size_t>(assignment_[slot])] -= demand;
  loads_[to] += demand;
  assign(slot, static_cast<std::int32_t>(to));
  ++assignment_version_;
}

void DynamicCluster::count_slot(std::size_t slot, std::int64_t count) {
  // The row is bound while the slot is assigned, so its key and latency
  // are the ones the slot was counted with.
  const std::uint32_t key = oracle_.row_key_slot(slot);
  const std::size_t servers = capacities_.size();
  if (key >= key_terms_.size()) {
    key_terms_.resize(std::size_t{key} + 1);
    residents_.resize(key_terms_.size() * servers, 0);
  }
  const auto server = static_cast<std::size_t>(assignment_[slot]);
  std::uint32_t& residents = residents_[std::size_t{key} * servers + server];
  residents = count > 0 ? residents + 1 : residents - 1;
  // A placement reads the slot's entry; a removal reads the value it was
  // counted with, since a key row moves only in a refresh, which recounts
  // the key.
  const std::int64_t key_term =
      to_term(count > 0 ? oracle_.key_entry(slot, server)
                        : oracle_.key_value(key, server));
  key_terms_[key].add(key_term, count);
  objective_.add(key_term, count);
  objective_.add(to_term(oracle_.row_latency(slot)), count);
}

void DynamicCluster::recount_key(std::uint32_t key) {
  if (key >= key_terms_.size()) return;  // never counted a slot
  TermSum& terms = key_terms_[key];
  objective_ -= terms;
  terms = TermSum{};
  const std::size_t servers = capacities_.size();
  const std::uint32_t* residents = &residents_[std::size_t{key} * servers];
  for (std::size_t j = 0; j < servers; ++j) {
    if (residents[j] != 0) {
      terms.add(to_term(oracle_.key_value(key, j)), residents[j]);
    }
  }
  objective_ += terms;
}

DynamicCluster::ServerChoice DynamicCluster::cheapest_feasible_server(
    std::size_t device_index) const {
  const double demand = devices_[device_index].demand;

  std::size_t best = capacities_.size();
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t least_loaded = capacities_.size();
  double least_utilization = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < capacities_.size(); ++j) {
    if (failed_[j]) continue;
    const double new_load = loads_[j] + demand;
    const double cost = placement_cost(device_index, j);
    if (new_load <= capacities_[j] + kEps && cost < best_cost) {
      best = j;
      best_cost = cost;
    }
    const double utilization = new_load / capacities_[j];
    if (utilization < least_utilization) {
      least_utilization = utilization;
      least_loaded = j;
    }
  }
  if (best != capacities_.size()) return {best, true};
  if (least_loaded == capacities_.size()) {
    throw std::logic_error(
        "DynamicCluster::cheapest_feasible_server: every server has failed");
  }
  return {least_loaded, false};
}

topo::NearestRouter DynamicCluster::nearest_router(
    topo::Point2D position) const {
  const topo::NearestRouter nearest =
      topo::nearest_router(router_positions_, position);
  if (!std::isfinite(nearest.distance_km)) {
    throw std::invalid_argument(
        "DynamicCluster: device position has no finite router distance");
  }
  return nearest;
}

void DynamicCluster::attach_device(std::size_t slot,
                                   const workload::IotDevice& device,
                                   const topo::NearestRouter& access) {
  // Attach to the nearest router with a wireless access link.
  const topo::NodeId node =
      engine_.acquire_node(device.position, topo::NodeKind::kIotDevice);
  engine_.add_link(node, access.router,
                   topo::access_link(access.distance_km));

  if (slot == devices_.size()) {
    devices_.push_back(device);
    assignment_.push_back(gap::kUnassigned);
    generations_.push_back(0);
    net_.iot_nodes.push_back(node);
  } else {
    devices_[slot] = device;
    net_.iot_nodes[slot] = node;
  }
  // The engine reports no host's own links: the row is rebound here.
  oracle_.bind_row(slot, node);
}

void DynamicCluster::detach_device(std::size_t slot) {
  oracle_.unbind_row(slot);
  engine_.release_node(net_.iot_nodes[slot]);
  net_.iot_nodes[slot] = topo::kInvalidNode;
}

JoinResult DynamicCluster::place_device(std::size_t slot) {
  TACC_REQUIRE(slot < devices_.size());
  const ServerChoice choice = cheapest_feasible_server(slot);
  TACC_ENSURE(choice.server < capacities_.size() && !failed_[choice.server],
              "placement must land on a healthy server");
  const double delay = oracle_.delay_ms(slot, choice.server);
  assign(slot, static_cast<std::int32_t>(choice.server));
  loads_[choice.server] += devices_[slot].demand;
  ++assignment_version_;
  TACC_ENSURE(!choice.feasible ||
                  loads_[choice.server] <= capacities_[choice.server] + kEps,
              "feasible placement overloaded its server");
  return {slot, choice.server, choice.feasible, !choice.feasible,
          cost_of(slot, delay)};
}

JoinResult DynamicCluster::join(const workload::IotDevice& device) {
  if (!std::isfinite(device.demand)) {
    throw std::invalid_argument("DynamicCluster::join: demand is not finite");
  }
  const topo::NearestRouter access = nearest_router(device.position);
  std::size_t slot = devices_.size();
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  attach_device(slot, device, access);
  const JoinResult result = place_device(slot);
  ++active_;
  return result;
}

JoinResult DynamicCluster::move(std::size_t device_index,
                                topo::Point2D new_position) {
  if (!is_active(device_index)) {
    throw std::invalid_argument("DynamicCluster::move: not active");
  }
  const topo::NearestRouter access = nearest_router(new_position);
  const auto from = static_cast<std::size_t>(assignment_[device_index]);
  loads_[from] -= devices_[device_index].demand;
  workload::IotDevice device = devices_[device_index];
  device.position = new_position;
  assign(device_index, gap::kUnassigned);
  detach_device(device_index);
  attach_device(device_index, device, access);
  return place_device(device_index);
}

JoinResult DynamicCluster::move_pinned(std::size_t device_index,
                                       topo::Point2D new_position) {
  if (!is_active(device_index)) {
    throw std::invalid_argument("DynamicCluster::move_pinned: not active");
  }
  const topo::NearestRouter access = nearest_router(new_position);
  const auto pinned = static_cast<std::size_t>(assignment_[device_index]);
  workload::IotDevice device = devices_[device_index];
  device.position = new_position;
  assign(device_index, gap::kUnassigned);
  detach_device(device_index);
  attach_device(device_index, device, access);
  if (failed_[pinned]) {
    // The pinned server went down (deferred evacuation): a handover must
    // never land a device back on a failed server.
    loads_[pinned] -= device.demand;
    return place_device(device_index);
  }
  // The row was rebound, so the slot is counted anew on the same server.
  const double delay = oracle_.delay_ms(device_index, pinned);
  assign(device_index, static_cast<std::int32_t>(pinned));
  ++assignment_version_;
  // Score through the shared CostModel rather than re-deriving delay
  // locally — the "no reconfiguration" baseline and the re-optimizer must
  // price the same placement identically.
  return {device_index, pinned, loads_[pinned] <= capacities_[pinned] + kEps,
          false, cost_of(device_index, delay)};
}

void DynamicCluster::leave(std::size_t device_index) {
  if (device_index >= devices_.size() ||
      assignment_[device_index] == gap::kUnassigned) {
    throw std::invalid_argument("DynamicCluster::leave: not active");
  }
  const auto j = static_cast<std::size_t>(assignment_[device_index]);
  loads_[j] -= devices_[device_index].demand;
  TACC_ENSURE(loads_[j] >= -kEps,
              "leave drove a server's load negative — double free?");
  assign(device_index, gap::kUnassigned);
  detach_device(device_index);
  free_slots_.push_back(device_index);
  ++generations_[device_index];  // recycled occupants are a new generation
  ++assignment_version_;
  --active_;
}

std::size_t DynamicCluster::rebalance(std::size_t max_moves) {
  std::size_t moves = 0;
  bool improved = true;
  while (improved && moves < max_moves) {
    improved = false;
    for (std::size_t i = 0; i < devices_.size() && moves < max_moves; ++i) {
      if (assignment_[i] == gap::kUnassigned) continue;
      const auto from = static_cast<std::size_t>(assignment_[i]);
      const double demand = devices_[i].demand;
      std::size_t best = from;
      double best_cost = placement_cost(i, from);
      for (std::size_t j = 0; j < capacities_.size(); ++j) {
        if (j == from || failed_[j]) continue;
        if (loads_[j] + demand > capacities_[j] + kEps) continue;
        const double cost = placement_cost(i, j);
        if (cost < best_cost - kEps) {
          best_cost = cost;
          best = j;
        }
      }
      if (best != from) {
        relocate(i, best);
        ++moves;
        improved = true;
      }
    }
  }
  return moves;
}

std::size_t DynamicCluster::repair(std::size_t max_moves) {
  std::size_t moves = 0;
  for (std::size_t j = 0; j < capacities_.size() && moves < max_moves; ++j) {
    if (failed_[j]) continue;
    while (loads_[j] > capacities_[j] + kEps && moves < max_moves) {
      std::size_t victim = devices_.size();
      std::size_t target = capacities_.size();
      double best_delta = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        if (assignment_[i] == gap::kUnassigned ||
            static_cast<std::size_t>(assignment_[i]) != j) {
          continue;
        }
        const double demand = devices_[i].demand;
        for (std::size_t k = 0; k < capacities_.size(); ++k) {
          if (k == j || failed_[k]) continue;
          if (loads_[k] + demand > capacities_[k] + kEps) continue;
          const double delta = placement_cost(i, k) - placement_cost(i, j);
          if (delta < best_delta) {
            best_delta = delta;
            victim = i;
            target = k;
          }
        }
      }
      if (victim == devices_.size()) break;  // nothing movable off j
      relocate(victim, target);
      ++moves;
    }
  }
  return moves;
}

MovePlanReport DynamicCluster::apply_move_plan(const MovePlan& plan,
                                               BudgetLedger* ledger) {
  MovePlanReport report;
  for (const PlannedMove& move : plan.moves) {
    // Staleness first: the proposal's view of the world must still hold.
    if (move.device >= devices_.size() || !is_active(move.device) ||
        generations_[move.device] != move.generation ||
        static_cast<std::size_t>(assignment_[move.device]) != move.from ||
        move.to >= capacities_.size() || move.to == move.from) {
      ++report.rejected_stale;
      continue;
    }
    if (failed_[move.to]) {
      ++report.rejected_target_failed;
      continue;
    }
    const double demand = devices_[move.device].demand;
    if (loads_[move.to] + demand > capacities_[move.to] + kEps) {
      ++report.rejected_infeasible;
      continue;
    }
    if (ledger != nullptr && !ledger->allows(move.device)) {
      ++report.rejected_budget;
      continue;
    }
    // Score the gain against live delays, not the proposal's prediction.
    const double delay = oracle_.delay_ms(move.device, move.to);
    report.achieved_gain +=
        placement_cost(move.device, move.from) - cost_of(move.device, delay);
    relocate(move.device, move.to);
    if (ledger != nullptr) ledger->charge(move.device);
    ++report.applied;
  }
  TACC_ENSURE(report.applied + report.rejected() == plan.moves.size(),
              "move plan outcomes must partition the plan");
  return report;
}

EvacuationReport DynamicCluster::fail_server(std::size_t server,
                                             bool evacuate) {
  if (server >= capacities_.size() || failed_[server]) {
    throw std::invalid_argument("DynamicCluster::fail_server: bad server");
  }
  if (healthy_server_count() <= 1) {
    throw std::logic_error(
        "DynamicCluster::fail_server: cannot fail the last healthy server");
  }
  failed_[server] = true;
  return evacuate ? evacuate_server(server) : EvacuationReport{};
}

EvacuationReport DynamicCluster::evacuate_server(std::size_t server) {
  if (server >= capacities_.size() || !failed_[server]) {
    throw std::invalid_argument(
        "DynamicCluster::evacuate_server: server not failed");
  }
  EvacuationReport report;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (assignment_[i] == gap::kUnassigned ||
        static_cast<std::size_t>(assignment_[i]) != server) {
      continue;
    }
    loads_[server] -= devices_[i].demand;
    const JoinResult placed = place_device(i);
    ++report.evacuated;
    if (placed.overload_fallback) ++report.overloaded;
  }
  return report;
}

void DynamicCluster::recover_server(std::size_t server) {
  if (server >= capacities_.size() || !failed_[server]) {
    throw std::invalid_argument(
        "DynamicCluster::recover_server: server not failed");
  }
  failed_[server] = false;
}

std::size_t DynamicCluster::healthy_server_count() const noexcept {
  std::size_t healthy = 0;
  for (bool f : failed_) {
    if (!f) ++healthy;
  }
  return healthy;
}

std::size_t DynamicCluster::server_of(std::size_t device_index) const {
  if (!is_active(device_index)) {
    throw std::invalid_argument("DynamicCluster::server_of: not active");
  }
  return static_cast<std::size_t>(assignment_[device_index]);
}

double DynamicCluster::avg_delay_ms() const noexcept {
  if (active_ == 0) return 0.0;
  if (objective_.unreachable != 0) return topo::kUnreachable;
  if (objective_.wide == 0) {
    return static_cast<double>(objective_.sum) / kTermScale /
           static_cast<double>(active_);
  }
  // An out-of-range term holds no value: scan the served delays instead.
  double sum = 0.0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (assignment_[i] == gap::kUnassigned) continue;
    sum += oracle_.delay_ms(i, static_cast<std::size_t>(assignment_[i]));
  }
  return sum / static_cast<double>(active_);
}

double DynamicCluster::max_utilization() const noexcept {
  double peak = 0.0;
  for (std::size_t j = 0; j < capacities_.size(); ++j) {
    if (failed_[j]) continue;
    peak = std::max(peak, loads_[j] / capacities_[j]);
  }
  return peak;
}

void DynamicCluster::require_backbone(topo::NodeId u, topo::NodeId v) const {
  if (u >= net_.kinds.size() || v >= net_.kinds.size() ||
      net_.kinds[u] != topo::NodeKind::kRouter ||
      net_.kinds[v] != topo::NodeKind::kRouter) {
    throw std::invalid_argument(
        "DynamicCluster: link endpoints must be router nodes");
  }
}

LinkUpdateReport DynamicCluster::finish_link_update(
    const topo::incr::EngineStats& before, double latency_ms) {
  LinkUpdateReport report;
  report.rows_refreshed = oracle_.refresh();
  // Only the moved keys' rows serve moved delays.
  for (const std::uint32_t key : oracle_.moved_keys()) recount_key(key);
  const topo::incr::EngineStats& after = engine_.stats();
  report.epoch = after.epoch;
  report.nodes_affected = after.nodes_affected - before.nodes_affected;
  report.nodes_saved = after.nodes_saved - before.nodes_saved;
  report.latency_ms = latency_ms;
  return report;
}

LinkUpdateReport DynamicCluster::fail_link(topo::NodeId u, topo::NodeId v) {
  require_backbone(u, v);
  const topo::incr::EngineStats before = engine_.stats();
  const topo::EdgeProps props = engine_.fail_link(u, v);
  return finish_link_update(before, props.latency_ms);
}

LinkUpdateReport DynamicCluster::restore_link(topo::NodeId u, topo::NodeId v) {
  require_backbone(u, v);
  const topo::incr::EngineStats before = engine_.stats();
  const topo::EdgeProps props = engine_.restore_link(u, v);
  return finish_link_update(before, props.latency_ms);
}

LinkUpdateReport DynamicCluster::set_link_latency(topo::NodeId u,
                                                  topo::NodeId v,
                                                  double latency_ms) {
  require_backbone(u, v);
  const topo::incr::EngineStats before = engine_.stats();
  const topo::EdgeProps previous = engine_.set_link_latency(u, v, latency_ms);
  return finish_link_update(before, previous.latency_ms);
}

void DynamicCluster::check_invariants(const InvariantOptions& options) const {
  // ---- Slot accounting -----------------------------------------------------
  TACC_CHECK_INVARIANT(assignment_.size() == devices_.size(),
                       "assignment must cover every device slot");
  TACC_CHECK_INVARIANT(net_.iot_nodes.size() == devices_.size(),
                       "iot_nodes must cover every device slot");
  TACC_CHECK_INVARIANT(
      loads_.size() == capacities_.size() && failed_.size() == loads_.size(),
      "per-server arrays must stay parallel");
  TACC_CHECK_INVARIANT(generations_.size() == devices_.size(),
                       "slot generations must cover every device slot");
  const std::size_t servers = capacities_.size();
  TACC_CHECK_INVARIANT(residents_.size() == key_terms_.size() * servers,
                       "one resident count per key and server");

  std::vector<bool> on_free_list(devices_.size(), false);
  for (const std::size_t slot : free_slots_) {
    TACC_CHECK_INVARIANT(slot < devices_.size(),
                         "free slot out of range: " + std::to_string(slot));
    TACC_CHECK_INVARIANT(!on_free_list[slot], "slot on the free list twice: " +
                                                  std::to_string(slot));
    on_free_list[slot] = true;
    TACC_CHECK_INVARIANT(assignment_[slot] == gap::kUnassigned,
                         "free slot still assigned: " + std::to_string(slot));
    TACC_CHECK_INVARIANT(net_.iot_nodes[slot] == topo::kInvalidNode,
                         "free slot still holds a graph node: " +
                             std::to_string(slot));
  }

  // ---- Load accounting + slot<->row binding + objective terms -------------
  std::size_t active_seen = 0;
  std::vector<double> recomputed(capacities_.size(), 0.0);
  std::vector<std::uint32_t> residents(residents_.size(), 0);
  TermSum objective;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (assignment_[i] == gap::kUnassigned) {
      TACC_CHECK_INVARIANT(on_free_list[i],
                           "inactive slot missing from the free list: " +
                               std::to_string(i));
      TACC_CHECK_INVARIANT(
          i >= oracle_.row_count() ||
              oracle_.row_node(i) == topo::kInvalidNode,
          "inactive slot still bound to a delay row: " + std::to_string(i));
      continue;
    }
    ++active_seen;
    TACC_CHECK_INVARIANT(!on_free_list[i],
                         "active slot sits on the free list: " +
                             std::to_string(i));
    const auto j = static_cast<std::size_t>(assignment_[i]);
    TACC_CHECK_INVARIANT(j < capacities_.size(),
                         "assignment points past the server table: slot " +
                             std::to_string(i));
    TACC_CHECK_INVARIANT(devices_[i].demand >= 0.0,
                         "negative demand on slot " + std::to_string(i));
    recomputed[j] += devices_[i].demand;
    TACC_CHECK_INVARIANT(i < oracle_.row_count() &&
                             oracle_.row_node(i) == net_.iot_nodes[i],
                         "delay row bound to the wrong graph node: slot " +
                             std::to_string(i));
    // Rows serve current values whatever was read before, so each slot's
    // parts must come from its row now: the independent reference.
    const std::uint32_t key = oracle_.row_key_slot(i);
    TACC_CHECK_INVARIANT(key < key_terms_.size(),
                         "slot reads a key that was never counted: slot " +
                             std::to_string(i));
    const std::int64_t latency_term = to_term(oracle_.row_latency(i));
    objective.add(latency_term, 1);
    if (j < servers && key < key_terms_.size()) {
      ++residents[std::size_t{key} * servers + j];
      const std::int64_t key_term = to_term(oracle_.key_value(key, j));
      const double served = oracle_.delay_ms(i, j);
      if (key_term == kUnreachableTerm || latency_term == kUnreachableTerm) {
        TACC_CHECK_INVARIANT(served == topo::kUnreachable,
                             "an unreachable part serves a finite delay: "
                             "slot " +
                                 std::to_string(i));
      } else if (key_term != kWideTerm && latency_term != kWideTerm &&
                 to_term(served) != kWideTerm) {
        // Each part rounds by half a unit, and so does the served sum; the
        // served double addition itself rounds by half an ulp.
        const double gap = std::fabs(static_cast<double>(
            static_cast<__int128>(key_term) + latency_term -
            to_term(served)));
        const double ulp = std::nextafter(served, topo::kUnreachable) - served;
        TACC_CHECK_INVARIANT(gap <= 1.5 + ulp * kTermScale / 2.0,
                             "objective parts differ from the served delay: "
                             "slot " +
                                 std::to_string(i));
      }
    }
    if (options.forbid_failed_residents) {
      TACC_CHECK_INVARIANT(!failed_[j], "device assigned to failed server " +
                                            std::to_string(j));
    }
  }
  TACC_CHECK_INVARIANT(active_seen == active_,
                       "active count out of sync with assignments");
  TACC_CHECK_INVARIANT(residents == residents_,
                       "N[key][server] out of step with the assignments");
  for (std::uint32_t key = 0; key < key_terms_.size(); ++key) {
    TermSum terms;
    for (std::size_t j = 0; j < servers; ++j) {
      const std::uint32_t count = residents[std::size_t{key} * servers + j];
      if (count != 0) terms.add(to_term(oracle_.key_value(key, j)), count);
    }
    TACC_CHECK_INVARIANT(terms == key_terms_[key],
                         "key " + std::to_string(key) +
                             "'s objective sum differs from its recount");
    objective += terms;
  }
  TACC_CHECK_INVARIANT(objective == objective_,
                       "objective sum out of step with its parts");
  TACC_CHECK_INVARIANT(active_ + free_slots_.size() == devices_.size(),
                       "slots must be exactly active or free");

  for (std::size_t j = 0; j < capacities_.size(); ++j) {
    TACC_CHECK_INVARIANT(std::abs(loads_[j] - recomputed[j]) <= 1e-6,
                         "load accounting drifted on server " +
                             std::to_string(j) + " (recorded " +
                             std::to_string(loads_[j]) + ", actual " +
                             std::to_string(recomputed[j]) + ")");
    if (options.require_feasible && !failed_[j]) {
      TACC_CHECK_INVARIANT(loads_[j] <= capacities_[j] + kEps,
                           "server " + std::to_string(j) +
                               " past capacity with require_feasible set");
    }
  }

  // ---- Node recycling ------------------------------------------------------
  TACC_CHECK_INVARIANT(
      net_.graph.live_node_count() ==
          router_positions_.size() + net_.edge_count() + active_,
      "live graph nodes must be exactly routers + servers + active devices");

  // ---- Pending notifications ------------------------------------------------
  // Device churn dirties no key and a link update refreshes what it moved,
  // so nothing is left for the next link update to find.
  TACC_CHECK_INVARIANT(engine_.dirty_count() == 0,
                       "engine notifications left pending between cluster "
                       "operations");

  // ---- Underlying topology / engine / oracle -------------------------------
  net_.check_invariants();
  engine_.check_invariants(options.delay_spot_checks);
  oracle_.check_invariants();
}

bool DynamicCluster::feasible() const noexcept {
  for (std::size_t j = 0; j < capacities_.size(); ++j) {
    if (loads_[j] > capacities_[j] + kEps) return false;
  }
  return true;
}

}  // namespace tacc
