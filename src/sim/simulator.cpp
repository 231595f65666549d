#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "sim/event_queue.hpp"
#include "topology/shortest_paths.hpp"
#include "util/rng.hpp"

namespace tacc::sim {

namespace {

/// One hop of a device's fixed route: directed-link state index plus the
/// link's physical properties.
struct Hop {
  std::uint32_t link_state;  ///< index into link_free_ms
  double latency_ms;         ///< propagation + forwarding
  double bandwidth_mbps;
};

struct GenerationEvent {
  std::uint32_t device;
};

struct HopArrivalEvent {
  std::uint32_t device;
  std::uint32_t hop_index;  ///< hop about to be traversed
  double generated_at_ms;
};

}  // namespace

SimResult simulate(const topo::NetworkTopology& net,
                   const workload::Workload& workload,
                   const gap::Assignment& assignment,
                   const SimParams& params) {
  const std::size_t n = workload.iot.size();
  const std::size_t m = workload.edges.size();
  if (net.iot_count() != n || net.edge_count() != m) {
    throw std::invalid_argument("simulate: net/workload shape mismatch");
  }
  if (assignment.size() != n) {
    throw std::invalid_argument("simulate: assignment size mismatch");
  }
  for (std::int32_t x : assignment) {
    if (x == gap::kUnassigned || static_cast<std::size_t>(x) >= m) {
      throw std::invalid_argument("simulate: incomplete assignment");
    }
  }

  // --- Precompute per-device routes (device → assigned server node).
  // One Dijkstra per *server* covers all devices assigned to it.
  std::vector<std::vector<Hop>> routes(n);
  std::unordered_map<std::uint64_t, std::uint32_t> link_index;
  std::vector<double> link_free_ms;  // directed-link next-free time
  const auto directed_link_state = [&](topo::NodeId u, topo::NodeId v) {
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    const auto [it, inserted] = link_index.try_emplace(
        key, static_cast<std::uint32_t>(link_free_ms.size()));
    if (inserted) link_free_ms.push_back(0.0);
    return it->second;
  };
  const auto edge_props = [&](topo::NodeId u, topo::NodeId v) {
    for (const auto& adj : net.graph.neighbors(u)) {
      if (adj.to == v) return adj.props;
    }
    throw std::logic_error("simulate: path uses nonexistent edge");
  };

  for (std::size_t j = 0; j < m; ++j) {
    const auto tree =
        topo::dijkstra(net.graph, net.edge_nodes[j], net.router_count());
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<std::size_t>(assignment[i]) != j) continue;
      // Path from server to the device's anchor router; the device first
      // takes its own access link, then the path reversed (→ server).
      const auto path = tree.path_to(net.hosts.anchor[i]);
      if (path.empty()) {
        throw std::invalid_argument("simulate: device unreachable from server");
      }
      auto& route = routes[i];
      const topo::EdgeProps access = net.hosts.access[i];
      route.push_back({static_cast<std::uint32_t>(link_free_ms.size()),
                       access.latency_ms, access.bandwidth_mbps});
      link_free_ms.push_back(0.0);  // the access link is the device's own
      for (std::size_t h = path.size(); h-- > 1;) {
        const topo::NodeId from = path[h];
        const topo::NodeId to = path[h - 1];
        const auto props = edge_props(from, to);
        route.push_back({directed_link_state(from, to), props.latency_ms,
                         props.bandwidth_mbps});
      }
    }
  }

  // --- Server queues: deterministic per-request service time derived from
  // capacity. demand_i units/sec at a server of capacity c_j means each of
  // the device's rate_i requests/sec costs (demand_i / rate_i)/c_j seconds.
  std::vector<double> server_free_ms(m, 0.0);
  std::vector<double> server_busy_ms(m, 0.0);
  std::vector<double> service_ms(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& dev = workload.iot[i];
    const double service_rate =
        workload.edges[static_cast<std::size_t>(assignment[i])].capacity /
        params.capacity_headroom;
    service_ms[i] =
        1000.0 * (dev.demand / dev.request_rate_hz) / service_rate;
  }

  // --- Event loop.
  struct Pending {
    bool is_generation;
    GenerationEvent gen;
    HopArrivalEvent hop;
  };
  EventQueue<Pending> queue;
  util::Rng rng(params.seed);
  const double horizon_ms = params.duration_s * 1000.0;
  const double warmup_ms = params.warmup_s * 1000.0;

  SimResult result;
  result.server_utilization.assign(m, 0.0);

  for (std::uint32_t i = 0; i < n; ++i) {
    const double first =
        rng.exponential(workload.iot[i].request_rate_hz) * 1000.0;
    queue.push(first, Pending{true, {i}, {}});
  }

  while (!queue.empty()) {
    double now = 0.0;
    const Pending event = queue.pop(&now);
    if (now > horizon_ms) break;

    if (event.is_generation) {
      const std::uint32_t i = event.gen.device;
      ++result.messages_generated;
      queue.push(now, Pending{false, {}, {i, 0, now}});
      const double next =
          now + rng.exponential(workload.iot[i].request_rate_hz) * 1000.0;
      queue.push(next, Pending{true, {i}, {}});
      continue;
    }

    const HopArrivalEvent& hop_event = event.hop;
    const std::uint32_t i = hop_event.device;
    const auto& route = routes[i];

    if (hop_event.hop_index < route.size()) {
      // Traverse the next link: wait for it to free, transmit, propagate.
      const Hop& hop = route[hop_event.hop_index];
      const double transmission_ms =
          8.0 * workload.iot[i].message_size_kb / hop.bandwidth_mbps;
      const double start = std::max(now, link_free_ms[hop.link_state]);
      link_free_ms[hop.link_state] = start + transmission_ms;
      const double arrive = start + transmission_ms + hop.latency_ms;
      queue.push(arrive, Pending{false,
                                 {},
                                 {i, hop_event.hop_index + 1,
                                  hop_event.generated_at_ms}});
      continue;
    }

    // Reached the server: FIFO service queue.
    const auto j = static_cast<std::size_t>(assignment[i]);
    const double start = std::max(now, server_free_ms[j]);
    const double complete = start + service_ms[i];
    server_free_ms[j] = complete;
    if (complete <= horizon_ms) server_busy_ms[j] += service_ms[i];

    if (hop_event.generated_at_ms >= warmup_ms && complete <= horizon_ms) {
      const double delay = complete - hop_event.generated_at_ms;
      result.delay_ms.add(delay);
      ++result.messages_measured;
      if (delay > workload.iot[i].deadline_ms) ++result.deadline_misses;
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    result.server_utilization[j] = server_busy_ms[j] / horizon_ms;
  }
  return result;
}

}  // namespace tacc::sim
