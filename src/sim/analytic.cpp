#include "sim/analytic.hpp"

#include <limits>
#include <stdexcept>

#include "topology/shortest_paths.hpp"

namespace tacc::sim {

AnalyticResult predict_delays(const topo::NetworkTopology& net,
                              const workload::Workload& workload,
                              const gap::Assignment& assignment,
                              const AnalyticParams& params) {
  const std::size_t n = workload.iot.size();
  const std::size_t m = workload.edges.size();
  if (net.iot_count() != n || net.edge_count() != m) {
    throw std::invalid_argument("predict_delays: shape mismatch");
  }
  if (assignment.size() != n) {
    throw std::invalid_argument("predict_delays: assignment size mismatch");
  }

  AnalyticResult result;
  result.device_delay_ms.assign(n, 0.0);
  result.server_utilization.assign(m, 0.0);

  // Server side: per-server arrival rate and (deterministic) service time.
  // Service time for a request from device i on server j is
  // (demand_i / rate_i) / (capacity_j / headroom) seconds. With demand
  // proportional to rate (the default workload), this is uniform per
  // server, making M/D/1 exact in-model.
  std::vector<double> arrival_rate(m, 0.0);       // requests/sec
  std::vector<double> busy_rate(m, 0.0);          // Σ λ_i · s_ij (= ρ)
  std::vector<double> weighted_service(m, 0.0);   // Σ λ_i · s_ij² (for PK)
  for (std::size_t i = 0; i < n; ++i) {
    if (assignment[i] == gap::kUnassigned) {
      throw std::invalid_argument("predict_delays: incomplete assignment");
    }
    const auto j = static_cast<std::size_t>(assignment[i]);
    const auto& dev = workload.iot[i];
    const double service_rate =
        workload.edges[j].capacity / params.capacity_headroom;
    const double service_s =
        (dev.demand / dev.request_rate_hz) / service_rate;
    arrival_rate[j] += dev.request_rate_hz;
    busy_rate[j] += dev.request_rate_hz * service_s;
    weighted_service[j] += dev.request_rate_hz * service_s * service_s;
  }

  // Pollaczek–Khinchine mean wait for M/G/1 with deterministic service:
  // W = λ·E[S²] / (2(1−ρ)). Using the per-server aggregate moments keeps
  // heterogeneous per-device service times exact.
  std::vector<double> wait_ms(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    result.server_utilization[j] = busy_rate[j];
    if (busy_rate[j] >= 1.0) {
      result.saturated = true;
      wait_ms[j] = std::numeric_limits<double>::infinity();
    } else {
      wait_ms[j] = 1000.0 * weighted_service[j] / (2.0 * (1.0 - busy_rate[j]));
    }
  }

  // Network side: per-server Dijkstra for path delay; transmission time
  // summed per hop from each link's bandwidth.
  double total = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    bool server_used = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<std::size_t>(assignment[i]) == j) {
        server_used = true;
        break;
      }
    }
    if (!server_used) continue;
    const auto tree =
        topo::dijkstra(net.graph, net.edge_nodes[j], net.router_count());
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<std::size_t>(assignment[i]) != j) continue;
      const topo::NodeId anchor = net.hosts.anchor[i];
      const auto path = tree.path_to(anchor);
      if (path.empty()) {
        throw std::invalid_argument("predict_delays: unreachable server");
      }
      const topo::EdgeProps access = net.hosts.access[i];
      double delay = tree.distance_ms[anchor] + access.latency_ms;
      // Transmission per hop: the tree path to the anchor, then the access
      // link.
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        double bandwidth = 0.0;
        for (const auto& adj : net.graph.neighbors(path[h])) {
          if (adj.to == path[h + 1]) {
            bandwidth = adj.props.bandwidth_mbps;
            break;
          }
        }
        delay += 8.0 * workload.iot[i].message_size_kb / bandwidth;
      }
      delay += 8.0 * workload.iot[i].message_size_kb / access.bandwidth_mbps;
      // Service + wait at the server.
      const auto& dev = workload.iot[i];
      const double service_rate =
          workload.edges[j].capacity / params.capacity_headroom;
      delay += wait_ms[j] +
               1000.0 * (dev.demand / dev.request_rate_hz) / service_rate;
      result.device_delay_ms[i] = delay;
      total += delay;
    }
  }
  result.mean_delay_ms = total / static_cast<double>(n);
  return result;
}

}  // namespace tacc::sim
