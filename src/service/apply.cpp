#include "service/apply.hpp"

#include <stdexcept>
#include <string>

#include "topology/geometry.hpp"
#include "topology/graph.hpp"
#include "workload/devices.hpp"

namespace tacc::service {

ApplyResult apply(DynamicCluster& cluster, const Request& request) {
  // parse_request keeps link endpoints within topo::NodeId.
  const auto u = static_cast<topo::NodeId>(request.link_u);
  const auto v = static_cast<topo::NodeId>(request.link_v);
  switch (request.verb) {
    case Verb::kJoin: {
      workload::IotDevice device;
      device.position = {request.x, request.y};
      device.request_rate_hz = request.rate_hz;
      device.demand = request.demand;
      return cluster.join(device);
    }
    case Verb::kMove: {
      const topo::Point2D position{request.x, request.y};
      return request.pinned ? cluster.move_pinned(request.index, position)
                            : cluster.move(request.index, position);
    }
    case Verb::kLeave:
      cluster.leave(request.index);
      return {};
    case Verb::kFail:
      return cluster.fail_server(request.index, request.evacuate);
    case Verb::kRecover:
      cluster.recover_server(request.index);
      return {};
    case Verb::kEvacuate:
      return cluster.evacuate_server(request.index);
    case Verb::kLinkFail:
      return cluster.fail_link(u, v);
    case Verb::kLinkRestore:
      return cluster.restore_link(u, v);
    case Verb::kLinkSet:
      return cluster.set_link_latency(u, v, request.latency_ms);
    default:
      throw std::invalid_argument(std::string(to_string(request.verb)) +
                                  " is not a cluster verb");
  }
}

}  // namespace tacc::service
