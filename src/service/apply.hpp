// The one mapping from a parsed cluster request to its DynamicCluster call.
// taccd's engine calls it, and so do the benches and tests that replay a
// workload in-process (WireAdapter line -> parse_request -> apply). It does
// the cluster call and nothing else: no reply formatting, no timing and no
// extra reads such as avg_delay_ms(), so a caller timing it times exactly
// the mutation.
#pragma once

#include <variant>

#include "core/dynamic.hpp"
#include "service/protocol.hpp"

namespace tacc::service {

/// What the cluster call produced: a JoinResult for JOIN and MOVE, an
/// EvacuationReport for FAIL and EVACUATE, a LinkUpdateReport for LINK_*,
/// and nothing (monostate) for LEAVE and RECOVER.
using ApplyResult = std::variant<std::monostate, JoinResult, EvacuationReport,
                                 LinkUpdateReport>;

/// Applies one JOIN, MOVE (honouring `pinned`), LEAVE, FAIL (honouring
/// `evacuate`), RECOVER, EVACUATE, LINK_FAIL, LINK_RESTORE or LINK_SET.
/// Throws whatever DynamicCluster throws for a violated precondition, and
/// std::invalid_argument for any other verb.
ApplyResult apply(DynamicCluster& cluster, const Request& request);

}  // namespace tacc::service
