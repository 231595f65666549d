// Bounded local-search move proposal against a live DynamicCluster.
//
// propose_plan() is the read-only half of the background re-optimizer: it
// scans a bounded slice of the device population, scores candidate
// device-reassignment and pairwise-swap moves with the cluster's shared
// CostModel (DynamicCluster::placement_cost — the same scoring the greedy
// join/move paths and the portfolio solvers' gap::Instance::cost use), and
// emits a MovePlan for DynamicCluster::apply_move_plan() to validate and
// apply under the cluster lock.
//
// Incrementality: the planner rides the IncrementalDelayEngine. Device
// delay rows carry the engine epoch they were last rewritten at
// (DynamicCluster::delay_row_epoch); rows dirtied since the planner's last
// pass — i.e. devices whose delays actually moved under link churn — are
// scanned first, and the remainder of the scan budget round-robins through
// the rest of the population across passes. Move evaluation itself is O(1)
// per candidate server: a cached-row read, never a Dijkstra.
//
// The planner only READS the cluster. All mutation goes through
// apply_move_plan() (lint rule R6 bans direct mutator calls from this
// directory).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/dynamic.hpp"
#include "core/move_plan.hpp"
#include "util/rng.hpp"

namespace tacc::opt {

/// Plan size cap per pass; the re-optimizer lowers it further to the
/// migration budget's remaining headroom.
inline constexpr std::size_t kMaxPlanMoves = 16;

/// Cross-pass planner memory: the round-robin scan cursor, the engine epoch
/// up to which rows have been considered (dirty-row prioritization), and
/// the deterministic swap-sampling stream.
struct PlannerState {
  explicit PlannerState(std::uint64_t seed = 0x0500B1ull) : rng(seed) {}
  std::size_t cursor = 0;
  std::uint64_t seen_epoch = 0;
  util::Rng rng;
};

/// One bounded proposal pass of at most `max_plan_moves` moves, within the
/// fixed per-pass scan, swap and chain bounds of planner.cpp. Never mutates
/// the cluster; the caller must hold whatever lock makes concurrent cluster
/// mutation impossible for the duration of the call (reads are not
/// internally synchronized).
[[nodiscard]] MovePlan propose_plan(const DynamicCluster& cluster,
                                    std::size_t max_plan_moves,
                                    PlannerState& state);

}  // namespace tacc::opt
