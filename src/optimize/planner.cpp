#include "optimize/planner.hpp"

#include <algorithm>
#include <vector>

namespace tacc::opt {

namespace {
constexpr double kEps = 1e-9;  // matches DynamicCluster's feasibility slack
// Per-pass effort bounds. Costs are cost-model units (weight × ms).
constexpr std::size_t kScanLimit = 256;  // devices examined per pass
constexpr std::size_t kSwapLimit = 32;   // swap pairs sampled per pass
// Blocked-improvement eviction chains attempted per pass: when a device's
// cheaper server lacks headroom, relocate one of its residents first (two
// moves, net gain required). The escape hatch for capacity-tight regimes
// where no single move or feasible swap exists.
constexpr std::size_t kChainLimit = 8;
constexpr double kMinGain = 1e-6;  // ignore improvements below this
}  // namespace

MovePlan propose_plan(const DynamicCluster& cluster,
                      std::size_t max_plan_moves, PlannerState& state) {
  MovePlan plan;
  plan.delay_epoch = cluster.delay_epoch();
  const std::size_t slots = cluster.device_slot_count();
  const std::size_t servers = cluster.server_count();
  if (slots == 0 || servers < 2 || max_plan_moves == 0) {
    state.seen_epoch = plan.delay_epoch;
    return plan;
  }

  // Scan order: rows rewritten since the last pass (link churn moved their
  // delays) first, then round-robin so the whole population is revisited
  // across passes even when nothing is dirty.
  std::vector<std::size_t> order;
  order.reserve(std::min(kScanLimit, slots));
  std::vector<bool> queued(slots, false);
  for (std::size_t i = 0; i < slots && order.size() < kScanLimit;
       ++i) {
    if (cluster.is_active(i) &&
        cluster.delay_row_epoch(i) > state.seen_epoch) {
      order.push_back(i);
      queued[i] = true;
    }
  }
  const std::size_t cursor = slots == 0 ? 0 : state.cursor % slots;
  std::size_t stepped = 0;
  for (; stepped < slots && order.size() < kScanLimit; ++stepped) {
    const std::size_t i = (cursor + stepped) % slots;
    if (cluster.is_active(i) && !queued[i]) {
      order.push_back(i);
      queued[i] = true;
    }
  }
  state.cursor = (cursor + stepped) % slots;
  state.seen_epoch = plan.delay_epoch;

  // The plan's own view of loads and per-plan move markers: a batch must
  // not collectively overload a target, and a device moves at most once
  // per plan (its cached cost terms would be stale after the first move).
  std::vector<double> planned = cluster.loads();
  const std::vector<double>& caps = cluster.capacities();
  std::vector<bool> moved(slots, false);

  // ---- Single-device reassignment moves ------------------------------------
  // Improvements blocked only by the target's headroom are remembered: the
  // chain stage below may free that headroom by relocating a resident.
  struct Blocked {
    std::size_t device;
    std::size_t target;
    double gain;  ///< direct cost gain, ignoring capacity
  };
  std::vector<Blocked> blocked;
  for (const std::size_t i : order) {
    if (plan.moves.size() >= max_plan_moves) break;
    const std::size_t from = cluster.server_of(i);
    const double demand = cluster.device(i).demand;
    const double base_cost = cluster.placement_cost(i, from);
    double best_cost = base_cost;
    std::size_t best = from;
    double best_tight_cost = base_cost;  // cheapest regardless of headroom
    std::size_t best_tight = from;
    for (std::size_t j = 0; j < servers; ++j) {
      if (j == from || cluster.server_failed(j)) continue;
      const double cost = cluster.placement_cost(i, j);
      if (cost < best_tight_cost) {
        best_tight_cost = cost;
        best_tight = j;
      }
      if (planned[j] + demand > caps[j] + kEps) continue;
      if (cost < best_cost) {
        best_cost = cost;
        best = j;
      }
    }
    const double gain = base_cost - best_cost;
    if (best != from && gain > kMinGain) {
      plan.moves.push_back(
          {i, cluster.slot_generation(i), from, best, gain});
      planned[from] -= demand;
      planned[best] += demand;
      moved[i] = true;
    } else if (best_tight != from &&
               base_cost - best_tight_cost > kMinGain) {
      blocked.push_back({i, best_tight, base_cost - best_tight_cost});
    }
  }

  // ---- Eviction chains -----------------------------------------------------
  // Capacity-tight escape: device i wants server t but t is full, so
  // relocate t's cheapest-to-move resident r to its own best feasible
  // server first, then move i in — two moves, required to win on net gain.
  // Ordered r -> k then i -> t, so apply_move_plan's live-load validation
  // accepts both halves.
  std::sort(blocked.begin(), blocked.end(),
            [](const Blocked& x, const Blocked& y) { return x.gain > y.gain; });
  std::size_t chains = 0;
  for (const Blocked& candidate : blocked) {
    if (chains >= kChainLimit) break;
    if (plan.moves.size() + 2 > max_plan_moves) break;
    const std::size_t i = candidate.device;
    const std::size_t t = candidate.target;
    if (moved[i]) continue;
    ++chains;
    const std::size_t from = cluster.server_of(i);
    const double di = cluster.device(i).demand;
    // Cheapest eviction: resident r of t and landing k minimizing r's cost
    // increase, such that t gains enough headroom for i.
    std::size_t best_r = slots;
    std::size_t best_k = servers;
    double best_loss = candidate.gain - kMinGain;
    for (std::size_t r = 0; r < slots; ++r) {
      if (r == i || moved[r] || !cluster.is_active(r) ||
          cluster.server_of(r) != t) {
        continue;
      }
      const double dr = cluster.device(r).demand;
      if (planned[t] - dr + di > caps[t] + kEps) continue;  // not enough room
      const double r_base = cluster.placement_cost(r, t);
      for (std::size_t k = 0; k < servers; ++k) {
        if (k == t || cluster.server_failed(k)) continue;
        if (planned[k] + dr > caps[k] + kEps) continue;
        const double loss = cluster.placement_cost(r, k) - r_base;
        if (loss < best_loss) {
          best_loss = loss;
          best_r = r;
          best_k = k;
        }
      }
    }
    if (best_r == slots) continue;
    const double dr = cluster.device(best_r).demand;
    plan.moves.push_back({best_r, cluster.slot_generation(best_r), t, best_k,
                          -best_loss});
    plan.moves.push_back(
        {i, cluster.slot_generation(i), from, t, candidate.gain});
    planned[t] += di - dr;
    planned[best_k] += dr;
    planned[from] -= di;
    moved[i] = true;
    moved[best_r] = true;
  }

  // ---- Sampled pairwise swaps ----------------------------------------------
  // Swaps escape the local optimum where two devices each want the other's
  // (full) server. A swap is emitted as two sequential moves, ordered so
  // the intermediate state stays capacity-feasible (apply_move_plan
  // validates each move against live loads). If the second half is later
  // rejected mid-plan, the lone first half may regress cost slightly; the
  // next pass repairs it.
  for (std::size_t sample = 0;
       sample < kSwapLimit &&
       plan.moves.size() + 2 <= max_plan_moves;
       ++sample) {
    const auto a = static_cast<std::size_t>(state.rng.next_below(slots));
    const auto b = static_cast<std::size_t>(state.rng.next_below(slots));
    if (a == b || !cluster.is_active(a) || !cluster.is_active(b) ||
        moved[a] || moved[b]) {
      continue;
    }
    const std::size_t sa = cluster.server_of(a);
    const std::size_t sb = cluster.server_of(b);
    if (sa == sb || cluster.server_failed(sa) || cluster.server_failed(sb)) {
      continue;
    }
    const double gain_a =
        cluster.placement_cost(a, sa) - cluster.placement_cost(a, sb);
    const double gain_b =
        cluster.placement_cost(b, sb) - cluster.placement_cost(b, sa);
    if (gain_a + gain_b <= kMinGain) continue;
    const double da = cluster.device(a).demand;
    const double db = cluster.device(b).demand;
    // End state must fit...
    if (planned[sb] - db + da > caps[sb] + kEps ||
        planned[sa] - da + db > caps[sa] + kEps) {
      continue;
    }
    // ...and so must the intermediate state after the first half.
    const bool a_first = planned[sb] + da <= caps[sb] + kEps;
    const bool b_first = planned[sa] + db <= caps[sa] + kEps;
    if (!a_first && !b_first) continue;
    const PlannedMove move_a{a, cluster.slot_generation(a), sa, sb, gain_a};
    const PlannedMove move_b{b, cluster.slot_generation(b), sb, sa, gain_b};
    if (a_first) {
      plan.moves.push_back(move_a);
      plan.moves.push_back(move_b);
    } else {
      plan.moves.push_back(move_b);
      plan.moves.push_back(move_a);
    }
    planned[sa] += db - da;
    planned[sb] += da - db;
    moved[a] = true;
    moved[b] = true;
  }

  return plan;
}

}  // namespace tacc::opt
