#include "rl/policy.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/timer.hpp"

namespace tacc::rl {

namespace {
// Greedy episodes apply_policy replays over shuffled device orders.
constexpr std::size_t kEvalEpisodes = 16;
}  // namespace

TrainedPolicy train_policy(const gap::Instance& instance,
                           const RlOptions& options, TdVariant variant) {
  TrainedPolicy policy;
  policy.env = options.env;
  (void)train(instance, options, variant, &policy.table);
  return policy;
}

solvers::SolveResult apply_policy(const gap::Instance& instance,
                                  const TrainedPolicy& policy,
                                  const ApplyOptions& options) {
  if (policy.table.state_count() == 0 || policy.table.action_count() == 0) {
    throw std::invalid_argument("apply_policy: empty policy table");
  }
  util::WallTimer timer;
  AssignmentEnv env(instance, policy.env, options.seed);
  if (env.state_count() != policy.table.state_count() ||
      env.action_count() != policy.table.action_count()) {
    throw std::invalid_argument(
        "apply_policy: policy table shape does not match the environment "
        "induced by its env options on this instance (server count below "
        "the policy's candidate count?)");
  }

  gap::Assignment best;
  double best_cost = std::numeric_limits<double>::infinity();
  bool best_feasible = false;
  std::size_t steps = 0;
  for (std::size_t e = 0; e < kEvalEpisodes; ++e) {
    env.reset();
    while (!env.done()) {
      const Observation obs = env.observe();
      (void)env.step(policy.table.best_action(obs.state, obs.mask));
      ++steps;
    }
    const bool feasible = env.episode_feasible();
    const double cost = env.episode_cost();
    const bool better = (feasible && !best_feasible) ||
                        (feasible == best_feasible && cost < best_cost);
    if (better) {
      best = env.assignment();
      best_cost = cost;
      best_feasible = feasible;
    }
  }
  if (options.polish) {
    solvers::LocalSearchOptions polish_options;
    polish_options.seed = options.seed + 17;
    steps += local_search_improve(instance, best, polish_options);
  }
  return solvers::detail::finish(instance, std::move(best),
                                 timer.elapsed_ms(), steps);
}

void save_policy(const TrainedPolicy& policy, std::ostream& out) {
  out << "tacc-policy v1\n";
  out << "env," << policy.env.candidate_count << ','
      << policy.env.load_buckets << ',' << policy.env.demand_buckets << ','
      << policy.env.spread_buckets << ','
      << std::setprecision(17) << policy.env.overload_penalty << ','
      << (policy.env.shuffle_order ? 1 : 0) << '\n';
  out << "table," << policy.table.state_count() << ','
      << policy.table.action_count() << '\n';
  for (std::size_t s = 0; s < policy.table.state_count(); ++s) {
    for (std::size_t a = 0; a < policy.table.action_count(); ++a) {
      out << policy.table.get(s, a) << '\n';
    }
  }
}

TrainedPolicy load_policy(std::istream& in) {
  const auto fail = [](const std::string& what) -> TrainedPolicy {
    throw std::runtime_error("tacc-policy: " + what);
  };
  std::string line;
  if (!std::getline(in, line) || line != "tacc-policy v1") {
    return fail("bad magic line");
  }
  TrainedPolicy policy;
  if (!std::getline(in, line) || !line.starts_with("env,")) {
    return fail("expected env line");
  }
  {
    std::istringstream fields(line.substr(4));
    char comma;
    int shuffle = 1;
    if (!(fields >> policy.env.candidate_count >> comma >>
          policy.env.load_buckets >> comma >> policy.env.demand_buckets >>
          comma >> policy.env.spread_buckets >> comma >>
          policy.env.overload_penalty >> comma >> shuffle)) {
      return fail("malformed env line");
    }
    policy.env.shuffle_order = shuffle != 0;
  }
  if (!std::getline(in, line) || !line.starts_with("table,")) {
    return fail("expected table line");
  }
  std::size_t states = 0;
  std::size_t actions = 0;
  {
    std::istringstream fields(line.substr(6));
    char comma;
    if (!(fields >> states >> comma >> actions) || states == 0 ||
        actions == 0 || actions > AssignmentEnv::kMaxCandidates) {
      return fail("malformed table shape");
    }
  }
  policy.table = QTable(states, actions);
  for (std::size_t s = 0; s < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      double value = 0.0;
      if (!(in >> value)) return fail("truncated Q values");
      policy.table.set(s, a, value);
    }
  }
  return policy;
}

void save_policy_file(const TrainedPolicy& policy, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_policy(policy, out);
}

TrainedPolicy load_policy_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load_policy(in);
}

}  // namespace tacc::rl
