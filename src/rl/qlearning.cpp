#include "rl/qlearning.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/timer.hpp"

namespace tacc::rl {

QTable::QTable(std::size_t states, std::size_t actions)
    : states_(states), actions_(actions) {
  if (actions > AssignmentEnv::kMaxCandidates) {
    throw std::invalid_argument("QTable: more than 64 actions");
  }
  if (actions != 0 &&
      states > std::numeric_limits<std::size_t>::max() / actions) {
    throw std::invalid_argument("QTable: states x actions overflows size_t");
  }
  values_.assign(states * actions, 0.0);
}

double QTable::max_value(std::size_t state, std::uint64_t mask) const {
  return row(state)[best_action(state, mask)];
}

namespace {

constexpr double kGamma = 0.97;         // discount within an episode
constexpr double kAlpha0 = 0.25;        // initial learning rate
constexpr double kAlphaDecay = 0.01;    // α_e = α0 / (1 + decay·e)
constexpr double kEpsilonDecay = 0.985;  // multiplicative per episode

/// ε-greedy among mask-permitted actions (all actions if mask is 0);
/// `greedy` is the masked argmax, which the caller computed already.
[[nodiscard]] std::size_t choose_action(std::size_t greedy,
                                        std::uint64_t mask, double epsilon,
                                        std::size_t action_count,
                                        util::Rng& rng) {
  if (rng.uniform() < epsilon) {
    if (mask == 0) return rng.index(action_count);
    std::size_t permitted[AssignmentEnv::kMaxCandidates];
    std::size_t count = 0;
    for (std::size_t a = 0; a < action_count; ++a) {
      if ((mask >> a) & 1u) permitted[count++] = a;
    }
    return permitted[rng.index(count)];
  }
  return greedy;
}

}  // namespace

TrainResult train(const gap::Instance& instance, const RlOptions& options,
                  TdVariant variant, QTable* table_out) {
  AssignmentEnv env(instance, options.env, options.seed);
  QTable table(env.state_count(), env.action_count());
  util::Rng rng(options.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  const std::size_t actions = env.action_count();
  // The feasibility mask the agent acts under (0 = unrestricted).
  const auto observe = [&] {
    Observation obs = env.observe();
    if (!options.mask_infeasible) obs.mask = 0;
    return obs;
  };

  TrainResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  result.trace.reserve(options.episodes);

  double epsilon = options.epsilon0;
  for (std::size_t episode = 0; episode < options.episodes; ++episode) {
    const double alpha =
        kAlpha0 / (1.0 + kAlphaDecay * static_cast<double>(episode));
    env.reset();
    double total_reward = 0.0;

    std::size_t state = 0;
    std::size_t action = 0;
    if (!env.done()) {
      const Observation obs = observe();
      state = obs.state;
      action = choose_action(table.best_action(obs.state, obs.mask),
                             obs.mask, epsilon, actions, rng);
    }

    while (!env.done()) {
      const double reward = env.step(action);
      total_reward += reward;
      ++result.total_steps;

      double target = reward;
      std::size_t next_state = 0;
      std::size_t next_action = 0;
      if (!env.done()) {
        // One argmax serves as the greedy choice and as Q-learning's
        // max over next actions; it draws nothing from the generator.
        const Observation next = observe();
        const std::size_t greedy = table.best_action(next.state, next.mask);
        next_state = next.state;
        next_action =
            choose_action(greedy, next.mask, epsilon, actions, rng);
        const std::span<const double> next_q = table.row(next_state);
        const double bootstrap = variant == TdVariant::kQLearning
                                     ? next_q[greedy]
                                     : next_q[next_action];
        target += kGamma * bootstrap;
      }
      double& q = table.row(state)[action];
      q += alpha * (target - q);

      state = next_state;
      action = next_action;
    }

    const bool feasible = env.episode_feasible();
    const double cost = env.episode_cost();
    // Prefer feasible episodes outright; among equals, lower cost wins.
    const bool better =
        (feasible && !result.best_feasible) ||
        (feasible == result.best_feasible && cost < result.best_cost);
    if (better) {
      result.best_cost = cost;
      result.best_feasible = feasible;
      result.best_assignment = env.assignment();
    }
    result.trace.push_back({episode, total_reward, cost, feasible,
                            result.best_cost, epsilon});
    epsilon = std::max(options.epsilon_min, epsilon * kEpsilonDecay);
  }

  // Greedy-policy evaluation: exploit what was learned, noise-free.
  for (std::size_t g = 0; g < options.greedy_eval_episodes; ++g) {
    env.reset();
    while (!env.done()) {
      const Observation obs = observe();
      (void)env.step(table.best_action(obs.state, obs.mask));
      ++result.total_steps;
    }
    const bool feasible = env.episode_feasible();
    const double cost = env.episode_cost();
    const bool better =
        (feasible && !result.best_feasible) ||
        (feasible == result.best_feasible && cost < result.best_cost);
    if (better) {
      result.best_cost = cost;
      result.best_feasible = feasible;
      result.best_assignment = env.assignment();
    }
  }

  if (table_out != nullptr) *table_out = table;

  if (options.polish && !result.best_assignment.empty()) {
    solvers::LocalSearchOptions polish_options;
    polish_options.seed = options.seed + 17;
    local_search_improve(instance, result.best_assignment, polish_options);
    const gap::Evaluation ev = evaluate(instance, result.best_assignment);
    result.best_cost = ev.total_cost;
    result.best_feasible = ev.feasible;
  }
  return result;
}

namespace {

[[nodiscard]] solvers::SolveResult run_solver(const gap::Instance& instance,
                                              const RlOptions& options,
                                              TdVariant variant) {
  util::WallTimer timer;
  TrainResult trained = train(instance, options, variant);
  solvers::SolveResult result = solvers::detail::finish(
      instance, std::move(trained.best_assignment), timer.elapsed_ms(),
      trained.total_steps);
  return result;
}

}  // namespace

solvers::SolveResult QLearningSolver::solve(const gap::Instance& instance) {
  return run_solver(instance, options_, TdVariant::kQLearning);
}

solvers::SolveResult SarsaSolver::solve(const gap::Instance& instance) {
  return run_solver(instance, options_, TdVariant::kSarsa);
}

}  // namespace tacc::rl
