#include "solvers/genetic.hpp"

#include <algorithm>
#include <limits>

#include "solvers/constructive.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace tacc::solvers {

namespace {
constexpr double kEps = 1e-9;
constexpr std::size_t kTournament = 3;
constexpr double kCrossoverRate = 0.9;
// Mutated genes pick among this many lowest-delay servers.
constexpr std::size_t kMutationCandidates = 4;

struct Individual {
  gap::Assignment genes;
  double fitness = std::numeric_limits<double>::infinity();  // lower = better
  double cost = 0.0;
  double overload = 0.0;
};

void score(const gap::Instance& instance, double penalty, Individual& ind) {
  const std::size_t m = instance.server_count();
  std::vector<double> loads(m, 0.0);
  ind.cost = 0.0;
  for (gap::DeviceIndex i = 0; i < ind.genes.size(); ++i) {
    const auto j = static_cast<gap::ServerIndex>(ind.genes[i]);
    loads[j] += instance.demand(i, j);
    ind.cost += instance.cost(i, j);
  }
  ind.overload = 0.0;
  for (gap::ServerIndex j = 0; j < m; ++j) {
    ind.overload += std::max(0.0, loads[j] - instance.capacity(j));
  }
  ind.fitness = ind.cost + penalty * ind.overload;
}

/// Greedy repair: move devices off overloaded servers at minimum cost.
void repair(const gap::Instance& instance, gap::Assignment& genes) {
  const std::size_t n = instance.device_count();
  const std::size_t m = instance.server_count();
  std::vector<double> loads(m, 0.0);
  for (gap::DeviceIndex i = 0; i < n; ++i) {
    loads[static_cast<gap::ServerIndex>(genes[i])] +=
        instance.demand(i, static_cast<gap::ServerIndex>(genes[i]));
  }
  for (gap::ServerIndex j = 0; j < m; ++j) {
    while (loads[j] > instance.capacity(j) + kEps) {
      gap::DeviceIndex victim = n;
      gap::ServerIndex target = m;
      double best_delta = std::numeric_limits<double>::infinity();
      for (gap::DeviceIndex i = 0; i < n; ++i) {
        if (static_cast<gap::ServerIndex>(genes[i]) != j) continue;
        for (gap::ServerIndex t = 0; t < m; ++t) {
          if (t == j) continue;
          if (loads[t] + instance.demand(i, t) >
              instance.capacity(t) + kEps) {
            continue;
          }
          const double delta = instance.cost(i, t) - instance.cost(i, j);
          if (delta < best_delta) {
            best_delta = delta;
            victim = i;
            target = t;
          }
        }
      }
      if (victim == n) return;  // nothing movable
      loads[j] -= instance.demand(victim, j);
      loads[target] += instance.demand(victim, target);
      genes[victim] = static_cast<std::int32_t>(target);
    }
  }
}

}  // namespace

SolveResult GeneticSolver::solve(const gap::Instance& instance) {
  util::WallTimer timer;
  util::Rng rng(options_.seed);
  const std::size_t n = instance.device_count();
  const std::size_t m = instance.server_count();
  const std::size_t pop_size = std::max<std::size_t>(4, options_.population);
  const std::size_t mut_k = std::min(kMutationCandidates, m);
  const double penalty =
      detail::overload_penalty(detail::max_cost_entry(instance));

  // Seed the population: one greedy individual plus randomized ones biased
  // toward low-delay servers.
  std::vector<Individual> population(pop_size);
  {
    GreedyBestFitSolver greedy;
    population[0].genes = greedy.solve(instance).assignment;
    for (std::size_t p = 1; p < pop_size; ++p) {
      population[p].genes.resize(n);
      for (gap::DeviceIndex i = 0; i < n; ++i) {
        const auto ranked = instance.servers_by_delay(i);
        population[p].genes[i] = static_cast<std::int32_t>(
            ranked[rng.index(std::min<std::size_t>(mut_k * 2, m))]);
      }
    }
    for (auto& ind : population) score(instance, penalty, ind);
  }

  const auto tournament_pick = [&]() -> const Individual& {
    const Individual* winner = &population[rng.index(pop_size)];
    for (std::size_t t = 1; t < kTournament; ++t) {
      const Individual& challenger = population[rng.index(pop_size)];
      if (challenger.fitness < winner->fitness) winner = &challenger;
    }
    return *winner;
  };

  std::size_t evaluations = pop_size;
  for (std::size_t gen = 0; gen < options_.generations; ++gen) {
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    std::vector<Individual> next;
    next.reserve(pop_size);
    for (std::size_t e = 0; e < std::min(options_.elite, pop_size); ++e) {
      next.push_back(population[e]);
    }
    while (next.size() < pop_size) {
      Individual child;
      const Individual& mother = tournament_pick();
      if (rng.bernoulli(kCrossoverRate)) {
        const Individual& father = tournament_pick();
        child.genes.resize(n);
        for (gap::DeviceIndex i = 0; i < n; ++i) {
          child.genes[i] =
              rng.bernoulli(0.5) ? mother.genes[i] : father.genes[i];
        }
      } else {
        child.genes = mother.genes;
      }
      for (gap::DeviceIndex i = 0; i < n; ++i) {
        if (rng.bernoulli(options_.mutation_rate)) {
          const auto ranked = instance.servers_by_delay(i);
          child.genes[i] =
              static_cast<std::int32_t>(ranked[rng.index(mut_k)]);
        }
      }
      score(instance, penalty, child);
      ++evaluations;
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }

  auto best_it = std::min_element(
      population.begin(), population.end(),
      [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
      });
  gap::Assignment winner = std::move(best_it->genes);
  repair(instance, winner);
  return detail::finish(instance, std::move(winner), timer.elapsed_ms(),
                        evaluations);
}

}  // namespace tacc::solvers
