#include "service/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/configurator.hpp"
#include "core/dynamic.hpp"
#include "core/scenario.hpp"
#include "service/apply.hpp"
#include "topology/failures.hpp"
#include "topology/oracle/config.hpp"
#include "topology/oracle/oracle.hpp"
#include "util/contracts.hpp"
#include "util/mutex.hpp"

namespace tacc::service {

namespace {

std::size_t resolve_shards(const EngineOptions& options) {
  const std::size_t requested = options.shards == 0
                                    ? runtime::default_thread_count()
                                    : options.shards;
  return std::clamp<std::size_t>(requested, 1, runtime::kMaxThreads);
}

std::size_t workers_per_shard(const EngineOptions& options,
                              std::size_t shards) {
  const std::size_t budget = options.threads == 0
                                 ? runtime::default_thread_count()
                                 : std::min(options.threads,
                                            runtime::kMaxThreads);
  return std::max<std::size_t>(1, budget / shards);
}

std::size_t admission_quota(const EngineOptions& options, std::size_t shards) {
  return std::max<std::size_t>(1, (options.max_queue + shards - 1) / shards);
}

// Per-session service-latency histogram range and resolution.
constexpr double kLatencyHistogramMaxUs = 20'000.0;
constexpr std::size_t kLatencyHistogramBins = 2'000;

/// The OK line for a cluster verb, from what service::apply returned.
std::string cluster_reply(const Request& request, const ApplyResult& result,
                          const DynamicCluster& cluster) {
  OkLine line;
  if (const auto* placed = std::get_if<JoinResult>(&result)) {
    return line.field("device", placed->device_index)
        .field("server", placed->server)
        .field("feasible", placed->feasible)
        .field("overload", placed->overload_fallback)
        .str();
  }
  if (const auto* link = std::get_if<LinkUpdateReport>(&result)) {
    return line.field("u", request.link_u)
        .field("v", request.link_v)
        .field("epoch", static_cast<std::size_t>(link->epoch))
        .field("affected", static_cast<std::size_t>(link->nodes_affected))
        .field("saved", static_cast<std::size_t>(link->nodes_saved))
        .field("rows_refreshed", link->rows_refreshed)
        // For LINK_SET this is the latency the link had before.
        .field("latency_ms", link->latency_ms)
        .field("avg_delay_ms", cluster.avg_delay_ms())
        .str();
  }
  // LEAVE names its device; FAIL, RECOVER and EVACUATE name their server.
  line.field(request.verb == Verb::kLeave ? "device" : "server", request.index);
  if (const auto* evacuation = std::get_if<EvacuationReport>(&result)) {
    line.field("evacuated", evacuation->evacuated)
        .field("overloaded", evacuation->overloaded);
  }
  return line.str();
}

void add_counters(EngineCounters& into, const EngineCounters& from) {
  into.accepted += from.accepted;
  into.completed += from.completed;
  into.failed += from.failed;
  into.rejected_overload += from.rejected_overload;
  into.rejected_deadline += from.rejected_deadline;
  into.rejected_shutdown += from.rejected_shutdown;
  into.rejected_not_found += from.rejected_not_found;
}

}  // namespace

Engine::Session::Session(std::string session_name, Mutex* owning_shard_mutex)
    : shard_mutex(owning_shard_mutex),
      name(std::move(session_name)),
      latency_us(0.0, kLatencyHistogramMaxUs, kLatencyHistogramBins) {}

void validate_engine_options(const EngineOptions& options) {
  if (options.max_batch < 1) {
    throw std::invalid_argument("max_batch must be at least 1");
  }
  const double timeout_ms = options.default_timeout_ms;
  if (!std::isfinite(timeout_ms) || timeout_ms <= 0.0 ||
      timeout_ms > kMaxTimeoutMs) {
    std::ostringstream message;
    message << "default_timeout_ms must be finite and in (0, "
            << static_cast<std::int64_t>(kMaxTimeoutMs) << "], got "
            << timeout_ms;
    throw std::invalid_argument(message.str());
  }
  if (!reopt_window_ok(options.reopt.budget.window_s)) {
    std::ostringstream message;
    message << "reopt window_s must be <= 0 (one window) or at least "
            << kMinReoptWindowS << ", got " << options.reopt.budget.window_s;
    throw std::invalid_argument(message.str());
  }
  if (!reopt_interval_ok(options.reopt.interval_ms)) {
    std::ostringstream message;
    message << "reopt interval_ms must be in (0, "
            << static_cast<std::int64_t>(kMaxTimeoutMs) << "], got "
            << options.reopt.interval_ms;
    throw std::invalid_argument(message.str());
  }
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  validate_engine_options(options_);
  const std::size_t shards = resolve_shards(options_);
  const std::size_t workers = workers_per_shard(options_, shards);
  const std::size_t quota = admission_quota(options_, shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(quota, workers));
  }
}

Engine::~Engine() {
  begin_shutdown();
  drain();
}

void Engine::begin_shutdown() {
  for (const auto& shard : shards_) {
    const MutexLock lock(&shard->mutex);
    shard->shutting_down = true;
  }
}

void Engine::drain() {
  for (const auto& shard : shards_) {
    const MutexLock lock(&shard->mutex);
    while (shard->in_flight != 0) shard->drained_cv.wait(shard->mutex);
  }
}

std::size_t Engine::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(&shard->mutex);
    depth += shard->in_flight;
  }
  return depth;
}

EngineCounters Engine::counters() const {
  EngineCounters total;
  for (const auto& shard : shards_) {
    const MutexLock lock(&shard->mutex);
    add_counters(total, shard->counters);
  }
  return total;
}

std::size_t Engine::session_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(&shard->mutex);
    count += shard->sessions.size();
  }
  return count;
}

std::size_t Engine::shard_of(std::string_view session) const noexcept {
  // FNV-1a 64-bit: stable across builds and restarts (std::hash makes no
  // such promise), so replayed streams route identically run over run.
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : session) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % shards_.size());
}

std::size_t Engine::shard_quota() const noexcept {
  return shards_.front()->quota;
}

void Engine::check_invariants() const {
  // Snapshot each shard under its own mutex, then check unlocked: the
  // failure handler may throw, and must not do so while holding a lock.
  struct ShardView {
    EngineCounters counters;
    EngineCounters session_sum;
    std::size_t in_flight = 0;
    std::size_t pending_total = 0;
    std::size_t draining_sessions = 0;
  };
  std::vector<ShardView> views;
  views.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardView view;
    const MutexLock lock(&shard->mutex);
    view.counters = shard->counters;
    view.in_flight = shard->in_flight;
    for (const auto& [name, session] : shard->sessions) {
      // Session fields are guarded by the back-pointer to this very mutex;
      // tell the analysis the alias is held (see Session::shard_mutex).
      session->shard_mutex->assert_held();
      view.pending_total += session->pending.size();
      if (session->draining) ++view.draining_sessions;
      add_counters(view.session_sum, session->counters);
    }
    views.push_back(view);
  }

  EngineCounters total;
  std::size_t total_in_flight = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const ShardView& view = views[i];
    const EngineCounters& c = view.counters;
    const std::string where = "shard " + std::to_string(i) + ": ";
    // Every admitted request is exactly one of: completed, failed, expired
    // against its deadline, or still in flight. Rejections never enter the
    // identity — they were never admitted.
    TACC_CHECK_INVARIANT(
        c.accepted == c.completed + c.failed + c.rejected_deadline +
                          view.in_flight,
        where + "request accounting broke: accepted " +
            std::to_string(c.accepted) + " != completed " +
            std::to_string(c.completed) + " + failed " +
            std::to_string(c.failed) + " + expired " +
            std::to_string(c.rejected_deadline) + " + in-flight " +
            std::to_string(view.in_flight));
    TACC_CHECK_INVARIANT(view.pending_total <= view.in_flight,
                         where + "queued events exceed the in-flight count");
    TACC_CHECK_INVARIANT(view.in_flight <= shards_[i]->quota,
                         where + "admission exceeded the shard quota");
    TACC_CHECK_INVARIANT(
        view.pending_total == 0 || view.draining_sessions > 0,
        where + "events queued with no drainer scheduled");
    // Shard counters are the sum of their sessions' counters for every
    // event that reached a session. (Overload/shutdown/not-found bounces
    // may precede session attribution, so those are >=, not ==.)
    TACC_CHECK_INVARIANT(
        c.accepted == view.session_sum.accepted &&
            c.completed == view.session_sum.completed &&
            c.failed == view.session_sum.failed &&
            c.rejected_deadline == view.session_sum.rejected_deadline,
        where + "shard counters diverge from the sum over its sessions");
    TACC_CHECK_INVARIANT(
        c.rejected_overload >= view.session_sum.rejected_overload,
        where + "session overload rejections exceed the shard's");
    add_counters(total, c);
    total_in_flight += view.in_flight;
  }
  TACC_CHECK_INVARIANT(
      total.accepted == total.completed + total.failed +
                            total.rejected_deadline + total_in_flight,
      "aggregate request accounting broke across shards");
}

void Engine::submit(const Request& request, Responder respond) {
  if (Claim claim = admit(request, std::move(respond))) {
    dispatch(std::move(claim));
  }
}

Engine::Claim Engine::admit(const Request& request, Responder respond) {
  switch (request.verb) {
    case Verb::kPing:
    case Verb::kShutdown:
      // Transport-level verbs; the socket server answers them before the
      // engine ever sees them.
      respond(err_line(ErrorCode::kBadRequest,
                       "verb is handled by the transport"));
      return {};
    case Verb::kStats:
      respond(stats_line(request));
      return {};
    default:
      break;
  }

  const Clock::time_point now = Clock::now();
  const double timeout_ms =
      request.timeout_ms.value_or(options_.default_timeout_ms);
  Event event{request, std::move(respond), now,
              now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(timeout_ms))};

  Shard& shard = *shards_[shard_of(request.session)];
  enum class Outcome { kAccepted, kOverloaded, kNotFound, kShuttingDown };
  Outcome outcome = Outcome::kShuttingDown;
  std::shared_ptr<Session> session;
  bool claimed = false;
  {
    const MutexLock lock(&shard.mutex);
    if (shard.shutting_down) {
      ++shard.counters.rejected_shutdown;
      outcome = Outcome::kShuttingDown;
    } else if (shard.in_flight >= shard.quota) {
      ++shard.counters.rejected_overload;
      const auto it = shard.sessions.find(request.session);
      if (it != shard.sessions.end()) {
        it->second->shard_mutex->assert_held();
        ++it->second->counters.rejected_overload;
      }
      outcome = Outcome::kOverloaded;
    } else {
      const auto it = shard.sessions.find(request.session);
      if (it != shard.sessions.end()) {
        session = it->second;
      } else if (request.verb == Verb::kConfigure) {
        session =
            std::make_shared<Session>(request.session, &shard.mutex);
        shard.sessions.emplace(request.session, session);
      }
      if (session) {
        session->shard_mutex->assert_held();
        ++shard.in_flight;
        ++shard.counters.accepted;
        ++session->counters.accepted;
        session->pending.push_back(std::move(event));
        if (!session->draining) {
          session->draining = true;
          claimed = true;
        }
        outcome = Outcome::kAccepted;
      } else {
        ++shard.counters.rejected_not_found;
        outcome = Outcome::kNotFound;
      }
    }
  }

  // Everything below runs unlocked so responders can't deadlock back into
  // admit().
  switch (outcome) {
    case Outcome::kAccepted:
      if (claimed) return Claim(&shard, std::move(session));
      return {};
    case Outcome::kShuttingDown:
      event.respond(err_line(ErrorCode::kShuttingDown, "daemon is draining"));
      return {};
    case Outcome::kNotFound:
      event.respond(err_line(ErrorCode::kNotFound,
                             "unknown session '" + request.session + "'"));
      return {};
    case Outcome::kOverloaded:
      event.respond(err_line(ErrorCode::kOverloaded,
                             "admission queue full (shard quota=" +
                                 std::to_string(shard.quota) + ")"));
      return {};
  }
  return {};
}

void Engine::run_batch(Claim claim) {
  if (claim && drain_batch(*claim.shard_, *claim.session_)) {
    dispatch(std::move(claim));
  }
}

void Engine::dispatch(Claim claim) {
  if (!claim) return;
  Shard& shard = *claim.shard_;
  shard.pool.submit([this, &shard, session = std::move(claim.session_)] {
    while (drain_batch(shard, *session)) {
    }
  });
}

bool Engine::drain_batch(Shard& shard, Session& session) {
  std::vector<Event> batch;
  {
    const MutexLock lock(&shard.mutex);
    session.shard_mutex->assert_held();
    const std::size_t n = std::min(session.pending.size(), options_.max_batch);
    if (n == 0) {
      session.draining = false;
      return false;
    }
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(session.pending.front()));
      session.pending.pop_front();
    }
  }

  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::vector<double> latencies;
  latencies.reserve(batch.size());
  SessionSnapshot snapshot;
  // The cluster lock serializes this batch's mutations (and the snapshot
  // read below) against the session's background re-optimizer. The
  // optimizer only try_locks, so holding it for the whole batch never
  // stalls anyone but the optimizer — which simply skips a pass.
  ReleasableMutexLock cluster_lock(&session.cluster_mutex);
  for (Event& event : batch) {
    // Deadline re-check at dequeue time (boundary inclusive: a deadline
    // exactly at dequeue is expired) — the event leaves the queue for
    // execution here, possibly long after batch formation.
    if (deadline_expired(event.deadline, Clock::now())) {
      ++expired;
      event.respond(err_line(ErrorCode::kDeadlineExceeded,
                             "expired after queueing"));
      continue;
    }
    std::string line = apply(session, event.request);
    const Clock::time_point finished = Clock::now();
    if (deadline_expired(event.deadline, finished)) {
      // The deadline passed while the event executed. The cluster
      // mutation is kept (it ran to completion), but the client is
      // answered — and the ledger counts — consistently with the
      // deadline contract: this is rejected_deadline, never completed.
      ++expired;
      event.respond(err_line(ErrorCode::kDeadlineExceeded,
                             "deadline passed during execution"));
      continue;
    }
    const bool ok = line.starts_with("OK");
    (ok ? completed : failed) += 1;
    latencies.push_back(
        std::chrono::duration<double, std::micro>(finished - event.enqueued)
            .count());
    event.respond(std::move(line));
  }

  // One metrics flush per batch (micro-batching's second dividend). Still
  // under the cluster lock: the snapshot must not race optimizer moves.
  snapshot.configured = session.cluster != nullptr;
  if (session.cluster) {
    const DynamicCluster& cluster = *session.cluster;
    snapshot.devices = cluster.active_count();
    snapshot.servers = cluster.server_count();
    snapshot.healthy_servers = cluster.healthy_server_count();
    snapshot.avg_delay_ms = cluster.avg_delay_ms();
    snapshot.max_utilization = cluster.max_utilization();
    snapshot.feasible = cluster.feasible();
    snapshot.link = cluster.link_stats();
    snapshot.delay_rows_refreshed = cluster.delay_oracle().rows_refreshed();
    snapshot.delay_rows_saved = cluster.delay_oracle().rows_saved();
  }
  if (session.reoptimizer) {
    snapshot.reopt_running = session.reoptimizer->running();
    snapshot.reopt = session.reoptimizer->stats();
  }
  cluster_lock.release();
  {
    // One lock, one coherent flush: queue ledger, per-session counters,
    // and the snapshot move together, so no STATS reply can catch the
    // identity mid-update.
    const MutexLock lock(&shard.mutex);
    session.shard_mutex->assert_held();
    session.counters.completed += completed;
    session.counters.failed += failed;
    session.counters.rejected_deadline += expired;
    ++session.batches;
    for (const double us : latencies) session.latency_us.add(us);
    session.snapshot = snapshot;
    shard.counters.completed += completed;
    shard.counters.failed += failed;
    shard.counters.rejected_deadline += expired;
    shard.in_flight -= batch.size();
    if (shard.in_flight == 0) shard.drained_cv.notify_all();
    // Releasing the claim under the lock that saw the queue empty keeps
    // admit() from ever leaving an event without a drainer.
    if (session.pending.empty()) session.draining = false;
    return session.draining;
  }
}


std::string Engine::apply(Session& session, const Request& request) {
  try {
    if (request.verb == Verb::kConfigure) {
      Scenario scenario = [&] {
        switch (request.preset) {
          case ScenarioPreset::kFactory:
            return Scenario::factory(request.iot, request.edge, request.seed);
          case ScenarioPreset::kCampus:
            return Scenario::campus(request.iot, request.edge, request.seed);
          case ScenarioPreset::kSmartCity:
          default:
            return Scenario::smart_city(request.iot, request.edge,
                                        request.seed);
        }
      }();
      AlgorithmOptions algorithm_options;
      algorithm_options.apply_seed(request.seed);
      // oracle= was validated at parse time, so this parse only throws
      // (caught below as BAD_REQUEST) for a Request built by hand.
      ConfigureRequest configure(
          request.algorithm, algorithm_options, CostModel::kTopologyAware,
          10.0, topo::oracle::parse_oracle_spec(request.oracle));
      // The optimizer (if any) references the old cluster: stop and detach
      // it before the swap, then re-attach a running one (or, under
      // auto_reopt, any) onto the replacement with the same tuning (or the
      // engine default), with a fresh ledger.
      const bool reattach =
          (session.reoptimizer != nullptr && session.reoptimizer->running()) ||
          options_.auto_reopt;
      session.reoptimizer.reset();
      session.cluster = std::make_unique<DynamicCluster>(scenario, configure);
      if (reattach) {
        const opt::ReoptOptions reopt =
            session.reopt_options.value_or(options_.reopt);
        session.reoptimizer = std::make_unique<opt::Reoptimizer>(
            *session.cluster, session.cluster_mutex, reopt);
        session.reoptimizer->start();
      }
      return OkLine()
          .field("session", session.name)
          .field("preset", to_string(request.preset))
          .field("devices", session.cluster->active_count())
          .field("servers", session.cluster->server_count())
          .field("algo", tacc::to_string(request.algorithm))
          .field("oracle", "exact")
          .field("avg_delay_ms", session.cluster->avg_delay_ms())
          .field("feasible", session.cluster->feasible())
          .str();
    }
    if (request.verb == Verb::kSleep) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(request.sleep_ms));
      return OkLine().field("slept_ms", request.sleep_ms).str();
    }
    if (!session.cluster) {
      return err_line(ErrorCode::kNotFound,
                      "session '" + session.name + "' is not configured");
    }
    DynamicCluster& cluster = *session.cluster;
    switch (request.verb) {
      case Verb::kReoptStart: {
        opt::ReoptOptions reopt = options_.reopt;
        if (request.reopt_moves > 0) {
          reopt.budget.max_moves_per_window = request.reopt_moves;
        }
        if (request.reopt_device_moves > 0) {
          reopt.budget.max_device_moves_per_window =
              request.reopt_device_moves;
        }
        if (request.reopt_window_s > 0.0) {
          reopt.budget.window_s = request.reopt_window_s;
        }
        if (request.reopt_interval_ms > 0.0) {
          reopt.interval_ms = request.reopt_interval_ms;
        }
        // Replacing an attached optimizer stops the old one first; its
        // thread never blocks on cluster_mutex (try_lock only), so joining
        // it while we hold the lock cannot deadlock.
        session.reoptimizer.reset();
        session.reoptimizer = std::make_unique<opt::Reoptimizer>(
            cluster, session.cluster_mutex, reopt);
        session.reoptimizer->start();
        session.reopt_options = reopt;
        return OkLine()
            .field("session", session.name)
            .field("running", true)
            .field("moves_per_window", reopt.budget.max_moves_per_window)
            .field("device_moves_per_window",
                   reopt.budget.max_device_moves_per_window)
            .field("window_s", reopt.budget.window_s)
            .field("interval_ms", reopt.interval_ms)
            .str();
      }
      case Verb::kReoptStop: {
        // The stopped optimizer stays attached, so REOPT_STATS and STATS
        // keep reporting its run until REOPT_START or CONFIGURE replaces
        // it with a fresh ledger.
        std::uint64_t applied = 0;
        if (session.reoptimizer) {
          session.reoptimizer->stop();  // joins
          applied = session.reoptimizer->stats().moves_applied;
        }
        session.reopt_options.reset();
        return OkLine()
            .field("session", session.name)
            .field("running", false)
            .field("moves_applied", static_cast<std::size_t>(applied))
            .str();
      }
      case Verb::kReoptStats: {
        OkLine line;
        line.field("session", session.name)
            .field("running", session.reoptimizer != nullptr &&
                                  session.reoptimizer->running());
        const opt::ReoptStats stats = session.reoptimizer
                                          ? session.reoptimizer->stats()
                                          : opt::ReoptStats{};
        return line
            .field("passes", static_cast<std::size_t>(stats.passes))
            .field("plans", static_cast<std::size_t>(stats.plans))
            .field("proposed",
                   static_cast<std::size_t>(stats.moves_proposed))
            .field("applied", static_cast<std::size_t>(stats.moves_applied))
            .field("rejected_stale",
                   static_cast<std::size_t>(stats.rejected_stale))
            .field("rejected_target_failed",
                   static_cast<std::size_t>(stats.rejected_target_failed))
            .field("rejected_infeasible",
                   static_cast<std::size_t>(stats.rejected_infeasible))
            .field("rejected_budget",
                   static_cast<std::size_t>(stats.rejected_budget))
            .field("predicted_gain", stats.predicted_gain)
            .field("achieved_gain", stats.achieved_gain)
            .str();
      }
      case Verb::kOracleStats: {
        const topo::oracle::DelayOracle& oracle = cluster.delay_oracle();
        const topo::oracle::OracleStats stats = oracle.stats();
        return OkLine()
            .field("session", session.name)
            .field("backend", "exact")
            .field("rows", oracle.row_count())
            .field("epoch", static_cast<std::size_t>(oracle.epoch()))
            .field("queries", static_cast<std::size_t>(stats.queries))
            .field("row_fills", static_cast<std::size_t>(stats.row_fills))
            .field("resident_bytes", oracle.resident_bytes())
            .str();
      }
      case Verb::kLinks: {
        const auto links = topo::backbone_links(cluster.network());
        std::string list;
        const std::size_t shown = std::min(request.limit, links.size());
        for (std::size_t i = 0; i < shown; ++i) {
          if (i > 0) list += ',';
          list += std::to_string(links[i].first);
          list += '-';
          list += std::to_string(links[i].second);
        }
        return OkLine()
            .field("count", links.size())
            .field("failed", cluster.network().failed_links.size())
            .field("links", list)
            .str();
      }
      default:  // the cluster verbs
        return cluster_reply(request, service::apply(cluster, request),
                             cluster);
    }
  } catch (const std::logic_error& error) {
    // DynamicCluster signals precondition violations (inactive device, bad
    // server, last healthy server) via logic_error/invalid_argument.
    return err_line(ErrorCode::kBadRequest, error.what());
  } catch (const std::exception& error) {
    return err_line(ErrorCode::kInternal, error.what());
  }
}

std::string Engine::stats_line(const Request& request) const {
  if (request.session.empty()) {
    // Global STATS: one coherent snapshot per shard (each under its own
    // lock), summed after the locks drop. The accounting identity holds
    // exactly within every per-shard block and in the aggregate.
    struct ShardView {
      EngineCounters counters;
      std::size_t in_flight = 0;
      std::size_t sessions = 0;
    };
    std::vector<ShardView> views;
    views.reserve(shards_.size());
    for (const auto& shard : shards_) {
      ShardView view;
      const MutexLock lock(&shard->mutex);
      view.counters = shard->counters;
      view.in_flight = shard->in_flight;
      view.sessions = shard->sessions.size();
      views.push_back(view);
    }
    EngineCounters total;
    std::size_t depth = 0;
    std::size_t sessions = 0;
    for (const ShardView& view : views) {
      add_counters(total, view.counters);
      depth += view.in_flight;
      sessions += view.sessions;
    }
    OkLine line;
    line.field("sessions", sessions)
        .field("shards", shards_.size())
        .field("shard_quota", shard_quota())
        .field("queue_depth", depth)
        .field("max_queue", options_.max_queue)
        .field("accepted", static_cast<std::size_t>(total.accepted))
        .field("completed", static_cast<std::size_t>(total.completed))
        .field("failed", static_cast<std::size_t>(total.failed))
        .field("rejected_overload",
               static_cast<std::size_t>(total.rejected_overload))
        .field("rejected_deadline",
               static_cast<std::size_t>(total.rejected_deadline))
        .field("rejected_shutdown",
               static_cast<std::size_t>(total.rejected_shutdown))
        .field("rejected_not_found",
               static_cast<std::size_t>(total.rejected_not_found));
    if (request.per_shard) {
      // STATS shards=1: per-shard ledger blocks. Each block is a coherent
      // cut, so s<k>_accepted == s<k>_completed + s<k>_failed +
      // s<k>_deadline + s<k>_depth holds in every reply.
      for (std::size_t i = 0; i < views.size(); ++i) {
        // Appended rather than "s" + ... + "_": GCC 12 misreads the
        // operator+(const char*, string&&) insert as overlapping (-Wrestrict).
        std::string prefix = "s";
        prefix += std::to_string(i);
        prefix += '_';
        const EngineCounters& c = views[i].counters;
        line.field(prefix + "depth", views[i].in_flight)
            .field(prefix + "accepted", static_cast<std::size_t>(c.accepted))
            .field(prefix + "completed",
                   static_cast<std::size_t>(c.completed))
            .field(prefix + "failed", static_cast<std::size_t>(c.failed))
            .field(prefix + "deadline",
                   static_cast<std::size_t>(c.rejected_deadline))
            .field(prefix + "sessions", views[i].sessions);
      }
    }
    return line.str();
  }

  const std::size_t shard_index = shard_of(request.session);
  const Shard& shard = *shards_[shard_index];
  // Everything — counters, histogram, snapshot — reads under the one shard
  // lock, so the reply is a coherent cut of the session's ledger.
  const MutexLock lock(&shard.mutex);
  const auto it = shard.sessions.find(request.session);
  if (it == shard.sessions.end()) {
    return err_line(ErrorCode::kNotFound,
                    "unknown session '" + request.session + "'");
  }
  const Session& session = *it->second;
  session.shard_mutex->assert_held();
  const EngineCounters& c = session.counters;
  const metrics::Histogram& h = session.latency_us;
  const SessionSnapshot& s = session.snapshot;
  // Derived under the same lock, so it can never go negative.
  const std::uint64_t in_flight =
      c.accepted - c.completed - c.failed - c.rejected_deadline;
  return OkLine()
      .field("session", session.name)
      .field("shard", shard_index)
      .field("configured", s.configured)
      .field("devices", s.devices)
      .field("servers", s.servers)
      .field("healthy_servers", s.healthy_servers)
      .field("avg_delay_ms", s.avg_delay_ms)
      .field("max_utilization", s.max_utilization)
      .field("feasible", s.feasible)
      .field("delay_epoch", static_cast<std::size_t>(s.link.epoch))
      .field("link_updates", static_cast<std::size_t>(s.link.link_updates))
      .field("link_nodes_affected",
             static_cast<std::size_t>(s.link.nodes_affected))
      .field("link_nodes_saved", static_cast<std::size_t>(s.link.nodes_saved))
      .field("delay_rows_refreshed",
             static_cast<std::size_t>(s.delay_rows_refreshed))
      .field("delay_rows_saved",
             static_cast<std::size_t>(s.delay_rows_saved))
      .field("reopt_running", s.reopt_running)
      .field("reopt_passes", static_cast<std::size_t>(s.reopt.passes))
      .field("reopt_proposed",
             static_cast<std::size_t>(s.reopt.moves_proposed))
      .field("reopt_applied", static_cast<std::size_t>(s.reopt.moves_applied))
      .field("reopt_rejected", static_cast<std::size_t>(s.reopt.rejected()))
      .field("reopt_gain", s.reopt.achieved_gain)
      .field("accepted", static_cast<std::size_t>(c.accepted))
      .field("completed", static_cast<std::size_t>(c.completed))
      .field("failed", static_cast<std::size_t>(c.failed))
      .field("rejected_overload",
             static_cast<std::size_t>(c.rejected_overload))
      .field("rejected_deadline",
             static_cast<std::size_t>(c.rejected_deadline))
      .field("in_flight", static_cast<std::size_t>(in_flight))
      .field("pending", session.pending.size())
      .field("batches", static_cast<std::size_t>(session.batches))
      .field("latency_count", h.total())
      .field("p50_us", h.quantile(0.50))
      .field("p99_us", h.quantile(0.99))
      .field("p999_us", h.quantile(0.999))
      .str();
}

}  // namespace tacc::service
