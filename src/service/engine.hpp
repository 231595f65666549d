// The taccd request engine: named DynamicCluster sessions partitioned
// across per-core shards, each shard driving its sessions through its own
// bounded admission queue and runtime::ThreadPool workers, independent of
// any transport.
//
// Sharding model:
//  - Sessions are routed to one of N shards (default hardware_concurrency)
//    by a stable FNV-1a hash of the session name, so a session's requests
//    always execute in order on one shard and the route survives daemon
//    restarts. Each shard owns its sessions, admission ledger, counters,
//    and worker pool behind its own mutex — no request ever takes a
//    cross-shard lock, which is what removes the single-mutex admission
//    bottleneck the pre-shard engine serialized everything through.
//  - Admission is bounded per shard: `max_queue` is split into
//    ceil(max_queue / shards) slots per shard (min 1). When a shard's
//    queued + executing requests reach its quota, submit() answers
//    ERR OVERLOADED immediately instead of queuing unboundedly.
//  - The worker budget (`threads`, 0 = hardware concurrency) is split as
//    max(1, threads / shards) workers per shard, so the default
//    configuration is one shard and one worker per core.
//
// Execution model (per shard):
//  - Every mutation request (CONFIGURE/JOIN/MOVE/LEAVE/FAIL/RECOVER/
//    EVACUATE/LINK_*/REOPT_*/SLEEP) is admitted into its session's FIFO and
//    stamped with a deadline (per-request timeout_ms or the engine default).
//  - Admission and dispatch are separate steps. admit() queues the event
//    and, when the session was idle, hands the caller the session's drain
//    claim. The holder of a claim is the session's single drainer: events
//    on one session always execute sequentially, different sessions
//    execute concurrently. A claim is either dispatched to the shard's pool
//    (submit() always does this) or run by its holder: run_batch() is
//    caller-runs execution, one pass on the calling thread, which saves
//    the hand-off to a pool worker and its wake-up.
//  - Micro-batching: a drain pass executes up to `max_batch` events, so a
//    burst of compatible mutations pays for one dispatch and one metrics
//    flush instead of N. A pool task keeps passing until the FIFO is
//    empty; run_batch() runs exactly one pass and hands whatever is still
//    queued, together with the claim, to the shard's pool. No caller is
//    ever held for more than one batch of its session.
//  - Deadlines are re-checked when an event is dequeued for execution: a
//    request whose deadline has passed at dequeue time (boundary included
//    — deadline exactly at dequeue counts as expired) answers
//    ERR DEADLINE_EXCEEDED without touching the cluster, and a request
//    that finishes executing past its deadline also answers
//    ERR DEADLINE_EXCEEDED (its cluster mutation is kept — it ran — but
//    the client contract stays deadline-consistent) and is counted
//    rejected_deadline, never completed.
//  - STATS bypasses admission entirely and answers synchronously from a
//    snapshot taken under a single shard lock, so every STATS line is a
//    coherent cut of that shard's ledger: the accounting identity
//    accepted == completed + failed + rejected_deadline + in_flight holds
//    exactly within every reply, per shard and in aggregate.
//
// Every submitted request receives exactly one terminal response: the
// responder callback is invoked exactly once, with an OK line or an ERR
// line, on the admitting thread (rejections, STATS), on the thread that
// called run_batch() (events of that pass), or on a pool worker.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic.hpp"
#include "metrics/histogram.hpp"
#include "optimize/reoptimizer.hpp"
#include "runtime/thread_pool.hpp"
#include "service/protocol.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::service {

struct EngineOptions {
  /// Total worker budget across all shards (0 = hardware concurrency).
  /// Each shard gets max(1, threads / shards) pool workers.
  std::size_t threads = 0;
  /// Engine shard count (0 = hardware concurrency, clamped to
  /// runtime::kMaxThreads). Sessions are hash-partitioned across shards.
  std::size_t shards = 0;
  /// Aggregate admission bound: split into ceil(max_queue / shards) slots
  /// per shard (min 1); a shard at its quota rejects with OVERLOADED.
  std::size_t max_queue = 256;
  /// Default per-request deadline when the request carries no timeout_ms.
  double default_timeout_ms = 1000.0;
  /// Max events one drain pass executes before re-checking the queue.
  std::size_t max_batch = 32;
  /// Attach + start a background re-optimizer on every session as soon as
  /// it is configured (taccd --reopt). Sessions can still attach/detach
  /// individually with REOPT_START/REOPT_STOP.
  bool auto_reopt = false;
  /// Budget/planner defaults for attached re-optimizers; REOPT_START
  /// options override per session.
  opt::ReoptOptions reopt;
};

/// Throws std::invalid_argument unless options.max_batch >= 1,
/// options.default_timeout_ms is finite and in (0, kMaxTimeoutMs], and
/// options.reopt passes reopt_window_ok() and reopt_interval_ok(). A zero
/// batch would drain nothing and leave every session claimed; a deadline
/// outside that range expires every request at once or overflows the
/// deadline arithmetic, and so would a tiny budget window or a huge pass
/// interval in the optimizer's clock arithmetic. The Engine constructor
/// runs it.
void validate_engine_options(const EngineOptions& options);

/// Aggregate counters across a shard's (or the engine's) lifetime.
struct EngineCounters {
  std::uint64_t accepted = 0;           ///< admitted into a session queue
  std::uint64_t completed = 0;          ///< executed, responded OK
  std::uint64_t failed = 0;             ///< executed, responded ERR
  std::uint64_t rejected_overload = 0;  ///< bounced at admission
  /// Expired in the queue or finished executing past the deadline.
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_shutdown = 0;  ///< bounced while draining
  /// Mutation for a session that does not exist; never admitted, so it is
  /// a rejection — counting it as `failed` would break the accounting
  /// identity (failed events must have been accepted first).
  std::uint64_t rejected_not_found = 0;
};

class Engine {
  struct Session;
  struct Shard;

 public:
  /// Exactly-once terminal response callback. May be invoked from the
  /// admitting thread, a run_batch() caller or a pool worker; must not
  /// call back into the engine. A responder that blocks (a socket write to
  /// a slow client) stalls the thread running it: a run_batch() caller
  /// stalls alone, a pool worker stalls its shard's pool queue.
  using Responder = std::function<void(std::string)>;
  using Clock = std::chrono::steady_clock;

  /// A session's drain claim, returned by admit() when it queued an event
  /// on an idle session. Its holder is the session's single drainer until
  /// it passes the claim to run_batch() or dispatch(); one of the two must
  /// follow, or the session's queue is never drained. Move-only.
  class Claim {
   public:
    Claim() = default;
    Claim(Claim&&) noexcept = default;
    Claim& operator=(Claim&&) noexcept = default;
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

    explicit operator bool() const noexcept { return session_ != nullptr; }

   private:
    friend class Engine;
    Claim(Shard* shard, std::shared_ptr<Session> session) noexcept
        : shard_(shard), session_(std::move(session)) {}

    Shard* shard_ = nullptr;
    std::shared_ptr<Session> session_;
  };

  /// Throws std::invalid_argument for options validate_engine_options()
  /// rejects.
  explicit Engine(EngineOptions options = {});
  /// Drains all admitted work before returning.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Routes one parsed request: admit(), then dispatch() any claim to the
  /// shard's pool. PING/SHUTDOWN are transport-level verbs and are
  /// answered BAD_REQUEST here. Never blocks on cluster work.
  void submit(const Request& request, Responder respond);

  /// Admission without dispatch. Answers STATS, transport verbs and every
  /// rejection (OVERLOADED, NOT_FOUND, SHUTTING_DOWN) on the calling
  /// thread; otherwise queues the event and, if the session had no
  /// drainer, returns its claim (an empty Claim otherwise).
  [[nodiscard]] Claim admit(const Request& request, Responder respond);
  /// Caller-runs execution: one drain pass (at most `max_batch` events) of
  /// the claimed session on the calling thread, responders included. If
  /// events are still queued afterwards, the claim goes to the shard's
  /// pool as by dispatch().
  void run_batch(Claim claim);
  /// Hands the claim to the shard's pool, which drains the session until
  /// its queue is empty.
  void dispatch(Claim claim);

  /// Stops admitting new requests on every shard (they answer
  /// ERR SHUTTING_DOWN); already admitted requests still execute.
  void begin_shutdown();
  /// Blocks until every admitted request on every shard has received its
  /// response.
  void drain();

  /// Queued + executing requests summed across shards.
  [[nodiscard]] std::size_t queue_depth() const;
  /// Counters summed across shards.
  [[nodiscard]] EngineCounters counters() const;
  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Stable routing: FNV-1a(session) % shard_count(). A pure function of
  /// the name and the shard count — the same session always lands on the
  /// same shard, in this process and after a restart.
  [[nodiscard]] std::size_t shard_of(std::string_view session) const noexcept;
  /// Per-shard admission quota (ceil(max_queue / shards), min 1).
  [[nodiscard]] std::size_t shard_quota() const noexcept;
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

  /// Deadline boundary predicate: a deadline exactly at `now` counts as
  /// expired. Used at dequeue time and again when execution finishes.
  [[nodiscard]] static constexpr bool deadline_expired(
      Clock::time_point deadline, Clock::time_point now) noexcept {
    return now >= deadline;
  }

  /// Deep validation of the request-accounting invariants, reported through
  /// the contracts failure handler. Under each shard's mutex it must hold
  /// that every admitted request is exactly one of: responded OK
  /// (completed), responded ERR (failed), expired against its deadline
  /// (rejected_deadline), or still in flight — i.e.
  ///   accepted == completed + failed + rejected_deadline + in_flight
  /// per shard (and therefore in aggregate), that queued events never
  /// exceed the shard's in-flight count, that admission respects the
  /// shard quota, and that shard counters equal the sum of their sessions'
  /// counters. Safe to call concurrently with traffic (locks one shard at
  /// a time; holds each lock only to snapshot).
  void check_invariants() const;

 private:
  friend struct ServiceEngineTestPeer;  ///< corruption hook for tests

  struct Event {
    Request request;
    Responder respond;
    Clock::time_point enqueued;
    Clock::time_point deadline;
  };

  /// Cheap cluster-state numbers re-sampled after every batch so STATS
  /// never waits on an executing session.
  struct SessionSnapshot {
    bool configured = false;
    std::size_t devices = 0;
    std::size_t servers = 0;
    std::size_t healthy_servers = 0;
    double avg_delay_ms = 0.0;
    double max_utilization = 0.0;
    bool feasible = true;
    // Incremental delay engine counters (LINK_* verbs) and the oracle's
    // row refresh counters.
    topo::incr::EngineStats link;
    std::uint64_t delay_rows_refreshed = 0;
    std::uint64_t delay_rows_saved = 0;
    // Background re-optimizer ledger (REOPT_START/REOPT_STOP); sampled at
    // the batch flush like everything else, so STATS stays lock-coherent.
    bool reopt_running = false;
    opt::ReoptStats reopt;
  };

  struct Session {
    Session(std::string session_name, Mutex* owning_shard_mutex);

    // Back-pointer to the owning Shard's mutex: the guard expression for
    // every queue/metrics field below. The thread-safety analysis cannot
    // prove on its own that this aliases the shard mutex a call site
    // locked, so code reaching a Session from a locked Shard calls
    // shard_mutex->assert_held() once after lookup (see Mutex::assert_held).
    Mutex* const shard_mutex;
    const std::string name;

    // Queue state AND metrics — all guarded by the owning Shard's mutex,
    // so one lock yields a coherent queue+counter snapshot (the pre-shard
    // engine split these across two mutexes and STATS could observe
    // completed > accepted mid-flush).
    std::deque<Event> pending TACC_GUARDED_BY(shard_mutex);
    bool draining TACC_GUARDED_BY(shard_mutex) = false;
    EngineCounters counters TACC_GUARDED_BY(shard_mutex);
    std::uint64_t batches TACC_GUARDED_BY(shard_mutex) = 0;
    metrics::Histogram latency_us TACC_GUARDED_BY(shard_mutex);
    SessionSnapshot snapshot TACC_GUARDED_BY(shard_mutex);

    // Cluster — mutated only by the (single) active drainer and, through
    // apply_move_plan(), by the session's background re-optimizer. Both
    // serialize on cluster_mutex: the drainer locks it around each
    // batch's apply()s, the optimizer thread only ever try_locks it (the
    // serving path always wins; see opt::Reoptimizer). The oracle/delay
    // cache inside the cluster have no locks of their own — this mutex is
    // their external serialization point.
    Mutex cluster_mutex;
    std::unique_ptr<DynamicCluster> cluster TACC_GUARDED_BY(cluster_mutex)
        TACC_PT_GUARDED_BY(cluster_mutex);
    // Per-session optimizer (REOPT_START or EngineOptions::auto_reopt). A
    // REOPT_STOP stops its thread but keeps it, so its ledger stays
    // readable; REOPT_START and CONFIGURE replace it with a fresh one. The
    // pointer itself is only touched by the drainer under cluster_mutex.
    // Declared after `cluster`: destroyed first, so the optimizer thread
    // joins before the cluster it scans dies.
    std::unique_ptr<opt::Reoptimizer> reoptimizer
        TACC_GUARDED_BY(cluster_mutex);
    // Options used at the last attach, so CONFIGURE can re-attach a running
    // optimizer onto the replacement cluster with the same tuning.
    std::optional<opt::ReoptOptions> reopt_options
        TACC_GUARDED_BY(cluster_mutex);
  };

  /// One engine shard: sessions, admission ledger, and workers, all behind
  /// one mutex that no other shard ever touches. Lock order: shard mutex
  /// first, a session's cluster_mutex second — never both at once in this
  /// file (drain_batch drops the shard lock before taking the cluster
  /// lock), but the hierarchy matters for future code.
  struct Shard {
    Shard(std::size_t admission_quota, std::size_t workers)
        : quota(admission_quota), pool(workers) {}

    const std::size_t quota;  ///< admission bound for this shard
    mutable Mutex mutex;
    CondVar drained_cv;  ///< signalled when in_flight drops
    std::map<std::string, std::shared_ptr<Session>, std::less<>> sessions
        TACC_GUARDED_BY(mutex);
    // Admitted, not yet responded.
    std::size_t in_flight TACC_GUARDED_BY(mutex) = 0;
    bool shutting_down TACC_GUARDED_BY(mutex) = false;
    EngineCounters counters TACC_GUARDED_BY(mutex);
    runtime::ThreadPool pool;  // last member: workers stop before state dies
  };

  /// One drain pass: executes up to `max_batch` queued events of the
  /// session and flushes their metrics. Returns true while events remain
  /// queued (the caller still holds the claim); on false the claim was
  /// released under the same shard lock that saw the queue empty.
  bool drain_batch(Shard& shard, Session& session);
  /// Executes one event against the session; returns the response line.
  /// CONFIGURE, SLEEP, REOPT_*, ORACLE_STATS and LINKS are handled here;
  /// cluster verbs go through service::apply() and their reply is
  /// formatted from its ApplyResult. Never throws. Caller holds the
  /// session's cluster mutex (the drainer takes it around the whole batch).
  std::string apply(Session& session, const Request& request)
      TACC_REQUIRES(session.cluster_mutex);
  [[nodiscard]] std::string stats_line(const Request& request) const;

  const EngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tacc::service
