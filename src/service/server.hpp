// Socket front-end for the taccd engine: Unix-domain (and optional TCP)
// listeners speaking the line protocol in protocol.hpp.
//
// Threading: run() owns the accept loop (poll over the listeners plus a
// self-pipe wakeup); each accepted connection gets a reader thread. Per
// read(), the reader first parses and admits every complete line, so a
// pipelined burst forms batches and meets the admission quota as a whole.
// It then runs the first session it claimed itself (caller-runs: one batch
// of at most max_batch events, with no hand-off to a pool worker) and
// dispatches any other claims to their shards' pools, so a pipeline that
// spans shards keeps its parallelism. Whatever is still queued after the
// one batch goes to the shard pool too; a reader is never held for more
// than one batch. While it runs a batch the reader does not read its
// socket, so lines the client has not yet delivered meet socket
// backpressure rather than OVERLOADED. A client that stops reading blocks
// the thread writing its replies: its own reader, or the pool worker
// draining its session. Other connections still run their batches on their
// own readers; only work that lands in that shard's pool (leftover
// batches, other shards' claims of a pipeline) can queue behind the
// blocked worker.
//
// Responses are written back strictly in per-connection request order — a
// response sequencer holds out-of-order completions until their
// predecessors flush — so pipelined clients can match responses to
// requests positionally. This ordering is independent of the engine's
// completion order: one connection's requests may target sessions on
// different shards and complete in any interleaving on the reader and on
// worker threads, but each completion lands at its reader-assigned
// sequence number and flushes only after every earlier sequence has
// flushed.
//
// Shutdown (SIGINT/SIGTERM via install_signal_handlers(), the SHUTDOWN
// verb, or request_shutdown()):
//   1. listeners close — no new connections;
//   2. the engine stops admitting — late requests answer SHUTTING_DOWN;
//   3. every admitted request drains to its terminal response;
//   4. connections are shut down and reader threads joined.
// run() then returns; in-flight work is never abandoned.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/engine.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::service {

struct ServerOptions {
  /// Filesystem path for the Unix-domain listener; empty disables it. A
  /// stale socket file at the path is unlinked before binding.
  std::string unix_path;
  /// TCP listener port; negative disables, 0 binds an ephemeral port (read
  /// it back with tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Requests longer than this (bytes, excluding the newline) answer
  /// BAD_REQUEST and the connection is closed.
  std::size_t max_line = 4096;
  EngineOptions engine;
};

class Server {
 public:
  /// Binds the listeners (throws std::runtime_error on failure) but does
  /// not serve until run().
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until a shutdown is requested, then drains and returns.
  void run();

  /// Wakes run() and starts the graceful shutdown. Safe from any thread and
  /// from signal handlers (one write to a pipe).
  void request_shutdown() noexcept;

  /// Routes SIGINT/SIGTERM to request_shutdown() on this server and ignores
  /// SIGPIPE (writes to dead clients must not kill the daemon). At most one
  /// server per process can hold the handlers.
  void install_signal_handlers() noexcept;

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  /// Actual TCP port (after ephemeral bind); -1 when TCP is disabled.
  [[nodiscard]] int tcp_port() const noexcept { return bound_tcp_port_; }
  [[nodiscard]] const std::string& unix_path() const noexcept {
    return options_.unix_path;
  }
  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return connections_accepted_.load();
  }

 private:
  /// Per-connection state shared between its reader thread and the engine
  /// responders (which run on the reader or on pool workers).
  struct Connection {
    explicit Connection(int socket_fd) : fd(socket_fd) {}
    ~Connection();

    const int fd;
    std::atomic<bool> reader_done{false};

    // Response sequencing — all guarded by write_mutex. Seqs are assigned
    // by the single reader thread in arrival order; completions may arrive
    // from the reader or any shard's workers in any order, and flush
    // strictly by seq.
    Mutex write_mutex;
    // Seq whose response flushes next.
    std::uint64_t next_write TACC_GUARDED_BY(write_mutex) = 0;
    // Completed out of order, keyed by seq.
    std::map<std::uint64_t, std::string> ready TACC_GUARDED_BY(write_mutex);
    /// One past the last seq the reader allocated; UINT64_MAX while the
    /// reader is still accepting requests. Once every seq below it has
    /// flushed, the socket is shut down so the client sees a clean EOF.
    std::uint64_t seq_end TACC_GUARDED_BY(write_mutex) = UINT64_MAX;
    // Client gone; drop further writes.
    bool write_failed TACC_GUARDED_BY(write_mutex) = false;

    /// Queues `line` for seq and flushes every contiguous completed
    /// response. Write errors (client gone) are ignored.
    void respond(std::uint64_t seq, std::string line)
        TACC_EXCLUDES(write_mutex);
    /// Reader is done allocating seqs; closes the socket once drained.
    void finish_requests(std::uint64_t total_seqs) TACC_EXCLUDES(write_mutex);

   private:
    void flush_locked() TACC_REQUIRES(write_mutex);
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& connection);
  /// Answers or admits one line; returns the drain claim the admission
  /// handed out, for reader_loop to run or dispatch.
  [[nodiscard]] Engine::Claim handle_line(
      const std::shared_ptr<Connection>& connection, std::uint64_t seq,
      std::string_view line);
  void reap_finished_connections();
  void shutdown_sequence();
  void close_listeners() noexcept;

  ServerOptions options_;
  Engine engine_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: [0] polled, [1] written
  std::atomic<std::uint64_t> connections_accepted_{0};

  Mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_
      TACC_GUARDED_BY(connections_mutex_);
  // Index-aligned with connections_. Joining a reader under
  // connections_mutex_ is safe: reader threads never take that mutex.
  std::vector<std::jthread> readers_ TACC_GUARDED_BY(connections_mutex_);
};

}  // namespace tacc::service
