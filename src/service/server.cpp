#include "service/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <stdexcept>

#include "util/log.hpp"
#include "util/mutex.hpp"

namespace tacc::service {

namespace {

/// Wake-pipe write end for the installed signal handlers. A lock-free
/// atomic int is the only state a handler may touch.
std::atomic<int> g_signal_wake_fd{-1};

void signal_handler(int /*signum*/) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    // The pipe is the wakeup; a full pipe already guarantees a wakeup.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void send_all(int fd, std::string_view data, bool& failed) {
  while (!failed && !data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      failed = true;  // client is gone; keep accounting, stop writing
      return;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// ---- Connection ------------------------------------------------------------

Server::Connection::~Connection() {
  ::close(fd);
}

void Server::Connection::flush_locked() {
  while (!ready.empty() && ready.begin()->first == next_write) {
    send_all(fd, ready.begin()->second, write_failed);
    ready.erase(ready.begin());
    ++next_write;
  }
  if (next_write >= seq_end && ready.empty()) {
    // Every response is out; give pipelined clients a clean EOF.
    ::shutdown(fd, SHUT_RDWR);
  }
}

void Server::Connection::respond(std::uint64_t seq, std::string line) {
  line += '\n';
  const MutexLock lock(&write_mutex);
  ready.emplace(seq, std::move(line));
  flush_locked();
}

void Server::Connection::finish_requests(std::uint64_t total_seqs) {
  const MutexLock lock(&write_mutex);
  seq_end = total_seqs;
  flush_locked();
}

// ---- Server ----------------------------------------------------------------

Server::Server(ServerOptions options)
    : options_(std::move(options)), engine_(options_.engine) {
  if (::pipe(wake_fds_) != 0) {
    throw std::runtime_error("taccd: cannot create wake pipe");
  }

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("taccd: unix socket path too long: " +
                               options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (unix_fd_ < 0) throw std::runtime_error("taccd: socket(AF_UNIX)");
    ::unlink(options_.unix_path.c_str());  // stale socket from a dead daemon
    if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(unix_fd_, 128) != 0) {
      throw std::runtime_error("taccd: cannot bind unix socket " +
                               options_.unix_path);
    }
  }

  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) throw std::runtime_error("taccd: socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("taccd: bad TCP host " + options_.tcp_host);
    }
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(tcp_fd_, 128) != 0) {
      throw std::runtime_error("taccd: cannot bind TCP port " +
                               std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }

  if (unix_fd_ < 0 && tcp_fd_ < 0) {
    throw std::runtime_error("taccd: no listeners configured");
  }
}

Server::~Server() {
  if (g_signal_wake_fd.load() == wake_fds_[1]) g_signal_wake_fd.store(-1);
  close_listeners();
  // Join any readers left from a run() the caller never completed. Joining
  // under connections_mutex_ is fine (readers never take it), and clearing
  // under it was always required — the pre-annotation code dropped the lock
  // before the clears, which the thread-safety analysis flagged.
  {
    const MutexLock lock(&connections_mutex_);
    for (const auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RDWR);
    }
    readers_.clear();
    connections_.clear();
  }
  close_fd(wake_fds_[0]);
  close_fd(wake_fds_[1]);
}

void Server::request_shutdown() noexcept {
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Server::install_signal_handlers() noexcept {
  g_signal_wake_fd.store(wake_fds_[1]);
  struct sigaction action{};
  action.sa_handler = &signal_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

void Server::run() {
  accept_loop();
  shutdown_sequence();
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[3];
    nfds_t count = 0;
    fds[count++] = {wake_fds_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[count++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[count++] = {tcp_fd_, POLLIN, 0};

    // Finite timeout so dead connections are reaped even when idle.
    const int rc = ::poll(fds, count, 500);
    if (rc < 0 && errno != EINTR) {
      util::log_error("taccd: poll failed: ", std::strerror(errno));
      return;
    }

    reap_finished_connections();
    if (rc <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) return;  // shutdown requested

    for (nfds_t i = 1; i < count; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept4(fds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (client < 0) continue;
      auto connection = std::make_shared<Connection>(client);
      connections_accepted_.fetch_add(1);
      const MutexLock lock(&connections_mutex_);
      connections_.push_back(connection);
      readers_.emplace_back(
          [this, connection] { reader_loop(connection); });
    }
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& connection) {
  std::string buffer;
  std::uint64_t next_seq = 0;
  char chunk[4096];
  bool overflow = false;
  std::vector<Engine::Claim> claims;
  while (!overflow) {
    const ssize_t n = ::read(connection->fd, chunk, sizeof chunk);
    if (n <= 0) break;  // EOF, client reset, or our own SHUT_RDWR
    buffer.append(chunk, static_cast<std::size_t>(n));

    // Admit every complete line of this read before running any of them,
    // so a pipelined burst still forms batches and meets the admission
    // quota as a whole.
    std::size_t start = 0;
    for (std::size_t pos = buffer.find('\n', start);
         pos != std::string::npos; pos = buffer.find('\n', start)) {
      const std::string_view line(buffer.data() + start, pos - start);
      if (line.size() > options_.max_line) {
        overflow = true;
        break;
      }
      if (!line.empty() && line != "\r") {
        if (Engine::Claim claim = handle_line(connection, next_seq++, line)) {
          claims.push_back(std::move(claim));
        }
      }
      start = pos + 1;
    }
    buffer.erase(0, start);

    // Caller-runs: the first claimed session runs one batch right here,
    // without a hand-off to a pool worker. Other claims go to their shards'
    // pools first, so a pipeline that spans shards keeps its parallelism.
    if (!claims.empty()) {
      for (std::size_t i = 1; i < claims.size(); ++i) {
        engine_.dispatch(std::move(claims[i]));
      }
      engine_.run_batch(std::move(claims.front()));
      claims.clear();
    }

    // Both a complete oversized line and an unbounded partial one mean the
    // client is out of protocol; answer once and hang up.
    if (buffer.size() > options_.max_line) overflow = true;
    if (overflow) {
      connection->respond(
          next_seq++,
          err_line(ErrorCode::kBadRequest,
                   "line exceeds " + std::to_string(options_.max_line) +
                       " bytes"));
    }
  }
  connection->finish_requests(next_seq);
  connection->reader_done.store(true);
}

Engine::Claim Server::handle_line(
    const std::shared_ptr<Connection>& connection, std::uint64_t seq,
    std::string_view line) {
  ParseResult parsed = parse_request(line);
  if (!parsed.ok()) {
    connection->respond(seq, err_line(ErrorCode::kBadRequest, parsed.error));
    return {};
  }
  const Request& request = *parsed.request;
  switch (request.verb) {
    case Verb::kPing:
      connection->respond(seq, "OK pong");
      return {};
    case Verb::kShutdown:
      connection->respond(seq, "OK draining");
      request_shutdown();
      return {};
    default:
      return engine_.admit(request,
                           [connection, seq](std::string response) {
                             connection->respond(seq, std::move(response));
                           });
  }
}

void Server::reap_finished_connections() {
  const MutexLock lock(&connections_mutex_);
  for (std::size_t i = 0; i < connections_.size();) {
    if (connections_[i]->reader_done.load()) {
      readers_[i].join();
      readers_.erase(readers_.begin() + static_cast<std::ptrdiff_t>(i));
      connections_.erase(connections_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void Server::close_listeners() noexcept {
  if (unix_fd_ >= 0 && !options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
}

void Server::shutdown_sequence() {
  util::log_info("taccd: draining");
  close_listeners();
  // Stop admitting, then let every already-admitted request reach its
  // terminal response before cutting the sockets.
  engine_.begin_shutdown();
  engine_.drain();
  {
    const MutexLock lock(&connections_mutex_);
    for (const auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RDWR);
    }
    readers_.clear();      // joins: SHUT_RDWR unblocked every read()
    connections_.clear();  // closes client fds
  }
  util::log_info("taccd: drained; all connections closed");
}

}  // namespace tacc::service
