// Socket-level tests for the taccd server: real Unix-domain/TCP clients
// driving malformed lines, oversized lines, mid-request disconnects,
// SHUTDOWN with work in flight, admission-queue overflow, pipelined
// batching, concurrent pipelines sharing sessions, and a client that
// stops reading its replies.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace tacc::service {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/tacc_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Blocking line-oriented test client over an already-connected fd.
class LineClient {
 public:
  explicit LineClient(int fd) : fd_(fd) {}
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  static LineClient connect_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0)
        << path << ": " << std::strerror(errno);
    return LineClient(fd);
  }

  static LineClient connect_tcp(int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0)
        << "port " << port << ": " << std::strerror(errno);
    return LineClient(fd);
  }

  bool send_raw(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  /// Reads one response line; false on EOF/error.
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// One request, one response; fails the test on connection loss.
  std::string roundtrip(const std::string& request) {
    EXPECT_TRUE(send_line(request));
    std::string response;
    EXPECT_TRUE(read_line(response)) << "no response to: " << request;
    return response;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Hangs up both directions without releasing the fd, which also wakes a
  /// send() blocked on this socket in another thread.
  void shutdown() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  /// Makes read_line() give up after `timeout` without data.
  void set_receive_timeout(std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Boots a server on a fresh Unix socket and tears it down with the test.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options = {}) {
    if (options.unix_path.empty() && options.tcp_port < 0) {
      options.unix_path = unique_socket_path();
    }
    options.engine.threads =
        options.engine.threads == 0 ? 2 : options.engine.threads;
    server_ = std::make_unique<Server>(std::move(options));
    thread_ = std::jthread([this] { server_->run(); });
  }

  ~ServerFixture() { stop(); }

  void stop() {
    if (server_ && thread_.joinable()) {
      server_->request_shutdown();
      thread_.join();
    }
  }

  /// Blocks until run() returns (e.g. after a SHUTDOWN verb).
  void wait_stopped() {
    if (thread_.joinable()) thread_.join();
  }

  Server& server() { return *server_; }
  LineClient client() {
    return LineClient::connect_unix(server_->unix_path());
  }

 private:
  std::unique_ptr<Server> server_;
  std::jthread thread_;
};

TEST(Server, PingConfigureJoinOverUnixSocket) {
  ServerFixture fixture;
  LineClient client = fixture.client();
  EXPECT_EQ(client.roundtrip("PING"), "OK pong");
  EXPECT_EQ(client.roundtrip("CONFIGURE u 20 3 seed=5").rfind("OK", 0), 0u);
  EXPECT_EQ(client.roundtrip("JOIN u 1.0 1.0").rfind("OK", 0), 0u);
  EXPECT_EQ(client.roundtrip("STATS u").rfind("OK", 0), 0u);
  EXPECT_EQ(fixture.server().connections_accepted(), 1u);
}

TEST(Server, PingOverEphemeralTcpPort) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral; unix listener disabled
  ServerFixture fixture(std::move(options));
  ASSERT_GT(fixture.server().tcp_port(), 0);
  LineClient client = LineClient::connect_tcp(fixture.server().tcp_port());
  EXPECT_EQ(client.roundtrip("PING"), "OK pong");
  EXPECT_EQ(client.roundtrip("FROB x").rfind("ERR BAD_REQUEST", 0), 0u);
}

TEST(Server, MalformedLinesAnswerBadRequestAndKeepTheConnection) {
  ServerFixture fixture;
  LineClient client = fixture.client();
  EXPECT_EQ(client.roundtrip("NOT A VERB").rfind("ERR BAD_REQUEST", 0), 0u);
  EXPECT_EQ(client.roundtrip("JOIN").rfind("ERR BAD_REQUEST", 0), 0u);
  EXPECT_EQ(client.roundtrip("MOVE s abc 1 2").rfind("ERR BAD_REQUEST", 0),
            0u);
  // The connection survives garbage: a valid request still works.
  EXPECT_EQ(client.roundtrip("PING"), "OK pong");
}

TEST(Server, OversizedLineAnswersBadRequestThenCloses) {
  ServerOptions options;
  options.max_line = 64;
  ServerFixture fixture(std::move(options));
  LineClient client = fixture.client();

  ASSERT_TRUE(client.send_line(std::string(500, 'A')));
  std::string response;
  ASSERT_TRUE(client.read_line(response));
  EXPECT_EQ(response.rfind("ERR BAD_REQUEST", 0), 0u) << response;
  EXPECT_NE(response.find("exceeds"), std::string::npos);
  // The server cannot resynchronize inside an oversized line, so the
  // connection must close (clean EOF, not a hang).
  EXPECT_FALSE(client.read_line(response));

  // The server itself stays healthy for new connections.
  LineClient second = fixture.client();
  EXPECT_EQ(second.roundtrip("PING"), "OK pong");
}

TEST(Server, ClientDisconnectMidRequestLeavesServerHealthy) {
  ServerFixture fixture;
  {
    LineClient client = fixture.client();
    ASSERT_EQ(client.roundtrip("CONFIGURE gone 20 3 seed=2").rfind("OK", 0),
              0u);
    // Fire a slow request and vanish without reading the response.
    ASSERT_TRUE(client.send_line("SLEEP gone 200"));
    client.close();
  }
  // The orphaned request still executes; its response write is dropped.
  LineClient client = fixture.client();
  EXPECT_EQ(client.roundtrip("PING"), "OK pong");
  // Poll until the orphaned SLEEP completes; its slot must be reclaimed.
  std::string stats;
  for (int i = 0; i < 100; ++i) {
    stats = client.roundtrip("STATS");
    if (stats.find("completed=2") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(stats.find("completed=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("queue_depth=0"), std::string::npos) << stats;
}

TEST(Server, PartialLineWithoutNewlineIsNotARequest) {
  ServerFixture fixture;
  LineClient client = fixture.client();
  // No newline: the server must wait, not parse a partial request.
  ASSERT_TRUE(client.send_raw("PI"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.send_raw("NG\n"));
  std::string response;
  ASSERT_TRUE(client.read_line(response));
  EXPECT_EQ(response, "OK pong");
}

TEST(Server, ShutdownVerbDrainsInFlightWorkFirst) {
  ServerFixture fixture;
  LineClient client = fixture.client();
  ASSERT_EQ(client.roundtrip("CONFIGURE s 20 3 seed=3").rfind("OK", 0), 0u);

  // Pipeline: a slow request, then SHUTDOWN. Responses flush in request
  // order, so the SLEEP's real response must arrive before the shutdown
  // acknowledgement — in-flight work is never abandoned.
  ASSERT_TRUE(client.send_raw("SLEEP s 300\nSHUTDOWN\n"));
  std::string response;
  ASSERT_TRUE(client.read_line(response));
  EXPECT_EQ(response.rfind("OK slept_ms=", 0), 0u) << response;
  ASSERT_TRUE(client.read_line(response));
  EXPECT_EQ(response.rfind("OK draining", 0), 0u) << response;
  // Then the server cuts the connection and run() returns.
  EXPECT_FALSE(client.read_line(response));
  fixture.wait_stopped();
}

TEST(Server, AdmissionOverflowAnswersOverloadedForEveryRequest) {
  ServerOptions options;
  options.engine.max_queue = 2;
  options.engine.default_timeout_ms = 5'000.0;
  ServerFixture fixture(std::move(options));
  LineClient client = fixture.client();
  ASSERT_EQ(client.roundtrip("CONFIGURE o 20 3 seed=4").rfind("OK", 0), 0u);

  // One SLEEP to occupy the session plus 5 JOINs against a 2-deep queue:
  // every request must get a response, and at least one must be OVERLOADED.
  ASSERT_TRUE(client.send_raw(
      "SLEEP o 400\nJOIN o 1 1\nJOIN o 1 2\nJOIN o 2 1\nJOIN o 2 2\n"
      "JOIN o 3 3\n"));
  std::vector<std::string> responses(6);
  std::size_t overloaded = 0;
  for (std::string& response : responses) {
    ASSERT_TRUE(client.read_line(response)) << "response dropped";
    if (response.rfind("ERR OVERLOADED", 0) == 0) ++overloaded;
  }
  EXPECT_EQ(responses.front().rfind("OK slept_ms=", 0), 0u)
      << responses.front();
  EXPECT_GE(overloaded, 1u);
  // No silent drops: the connection is still in sync afterwards.
  EXPECT_EQ(client.roundtrip("PING"), "OK pong");
}

TEST(Server, ResponsesFlushInRequestOrderAcrossSessions) {
  ServerFixture fixture;
  LineClient client = fixture.client();
  ASSERT_EQ(client.roundtrip("CONFIGURE slow 20 3 seed=6").rfind("OK", 0),
            0u);
  ASSERT_EQ(client.roundtrip("CONFIGURE fast 20 3 seed=7").rfind("OK", 0),
            0u);

  // The fast session's MOVE completes long before the slow session's SLEEP,
  // but the sequencer must still deliver responses in request order.
  ASSERT_TRUE(client.send_raw("SLEEP slow 250\nMOVE fast 0 1.0 1.0\n"));
  std::string first;
  std::string second;
  ASSERT_TRUE(client.read_line(first));
  ASSERT_TRUE(client.read_line(second));
  EXPECT_EQ(first.rfind("OK slept_ms=", 0), 0u) << first;
  EXPECT_EQ(second.rfind("OK device=0", 0), 0u) << second;
}

TEST(Server, PipelinedRepliesStayOrderedAcrossShards) {
  ServerOptions options;
  options.engine.shards = 4;
  options.engine.threads = 4;
  ServerFixture fixture(std::move(options));
  Engine& engine = fixture.server().engine();
  ASSERT_EQ(engine.shard_count(), 4u);

  // One session per shard, so the pipelined batch below completes on four
  // different worker pools concurrently.
  std::vector<std::string> names(4);
  std::size_t covered = 0;
  for (int i = 0; covered < 4; ++i) {
    std::string name = "probe" + std::to_string(i);
    const std::size_t shard = engine.shard_of(name);
    if (names[shard].empty()) {
      names[shard] = std::move(name);
      ++covered;
    }
  }

  LineClient client = fixture.client();
  for (const std::string& name : names) {
    ASSERT_EQ(client.roundtrip("CONFIGURE " + name + " 20 3 seed=8")
                  .rfind("OK", 0),
              0u);
  }

  // Pipeline sleeps whose completion order inverts request order (the
  // longest is first, on shard 0; the shortest last, on shard 3). Shard
  // parallelism means they finish roughly in reverse; the connection
  // sequencer must still reply strictly in request order, with each reply
  // carrying its own request's duration.
  const double sleeps[4] = {150.0, 30.0, 10.0, 1.0};
  std::string batch;
  for (std::size_t i = 0; i < 4; ++i) {
    batch += "SLEEP " + names[i] + " " + std::to_string(sleeps[i]) + "\n";
  }
  ASSERT_TRUE(client.send_raw(batch));
  for (const double expected : sleeps) {
    std::string response;
    ASSERT_TRUE(client.read_line(response));
    ASSERT_EQ(response.rfind("OK slept_ms=", 0), 0u) << response;
    EXPECT_DOUBLE_EQ(std::stod(response.substr(12)), expected) << response;
  }
}

/// Extracts the integer value of `key=` from an OK response line.
std::uint64_t field_value(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  EXPECT_NE(at, std::string::npos) << "missing " << key << " in: " << line;
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size() + 2));
}

TEST(Server, PipelinedBurstStillFormsBatches) {
  ServerOptions options;
  options.engine.shards = 1;  // the whole burst fits one shard's quota
  ServerFixture fixture(std::move(options));
  LineClient client = fixture.client();
  ASSERT_EQ(client.roundtrip("CONFIGURE burst 20 3 seed=12").rfind("OK", 0),
            0u);

  // One write well under the reader's 4 KiB read: the reader admits all 64
  // lines before it runs any, so they drain in batches of max_batch.
  constexpr std::size_t kBurst = 64;
  std::string burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    burst += "MOVE burst " + std::to_string(i % 20) + " 1.5 2.5\n";
  }
  ASSERT_LT(burst.size(), 4096u);
  ASSERT_TRUE(client.send_raw(burst));
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::string response;
    ASSERT_TRUE(client.read_line(response)) << "reply " << i << " missing";
    EXPECT_EQ(response.rfind("OK device=", 0), 0u) << response;
  }

  // A reply leaves before its batch's ledger flush; wait for the flush.
  std::string stats;
  for (int i = 0; i < 200; ++i) {
    stats = client.roundtrip("STATS burst");
    if (field_value(stats, "in_flight") == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(field_value(stats, "in_flight"), 0u) << stats;
  const std::uint64_t completed = field_value(stats, "completed");
  EXPECT_EQ(completed, kBurst + 1) << stats;  // + the CONFIGURE
  EXPECT_LT(field_value(stats, "batches"), completed) << stats;
  EXPECT_EQ(field_value(stats, "accepted"),
            completed + field_value(stats, "failed") +
                field_value(stats, "rejected_deadline"))
      << stats;
  fixture.server().engine().check_invariants();
}

TEST(Server, SlowReaderDoesNotStallOtherSessionsOnItsShard) {
  ServerOptions options;
  options.engine.shards = 1;
  options.engine.threads = 1;  // one pool worker for the only shard
  // Room for the whole pipeline: this test is about who executes, not
  // about the shared admission quota.
  options.engine.max_queue = 1 << 16;
  ServerFixture fixture(std::move(options));
  LineClient slow = fixture.client();
  LineClient fast = fixture.client();
  ASSERT_EQ(slow.roundtrip("CONFIGURE a 20 3 seed=14").rfind("OK", 0), 0u);
  ASSERT_EQ(fast.roundtrip("CONFIGURE b 20 3 seed=15").rfind("OK", 0), 0u);

  // Connection A pipelines far more replies than its socket buffers hold
  // and never reads one, so whichever thread writes A's replies blocks.
  constexpr int kPipelined = 20'000;
  std::jthread writer([&slow] {
    std::string burst;
    for (int i = 0; i < kPipelined; ++i) {
      burst += "MOVE a " + std::to_string(i % 20) + " 1.0 1.0\n";
    }
    slow.send_raw(burst);  // fails once A hangs up below
  });
  // Declared after the writer, so A hangs up (and the writer's blocked
  // send fails) before the writer is joined, on every exit path.
  struct HangUp {
    LineClient& client;
    ~HangUp() { client.shutdown(); }
  } hang_up{slow};

  // Wait until A's replies back up: completions stop advancing.
  Engine& engine = fixture.server().engine();
  std::uint64_t last = engine.counters().completed;
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now = engine.counters().completed;
    if (now == last && now > 2) break;
    last = now;
  }

  // B shares A's shard and its single worker, yet must keep going.
  fast.set_receive_timeout(std::chrono::seconds(5));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fast.send_line("MOVE b " + std::to_string(i % 20) +
                               " 2.0 2.0"));
    std::string response;
    ASSERT_TRUE(fast.read_line(response)) << "round trip " << i << " stalled";
    ASSERT_EQ(response.rfind("OK device=", 0), 0u) << response;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(Server, ConcurrentPipelinesShareSessionsWithoutLoss) {
  ServerOptions options;
  options.engine.shards = 2;
  options.engine.threads = 2;
  options.engine.max_queue = 4096;
  options.engine.default_timeout_ms = 10'000.0;
  ServerFixture fixture(std::move(options));
  Engine& engine = fixture.server().engine();

  // Two sessions on different shards, shared by every connection: their
  // claims pass between readers running batches inline and pool workers
  // draining leftovers and other shards' claims.
  std::vector<std::string> names(2);
  for (int i = 0; names[0].empty() || names[1].empty(); ++i) {
    std::string name = "shared" + std::to_string(i);
    std::string& slot = names[engine.shard_of(name)];
    if (slot.empty()) slot = std::move(name);
  }
  {
    LineClient setup = fixture.client();
    for (const std::string& name : names) {
      ASSERT_EQ(setup.roundtrip("CONFIGURE " + name + " 20 3 seed=17")
                    .rfind("OK", 0),
                0u);
    }
  }

  constexpr int kConnections = 4;
  constexpr int kRounds = 8;
  constexpr int kPerRound = 40;
  std::atomic<int> ok{0};
  std::vector<std::jthread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&fixture, &names, &ok, c] {
      LineClient client = fixture.client();
      for (int round = 0; round < kRounds; ++round) {
        std::string burst;
        for (int i = 0; i < kPerRound; ++i) {
          burst += "MOVE " + names[static_cast<std::size_t>(i % 2)] + " " +
                   std::to_string((c * kPerRound + i) % 20) + " 1.0 2.0\n";
        }
        if (!client.send_raw(burst)) return;
        for (int i = 0; i < kPerRound; ++i) {
          std::string response;
          if (!client.read_line(response)) return;
          if (response.rfind("OK device=", 0) == 0) ok.fetch_add(1);
        }
      }
    });
  }
  clients.clear();  // joins

  EXPECT_EQ(ok.load(), kConnections * kRounds * kPerRound);
  engine.drain();
  engine.check_invariants();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.completed,
            static_cast<std::uint64_t>(kConnections * kRounds * kPerRound) +
                names.size());
  EXPECT_EQ(counters.accepted, counters.completed);
}

TEST(Server, SocketFileIsUnlinkedOnShutdown) {
  const std::string path = unique_socket_path();
  {
    ServerOptions options;
    options.unix_path = path;
    ServerFixture fixture(std::move(options));
    LineClient client = fixture.client();
    EXPECT_EQ(client.roundtrip("PING"), "OK pong");
    fixture.stop();
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << path << " left behind";
}

}  // namespace
}  // namespace tacc::service
