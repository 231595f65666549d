#include "client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "direct.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

/// A re-optimizer bracket ends once kSettlePasses passes ran without a new
/// applied move, or after kBracketCap.
constexpr auto kBracketCap = std::chrono::seconds(5);
constexpr auto kPollEvery = std::chrono::milliseconds(1);
constexpr std::size_t kMaxErrors = 8;
/// First pause after a stolen segment (see Pacing); it doubles up to 4x,
/// and a run pauses for at most kBackoffCapS in total.
constexpr double kBackoffFirstS = 2.0;
constexpr double kBackoffCapS = 30.0;

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

// Bracket phases: REOPT_START, REOPT_STATS polls until settled, REOPT_STOP,
// then a STATS checkpoint once the stop's batch has flushed.
enum class Phase {
  kServe,
  kStartSent,
  kPollWait,
  kStatsSent,
  kStopSent,
  kCheckWait,
  kCheckSent,
  kDone
};

struct ConnState {
  WireClient* conn = nullptr;
  const SessionStream* stream = nullptr;
  std::size_t next = 0;  ///< next line to send
  std::size_t end = 0;
  std::size_t measure_from = 0;  ///< first line past the settle lines
  Phase phase = Phase::kDone;
  Clock::time_point sent{};
  // Bracket bookkeeping.
  Clock::time_point bracket_start{};
  Clock::time_point next_poll{};
  double last_applied = -1.0;
  double passes_at_change = 0.0;
};

void note_error(ReplayResult& result, const std::string& line) {
  if (result.errors.size() < kMaxErrors) result.errors.push_back(line);
}

}  // namespace

WireClient::WireClient(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    if (fd_ >= 0) ::close(fd_);
    throw std::runtime_error("cannot connect to " + path + ": " + why);
  }
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

void WireClient::send(std::string_view line) {
  std::string out(line);
  out += '\n';
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + done, out.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

bool WireClient::pop_line(std::string& line) {
  const std::size_t eol = buffer_.find('\n');
  if (eol == std::string::npos) return false;
  line.assign(buffer_, 0, eol);
  buffer_.erase(0, eol + 1);
  return true;
}

void WireClient::fill() {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) return;
      continue;
    }
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
  }
}

std::string WireClient::roundtrip(std::string_view line) {
  send(line);
  std::string reply;
  while (!pop_line(reply)) {
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, 60'000) <= 0) {
      throw std::runtime_error("no reply to: " + std::string(line));
    }
    fill();
  }
  return reply;
}

std::vector<std::string> exchange_lines(std::vector<WireClient*>& conns,
                                  const std::vector<std::string>& lines) {
  for (std::size_t c = 0; c < conns.size(); ++c) conns[c]->send(lines[c]);
  std::vector<std::string> replies(conns.size());
  std::vector<bool> done(conns.size(), false);
  for (std::size_t left = conns.size(); left > 0;) {
    std::vector<pollfd> fds;
    for (WireClient* conn : conns) fds.push_back({conn->fd(), POLLIN, 0});
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), 120'000) <= 0) {
      throw std::runtime_error("daemon stopped replying");
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (done[c] || fds[c].revents == 0) continue;
      conns[c]->fill();
      if (conns[c]->pop_line(replies[c])) {
        done[c] = true;
        --left;
      }
    }
  }
  return replies;
}

std::string settled_stats(WireClient& conn, const std::string& session) {
  for (int tries = 0;; ++tries) {
    std::string stats = conn.roundtrip("STATS " + session);
    if (reply_field(stats, "in_flight") == 0.0) return stats;
    if (tries == 1000) throw std::runtime_error("requests stuck: " + stats);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<std::size_t> segment_bounds(const SessionStream& stream) {
  std::vector<std::size_t> b{0};
  if (stream.quiet.empty()) {
    b.push_back(stream.warmup);
    b.insert(b.end(), stream.cuts.begin(), stream.cuts.end());
    b.push_back(stream.lines.size());
  } else {
    b.insert(b.end(), stream.quiet.begin(), stream.quiet.end());
  }
  return b;
}

std::string reply_text(std::string_view reply, std::string_view key) {
  std::string needle = " ";
  needle += key;
  needle += '=';
  const std::size_t at = reply.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t stop = reply.find(' ', start);
  return std::string(reply.substr(start, stop == std::string_view::npos
                                             ? std::string_view::npos
                                             : stop - start));
}

double reply_field(std::string_view reply, std::string_view key) {
  const std::string text = reply_text(reply, key);
  if (text.empty()) {
    throw std::runtime_error("reply lacks " + std::string(key) + ": " +
                             std::string(reply));
  }
  return std::stod(text);
}

void replay(std::vector<WireClient*>& conns,
            const std::vector<SessionStream>& streams, std::size_t first,
            std::size_t last, bool keep_spans, ReplayResult& result,
            const Pacing* pacing) {
  const std::size_t n = conns.size();
  std::vector<ConnState> states(n);
  std::vector<std::vector<std::size_t>> bounds(n);
  for (std::size_t c = 0; c < n; ++c) {
    states[c].conn = conns[c];
    states[c].stream = &streams[c];
    bounds[c] = segment_bounds(streams[c]);
  }
  const bool reopt = !streams.front().quiet.empty();
  const Clock::time_point origin = Clock::now();
  std::vector<pollfd> fds(n);
  std::string reply;

  for (std::size_t seg = first; seg < last; ++seg) {
    const bool measured = seg >= 1;
    if (pacing != nullptr && result.stolen_in_a_row > 0) {
      const std::size_t doublings =
          std::min<std::size_t>(result.stolen_in_a_row - 1, 2);
      const double backoff =
          std::min(kBackoffFirstS * static_cast<double>(1u << doublings),
                   kBackoffCapS - result.backoff_s);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        result.backoff_s += backoff;
      }
    }
    const Clock::time_point segment_start = Clock::now();
    const double steal0 = steal_s();
    const double cpu0 = pacing != nullptr ? pacing->cpu_s() : 0.0;
    const std::uint64_t attempted0 = result.attempted;
    // Serve the segment on every connection. The window opens once every
    // connection is past its settle lines and closes when the first one
    // runs out of lines.
    std::size_t settling = 0;
    for (std::size_t c = 0; c < n; ++c) {
      ConnState& s = states[c];
      s.next = bounds[c][seg];
      s.end = bounds[c][seg + 1];
      s.measure_from = std::min(s.next + kSettleLines, s.end);
      s.phase = s.next < s.end ? Phase::kServe : Phase::kDone;
      if (s.phase == Phase::kServe) ++settling;
    }
    bool window_opened = !measured || settling < n;
    auto close_window = [&](Clock::time_point at) {
      if (result.windows.is_open()) result.windows.close(at);
    };
    auto send_next = [&](ConnState& s) {
      s.sent = Clock::now();
      s.conn->send(s.stream->lines[s.next]);
      ++result.attempted;
      if (s.next == s.measure_from && --settling == 0 && !window_opened) {
        window_opened = true;
        result.windows.open(s.sent);
      }
    };
    for (ConnState& s : states) {
      if (s.phase == Phase::kServe) send_next(s);
    }
    auto start_bracket = [&](ConnState& s) {
      s.phase = Phase::kStartSent;
      s.bracket_start = Clock::now();
      s.last_applied = -1.0;
      s.passes_at_change = 0.0;
      ++result.bracket_requests;
      s.conn->send(reopt_start_line(s.stream->session));
    };

    bool bracket_started = false;
    for (;;) {
      // Once every connection finished serving, run the segment's bracket.
      if (reopt && !bracket_started &&
          std::all_of(states.begin(), states.end(), [](const ConnState& s) {
            return s.phase == Phase::kDone;
          })) {
        bracket_started = true;
        for (ConnState& s : states) start_bracket(s);
      }
      bool busy = false;
      int timeout_ms = -1;
      const Clock::time_point now = Clock::now();
      for (std::size_t c = 0; c < n; ++c) {
        ConnState& s = states[c];
        if (s.phase == Phase::kPollWait || s.phase == Phase::kCheckWait) {
          if (now >= s.next_poll) {
            const bool check = s.phase == Phase::kCheckWait;
            s.phase = check ? Phase::kCheckSent : Phase::kStatsSent;
            ++result.bracket_requests;
            s.conn->send((check ? "STATS " : "REOPT_STATS ") + s.stream->session);
          } else {
            const auto wait = std::chrono::duration_cast<
                std::chrono::milliseconds>(s.next_poll - now);
            const int ms = static_cast<int>(wait.count()) + 1;
            timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
          }
        }
        if (s.phase != Phase::kDone) busy = true;
        fds[c] = {s.conn->fd(), POLLIN, 0};
      }
      if (!busy) break;
      const int ready = ::poll(fds.data(), static_cast<nfds_t>(n),
                               timeout_ms < 0 ? 60'000 : timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
      }
      if (ready == 0 && timeout_ms < 0) {
        throw std::runtime_error("daemon stopped replying");
      }
      for (std::size_t c = 0; c < n; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        ConnState& s = states[c];
        s.conn->fill();
        while (s.conn->pop_line(reply)) {
          const Clock::time_point at = Clock::now();
          const bool ok = reply.starts_with("OK");
          switch (s.phase) {
            case Phase::kServe: {
              if (!ok) {
                ++result.failed;
                note_error(result, s.stream->lines[s.next] + " -> " + reply);
              }
              if (result.windows.is_open()) {
                result.windows.add(
                    at, std::chrono::duration<double, std::micro>(at - s.sent)
                            .count());
              }
              if (keep_spans) {
                result.spans.push_back(
                    {static_cast<std::uint32_t>(c),
                     static_cast<std::uint32_t>(s.next),
                     ns_since(origin, s.sent), ns_since(origin, at)});
              }
              if (++s.next < s.end) {
                send_next(s);
              } else {
                close_window(at);
                s.phase = Phase::kDone;
              }
              break;
            }
            case Phase::kStartSent:
              if (!ok) {
                ++result.bracket_failed;
                note_error(result, reply);
              }
              s.phase = Phase::kPollWait;
              s.next_poll = at + kPollEvery;
              break;
            case Phase::kStatsSent: {
              if (!ok) {
                ++result.bracket_failed;
                note_error(result, reply);
                s.phase = Phase::kDone;
                break;
              }
              const double applied = reply_field(reply, "applied");
              const double passes = reply_field(reply, "passes");
              if (applied != s.last_applied) {
                s.last_applied = applied;
                s.passes_at_change = passes;
              }
              const bool settled =
                  passes >= s.passes_at_change + static_cast<double>(kSettlePasses);
              const bool capped = at - s.bracket_start > kBracketCap;
              if (settled || capped) {
                if (!settled) ++result.brackets_unsettled;
                s.phase = Phase::kStopSent;
                ++result.bracket_requests;
                s.conn->send("REOPT_STOP " + s.stream->session);
              } else {
                s.phase = Phase::kPollWait;
                s.next_poll = at + kPollEvery;
              }
              break;
            }
            case Phase::kStopSent:
              if (!ok) {
                ++result.bracket_failed;
                note_error(result, reply);
              }
              s.phase = Phase::kCheckWait;
              s.next_poll = at;
              break;
            case Phase::kCheckSent:
              if (!ok) {
                ++result.bracket_failed;
                note_error(result, reply);
                s.phase = Phase::kDone;
              } else if (reply_field(reply, "in_flight") != 0.0) {
                s.phase = Phase::kCheckWait;
                s.next_poll = at + kPollEvery;
              } else {
                result.checkpoints.push_back({seg, c, reply});
                s.phase = Phase::kDone;
              }
              break;
            case Phase::kPollWait:
            case Phase::kCheckWait:
            case Phase::kDone:
              ++result.bracket_failed;
              note_error(result, "unexpected reply: " + reply);
              break;
          }
        }
      }
    }
    if (pacing == nullptr) continue;
    SegmentLog log;
    log.seconds =
        std::chrono::duration<double>(Clock::now() - segment_start).count();
    log.steal_share = steal_share(steal_s() - steal0, log.seconds);
    log.requests = result.attempted - attempted0;
    log.cpu_s = pacing->cpu_s() - cpu0;
    result.stolen_in_a_row =
        log.steal_share > kMaxStealShare ? result.stolen_in_a_row + 1 : 0;
    if (measured) result.segments.push_back(log);
  }
}

}  // namespace servebench
