// Single-threaded closed-loop load generator over Unix-domain sockets.
//
// One WireClient per session; replay() multiplexes them with poll(), keeping
// exactly one request in flight per connection. Streams are cut into
// segments (see SessionStream): a segment's window opens when both
// connections send their first line and closes when the first connection
// runs out of lines, so throughput and latency are measured only while
// both connections are busy. The slower connection then finishes its
// segment unmeasured. On reopt workloads every segment is followed by a
// re-optimizer bracket on both sessions, which is never part of a window.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "streams.hpp"
#include "windows.hpp"

namespace servebench {

class WireClient {
 public:
  /// Connects to the Unix socket at `path`; throws std::runtime_error.
  explicit WireClient(const std::string& path);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Writes `line` plus a newline; throws on a write error.
  void send(std::string_view line);
  /// Pops one complete reply from the receive buffer, if any.
  bool pop_line(std::string& line);
  /// Reads whatever the socket holds; throws when the daemon hung up.
  void fill();
  /// Sends `line` and blocks for its reply.
  [[nodiscard]] std::string roundtrip(std::string_view line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One request as the client saw it: the span the benchmark records at the
/// socket boundary. `request` is the line index within the session stream.
struct Span {
  std::uint32_t session = 0;
  std::uint32_t request = 0;
  std::int64_t send_ns = 0;  ///< steady_clock, relative to replay start
  std::int64_t recv_ns = 0;
};

/// A session's STATS reply after a re-optimizer bracket.
struct Checkpoint {
  std::size_t segment = 0;
  std::size_t session = 0;
  std::string stats;
};

/// One measured segment as replay() saw it.
struct SegmentLog {
  double seconds = 0.0;
  double steal_share = 0.0;  ///< see steal_share()
  std::uint64_t requests = 0;  ///< serving lines sent
  double cpu_s = 0.0;  ///< daemon CPU over the segment (Pacing::cpu_s)
};

/// Steal-aware pacing of measured segments. On a shared host the
/// hypervisor can steal CPU from the guest for tens of seconds, stalling
/// every thread of the closed loop; slices from such a spell are dropped,
/// and when a whole run falls inside one, too few are left to rate. So
/// after a segment during which the host stole more than kMaxStealShare,
/// the client stops serving for a while before the next one: 2 s, then
/// 4 s and 8 s while segments stay stolen, at most 30 s per run in total.
/// The lines sent do not change.
struct Pacing {
  std::function<double()> cpu_s;  ///< daemon CPU clock in seconds
};

struct ReplayResult {
  std::uint64_t attempted = 0;  ///< serving lines sent
  std::uint64_t failed = 0;     ///< serving replies that were not OK
  std::uint64_t bracket_requests = 0;
  std::uint64_t bracket_failed = 0;
  std::uint64_t brackets_unsettled = 0;  ///< hit the bracket time cap
  WindowLog windows;  ///< round trips inside measurement windows
  std::vector<Checkpoint> checkpoints;  ///< one per session and bracket
  std::vector<Span> spans;
  std::vector<std::string> errors;  ///< first few unexpected replies
  std::vector<SegmentLog> segments;  ///< measured segments, in order
  double backoff_s = 0.0;   ///< time paced out between segments
  std::size_t stolen_in_a_row = 0;  ///< trailing stolen segments
};

/// Replays segments [first, last) of every stream (see segment_bounds()),
/// one connection per stream. Segment 0 is the warm-up; on reopt streams
/// every segment is followed by a bracket. `keep_spans` records a Span per
/// serving request. With `pacing`, measured segments are paced and logged
/// with the daemon's CPU time.
void replay(std::vector<WireClient*>& conns,
            const std::vector<SessionStream>& streams, std::size_t first,
            std::size_t last, bool keep_spans, ReplayResult& result,
            const Pacing* pacing = nullptr);

/// Sends one line per connection at once and waits for every reply.
[[nodiscard]] std::vector<std::string> exchange_lines(
    std::vector<WireClient*>& conns, const std::vector<std::string>& lines);

/// The session's STATS reply once no request is in flight (so the reply
/// carries the snapshot of the last executed batch).
[[nodiscard]] std::string settled_stats(WireClient& conn,
                                        const std::string& session);

/// Segment boundaries of `stream`: segment j is lines [b[j], b[j+1]).
/// Non-reopt streams have {0, warmup, cuts..., end}; reopt streams end one
/// segment at every quiet mark.
[[nodiscard]] std::vector<std::size_t> segment_bounds(
    const SessionStream& stream);

/// Value of numeric field `key` in an "OK key=value ..." reply; throws
/// std::runtime_error when absent.
[[nodiscard]] double reply_field(std::string_view reply, std::string_view key);
/// Raw text of field `key`; empty when absent.
[[nodiscard]] std::string reply_text(std::string_view reply,
                                     std::string_view key);

}  // namespace servebench
