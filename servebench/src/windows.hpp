// Measurement windows and their sliced statistics.
//
// A window is a stretch of wall time during which every session has a
// request in flight. It is cut into fixed-length slices; throughput and
// latency percentiles are computed per slice and reported as the median
// over slices.
//
// Slices during which the hypervisor stole a noticeable share of the
// machine's CPU time (the `steal` column of /proc/stat) are left out of
// the medians: on a shared host, steal stalls every thread of the closed
// loop for milliseconds and would otherwise decide the figure. The counts
// of kept and dropped slices are reported with every summary.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

/// Cumulative CPU time the hypervisor stole from this machine, in seconds
/// summed over all CPUs (/proc/stat); 0 where the kernel does not report it.
[[nodiscard]] double steal_s();

/// Share of the machine's CPU capacity stolen between two steal_s()
/// readings taken `wall_s` apart.
[[nodiscard]] double steal_share(double steal_delta_s, double wall_s);

/// A slice (or set-up round) whose steal share exceeds this is dropped.
inline constexpr double kMaxStealShare = 0.02;

/// Positions of the items to rate, given each one's steal share: those
/// at or below kMaxStealShare or, when fewer than `at_least` are, the
/// `at_least` least stolen (every item when there are fewer).
[[nodiscard]] std::vector<std::size_t> least_stolen(
    const std::vector<double>& shares, std::size_t at_least);
/// Slice length for request-level statistics.
inline constexpr double kSliceS = 0.5;
/// Lines each connection serves unmeasured at the start of every measured
/// segment. After a re-optimizer bracket, or a pause, the daemon starts
/// cold: on reopt_hotspot the first ~1 000 requests of an active window
/// have a p99 1.4-4x that of the rest. A window opens once every
/// connection is past these lines.
inline constexpr std::size_t kSettleLines = 500;

class WindowLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Summary {
    std::size_t slices = 0;          ///< slices long enough to rate
    std::size_t clean_slices = 0;    ///< of which used for the medians
    std::size_t samples = 0;         ///< requests completed inside windows
    double seconds = 0.0;            ///< total window time
    double steal_share = 0.0;        ///< over all window time
    // Medians over the clean slices (over the kMinCleanSlices least
    // stolen when fewer are clean).
    double rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    // Over all samples at once, steal included.
    double rps_all = 0.0;
    double p50_all_us = 0.0;
    double p99_all_us = 0.0;
  };

  void open(Clock::time_point start);
  /// A request that completed at `done` after `latency_us`, inside the
  /// open window.
  void add(Clock::time_point done, double latency_us);
  void close(Clock::time_point end);
  [[nodiscard]] bool is_open() const noexcept { return open_; }

  [[nodiscard]] Summary summarize() const;

 private:
  struct Slice {
    Clock::time_point start{};
    Clock::time_point end{};
    double steal_s = 0.0;  ///< stolen during the slice
    std::vector<double> latency_us;
  };
  /// Ends the current slice at `at` and starts the next one.
  void cut(Clock::time_point at);

  std::vector<std::vector<Slice>> windows_;
  double steal_mark_ = 0.0;  ///< steal_s() at the current slice's start
  bool open_ = false;
};

}  // namespace servebench
