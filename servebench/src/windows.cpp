#include "windows.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "common.hpp"

namespace servebench {

namespace {

/// Below this many clean slices the medians use the least stolen ones.
constexpr std::size_t kMinCleanSlices = 5;

}  // namespace

double steal_s() {
  // "cpu user nice system idle iowait irq softirq steal ..." in ticks.
  std::ifstream in("/proc/stat");
  std::string label;
  double ticks[8] = {};
  in >> label;
  for (double& field : ticks) in >> field;
  if (!in || label != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double steal_share(double steal_delta_s, double wall_s) {
  const auto cpus = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return wall_s > 0.0 ? steal_delta_s / (wall_s * cpus) : 0.0;
}

std::vector<std::size_t> least_stolen(const std::vector<double>& shares,
                                      std::size_t at_least) {
  std::vector<std::size_t> order(shares.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return shares[a] < shares[b];
  });
  std::size_t keep = std::min(at_least, order.size());
  while (keep < order.size() && shares[order[keep]] <= kMaxStealShare) ++keep;
  order.resize(keep);
  return order;
}

void WindowLog::open(Clock::time_point start) {
  windows_.emplace_back();
  windows_.back().push_back({start, start, 0.0, {}});
  steal_mark_ = steal_s();
  open_ = true;
}

void WindowLog::cut(Clock::time_point at) {
  Slice& slice = windows_.back().back();
  slice.end = at;
  const double now = steal_s();
  slice.steal_s = now - steal_mark_;
  steal_mark_ = now;
  windows_.back().push_back({at, at, 0.0, {}});
}

void WindowLog::add(Clock::time_point done, double latency_us) {
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSliceS));
  while (done >= windows_.back().back().start + length) {
    cut(windows_.back().back().start + length);
  }
  windows_.back().back().latency_us.push_back(latency_us);
}

void WindowLog::close(Clock::time_point end) {
  Slice& slice = windows_.back().back();
  slice.end = end;
  const double now = steal_s();
  slice.steal_s = now - steal_mark_;
  open_ = false;
}

WindowLog::Summary WindowLog::summarize() const {
  Summary summary;
  std::vector<const Slice*> rated;
  std::vector<double> shares;
  std::vector<double> all;
  double stolen = 0.0;
  for (const std::vector<Slice>& window : windows_) {
    for (const Slice& slice : window) {
      const double length =
          std::chrono::duration<double>(slice.end - slice.start).count();
      summary.seconds += length;
      stolen += slice.steal_s;
      all.insert(all.end(), slice.latency_us.begin(), slice.latency_us.end());
      // A tail shorter than half a slice is too short to rate on its own,
      // unless it is the whole window; a slice without completions has no
      // latency to rate.
      if ((length < kSliceS / 2 && window.size() > 1) ||
          slice.latency_us.empty()) {
        continue;
      }
      rated.push_back(&slice);
      shares.push_back(steal_share(slice.steal_s, length));
      if (shares.back() <= kMaxStealShare) ++summary.clean_slices;
    }
  }
  std::vector<double> rps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const std::size_t i : least_stolen(shares, kMinCleanSlices)) {
    const Slice* slice = rated[i];
    std::vector<double> latency = slice->latency_us;
    rps.push_back(static_cast<double>(latency.size()) /
                  std::chrono::duration<double>(slice->end - slice->start)
                      .count());
    p50.push_back(quantile(latency, 0.50));
    p99.push_back(quantile(latency, 0.99));
  }
  summary.slices = rated.size();
  summary.samples = all.size();
  summary.steal_share = steal_share(stolen, summary.seconds);
  summary.rps = quantile(rps, 0.5);
  summary.p50_us = quantile(p50, 0.5);
  summary.p99_us = quantile(p99, 0.5);
  summary.rps_all = summary.seconds > 0.0
                        ? static_cast<double>(all.size()) / summary.seconds
                        : 0.0;
  summary.p50_all_us = quantile(all, 0.50);
  summary.p99_all_us = quantile(all, 0.99);
  return summary;
}

}  // namespace servebench
