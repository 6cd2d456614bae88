// Arithmetic over the stamps the study benchmark records around each cell.
//
// Everything here is a pure function of plain numbers, so the benchmark's
// own bookkeeping (lane check, under-full time, tail percentile, failure
// tally) is unit-tested on synthetic stamp sets in test_layer_math.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace studybench {

/// One cell body as seen from outside: [start, end] in seconds since the
/// sweep began, and whether it ran in the exclusive (WallClock) lane.
struct Interval {
  double start = 0;
  double end = 0;
  bool exclusive = false;
};

/// Wall time inside [t0, t1] during which fewer than `slots` intervals were
/// in flight (for a sweep: fewer cell bodies than workers).
inline double underfull_seconds(std::span<const Interval> cells, double t0,
                                double t1, int slots) {
  std::vector<std::pair<double, int>> events;
  events.reserve(2 * cells.size());
  for (const Interval& c : cells) {
    const double s = std::clamp(c.start, t0, t1);
    const double e = std::clamp(c.end, t0, t1);
    if (e <= s) continue;
    events.emplace_back(s, +1);
    events.emplace_back(e, -1);
  }
  // Ends sort before starts at equal times: a back-to-back handoff on one
  // worker leaves no gap.
  std::sort(events.begin(), events.end());
  double under = 0;
  double at = t0;
  int inflight = 0;
  for (const auto& [t, delta] : events) {
    if (inflight < slots) under += t - at;
    at = t;
    inflight += delta;
  }
  if (inflight < slots) under += t1 - at;
  return under;
}

/// For each interval: true when it is exclusive and any other interval
/// overlaps it. Touching endpoints do not overlap.
inline std::vector<bool> exclusive_overlaps(std::span<const Interval> cells) {
  const std::size_t n = cells.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cells[a].start < cells[b].start;
  });
  std::vector<bool> bad(n, false);
  // An interval overlaps an earlier-starting one iff the latest end among
  // those lies past its start, and a later-starting one iff the very next
  // start lies before its end.
  double max_end_before = -1e300;
  for (std::size_t k = 0; k < n; ++k) {
    const Interval& c = cells[order[k]];
    if (c.exclusive) {
      const bool before = max_end_before > c.start;
      const bool after = k + 1 < n && cells[order[k + 1]].start < c.end;
      bad[order[k]] = before || after;
    }
    max_end_before = std::max(max_end_before, c.end);
  }
  return bad;
}

/// Percentile ladder for tail reporting, in parts per ten thousand.
inline constexpr std::uint32_t kTailLadder[] = {5000, 9000, 9500,
                                                9900, 9990, 9999};

/// Nearest rank (1-based) of quantile `ppm10k` / 10000 in a sample of n.
inline std::size_t nearest_rank(std::size_t n, std::uint32_t ppm10k) {
  const std::size_t r = (static_cast<std::uint64_t>(ppm10k) * n + 9999) / 10000;
  return std::clamp<std::size_t>(r, 1, std::max<std::size_t>(n, 1));
}

/// The highest ladder percentile that leaves at least `beyond` of n samples
/// strictly above its nearest rank; the median when none does.
inline std::uint32_t tail_percentile(std::size_t n, std::size_t beyond = 10) {
  std::uint32_t best = kTailLadder[0];
  for (std::uint32_t p : kTailLadder) {
    if (n >= nearest_rank(n, p) + beyond) best = p;
  }
  return best;
}

/// Nearest-rank percentile value of an unsorted sample (0 when empty).
inline double percentile(std::vector<double> xs, std::uint32_t ppm10k) {
  if (xs.empty()) return 0;
  const std::size_t r = nearest_rank(xs.size(), ppm10k);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   xs.end());
  return xs[r - 1];
}

/// Midpoint median (0 when empty).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// What became of one attempted cell.
struct CellOutcome {
  bool measured = false;        // the body produced a Measurement
  bool verified = false;        // ... which matched the serial reference
  bool quarantined = false;     // the executor gave up on the job
  bool lane_violation = false;  // exclusive body overlapped another body
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t verified = 0;
  std::size_t failed = 0;

  /// Every attempted cell is accounted exactly once.
  [[nodiscard]] bool balanced() const { return attempted == verified + failed; }
  [[nodiscard]] double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// A cell fails when it is quarantined, unverified, or lane-violating; it is
/// verified when measured, verified and clean. A cell that is neither (not
/// measured, yet not quarantined) leaves the tally unbalanced.
inline Tally tally(std::span<const CellOutcome> cells) {
  Tally t;
  t.attempted = cells.size();
  for (const CellOutcome& c : cells) {
    if (c.quarantined || c.lane_violation || (c.measured && !c.verified)) {
      ++t.failed;
    } else if (c.measured) {
      ++t.verified;
    }
  }
  return t;
}

}  // namespace studybench
