// Observability layer, part 1: named counters and distributions.
//
// The simulator and the threading substrate already *compute* the quantities
// the paper's mechanistic explanations rest on (transactions, divergence,
// atomic conflicts, worker imbalance); this registry makes the threading
// substrate's and the scheduler's first-class so benches and tests can
// observe them. The simulator's stay per Device (vcuda::DeviceTotals, built
// on Distribution::Stats and expand_stats) so that each cuda measurement
// reads only its own. Two requirements drive the design:
//
//   1. Zero cost when disabled. Every mutating entry point checks one
//      relaxed atomic bool and returns; no allocation, no locking, nothing
//      on the disabled path. The whole layer defaults to off and is switched
//      on by INDIGO_TRACE / INDIGO_METRICS (see trace.hpp) or set_enabled().
//   2. Safe under concurrency. Counters are sharded across cache lines and
//      incremented with relaxed fetch_add; distributions use per-shard
//      atomics. Reads (value(), snapshot()) sum the shards and may race
//      benignly with writers, which is fine for monitoring data.
//
// Hot call sites should cache the Counter&/Distribution& (handles are
// stable for the process lifetime) instead of re-resolving by name.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace indigo::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
/// Small dense id of the calling thread, used to pick counter shards and
/// to tag trace events. Stable for the thread's lifetime.
std::uint32_t thread_slot();
}  // namespace detail

/// Master switch for the whole observability layer.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// A named monotonic counter, sharded so concurrent increments from
/// different threads do not contend on one cache line.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (!enabled() || n == 0) return;
    shards_[detail::thread_slot() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::string name_;
  std::array<Shard, kShards> shards_{};
};

/// A named distribution gauge: count / sum / min / max of recorded samples
/// plus a bounded log2-bucket histogram, so Stats can report percentile
/// estimates (p50/p95/p99) without storing samples. Buckets are powers of
/// two covering 2^-32 .. 2^31 (bucket 0 catches non-positive samples), so a
/// percentile estimate is exact to within a factor of sqrt(2) and then
/// clamped into [min, max].
class Distribution {
 public:
  static constexpr std::size_t kBuckets = 64;

  explicit Distribution(std::string name) : name_(std::move(name)) {}
  Distribution(const Distribution&) = delete;
  Distribution& operator=(const Distribution&) = delete;

  void record(double x) {
    if (!enabled()) return;
    Shard& s = shards_[detail::thread_slot() % kShards];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(x, std::memory_order_relaxed);
    atomic_min(s.min, x);
    atomic_max(s.max, x);
    s.hist[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Histogram bucket for sample x: 0 for x <= 0 (and NaN), else the
  /// clamped binary exponent shifted into [1, kBuckets-1].
  static std::size_t bucket_of(double x);
  /// Geometric midpoint of bucket b (0.0 for the non-positive bucket).
  static double bucket_mid(std::size_t b);

  struct Stats {
    std::uint64_t count = 0;
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::array<std::uint64_t, kBuckets> hist{};
    /// Records one sample, as Distribution::record does, into plain
    /// single-owner state (a vcuda Device's per-launch totals).
    void record(double x) {
      ++count;
      sum += x;
      min = std::min(min, x);
      max = std::max(max, x);
      ++hist[bucket_of(x)];
    }
    /// Adds `other`'s samples: the stats of both sample sets together.
    void merge(const Stats& other);
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Percentile estimate from the log2 histogram, q in [0, 1]; the
    /// result is clamped into [min, max]. 0.0 when the stats are empty.
    [[nodiscard]] double percentile(double q) const;
  };
  [[nodiscard]] Stats stats() const;
  void reset();

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::array<std::atomic<std::uint32_t>, kBuckets> hist{};
  };
  static void atomic_min(std::atomic<double>& a, double x) {
    double cur = a.load(std::memory_order_relaxed);
    while (x < cur &&
           !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<double>& a, double x) {
    double cur = a.load(std::memory_order_relaxed);
    while (x > cur &&
           !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  std::string name_;
  std::array<Shard, kShards> shards_{};
};

/// Adds `s` to a flat metrics map as the seven entries name.count/.sum/
/// .min/.max/.p50/.p95/.p99; adds nothing when `s` holds no sample.
void expand_stats(std::map<std::string, double>& out, const std::string& name,
                  const Distribution::Stats& s);

/// Process-wide name -> handle table. Lookup takes a mutex; handles returned
/// are stable, so hot paths resolve once and keep the reference.
class CounterRegistry {
 public:
  static CounterRegistry& instance();

  Counter& counter(std::string_view name);
  Distribution& distribution(std::string_view name);

  /// Flat name -> value view of everything registered. Distributions expand
  /// to seven entries: name.count/.sum/.min/.max/.p50/.p95/.p99. Zero-count
  /// entries are omitted so snapshots stay proportional to what ran.
  [[nodiscard]] std::map<std::string, double> snapshot() const;

  /// after - before for counter values and distribution counts/sums
  /// (min/max/percentiles pass through from `after`). Entries with a zero
  /// delta are dropped; this is what an omp/cpp measurement's metrics map
  /// is built from (a cuda one reads its own Devices' totals).
  static std::map<std::string, double> delta(
      const std::map<std::string, double>& before,
      const std::map<std::string, double>& after);

  /// Zeroes every registered counter and distribution (tests).
  void reset_all();

 private:
  CounterRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Distribution>, std::less<>> dists_;
};

}  // namespace indigo::obs
