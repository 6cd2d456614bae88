#include "obs/counters.hpp"

#include <algorithm>
#include <cmath>

namespace indigo::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t Distribution::bucket_of(double x) {
  if (!(x > 0.0)) return 0;  // non-positive and NaN samples
  // Exponent range [-32, 30] maps to buckets [1, 63]; out-of-range samples
  // clamp into the edge buckets.
  const int e = std::clamp(std::ilogb(x), -32, 30);
  return static_cast<std::size_t>(e + 33);
}

double Distribution::bucket_mid(std::size_t b) {
  if (b == 0) return 0.0;
  // Bucket b covers [2^(b-33), 2^(b-32)); report the geometric midpoint.
  return std::exp2(static_cast<double>(b) - 33.0 + 0.5);
}

double Distribution::Stats::percentile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;  // the extremes are tracked exactly
  if (q >= 1.0) return max;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += hist[b];
    if (static_cast<double>(cum) >= rank && cum > 0) {
      return std::clamp(bucket_mid(b), min, max);
    }
  }
  return max;
}

void Distribution::Stats::merge(const Stats& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t b = 0; b < kBuckets; ++b) hist[b] += other.hist[b];
}

Distribution::Stats Distribution::stats() const {
  Stats out;
  for (const Shard& s : shards_) {
    const std::uint64_t c = s.count.load(std::memory_order_relaxed);
    if (c == 0) continue;
    out.count += c;
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.min = std::min(out.min, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kBuckets; ++b) {
      out.hist[b] += s.hist[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Distribution::reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s.max.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    for (auto& h : s.hist) h.store(0, std::memory_order_relaxed);
  }
}

void expand_stats(std::map<std::string, double>& out, const std::string& name,
                  const Distribution::Stats& s) {
  if (s.count == 0) return;
  out[name + ".count"] = static_cast<double>(s.count);
  out[name + ".sum"] = s.sum;
  out[name + ".min"] = s.min;
  out[name + ".max"] = s.max;
  out[name + ".p50"] = s.percentile(0.50);
  out[name + ".p95"] = s.percentile(0.95);
  out[name + ".p99"] = s.percentile(0.99);
}

CounterRegistry& CounterRegistry::instance() {
  static CounterRegistry reg;
  return reg;
}

Counter& CounterRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Distribution& CounterRegistry::distribution(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = dists_.find(name);
  if (it == dists_.end()) {
    it = dists_
             .emplace(std::string(name),
                      std::make_unique<Distribution>(std::string(name)))
             .first;
  }
  return *it->second;
}

std::map<std::string, double> CounterRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c->value();
    if (v != 0) out[name] = static_cast<double>(v);
  }
  for (const auto& [name, d] : dists_) expand_stats(out, name, d->stats());
  return out;
}

std::map<std::string, double> CounterRegistry::delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  std::map<std::string, double> out;
  for (const auto& [name, after_v] : after) {
    if (ends_with(name, ".min") || ends_with(name, ".max") ||
        ends_with(name, ".p50") || ends_with(name, ".p95") ||
        ends_with(name, ".p99")) {
      // Extremes and percentiles are not differences; report the run-final
      // value whenever the matching .count advanced during the window.
      const std::string stem = name.substr(0, name.size() - 4);
      const auto ca = after.find(stem + ".count");
      const auto cb = before.find(stem + ".count");
      const double cd = (ca != after.end() ? ca->second : 0.0) -
                        (cb != before.end() ? cb->second : 0.0);
      if (cd > 0) out[name] = after_v;
      continue;
    }
    const auto b = before.find(name);
    const double d = after_v - (b != before.end() ? b->second : 0.0);
    if (d != 0.0) out[name] = d;
  }
  return out;
}

void CounterRegistry::reset_all() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, d] : dists_) d->reset();
}

}  // namespace indigo::obs
