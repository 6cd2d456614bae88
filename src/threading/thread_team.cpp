#include "threading/thread_team.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/counters.hpp"
#include "racecheck/racecheck.hpp"

namespace indigo {

namespace obs_detail {

void note_region(const std::vector<double>& busy_seconds) {
  double sum = 0, max = 0;
  for (const double b : busy_seconds) {
    sum += b;
    max = std::max(max, b);
  }
  auto& reg = obs::CounterRegistry::instance();
  static obs::Counter& c_regions = reg.counter("cpu.regions");
  static obs::Counter& c_busy = reg.counter("cpu.busy_us");
  static obs::Counter& c_critical = reg.counter("cpu.critical_us");
  static obs::Distribution& d_imb = reg.distribution("cpu.imbalance");
  c_regions.add(1);
  c_busy.add(static_cast<std::uint64_t>(sum * 1e6));
  // The critical path: the slowest worker gates the join. busy/(critical*n)
  // is the region's parallel efficiency; max*n/sum its imbalance factor.
  c_critical.add(static_cast<std::uint64_t>(max * 1e6));
  if (sum > 0) {
    d_imb.record(max * static_cast<double>(busy_seconds.size()) / sum);
  }
}

}  // namespace obs_detail

int cpu_threads() {
  if (const char* env = std::getenv("REPRO_THREADS")) {
    const std::string_view s(env);
    int v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size() || v < 1 || v > 256) {
      throw std::invalid_argument(
          "REPRO_THREADS must be a whole number in 1..256, got \"" +
          std::string(s) + '"');
    }
    return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(2, static_cast<int>(std::min(hw, 8u)));
}

ThreadTeam::ThreadTeam(int num_threads) {
  const int n = std::max(1, num_threads);
  busy_s_.assign(static_cast<std::size_t>(n), 0.0);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadTeam::run(const std::function<void(int, int)>& fn) {
  if (racecheck::enabled()) {
    // A worker re-entering run() would deadlock on the join; flag it as a
    // synchronization-discipline violation.
    if (racecheck::cpu_in_worker()) {
      racecheck::cpu_note_violation("nested ThreadTeam::run from a worker");
    }
  }
  std::unique_lock lock(mu_);
  job_ = &fn;
  first_error_ = nullptr;
  remaining_ = size();
  ++generation_;
  cv_start_.notify_all();
  cv_done_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
  // All workers are parked again, so busy_s_ is quiescent here.
  if (obs::enabled()) obs_detail::note_region(busy_s_);
}

void ThreadTeam::worker_loop(int tid) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int, int)>* job = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
    }
    std::exception_ptr err;
    const bool timed = obs::enabled();
    const bool rc = racecheck::enabled();
    if (rc) racecheck::cpu_set_in_worker(true);
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    try {
      (*job)(tid, size());
    } catch (...) {
      err = std::current_exception();
    }
    if (rc) racecheck::cpu_set_in_worker(false);
    if (timed) {
      busy_s_[static_cast<std::size_t>(tid)] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    {
      std::lock_guard lock(mu_);
      if (err && !first_error_) first_error_ = err;
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace indigo
