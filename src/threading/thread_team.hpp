// A persistent team of worker threads for the C++-threads variants.
//
// The suite's C++ codes launch one parallel region per algorithm iteration;
// a persistent team (fork/join on condition variables, no spinning) keeps
// that affordable even when the host has fewer cores than workers, which is
// the situation in this reproduction environment.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace indigo {
namespace obs_detail {
/// Accounting sink for one completed parallel region (thread_team.cpp):
/// feeds the cpu.* counters and the cpu.imbalance gauge. No-op when the
/// observability layer is disabled.
void note_region(const std::vector<double>& busy_seconds);
}  // namespace obs_detail

/// Returns the worker count used by all CPU variants: the REPRO_THREADS
/// environment variable if set, otherwise min(hardware_concurrency, 8),
/// but at least 2 so every parallel style is genuinely exercised. Throws
/// std::invalid_argument naming the variable unless REPRO_THREADS is a
/// whole number in 1..256.
int cpu_threads();

/// Fork/join worker team. run() executes fn(tid, num_threads) on every
/// worker and returns when all are done. Exceptions in workers propagate
/// to the caller of run() (first one wins).
class ThreadTeam {
 public:
  explicit ThreadTeam(int num_threads);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  void run(const std::function<void(int tid, int nthreads)>& fn);

  /// Per-worker busy seconds of the most recent run() (filled only while
  /// the observability layer is enabled; the load-imbalance gauge).
  [[nodiscard]] const std::vector<double>& last_busy_seconds() const {
    return busy_s_;
  }

 private:
  void worker_loop(int tid);

  std::vector<std::thread> workers_;
  std::vector<double> busy_s_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  const std::function<void(int, int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace indigo
