// Sweep runtime, part 2: the work-stealing executor.
//
// A worker pool drains a JobGraph. Each worker owns a deque; jobs released
// by a finishing dependency are pushed onto the finisher's own deque (the
// dependent usually touches the data the finisher just produced), and idle
// workers steal from the *back* of a victim's deque, classic work-stealing
// style. Retries wait in a time-ordered heap until their backoff expires.
//
// The execution-class invariant (job_graph.hpp) is enforced with a
// shared_mutex "lane": ModelTimed jobs run under a shared lock, WallClock
// jobs under the unique lock, so a wall-clock-timed measurement never
// shares the machine with anything - not even a model-timed job burning
// cores in the simulator.
//
// Deadlines: an attempt with a timeout runs on a helper thread. If it does
// not finish in time the attempt is abandoned (helper detached, cancel
// token set - bodies poll JobContext::cancelled() to stop promptly) and the
// job retries or is quarantined. Attempts without a timeout run inline on
// the worker.
//
// Everything observable feeds the obs layer (sched.* counters, a
// "lane_wait" span around each lane acquisition and a "job" span per
// attempt) plus an always-on internal tally that progress() serves even when
// the obs layer is off. Time spent waiting for the lane is never charged to
// the job: JobStatus keeps it apart as lane_wait_seconds.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <vector>

#include "sched/job_graph.hpp"

namespace indigo::sched {

/// Point-in-time view of a running (or finished) graph execution.
struct Progress {
  std::size_t total = 0;
  std::size_t done = 0;         // terminal: Done + Quarantined
  std::size_t running = 0;
  std::size_t quarantined = 0;
  std::size_t queue_depth = 0;  // ready + backoff-delayed jobs
  std::uint64_t steals = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  double elapsed_s = 0;
  /// Naive rate estimate; < 0 while nothing finished yet.
  double eta_s = -1;
};

struct ExecutorOptions {
  /// Worker threads. <= 0 resolves INDIGO_SCHED_WORKERS, else
  /// max(2, min(hardware_concurrency, 8)) - at least 2 so the scheduler
  /// machinery is genuinely exercised (same rationale as cpu_threads()).
  int num_workers = 0;
  /// Invoked from a monitor thread roughly every progress_interval_s while
  /// run() is active, and once more just before run() returns.
  std::function<void(const Progress&)> on_progress;
  double progress_interval_s = 0.5;
};

class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {});

  /// Runs the whole graph to quiescence and returns one JobStatus per job
  /// (indexed by JobId). Throws std::invalid_argument on a cyclic graph.
  /// Job failures never throw - they end up Quarantined in the statuses.
  std::vector<JobStatus> run(const JobGraph& graph);

  [[nodiscard]] int num_workers() const { return workers_; }

  /// Resolution used for ExecutorOptions::num_workers (exposed for callers
  /// that want to report the effective pool size).
  static int resolve_workers(int requested);

 private:
  struct RunState;
  void worker_loop(RunState& rs, int w);
  void execute(RunState& rs, int w, JobId id);
  void finish(RunState& rs, int w, JobId id, FailureKind failure,
              const std::string& error, double run_s, double lane_wait_s);

  ExecutorOptions opts_;
  int workers_;
};

}  // namespace indigo::sched
