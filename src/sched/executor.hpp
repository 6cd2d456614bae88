// Sweep runtime, part 2: the executor.
//
// A worker pool drains a JobGraph's flat list. Ready ModelTimed jobs wait
// in one FIFO and each idle worker takes the front, so they start in job
// order whatever the pool size. Retries wait in a time-ordered heap until
// their backoff expires.
//
// The execution-class invariant (job_graph.hpp) is enforced by running the
// WallClock jobs in phases. Ready WallClock jobs wait in a second FIFO, the
// exclusive queue. A worker that finds no ModelTimed job ready claims the
// lane: from then on no ModelTimed job starts, the owner waits once for the
// in-flight ones to drain, runs the whole exclusive queue back to back - so
// a wall-clock-timed measurement never shares the machine with anything,
// not even a model-timed job burning cores in the simulator - and releases
// the lane. The lane (a running-ModelTimed count plus a claimed flag) is
// scheduler state guarded by the run's mutex.
//
// Every attempt runs inline on the worker that started it, so no attempt
// outlives run(). A deadline is cooperative: the body gets it in its
// JobContext, and an attempt that ends (returns or throws) at or after it
// is recorded as a timeout and retried or quarantined like any failure.
//
// Everything observable feeds the obs layer (sched.* counters, a
// "lane_wait" span around each batch's drain and a "job" span per attempt)
// plus an always-on internal tally that progress() serves even when the obs
// layer is off. Time spent waiting for the lane is never charged to a job:
// the first job of a batch carries the drain as its lane_wait_seconds.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
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
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t lane_batches = 0;  // lane claims (one per exclusive batch)
  double elapsed_s = 0;
  /// Naive rate estimate; < 0 while nothing finished yet.
  double eta_s = -1;
};

struct ExecutorOptions {
  /// Worker threads. <= 0 resolves INDIGO_SCHED_WORKERS (a whole number
  /// >= 1; anything else throws std::invalid_argument), else
  /// max(1, min(hardware_concurrency, 8)).
  int num_workers = 0;
  /// Invoked from a monitor thread roughly every progress_interval_s while
  /// run() is active, and once more just before run() returns.
  std::function<void(const Progress&)> on_progress;
  double progress_interval_s = 0.5;
};

class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {});

  /// Runs every job to a terminal state and returns one JobStatus per job
  /// (indexed by JobId). Job failures never throw - they end up
  /// Quarantined in the statuses.
  std::vector<JobStatus> run(const JobGraph& graph);

  [[nodiscard]] int num_workers() const { return workers_; }

  /// Resolution used for ExecutorOptions::num_workers (exposed for callers
  /// that want to report the effective pool size). The only reader of
  /// INDIGO_SCHED_WORKERS.
  static int resolve_workers(int requested);

 private:
  struct RunState;
  void worker_loop(RunState& rs, int w);
  void run_batch(RunState& rs, int w, std::unique_lock<std::mutex>& lk);
  void execute(RunState& rs, int w, JobId id, double lane_wait_s);
  void finish(RunState& rs, JobId id, FailureKind failure,
              const std::string& error, double run_s, double lane_wait_s);

  ExecutorOptions opts_;
  int workers_;
};

}  // namespace indigo::sched
