// Sweep runtime, part 1: the job model.
//
// The paper's experiment is ~1034 independent (variant x graph) measurements.
// A JobGraph holds them as a flat, ordered list of named jobs
// (Harness::sweep builds one job per unjournaled cell). No job waits for
// another one; each is tagged with an execution class that tells the
// Executor (executor.hpp) how the job may share the machine:
//
//   ModelTimed  - the job's metric comes from the vcuda analytic timing
//                 model, not the wall clock, so any number of them may run
//                 concurrently without distorting the paper's ratios.
//   WallClock   - the job's metric IS the wall clock (OpenMP / C++-threads
//                 measurements). These serialize through an exclusive lane:
//                 while one runs, nothing else does, so oversubscription
//                 can never leak into a reported CPU time. The Executor runs
//                 the ready ones as one batch whenever no ModelTimed job is
//                 left to start, instead of draining the pool once per job.
//
// Robustness knobs (deadline, bounded retry with backoff) live on the Job;
// a job that still fails after its retries is *quarantined* - recorded and
// excluded, exactly like the paper excludes failed runs - instead of
// aborting the whole sweep.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace indigo::sched {

using JobId = std::uint32_t;
inline constexpr JobId kInvalidJob = static_cast<JobId>(-1);

enum class ExecClass : std::uint8_t {
  ModelTimed,  // metric is simulated; may share the machine
  WallClock,   // metric is wall time; exclusive lane
};

const char* to_string(ExecClass c);

/// Handed to the job body. Every attempt runs to its end on the worker
/// that started it, so a deadline is cooperative: a body that can run long
/// stops itself once `deadline` has passed (Harness::sweep installs it as a
/// vcuda::DeadlineScope, which stops a cuda cell at its next kernel launch).
/// An attempt that ends at or after its deadline counts as timed out,
/// whether it returned or threw.
struct JobContext {
  JobId id = kInvalidJob;
  int attempt = 0;  // 0 on the first try, +1 per retry
  /// time_point::max() when the job has no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

struct Job {
  std::string name;
  ExecClass exec_class = ExecClass::ModelTimed;
  std::function<void(const JobContext&)> work;
  /// Seconds one attempt may run before it counts as timed out; 0 = no
  /// deadline.
  double timeout_s = 0;
  /// Extra attempts after a failed one (throw or deadline).
  int max_retries = 0;
  /// Base delay before a retry; attempt k waits k * retry_backoff_s.
  double retry_backoff_s = 0.05;
};

enum class JobState : std::uint8_t {
  Pending,      // queued, or waiting out a retry backoff
  Running,      // an attempt is executing
  Done,         // completed normally
  Quarantined,  // failed every attempt; excluded, the sweep goes on
};

enum class FailureKind : std::uint8_t { None, Exception, Timeout };

const char* to_string(JobState s);
const char* to_string(FailureKind f);

struct JobStatus {
  JobState state = JobState::Pending;
  FailureKind failure = FailureKind::None;
  std::string error;     // last failure description, empty when none
  int attempts = 0;      // attempts started
  double run_seconds = 0;  // summed across attempts, each until it ended
  /// Time spent waiting for the execution-class lane (summed across
  /// attempts); never part of run_seconds. The first job of an exclusive
  /// batch carries the batch's drain wait; every other job reads 0.
  double lane_wait_seconds = 0;
  /// Path of the flight-recorder dump taken when an attempt failed (empty
  /// when the recorder is disarmed or the job never failed).
  std::string flight_dump;
};

/// The jobs of one run, in order. add() returns the job's id, its index
/// into the statuses Executor::run returns. Executor::run queues the jobs
/// in id order, so ModelTimed jobs start in that order, and so do the
/// WallClock jobs of an exclusive batch.
class JobGraph {
 public:
  JobId add(Job j);

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] const Job& job(JobId id) const { return jobs_[id]; }
  [[nodiscard]] Job& job(JobId id) { return jobs_[id]; }

 private:
  std::vector<Job> jobs_;
};

}  // namespace indigo::sched
