#include "sched/executor.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace indigo::sched {
namespace {

using Clock = std::chrono::steady_clock;

/// Stable per-job trace id: FNV-1a of the job name, so the same job carries
/// the same id across attempts, workers, processes, and resumed runs —
/// obs_timeline and external trace mergers can join on it.
std::string job_trace_id(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Handles resolved once; the obs registry lookup takes a mutex.
struct SchedCounters {
  obs::Counter& jobs;
  obs::Counter& done;
  obs::Counter& retries;
  obs::Counter& timeouts;
  obs::Counter& quarantined;
  obs::Counter& exclusive_jobs;
  obs::Counter& lane_batches;
  obs::Distribution& queue_depth;

  static SchedCounters& instance() {
    auto& reg = obs::CounterRegistry::instance();
    static SchedCounters c{reg.counter("sched.jobs"),
                           reg.counter("sched.done"),
                           reg.counter("sched.retries"),
                           reg.counter("sched.timeouts"),
                           reg.counter("sched.quarantined"),
                           reg.counter("sched.exclusive_jobs"),
                           reg.counter("sched.lane_batches"),
                           reg.distribution("sched.queue_depth")};
    return c;
  }
};

}  // namespace

struct Executor::RunState {
  const JobGraph* graph = nullptr;

  std::mutex mu;
  std::condition_variable work_cv;  // workers wait here for jobs
  std::condition_variable done_cv;  // run() and the monitor wait here

  // Guarded by mu:
  std::vector<JobStatus> status;
  std::deque<JobId> model_ready;  // ready ModelTimed, FIFO
  std::deque<JobId> exclusive;    // ready WallClock, FIFO
  using Delayed = std::pair<Clock::time_point, JobId>;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>> delayed;
  std::size_t terminal = 0;
  std::size_t running = 0;
  bool stop_monitor = false;

  // The execution-class lane. The batch owner starts no job of its own
  // until model_running drains to 0, and while the lane is claimed no
  // ModelTimed job starts.
  std::size_t model_running = 0;
  bool lane_claimed = false;
  std::condition_variable drain_cv;  // the owner waits here for the drain

  // Always-on tallies, served by progress() even with the obs layer off.
  std::uint64_t lane_batches = 0, retries = 0, timeouts = 0, quarantined = 0;

  Clock::time_point t0;

  [[nodiscard]] std::size_t ready_depth_locked() const {
    return delayed.size() + exclusive.size() + model_ready.size();
  }

  /// Makes `id` ready: WallClock jobs join the exclusive queue, ModelTimed
  /// jobs the model FIFO.
  void enqueue_locked(JobId id) {
    if (graph->job(id).exec_class == ExecClass::WallClock) {
      exclusive.push_back(id);
    } else {
      model_ready.push_back(id);
    }
  }

  /// Moves the retries whose backoff has expired into the ready queues.
  void release_due_locked() {
    if (delayed.empty()) return;
    const auto now = Clock::now();
    while (!delayed.empty() && delayed.top().first <= now) {
      enqueue_locked(delayed.top().second);
      delayed.pop();
    }
  }

  void start_locked(JobId id) {
    SchedCounters::instance().queue_depth.record(
        static_cast<double>(ready_depth_locked()));
    status[id].state = JobState::Running;
    ++running;
  }

  [[nodiscard]] Progress progress_locked() const {
    Progress p;
    p.total = graph->size();
    p.done = terminal;
    p.running = running;
    p.quarantined = quarantined;
    p.queue_depth = ready_depth_locked();
    p.retries = retries;
    p.timeouts = timeouts;
    p.lane_batches = lane_batches;
    p.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
    p.eta_s = p.done > 0 ? p.elapsed_s * static_cast<double>(p.total - p.done) /
                               static_cast<double>(p.done)
                         : -1;
    return p;
  }

  /// The "executor" telemetry section: live Progress plus the jobs in a
  /// non-trivial state (running, retried, quarantined), so a snapshot taken
  /// moments before a kill names exactly what was in flight. Runs on the
  /// telemetry publisher thread; rs.mu serializes it against the workers.
  [[nodiscard]] std::string telemetry_section() {
    std::lock_guard lk(mu);
    const Progress p = progress_locked();
    obs::JsonObject o;
    o.field("jobs", static_cast<std::uint64_t>(p.total))
        .field("done", static_cast<std::uint64_t>(p.done))
        .field("running", static_cast<std::uint64_t>(p.running))
        .field("quarantined", static_cast<std::uint64_t>(p.quarantined))
        .field("queue_depth", static_cast<std::uint64_t>(p.queue_depth))
        .field("retries", p.retries)
        .field("timeouts", p.timeouts)
        .field("lane_batches", p.lane_batches)
        .field("elapsed_s", p.elapsed_s)
        .field("eta_s", p.eta_s);
    constexpr std::size_t kMaxListed = 32;
    std::string active = "[";
    std::string failed = "[";
    std::size_t n_active = 0;
    std::size_t n_failed = 0;
    for (JobId j = 0; j < status.size(); ++j) {
      const JobStatus& st = status[j];
      if (st.state == JobState::Running && n_active < kMaxListed) {
        if (n_active++ > 0) active += ',';
        active += '"' + obs::json_escape(graph->job(j).name) + '"';
      }
      if ((st.state == JobState::Quarantined ||
           (st.failure != FailureKind::None && st.state != JobState::Done)) &&
          n_failed < kMaxListed) {
        if (n_failed++ > 0) failed += ',';
        obs::JsonObject f;
        f.field("job", std::string_view(graph->job(j).name))
            .field("state", std::string_view(to_string(st.state)))
            .field("failure", std::string_view(to_string(st.failure)))
            .field("attempts", static_cast<std::uint64_t>(st.attempts));
        if (!st.flight_dump.empty()) {
          f.field("flight_dump", std::string_view(st.flight_dump));
        }
        failed += f.str();
      }
    }
    active += ']';
    failed += ']';
    o.field_raw("active_jobs", active).field_raw("failed_jobs", failed);
    return o.str();
  }
};

Executor::Executor(ExecutorOptions opts)
    : opts_(std::move(opts)), workers_(resolve_workers(opts_.num_workers)) {}

int Executor::resolve_workers(int requested) {
  if (requested > 0) return std::min(requested, 256);
  if (const char* env = std::getenv("INDIGO_SCHED_WORKERS")) {
    const std::string_view s(env);
    int v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size() || v < 1) {
      throw std::invalid_argument(
          "INDIGO_SCHED_WORKERS must be a whole number >= 1, got \"" +
          std::string(s) + '"');
    }
    return std::min(v, 256);
  }
  // Default: one worker per hardware thread, capped at 8. Oversubscribing a
  // small box only adds context-switch overhead to the CPU-bound ModelTimed
  // jobs (a 1-core host with the old floor of 2 measured 0.985x, i.e. a
  // slowdown, in BENCH_sweep.json).
  const unsigned hw = std::thread::hardware_concurrency();
  const int fit = std::max(1, static_cast<int>(std::min(hw, 8u)));
  if (hw != 0 && hw < 8u && obs::enabled()) {
    static obs::Counter& clamped =
        obs::CounterRegistry::instance().counter("sched.workers_clamped");
    clamped.add(1);
  }
  return fit;
}

std::vector<JobStatus> Executor::run(const JobGraph& graph) {
  const std::size_t n = graph.size();
  RunState rs;
  rs.graph = &graph;
  rs.status.assign(n, JobStatus{});
  rs.t0 = Clock::now();
  if (n == 0) return {};
  SchedCounters::instance().jobs.add(n);

  obs::Span span("executor.run", "sched");
  span.arg("jobs", static_cast<double>(n));
  span.arg("workers", static_cast<double>(workers_));
  // The "executor" telemetry section lives exactly as long as this run's
  // RunState (the callback captures it by reference).
  obs::telemetry_register_section(
      "executor", [&rs] { return rs.telemetry_section(); });
  struct SectionGuard {
    ~SectionGuard() { obs::telemetry_unregister_section("executor"); }
  } section_guard;

  for (JobId j = 0; j < n; ++j) rs.enqueue_locked(j);

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    pool.emplace_back([this, &rs, w] { worker_loop(rs, w); });
  }
  std::thread monitor;
  if (opts_.on_progress) {
    monitor = std::thread([this, &rs, n] {
      std::unique_lock lk(rs.mu);
      while (!rs.stop_monitor && rs.terminal < n) {
        rs.done_cv.wait_for(
            lk, std::chrono::duration<double>(
                    std::max(0.05, opts_.progress_interval_s)));
        if (rs.stop_monitor || rs.terminal >= n) break;
        const Progress p = rs.progress_locked();
        lk.unlock();
        opts_.on_progress(p);
        lk.lock();
      }
    });
  }
  {
    std::unique_lock lk(rs.mu);
    rs.done_cv.wait(lk, [&] { return rs.terminal == n; });
    rs.stop_monitor = true;
  }
  rs.work_cv.notify_all();
  rs.done_cv.notify_all();
  for (std::thread& t : pool) t.join();
  if (monitor.joinable()) monitor.join();
  if (opts_.on_progress) {
    std::lock_guard lk(rs.mu);
    opts_.on_progress(rs.progress_locked());
  }
  span.arg("retries", static_cast<double>(rs.retries));
  span.arg("timeouts", static_cast<double>(rs.timeouts));
  span.arg("quarantined", static_cast<double>(rs.quarantined));
  span.end();
  return std::move(rs.status);
}

void Executor::worker_loop(RunState& rs, int w) {
  const std::size_t n = rs.graph->size();
  std::unique_lock lk(rs.mu);
  while (rs.terminal < n) {
    rs.release_due_locked();
    if (rs.lane_claimed) {
      rs.work_cv.wait(lk);  // a batch holds the lane; nothing else starts
      continue;
    }
    if (!rs.model_ready.empty()) {
      const JobId id = rs.model_ready.front();
      rs.model_ready.pop_front();
      rs.start_locked(id);
      ++rs.model_running;
      lk.unlock();
      execute(rs, w, id, 0);
      lk.lock();
      --rs.running;
      if (--rs.model_running == 0 && rs.lane_claimed) {
        rs.drain_cv.notify_one();
      }
      continue;
    }
    // No ModelTimed job is ready: the moment to run the exclusive phase.
    if (!rs.exclusive.empty()) {
      run_batch(rs, w, lk);
      continue;
    }
    if (rs.delayed.empty()) {
      rs.work_cv.wait(lk);
    } else {
      rs.work_cv.wait_until(lk, rs.delayed.top().first);
    }
  }
  rs.work_cv.notify_all();  // cascade shutdown to still-waiting workers
}

void Executor::run_batch(RunState& rs, int w, std::unique_lock<std::mutex>& lk) {
  // Claim the lane, then wait once for the in-flight ModelTimed jobs. Only
  // the owner pops the exclusive queue, so its front stays the first job
  // while the lock is dropped.
  rs.lane_claimed = true;
  ++rs.lane_batches;
  SchedCounters::instance().lane_batches.add(1);
  const JobId first = rs.exclusive.front();
  lk.unlock();
  obs::Span wait("lane_wait", "sched");
  wait.arg("job", rs.graph->job(first).name);
  const auto w0 = Clock::now();
  lk.lock();
  rs.drain_cv.wait(lk, [&] { return rs.model_running == 0; });
  lk.unlock();
  double lane_wait_s = std::chrono::duration<double>(Clock::now() - w0).count();
  wait.end();
  lk.lock();

  // The whole exclusive queue back to back, including WallClock jobs that
  // finishing jobs or expired backoffs make ready meanwhile.
  while (!rs.exclusive.empty()) {
    const JobId id = rs.exclusive.front();
    rs.exclusive.pop_front();
    rs.start_locked(id);
    SchedCounters::instance().exclusive_jobs.add(1);
    lk.unlock();
    execute(rs, w, id, lane_wait_s);
    lane_wait_s = 0;
    lk.lock();
    --rs.running;
    rs.release_due_locked();
  }
  rs.lane_claimed = false;
  rs.work_cv.notify_all();
}

void Executor::execute(RunState& rs, int w, JobId id, double lane_wait_s) {
  const Job& job = rs.graph->job(id);
  JobContext ctx{id, 0};
  {
    std::lock_guard lk(rs.mu);
    ctx.attempt = rs.status[id].attempts++;
  }
  FailureKind failure = FailureKind::None;
  std::string error;
  double run_s = 0;
  {
    obs::Span span("job", "sched");
    span.arg("job", job.name);
    span.arg("class", std::string(to_string(job.exec_class)));
    span.arg("attempt", static_cast<double>(ctx.attempt));
    span.arg("worker", static_cast<double>(w));
    if (span.active()) span.arg("trace_id", job_trace_id(job.name));
    const auto t0 = Clock::now();
    if (job.timeout_s > 0) {
      // Capped so the sum cannot overflow the clock; 1e9 s is ~31 years.
      ctx.deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  std::min(job.timeout_s, 1e9)));
    }
    try {
      job.work(ctx);
    } catch (const std::exception& ex) {
      failure = FailureKind::Exception;
      error = ex.what();
    } catch (...) {
      failure = FailureKind::Exception;
      error = "unknown exception";
    }
    const auto t1 = Clock::now();
    run_s = std::chrono::duration<double>(t1 - t0).count();
    if (t1 >= ctx.deadline) {
      failure = FailureKind::Timeout;
      error = "deadline of " + std::to_string(job.timeout_s) + "s expired";
    }
    span.arg("outcome", std::string(failure == FailureKind::None
                                        ? "ok"
                                        : to_string(failure)));
  }
  finish(rs, id, failure, error, run_s, lane_wait_s);
}

void Executor::finish(RunState& rs, JobId id, FailureKind failure,
                      const std::string& error, double run_s,
                      double lane_wait_s) {
  const Job& finished_job = rs.graph->job(id);
  std::string dump_ref;
  if (failure != FailureKind::None && obs::flight_enabled()) {
    // Snapshot the rings while the failure is still the newest thing in
    // them. Only this job's attempt counter decides retry vs quarantine,
    // and no other worker can run this job concurrently, so the peek
    // outside the long-held lock below is race-free.
    bool will_retry = false;
    {
      std::lock_guard lk(rs.mu);
      will_retry = rs.status[id].attempts <= finished_job.max_retries;
    }
    obs::flight_note(will_retry ? "sched.retry" : "sched.quarantine", "sched",
                     finished_job.name);
    const char* reason = will_retry ? "retry"
                         : failure == FailureKind::Timeout ? "timeout"
                                                           : "quarantine";
    if (obs::flight_dump(reason)) dump_ref = obs::flight_dump_path();
  }
  std::lock_guard lk(rs.mu);
  JobStatus& st = rs.status[id];
  if (!dump_ref.empty()) st.flight_dump = std::move(dump_ref);
  st.run_seconds += run_s;
  st.lane_wait_seconds += lane_wait_s;
  if (failure == FailureKind::None) {
    st.state = JobState::Done;
    st.failure = FailureKind::None;
    st.error.clear();
    SchedCounters::instance().done.add(1);
  } else {
    st.failure = failure;
    st.error = error;
    if (failure == FailureKind::Timeout) {
      ++rs.timeouts;
      SchedCounters::instance().timeouts.add(1);
    }
    const Job& job = rs.graph->job(id);
    if (st.attempts <= job.max_retries) {
      // Retry with linear backoff; the job goes back through the delayed
      // heap so the worker is free for other work meanwhile.
      ++rs.retries;
      SchedCounters::instance().retries.add(1);
      st.state = JobState::Pending;
      rs.delayed.emplace(
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 job.retry_backoff_s * st.attempts)),
          id);
      rs.work_cv.notify_all();
      return;
    }
    st.state = JobState::Quarantined;
    ++rs.quarantined;
    SchedCounters::instance().quarantined.add(1);
  }
  ++rs.terminal;
  rs.work_cv.notify_all();
  if (rs.terminal == rs.graph->size()) rs.done_cv.notify_all();
}

}  // namespace indigo::sched
