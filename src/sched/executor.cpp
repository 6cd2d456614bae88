#include "sched/executor.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
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
  obs::Counter& steals;
  obs::Counter& retries;
  obs::Counter& timeouts;
  obs::Counter& quarantined;
  obs::Counter& exclusive_jobs;
  obs::Distribution& queue_depth;

  static SchedCounters& instance() {
    auto& reg = obs::CounterRegistry::instance();
    static SchedCounters c{reg.counter("sched.jobs"),
                           reg.counter("sched.done"),
                           reg.counter("sched.steals"),
                           reg.counter("sched.retries"),
                           reg.counter("sched.timeouts"),
                           reg.counter("sched.quarantined"),
                           reg.counter("sched.exclusive_jobs"),
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
  std::vector<std::vector<JobId>> dependents;
  std::vector<int> unmet;
  std::vector<std::deque<JobId>> queues;  // one per worker
  using Delayed = std::pair<Clock::time_point, JobId>;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<>> delayed;
  std::size_t terminal = 0;
  std::size_t running = 0;
  bool stop_monitor = false;

  // The execution-class lane: ModelTimed shared, WallClock unique.
  std::shared_mutex lane;

  // Always-on tallies, served by progress() even with the obs layer off.
  std::atomic<std::uint64_t> steals{0}, retries{0}, timeouts{0},
      quarantined{0};

  Clock::time_point t0;

  [[nodiscard]] std::size_t ready_depth_locked() const {
    std::size_t n = delayed.size();
    for (const auto& q : queues) n += q.size();
    return n;
  }

  [[nodiscard]] Progress progress_locked() const {
    Progress p;
    p.total = graph->size();
    p.done = terminal;
    p.running = running;
    p.quarantined = quarantined.load(std::memory_order_relaxed);
    p.queue_depth = ready_depth_locked();
    p.steals = steals.load(std::memory_order_relaxed);
    p.retries = retries.load(std::memory_order_relaxed);
    p.timeouts = timeouts.load(std::memory_order_relaxed);
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
        .field("steals", p.steals)
        .field("retries", p.retries)
        .field("timeouts", p.timeouts)
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
  rs.dependents.assign(n, {});
  rs.unmet.assign(n, 0);
  rs.queues.assign(static_cast<std::size_t>(workers_), {});
  rs.t0 = Clock::now();
  for (JobId j = 0; j < n; ++j) {
    for (JobId on : graph.deps(j)) {
      rs.dependents[on].push_back(j);
      ++rs.unmet[j];
    }
  }
  // Kahn pass: every job must be reachable from the zero-dep frontier.
  {
    std::vector<int> unmet = rs.unmet;
    std::vector<JobId> order;
    order.reserve(n);
    for (JobId j = 0; j < n; ++j) {
      if (unmet[j] == 0) order.push_back(j);
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      for (JobId d : rs.dependents[order[k]]) {
        if (--unmet[d] == 0) order.push_back(d);
      }
    }
    if (order.size() != n) {
      throw std::invalid_argument("Executor::run: dependency cycle");
    }
  }
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

  // Seed the frontier round-robin across the workers' deques; stealing
  // rebalances from there.
  {
    int w = 0;
    for (JobId j = 0; j < n; ++j) {
      if (rs.unmet[j] != 0) continue;
      rs.queues[static_cast<std::size_t>(w++ % workers_)].push_back(j);
    }
  }

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
  span.arg("steals", static_cast<double>(
                         rs.steals.load(std::memory_order_relaxed)));
  span.arg("retries", static_cast<double>(
                          rs.retries.load(std::memory_order_relaxed)));
  span.arg("timeouts", static_cast<double>(
                           rs.timeouts.load(std::memory_order_relaxed)));
  span.arg("quarantined", static_cast<double>(
                              rs.quarantined.load(std::memory_order_relaxed)));
  span.end();
  return std::move(rs.status);
}

void Executor::worker_loop(RunState& rs, int w) {
  const std::size_t n = rs.graph->size();
  std::unique_lock lk(rs.mu);
  while (rs.terminal < n) {
    JobId id = kInvalidJob;
    auto& own = rs.queues[static_cast<std::size_t>(w)];
    if (!own.empty()) {
      id = own.front();
      own.pop_front();
    } else {
      for (int k = 1; k < workers_ && id == kInvalidJob; ++k) {
        auto& victim = rs.queues[static_cast<std::size_t>((w + k) % workers_)];
        if (!victim.empty()) {
          id = victim.back();
          victim.pop_back();
          rs.steals.fetch_add(1, std::memory_order_relaxed);
          SchedCounters::instance().steals.add(1);
        }
      }
    }
    if (id == kInvalidJob && !rs.delayed.empty()) {
      const auto now = Clock::now();
      if (rs.delayed.top().first <= now) {
        id = rs.delayed.top().second;
        rs.delayed.pop();
      } else {
        rs.work_cv.wait_until(lk, rs.delayed.top().first);
        continue;
      }
    }
    if (id == kInvalidJob) {
      rs.work_cv.wait(lk);
      continue;
    }
    SchedCounters::instance().queue_depth.record(
        static_cast<double>(rs.ready_depth_locked()));
    rs.status[id].state = JobState::Running;
    ++rs.running;
    lk.unlock();
    execute(rs, w, id);
    lk.lock();
    --rs.running;
  }
  rs.work_cv.notify_all();  // cascade shutdown to still-waiting workers
}

void Executor::execute(RunState& rs, int w, JobId id) {
  const Job& job = rs.graph->job(id);
  auto token = std::make_shared<std::atomic<bool>>(false);
  int attempt = 0;
  {
    std::lock_guard lk(rs.mu);
    attempt = rs.status[id].attempts++;
  }
  const JobContext ctx{id, attempt, token};
  FailureKind failure = FailureKind::None;
  std::string error;
  double lane_wait_s = 0;
  double run_s = 0;
  {
    // The lane: a WallClock job owns the machine; ModelTimed jobs share it.
    // It is taken before the job span and the run timer start, so the time
    // spent queued behind other jobs is charged to lane_wait, not to this
    // job's run.
    std::shared_lock<std::shared_mutex> shared(rs.lane, std::defer_lock);
    std::unique_lock<std::shared_mutex> unique(rs.lane, std::defer_lock);
    {
      obs::Span wait("lane_wait", "sched");
      wait.arg("job", job.name);
      const auto w0 = Clock::now();
      if (job.exec_class == ExecClass::WallClock) {
        unique.lock();
        SchedCounters::instance().exclusive_jobs.add(1);
      } else {
        shared.lock();
      }
      lane_wait_s = std::chrono::duration<double>(Clock::now() - w0).count();
    }

    obs::Span span("job", "sched");
    span.arg("job", job.name);
    span.arg("class", std::string(to_string(job.exec_class)));
    span.arg("attempt", static_cast<double>(attempt));
    span.arg("worker", static_cast<double>(w));
    if (span.active()) span.arg("trace_id", job_trace_id(job.name));
    const auto t0 = Clock::now();

    if (job.timeout_s > 0) {
      // Deadline attempts run on a helper so an expired one can be
      // abandoned. The helper owns copies of everything it touches (the
      // detach case must not reference worker-stack state).
      struct Attempt {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        FailureKind failure = FailureKind::None;
        std::string error;
      };
      auto att = std::make_shared<Attempt>();
      auto work = job.work;
      std::thread helper([att, work = std::move(work), ctx] {
        FailureKind f = FailureKind::None;
        std::string e;
        try {
          work(ctx);
        } catch (const std::exception& ex) {
          f = FailureKind::Exception;
          e = ex.what();
        } catch (...) {
          f = FailureKind::Exception;
          e = "unknown exception";
        }
        std::lock_guard g(att->m);
        att->done = true;
        att->failure = f;
        att->error = std::move(e);
        att->cv.notify_all();
      });
      std::unique_lock al(att->m);
      const bool finished =
          att->cv.wait_for(al, std::chrono::duration<double>(job.timeout_s),
                           [&] { return att->done; });
      if (finished) {
        al.unlock();
        helper.join();
        failure = att->failure;
        error = att->error;
      } else {
        al.unlock();
        token->store(true, std::memory_order_relaxed);
        helper.detach();
        failure = FailureKind::Timeout;
        error = "deadline of " + std::to_string(job.timeout_s) + "s expired";
        rs.timeouts.fetch_add(1, std::memory_order_relaxed);
        SchedCounters::instance().timeouts.add(1);
      }
    } else {
      try {
        job.work(ctx);
      } catch (const std::exception& ex) {
        failure = FailureKind::Exception;
        error = ex.what();
      } catch (...) {
        failure = FailureKind::Exception;
        error = "unknown exception";
      }
    }
    run_s = std::chrono::duration<double>(Clock::now() - t0).count();
    span.arg("outcome", std::string(failure == FailureKind::None
                                        ? "ok"
                                        : to_string(failure)));
  }
  finish(rs, w, id, failure, error, run_s, lane_wait_s);
}

void Executor::finish(RunState& rs, int w, JobId id, FailureKind failure,
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
    const Job& job = rs.graph->job(id);
    if (st.attempts <= job.max_retries) {
      // Retry with linear backoff; the job goes back through the delayed
      // heap so the worker is free for other work meanwhile.
      rs.retries.fetch_add(1, std::memory_order_relaxed);
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
    rs.quarantined.fetch_add(1, std::memory_order_relaxed);
    SchedCounters::instance().quarantined.add(1);
  }
  ++rs.terminal;
  // Release dependents onto the finishing worker's own deque (locality);
  // idle workers will steal from its back.
  for (JobId d : rs.dependents[id]) {
    if (--rs.unmet[d] == 0) {
      rs.queues[static_cast<std::size_t>(w)].push_back(d);
    }
  }
  rs.work_cv.notify_all();
  if (rs.terminal == rs.graph->size()) rs.done_cv.notify_all();
}

}  // namespace indigo::sched
