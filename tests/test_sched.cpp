// Tests of the sweep runtime (src/sched): start order, the execution-class
// lane, deadline/retry/quarantine robustness, worker-count resolution, and
// the harness integration - a sweep on a pool must be indistinguishable
// from the same sweep on one worker (bit-identical results, zero
// re-executions on resume, quarantine notes kept), and a deadline stops
// real cuda variants without leaving anything running after the sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/harness.hpp"
#include "sched/executor.hpp"
#include "sched/job_graph.hpp"

namespace indigo::sched {
namespace {

using namespace std::chrono_literals;

// The container may expose a single core; an explicit pool keeps the
// concurrency machinery genuinely exercised (concurrency != parallelism:
// jobs below block on each other, which works on any core count).
constexpr int kPool = 4;

Executor make_executor(int workers = kPool) {
  ExecutorOptions eo;
  eo.num_workers = workers;
  return Executor(eo);
}

TEST(JobGraph, RejectsEmptyWork) {
  JobGraph jg;
  EXPECT_THROW(jg.add({}), std::invalid_argument);
}

TEST(Executor, ModelTimedJobsStartInJobOrder) {
  // While one worker sits in the long job 0, the other takes the short
  // jobs from the front of the one FIFO, so starts follow job order. Job 0
  // is popped first; the others record their start only once it recorded
  // its own, so the order is not decided by which worker wakes first.
  JobGraph jg;
  std::mutex mu;
  std::vector<JobId> started;
  std::atomic<bool> first_started{false};
  for (int i = 0; i < 12; ++i) {
    jg.add({"j" + std::to_string(i), ExecClass::ModelTimed,
            [&](const JobContext& ctx) {
              while (ctx.id != 0 && !first_started.load()) {
                std::this_thread::sleep_for(1ms);
              }
              {
                std::lock_guard lk(mu);
                started.push_back(ctx.id);
              }
              first_started.store(true);
              std::this_thread::sleep_for(ctx.id == 0 ? 100ms : 1ms);
            }});
  }
  const auto st = make_executor(2).run(jg);
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
  std::vector<JobId> expected(12);
  for (JobId i = 0; i < 12; ++i) expected[i] = i;
  EXPECT_EQ(started, expected);
}

TEST(Executor, ModelTimedJobsOverlap) {
  // Each job waits to see a sibling in flight; only concurrent execution
  // lets them all finish before the deadline. A job whose siblings have
  // all finished has nobody left to overlap with and stops waiting.
  JobGraph jg;
  std::atomic<int> inflight{0};
  std::atomic<int> finished{0};
  std::atomic<int> overlapped{0};
  for (int i = 0; i < kPool; ++i) {
    jg.add({"m" + std::to_string(i), ExecClass::ModelTimed,
            [&](const JobContext&) {
              inflight.fetch_add(1);
              const auto deadline = std::chrono::steady_clock::now() + 5s;
              while (inflight.load() < 2 && finished.load() < kPool - 1 &&
                     std::chrono::steady_clock::now() < deadline) {
                std::this_thread::sleep_for(1ms);
              }
              if (inflight.load() >= 2) overlapped.fetch_add(1);
              inflight.fetch_sub(1);
              finished.fetch_add(1);
            }});
  }
  const auto st = make_executor().run(jg);
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
  EXPECT_GE(overlapped.load(), 2);
}

TEST(Executor, WallClockJobsNeverShareTheMachine) {
  JobGraph jg;
  std::atomic<int> active_wall{0};
  std::atomic<int> active_model{0};
  std::atomic<int> violations{0};
  for (int i = 0; i < 6; ++i) {
    jg.add({"w" + std::to_string(i), ExecClass::WallClock,
            [&](const JobContext&) {
              const int w = active_wall.fetch_add(1) + 1;
              if (w != 1 || active_model.load() != 0) violations.fetch_add(1);
              std::this_thread::sleep_for(5ms);
              if (active_wall.load() != 1 || active_model.load() != 0) {
                violations.fetch_add(1);
              }
              active_wall.fetch_sub(1);
            }});
    jg.add({"m" + std::to_string(i), ExecClass::ModelTimed,
            [&](const JobContext&) {
              active_model.fetch_add(1);
              if (active_wall.load() != 0) violations.fetch_add(1);
              std::this_thread::sleep_for(2ms);
              active_model.fetch_sub(1);
            }});
  }
  const auto st = make_executor().run(jg);
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
  EXPECT_EQ(violations.load(), 0);
}

TEST(Executor, LaneWaitIsNotCountedAsRunTime) {
  // One worker takes the ~200 ms ModelTimed job; the other finds no
  // ModelTimed job left, claims the lane and must wait for that job to
  // drain. The wait is lane_wait_seconds, not run time.
  JobGraph jg;
  const JobId m = jg.add({"model", ExecClass::ModelTimed,
                          [](const JobContext&) {
                            std::this_thread::sleep_for(200ms);
                          }});
  const JobId wall = jg.add({"wall", ExecClass::WallClock,
                             [](const JobContext&) {
                               std::this_thread::sleep_for(20ms);
                             }});

  const auto st = make_executor(2).run(jg);
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
  EXPECT_GE(st[wall].run_seconds, 0.02);
  EXPECT_LT(st[wall].run_seconds, 0.1);
  EXPECT_GE(st[wall].lane_wait_seconds, 0.15);
  EXPECT_GE(st[m].run_seconds, 0.2);
}

TEST(Executor, WallClockJobsRunAsOneContiguousBatch) {
  // Every WallClock job is ready from the start, so the lane is claimed
  // once, after the last ModelTimed job started, and the WallClock bodies
  // run back to back with nothing in between.
  JobGraph jg;
  std::mutex mu;
  std::string events;  // body starts/ends: 'M'/'m' ModelTimed, 'W'/'w' WallClock
  auto body = [&](char start, std::chrono::milliseconds d) {
    return [&, start, d](const JobContext&) {
      {
        std::lock_guard lk(mu);
        events += start;
      }
      std::this_thread::sleep_for(d);
      std::lock_guard lk(mu);
      events += static_cast<char>(start - 'A' + 'a');
    };
  };
  constexpr int kModel = 12;
  constexpr int kWall = 6;
  for (int i = 0; i < kModel + kWall; ++i) {
    // Interleaved in job order, as Harness::sweep builds a mixed selection.
    if (i % 3 == 2) {
      jg.add({"w" + std::to_string(i), ExecClass::WallClock, body('W', 1ms)});
    } else {
      jg.add({"m" + std::to_string(i), ExecClass::ModelTimed, body('M', 3ms)});
    }
  }
  ExecutorOptions eo;
  eo.num_workers = kPool;
  std::uint64_t lane_batches = 0;
  eo.on_progress = [&](const Progress& p) { lane_batches = p.lane_batches; };
  const auto st = Executor(eo).run(jg);
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
  EXPECT_EQ(lane_batches, 1u);

  ASSERT_EQ(events.size(), 2u * (kModel + kWall));
  std::string batch;
  for (int k = 0; k < kWall; ++k) batch += "Ww";
  EXPECT_EQ(events.substr(events.find('W'), batch.size()), batch) << events;
}

TEST(Executor, ReleasedAndRetriedWallClockJobsStillRunExclusively) {
  // A WallClock job that throws once, whose retry is released from the
  // backoff heap mid-run, runs alone on both attempts, and so do the
  // WallClock jobs around it.
  JobGraph jg;
  std::atomic<int> active_wall{0};
  std::atomic<int> active_model{0};
  std::atomic<int> violations{0};
  auto wall_body = [&](const JobContext&) {
    if (active_wall.fetch_add(1) != 0 || active_model.load() != 0) {
      violations.fetch_add(1);
    }
    std::this_thread::sleep_for(3ms);
    if (active_wall.load() != 1 || active_model.load() != 0) {
      violations.fetch_add(1);
    }
    active_wall.fetch_sub(1);
  };
  auto model_body = [&](const JobContext&) {
    active_model.fetch_add(1);
    if (active_wall.load() != 0) violations.fetch_add(1);
    std::this_thread::sleep_for(4ms);
    active_model.fetch_sub(1);
  };
  jg.add({"first", ExecClass::ModelTimed, model_body});
  const JobId released =
      jg.add({"released", ExecClass::WallClock, wall_body});
  std::atomic<int> flaky_calls{0};
  Job flaky{"flaky", ExecClass::WallClock,
            [&](const JobContext& ctx) {
              wall_body(ctx);
              if (flaky_calls.fetch_add(1) == 0) {
                throw std::runtime_error("transient");
              }
            }};
  flaky.max_retries = 1;
  flaky.retry_backoff_s = 0.01;
  const JobId f = jg.add(std::move(flaky));
  for (int i = 0; i < 12; ++i) {
    jg.add({"m" + std::to_string(i), ExecClass::ModelTimed, model_body});
  }
  jg.add({"w", ExecClass::WallClock, wall_body});

  const auto st = make_executor().run(jg);
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
  EXPECT_EQ(st[f].attempts, 2);
  EXPECT_EQ(st[released].attempts, 1);
  EXPECT_EQ(violations.load(), 0);
}

TEST(Executor, TimedOutWallClockAttemptKeepsTheLaneUntilItsBodyExits) {
  // A finite WallClock body that ignores its deadline overruns it. The
  // attempt counts as timed out, but neither the next WallClock job nor a
  // ModelTimed retry released from the backoff heap meanwhile may start
  // until the overrunning body has returned.
  JobGraph jg;
  std::atomic<int> active{0};
  std::atomic<int> violations{0};
  std::atomic<bool> overrun_exited{false};
  Job overrun{"overrun", ExecClass::WallClock, [&](const JobContext&) {
                active.fetch_add(1);
                std::this_thread::sleep_for(300ms);
                active.fetch_sub(1);
                overrun_exited.store(true);
              }};
  overrun.timeout_s = 0.05;
  const JobId o = jg.add(std::move(overrun));
  auto check_alone = [&](const JobContext&) {
    if (active.fetch_add(1) != 0) violations.fetch_add(1);
    std::this_thread::sleep_for(2ms);
    active.fetch_sub(1);
  };
  const JobId next = jg.add({"next", ExecClass::WallClock, check_alone});
  // Fails once before the batch; its retry is due while the overrun runs.
  Job after{"after", ExecClass::ModelTimed, [&](const JobContext& ctx) {
              check_alone(ctx);
              if (ctx.attempt == 0) throw std::runtime_error("transient");
            }};
  after.max_retries = 1;
  after.retry_backoff_s = 0.1;
  const JobId a = jg.add(std::move(after));

  const auto st = make_executor().run(jg);
  EXPECT_EQ(st[o].state, JobState::Quarantined);
  EXPECT_EQ(st[o].failure, FailureKind::Timeout);
  EXPECT_GE(st[o].run_seconds, 0.3);  // charged until the body returned
  EXPECT_EQ(st[next].state, JobState::Done);
  EXPECT_EQ(st[a].state, JobState::Done);
  EXPECT_EQ(st[a].attempts, 2);
  EXPECT_TRUE(overrun_exited.load());  // ended before run() returned
  EXPECT_EQ(violations.load(), 0);
}

TEST(Executor, HangingJobTimesOutAndIsQuarantined) {
  JobGraph jg;
  std::atomic<bool> saw_deadline{false};
  Job hang;
  hang.name = "hang";
  hang.exec_class = ExecClass::ModelTimed;
  hang.timeout_s = 0.15;
  hang.work = [&](const JobContext& ctx) {
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < give_up) {
      if (std::chrono::steady_clock::now() >= ctx.deadline) {
        saw_deadline.store(true);
        return;  // a well-behaved long job stops once its deadline passed
      }
      std::this_thread::sleep_for(2ms);
    }
  };
  const JobId h = jg.add(std::move(hang));
  std::atomic<bool> other_ran{false};
  jg.add({"other", ExecClass::ModelTimed,
          [&](const JobContext&) { other_ran.store(true); }});

  const auto st = make_executor().run(jg);
  EXPECT_EQ(st[h].state, JobState::Quarantined);
  EXPECT_EQ(st[h].failure, FailureKind::Timeout);
  EXPECT_EQ(st[h].attempts, 1);
  EXPECT_TRUE(other_ran.load());  // a hung job does not abort the sweep
  EXPECT_TRUE(saw_deadline.load());
  EXPECT_LT(st[h].run_seconds, 5.0);  // stopped at the deadline, not 10 s
}

TEST(Executor, FlakyJobRetriesUntilItSucceeds) {
  JobGraph jg;
  std::atomic<int> calls{0};
  Job flaky;
  flaky.name = "flaky";
  flaky.max_retries = 2;
  flaky.retry_backoff_s = 0.01;
  flaky.work = [&](const JobContext& ctx) {
    EXPECT_EQ(ctx.attempt, calls.load());
    if (calls.fetch_add(1) < 2) throw std::runtime_error("transient");
  };
  const JobId f = jg.add(std::move(flaky));
  const auto st = make_executor().run(jg);
  EXPECT_EQ(st[f].state, JobState::Done);
  EXPECT_EQ(st[f].attempts, 3);
  EXPECT_EQ(calls.load(), 3);
}

TEST(Executor, ExhaustedRetriesQuarantineButDependentsStillRun) {
  // A quarantined job does not stop the jobs after it.
  JobGraph jg;
  Job broken;
  broken.name = "broken";
  broken.max_retries = 1;
  broken.retry_backoff_s = 0.01;
  broken.work = [](const JobContext&) {
    throw std::runtime_error("deterministic failure");
  };
  const JobId b = jg.add(std::move(broken));
  std::atomic<bool> later_ran{false};
  const JobId d = jg.add({"later", ExecClass::ModelTimed,
                          [&](const JobContext&) { later_ran.store(true); }});

  const auto st = make_executor().run(jg);
  EXPECT_EQ(st[b].state, JobState::Quarantined);
  EXPECT_EQ(st[b].failure, FailureKind::Exception);
  EXPECT_EQ(st[b].attempts, 2);
  EXPECT_NE(st[b].error.find("deterministic failure"), std::string::npos);
  EXPECT_EQ(st[d].state, JobState::Done);
  EXPECT_TRUE(later_ran.load());
}

TEST(Executor, ReportsProgressWithEta) {
  JobGraph jg;
  for (int i = 0; i < 8; ++i) {
    jg.add({"p" + std::to_string(i), ExecClass::ModelTimed,
            [](const JobContext&) { std::this_thread::sleep_for(1ms); }});
  }
  ExecutorOptions eo;
  eo.num_workers = kPool;
  std::mutex mu;
  std::vector<Progress> seen;
  eo.on_progress = [&](const Progress& p) {
    std::lock_guard lk(mu);
    seen.push_back(p);
  };
  Executor(eo).run(jg);
  ASSERT_FALSE(seen.empty());  // the final report always fires
  EXPECT_EQ(seen.back().total, 8u);
  EXPECT_EQ(seen.back().done, 8u);
  EXPECT_GE(seen.back().eta_s, 0);
}

TEST(Executor, ResolveWorkersParsesTheEnvStrictly) {
  const char* outer = std::getenv("INDIGO_SCHED_WORKERS");
  const std::string saved = outer != nullptr ? outer : "";
  EXPECT_EQ(Executor::resolve_workers(3), 3);  // explicit wins over the env
  setenv("INDIGO_SCHED_WORKERS", "5", 1);
  EXPECT_EQ(Executor::resolve_workers(0), 5);
  EXPECT_EQ(Executor::resolve_workers(-1), 5);
  for (const char* bad : {"0", "abc", "4x", "-1", "", " 2", "+2",
                          "99999999999"}) {
    setenv("INDIGO_SCHED_WORKERS", bad, 1);
    try {
      Executor::resolve_workers(0);
      ADD_FAILURE() << "accepted INDIGO_SCHED_WORKERS=\"" << bad << '"';
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find("INDIGO_SCHED_WORKERS"),
                std::string::npos)
          << ex.what();
    }
  }
  unsetenv("INDIGO_SCHED_WORKERS");
  EXPECT_GE(Executor::resolve_workers(0), 1);
  EXPECT_LE(Executor::resolve_workers(0), 8);
  if (outer != nullptr) setenv("INDIGO_SCHED_WORKERS", saved.c_str(), 1);
}

// --- Harness integration -------------------------------------------------

class SchedSweepTest : public testing::Test {
 protected:
  void SetUp() override {
    setenv("REPRO_SCALE", "0", 1);
    base_ = std::string("sched_sweep_test_") + std::to_string(::getpid());
  }
  void TearDown() override {
    std::remove((base_ + "_seq.csv").c_str());
    std::remove((base_ + "_par.csv").c_str());
    unsetenv("REPRO_CACHE");
    unsetenv("REPRO_SCALE");
    unsetenv("INDIGO_SCHED_RETRIES");
    unsetenv("INDIGO_SCHED_TIMEOUT_S");
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::string base_;
};

TEST_F(SchedSweepTest, ScheduledSweepMatchesSequentialBitForBit) {
  bench::SweepOptions sw;
  sw.model = Model::Cuda;
  sw.algo = Algorithm::TC;

  setenv("REPRO_CACHE", (base_ + "_seq.csv").c_str(), 1);
  bench::Harness seq;
  sw.workers = 1;  // one worker runs the cells one at a time in pair order
  const auto ms_seq = seq.sweep(sw);
  ASSERT_TRUE(seq.result_store().checkpoint());

  setenv("REPRO_CACHE", (base_ + "_par.csv").c_str(), 1);
  bench::Harness par;
  sw.workers = kPool;  // through the pool
  const auto ms_par = par.sweep(sw);
  ASSERT_TRUE(par.result_store().checkpoint());

  // Same measurements, same order, identical numbers.
  ASSERT_EQ(ms_par.size(), ms_seq.size());
  ASSERT_GT(ms_seq.size(), 0u);
  for (std::size_t i = 0; i < ms_seq.size(); ++i) {
    EXPECT_EQ(ms_par[i].program, ms_seq[i].program);
    EXPECT_EQ(ms_par[i].graph, ms_seq[i].graph);
    EXPECT_EQ(ms_par[i].seconds, ms_seq[i].seconds);
    EXPECT_EQ(ms_par[i].throughput_ges, ms_seq[i].throughput_ges);
    EXPECT_EQ(ms_par[i].iterations, ms_seq[i].iterations);
    EXPECT_EQ(ms_par[i].verified, ms_seq[i].verified);
  }
  // The checkpointed journals are byte-identical (sorted, full precision).
  EXPECT_EQ(slurp(base_ + "_par.csv"), slurp(base_ + "_seq.csv"));

  EXPECT_EQ(seq.last_sweep_stats().executed, ms_seq.size());
  EXPECT_EQ(par.last_sweep_stats().executed, ms_par.size());
  EXPECT_EQ(par.last_sweep_stats().quarantined, 0u);
}

TEST_F(SchedSweepTest, ResumedSweepReExecutesNothing) {
  setenv("REPRO_CACHE", (base_ + "_seq.csv").c_str(), 1);
  bench::SweepOptions sw;
  sw.model = Model::Cuda;
  sw.algo = Algorithm::TC;
  sw.workers = kPool;
  std::size_t total = 0;
  {
    bench::Harness h;
    total = h.sweep(sw).size();
    EXPECT_EQ(h.last_sweep_stats().executed, total);
    EXPECT_EQ(h.last_sweep_stats().cache_hits, 0u);
  }
  {
    // A fresh process (fresh Harness) over the same journal: everything is
    // a hit, nothing is re-executed.
    bench::Harness h;
    const auto ms = h.sweep(sw);
    EXPECT_EQ(ms.size(), total);
    EXPECT_EQ(h.last_sweep_stats().cache_hits, total);
    EXPECT_EQ(h.last_sweep_stats().executed, 0u);
    EXPECT_EQ(h.result_store().appended(), 0u);
  }
}

TEST_F(SchedSweepTest, QuarantineNotesSurviveTheSweepCheckpoint) {
  setenv("REPRO_CACHE", (base_ + "_seq.csv").c_str(), 1);
  setenv("INDIGO_SCHED_RETRIES", "0", 1);
  bench::Harness h;
  // A program whose run throws a non-std::exception: measure_one does not
  // catch it, so every attempt fails and the executor quarantines the cell.
  // OpenMP has no warp granularity, so no generated variant has this style.
  // It stays registered for the rest of the process; no other test here
  // sweeps OpenMP BFS.
  Variant bad;
  bad.model = Model::OpenMP;
  bad.algo = Algorithm::BFS;
  bad.style.gran = Granularity::Warp;
  bad.name = program_name(bad.model, bad.algo, bad.style) + "-throws";
  bad.run = [](const Graph&, const RunOptions&) -> RunResult { throw 42; };
  Registry::instance().add(bad);

  bench::SweepOptions sw;
  sw.model = bad.model;
  sw.algo = bad.algo;
  sw.workers = kPool;
  sw.style_filter = [&](const Variant& v) { return v.name == bad.name; };
  testing::internal::CaptureStderr();
  const auto ms = h.sweep(sw);
  testing::internal::GetCapturedStderr();

  ASSERT_EQ(ms.size(), h.graphs().size());
  EXPECT_EQ(h.last_sweep_stats().quarantined, ms.size());
  for (const Measurement& m : ms) {
    EXPECT_FALSE(m.verified);
    EXPECT_EQ(m.error.rfind("quarantined: ", 0), 0u) << m.error;
  }
  // The sweep checkpointed (which drops comments) before annotating, so
  // every quarantine note is still in the journal.
  const std::string journal = slurp(base_ + "_seq.csv");
  for (const Graph& g : h.graphs()) {
    EXPECT_NE(journal.find("# quarantined " + bad.name + "@" + g.name() +
                           " after 1 attempt(s): unknown exception"),
              std::string::npos)
        << g.name() << " missing from:\n" << journal;
  }
}

TEST_F(SchedSweepTest, MalformedRetryAndDeadlineValuesAreRejected) {
  setenv("REPRO_CACHE", (base_ + "_seq.csv").c_str(), 1);
  bench::Harness h;
  bench::SweepOptions sw;  // selects nothing: only the env is read
  sw.style_filter = [](const Variant&) { return false; };
  auto rejects = [&](const char* var, const char* value) {
    setenv(var, value, 1);
    try {
      h.sweep(sw);
      ADD_FAILURE() << "accepted " << var << "=\"" << value << '"';
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find(var), std::string::npos)
          << ex.what();
    }
    unsetenv(var);
  };
  for (const char* bad : {"abc", "-1", "1.5", "2x", "", " 1", "+1",
                          "99999999999"}) {
    rejects("INDIGO_SCHED_RETRIES", bad);
  }
  for (const char* bad : {"abc", "5s", "-1", "-0.5", "nan", "inf", "1e999",
                          "", " 1", "+1"}) {
    rejects("INDIGO_SCHED_TIMEOUT_S", bad);
  }
  for (const char* good : {"0", "3"}) {
    setenv("INDIGO_SCHED_RETRIES", good, 1);
    EXPECT_NO_THROW(h.sweep(sw)) << good;
  }
  for (const char* good : {"0", "2.5", "1e-6", "30"}) {
    setenv("INDIGO_SCHED_TIMEOUT_S", good, 1);
    EXPECT_NO_THROW(h.sweep(sw)) << good;
  }
}

TEST_F(SchedSweepTest, DeadlineStopsRealCudaVariantsAtTheirNextLaunch) {
  // Every cuda BFS cell overruns a 1 us deadline: it stops at its first
  // kernel launch, is quarantined, and nothing of it runs on after sweep()
  // returned - no journal row appears later and no freed state is touched.
  const std::string journal = base_ + "_seq.csv";
  setenv("REPRO_CACHE", journal.c_str(), 1);
  setenv("INDIGO_SCHED_TIMEOUT_S", "1e-6", 1);
  setenv("INDIGO_SCHED_RETRIES", "0", 1);
  bench::Harness h;
  bench::SweepOptions sw;
  sw.model = Model::Cuda;
  sw.algo = Algorithm::BFS;
  sw.workers = kPool;
  testing::internal::CaptureStderr();
  const auto t0 = std::chrono::steady_clock::now();
  const auto ms = h.sweep(sw);
  const double sweep_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  testing::internal::GetCapturedStderr();

  ASSERT_GT(ms.size(), 0u);
  EXPECT_LT(sweep_s, 5.0);
  EXPECT_EQ(h.last_sweep_stats().quarantined, ms.size());
  for (const Measurement& m : ms) {
    EXPECT_FALSE(m.verified);
    EXPECT_EQ(m.error.rfind("quarantined: ", 0), 0u) << m.error;
    EXPECT_NE(m.error.find("deadline"), std::string::npos) << m.error;
  }
  // The journal holds the header and quarantine comments, no result row.
  auto result_rows = [&] {
    std::size_t rows = 0;
    std::istringstream in(slurp(journal));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line.front() != '#') ++rows;
    }
    return rows;
  };
  EXPECT_EQ(result_rows(), 0u);
  std::this_thread::sleep_for(500ms);
  EXPECT_EQ(result_rows(), 0u);
  EXPECT_EQ(h.result_store().appended(), 0u);
}

}  // namespace
}  // namespace indigo::sched
