// Tests of the sweep runtime (src/sched): dependency ordering, the
// execution-class lane, deadline/retry/quarantine robustness, worker-count
// resolution, and the harness integration - a sweep on a pool must be
// indistinguishable from the same sweep on one worker (bit-identical
// results, zero re-executions on resume, quarantine notes kept).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
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

TEST(JobGraph, RejectsEmptyWorkAndSelfDependency) {
  JobGraph jg;
  EXPECT_THROW(jg.add({}), std::invalid_argument);
  const JobId a = jg.add({"a", ExecClass::ModelTimed, [](auto&) {}});
  EXPECT_THROW(jg.depend(a, a), std::invalid_argument);
  EXPECT_THROW(jg.depend(a, 99), std::out_of_range);
}

TEST(Executor, RunsDependenciesBeforeDependents) {
  JobGraph jg;
  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    return [&, name](const JobContext&) {
      std::lock_guard lk(mu);
      order.emplace_back(name);
    };
  };
  // Diamond: a -> {b, c} -> d.
  const JobId a = jg.add({"a", ExecClass::ModelTimed, record("a")});
  const JobId b = jg.add({"b", ExecClass::ModelTimed, record("b")});
  const JobId c = jg.add({"c", ExecClass::ModelTimed, record("c")});
  const JobId d = jg.add({"d", ExecClass::ModelTimed, record("d")});
  jg.depend(b, a);
  jg.depend(c, a);
  jg.depend(d, b);
  jg.depend(d, c);

  const auto st = make_executor().run(jg);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "a");
  EXPECT_EQ(order.back(), "d");
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
}

TEST(Executor, ThrowsOnDependencyCycle) {
  JobGraph jg;
  const JobId a = jg.add({"a", ExecClass::ModelTimed, [](auto&) {}});
  const JobId b = jg.add({"b", ExecClass::ModelTimed, [](auto&) {}});
  jg.depend(a, b);
  jg.depend(b, a);
  EXPECT_THROW(make_executor().run(jg), std::invalid_argument);
}

TEST(Executor, ModelTimedJobsOverlap) {
  // Each job waits to see a sibling in flight; only concurrent execution
  // lets them all finish before the deadline.
  JobGraph jg;
  std::atomic<int> inflight{0};
  std::atomic<int> overlapped{0};
  for (int i = 0; i < kPool; ++i) {
    jg.add({"m" + std::to_string(i), ExecClass::ModelTimed,
            [&](const JobContext&) {
              inflight.fetch_add(1);
              const auto deadline = std::chrono::steady_clock::now() + 5s;
              while (inflight.load() < 2 &&
                     std::chrono::steady_clock::now() < deadline) {
                std::this_thread::sleep_for(1ms);
              }
              if (inflight.load() >= 2) overlapped.fetch_add(1);
              inflight.fetch_sub(1);
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
  // A WallClock job that reaches the lane while a ~200 ms ModelTimed job
  // holds it must wait, and that wait is lane_wait_seconds, not run time.
  // The gate job releases the WallClock job only once the ModelTimed body
  // is running, i.e. holds the shared lane.
  JobGraph jg;
  std::atomic<bool> model_running{false};
  const JobId m = jg.add({"model", ExecClass::ModelTimed,
                          [&](const JobContext&) {
                            model_running.store(true);
                            std::this_thread::sleep_for(200ms);
                          }});
  const JobId gate = jg.add({"gate", ExecClass::ModelTimed,
                             [&](const JobContext&) {
                               while (!model_running.load()) {
                                 std::this_thread::sleep_for(1ms);
                               }
                             }});
  const JobId wall = jg.add({"wall", ExecClass::WallClock,
                             [](const JobContext&) {
                               std::this_thread::sleep_for(20ms);
                             }});
  jg.depend(wall, gate);

  const auto st = make_executor(2).run(jg);
  for (const JobStatus& s : st) EXPECT_EQ(s.state, JobState::Done);
  EXPECT_GE(st[wall].run_seconds, 0.02);
  EXPECT_LT(st[wall].run_seconds, 0.1);
  EXPECT_GE(st[wall].lane_wait_seconds, 0.15);
  EXPECT_GE(st[m].run_seconds, 0.2);
}

TEST(Executor, HangingJobTimesOutAndIsQuarantined) {
  JobGraph jg;
  auto saw_cancel = std::make_shared<std::atomic<bool>>(false);
  Job hang;
  hang.name = "hang";
  hang.exec_class = ExecClass::ModelTimed;
  hang.timeout_s = 0.15;
  hang.work = [saw_cancel](const JobContext& ctx) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (ctx.cancelled()) {
        saw_cancel->store(true);
        return;  // a well-behaved long job stops promptly when abandoned
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
  // The abandoned attempt observes its cancel token and stops.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!saw_cancel->load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(saw_cancel->load());
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
  JobGraph jg;
  Job broken;
  broken.name = "broken";
  broken.max_retries = 1;
  broken.retry_backoff_s = 0.01;
  broken.work = [](const JobContext&) {
    throw std::runtime_error("deterministic failure");
  };
  const JobId b = jg.add(std::move(broken));
  std::atomic<bool> dependent_ran{false};
  const JobId d = jg.add({"dependent", ExecClass::ModelTimed,
                          [&](const JobContext&) {
                            dependent_ran.store(true);
                          }});
  jg.depend(d, b);

  const auto st = make_executor().run(jg);
  EXPECT_EQ(st[b].state, JobState::Quarantined);
  EXPECT_EQ(st[b].failure, FailureKind::Exception);
  EXPECT_EQ(st[b].attempts, 2);
  EXPECT_NE(st[b].error.find("deterministic failure"), std::string::npos);
  EXPECT_EQ(st[d].state, JobState::Done);
  EXPECT_TRUE(dependent_ran.load());
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
  sw.workers = kPool;  // through the work-stealing pool
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

}  // namespace
}  // namespace indigo::sched
