// Tests for the race/determinism checker: vcuda shadow state, the benign-
// race taxonomy, the CPU discipline hooks, and the runner/metrics plumbing.
// Kept OpenMP-free so the TSan CI job can run it (libgomp is not
// TSan-instrumented).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "algorithms/serial/serial.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/generate.hpp"
#include "obs/counters.hpp"
#include "racecheck/racecheck.hpp"
#include "racecheck/selftest.hpp"
#include "threading/thread_team.hpp"
#include "variants/register_all.hpp"
#include "vcuda/sim.hpp"

namespace indigo {
namespace {

using racecheck::Report;

Report run_kernel(const std::function<void(vcuda::Device&)>& body) {
  racecheck::ScopedEnable on(true);
  vcuda::Device dev(vcuda::rtx3090_like());
  body(dev);
  return dev.racecheck_report();
}

TEST(Racecheck, DisabledByDefaultAllocatesNoChecker) {
  ASSERT_FALSE(racecheck::enabled());
  vcuda::Device dev(vcuda::rtx3090_like());
  EXPECT_EQ(dev.racecheck_checker(), nullptr);
  const Report r = dev.racecheck_report();
  EXPECT_EQ(r.total_conflicts(), 0u);
}

TEST(Racecheck, SyncedControlKernelIsClean) {
  const Report r =
      racecheck::selftest::synced_control_report(vcuda::rtx3090_like());
  EXPECT_EQ(r.total_conflicts(), 0u) << "control kernel must not race";
  EXPECT_EQ(r.discipline_violations, 0u);
}

TEST(Racecheck, InjectedRaceKernelIsDetectedAsHarmful) {
  const Report r =
      racecheck::selftest::injected_race_report(vcuda::rtx3090_like());
  EXPECT_GT(r.conflicts_harmful, 0u);
  ASSERT_FALSE(r.notes.empty());
  EXPECT_NE(r.notes.front().find("harmful race"), std::string::npos);
}

TEST(Racecheck, UnsyncedReadAfterWriteWithinBlockIsFlagged) {
  // Same block, no __syncthreads between the write and the other threads'
  // reads: every cross-thread read-after-write conflicts. The value only
  // moves 0 -> 7 once, so the taxonomy calls it monotonic/same-value, but
  // it must be *seen*.
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(1, 0);
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(1, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        if (t.thread_idx() == 0) arr.st(t, 0, 7u);
        (void)arr.ld(t, 0);
      });
    });
  });
  EXPECT_GT(r.total_conflicts(), 0u);
  EXPECT_EQ(r.conflicts_harmful, 0u);
}

TEST(Racecheck, SyncthreadsOrdersAccessesWithinABlock) {
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(1, 0);
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(1, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        if (t.thread_idx() == 0) arr.st(t, 0, 7u);
      });
      blk.sync();
      blk.for_each_thread([&](vcuda::Thread& t) { (void)arr.ld(t, 0); });
    });
  });
  EXPECT_EQ(r.total_conflicts(), 0u);
}

TEST(Racecheck, KernelBoundaryOrdersAccessesAcrossLaunches) {
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(64, 0);
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(2, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread(
          [&](vcuda::Thread& t) { arr.st(t, t.gidx(), t.gidx()); });
    });
    // Different launch, different thread-to-element mapping: reads of the
    // previous kernel's writes are ordered by the kernel boundary.
    dev.launch(2, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread(
          [&](vcuda::Thread& t) { (void)arr.ld(t, 63 - t.gidx()); });
    });
  });
  EXPECT_EQ(r.total_conflicts(), 0u);
}

TEST(Racecheck, AtomicRmwConflictsAreBenign) {
  // Cross-block fetch_min hammering one cell: the non-deterministic RMW
  // style (paper Listing 5b). Conflicts, all benign-atomic.
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(1, 1000000);
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(4, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread(
          [&](vcuda::Thread& t) { arr.fetch_min(t, 0, 1000 - t.gidx()); });
    });
  });
  EXPECT_GT(r.conflicts_atomic, 0u);
  EXPECT_EQ(r.conflicts_harmful, 0u);
}

TEST(Racecheck, SameValueStoresAreBenign) {
  // Every thread raising the shared `changed` flag to 1: only the first
  // store changes the value; the rest are same-value races.
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(1, 0);
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(4, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) { arr.st(t, 0, 1u); });
    });
  });
  EXPECT_GT(r.conflicts_same_value, 0u);
  EXPECT_EQ(r.conflicts_harmful, 0u);
}

TEST(Racecheck, MonotonicPlainRacesAreBenign) {
  // The read-write style (paper Listing 5a): plain read, plain lowering
  // store. Races, but every racing write moves the value down.
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(1, 1u << 20);
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(4, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        const std::uint32_t cur = arr.ld(t, 0);
        arr.st(t, 0, cur - 1);
      });
    });
  });
  EXPECT_GT(r.conflicts_monotonic, 0u);
  EXPECT_EQ(r.conflicts_harmful, 0u);
}

TEST(Racecheck, DirectionReversalEscalatesToHarmful) {
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(1, 500);
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(4, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        // Alternating lower/raise from unsynchronized threads.
        arr.st(t, 0, t.gidx() % 2 == 0 ? 1u : 1000u);
      });
    });
  });
  EXPECT_GT(r.conflicts_harmful, 0u);
}

TEST(Racecheck, DeclaredRangesDowngradeToBenign) {
  const Report r = run_kernel([](vcuda::Device& dev) {
    std::vector<std::uint32_t> host(1, 500);
    dev.declare_racy(host.data(), host.size() * sizeof(std::uint32_t));
    auto arr = dev.array(std::span<std::uint32_t>(host));
    dev.launch(4, 32, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        arr.st(t, 0, t.gidx() % 2 == 0 ? 1u : 1000u);
      });
    });
  });
  EXPECT_GT(r.conflicts_declared, 0u);
  EXPECT_EQ(r.conflicts_harmful, 0u);
}

// ---------------------------------------------------------------------------
// Runner plumbing.

Variant fake_cuda_variant(const std::function<void(const Graph&)>& body) {
  Variant v;
  v.model = Model::Cuda;
  v.algo = Algorithm::CC;
  v.name = "fake-cc-racecheck";
  v.run = [body](const Graph& g, const RunOptions&) {
    body(g);
    RunResult r;
    r.output.labels = serial::cc(g);
    r.seconds = 1e-3;
    r.iterations = 1;
    return r;
  };
  return v;
}

TEST(Racecheck, MeasureReportsRacecheckMetrics) {
  const Graph g = make_grid2d(4);
  Verifier ver(g, 0);
  const Variant v = fake_cuda_variant([](const Graph&) {
    (void)racecheck::selftest::injected_race_report(vcuda::rtx3090_like());
  });
  const RunOptions opts;
  {
    racecheck::ScopedEnable on(true);
    const Measurement m = measure(v, g, opts, 1, ver);
    EXPECT_TRUE(m.verified) << m.error;
    ASSERT_TRUE(m.metrics.contains("racecheck.conflicts_harmful"));
    EXPECT_GT(m.metrics.at("racecheck.conflicts_harmful"), 0.0);
  }

  const Measurement m2 = measure(v, g, opts, 1, ver);
  EXPECT_FALSE(m2.metrics.contains("racecheck.conflicts_harmful"));
}

TEST(Racecheck, ConcurrentCudaMeasurementsReadOnlyTheirOwnDevices) {
  variants::register_all_variants();
  const Graph g = make_rmat(7);
  Verifier ver(g, 0);
  const vcuda::DeviceSpec spec = vcuda::rtx3090_like();
  RunOptions opts;
  opts.device = &spec;
  const Variant* a =
      Registry::instance().select(Model::Cuda, Algorithm::SSSP).front();
  const Variant* b =
      Registry::instance().select(Model::Cuda, Algorithm::PR).front();

  obs::set_enabled(true);
  racecheck::ScopedEnable on(true);
  const Measurement alone_a = measure(*a, g, opts, 1, ver);
  const Measurement alone_b = measure(*b, g, opts, 1, ver);
  std::vector<Measurement> together_a(3), together_b(3);
  std::atomic<int> ready{0};
  auto measure_all = [&](const Variant* v, std::vector<Measurement>& out) {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    for (Measurement& m : out) m = measure(*v, g, opts, 1, ver);
  };
  std::thread ta(measure_all, a, std::ref(together_a));
  std::thread tb(measure_all, b, std::ref(together_b));
  ta.join();
  tb.join();
  obs::set_enabled(false);

  ASSERT_TRUE(alone_a.verified && alone_b.verified);
  EXPECT_GT(alone_a.metrics.at("vcuda.launches"), 0.0);
  EXPECT_TRUE(alone_b.metrics.contains("racecheck.conflicts_harmful"));
  EXPECT_NE(alone_a.metrics, alone_b.metrics);
  for (const Measurement& m : together_a) EXPECT_EQ(m.metrics, alone_a.metrics);
  for (const Measurement& m : together_b) EXPECT_EQ(m.metrics, alone_b.metrics);
}

// ---------------------------------------------------------------------------
// CPU discipline hooks.

TEST(Racecheck, NestedThreadTeamRunIsAViolation) {
  racecheck::ScopedEnable on(true);
  const Report before = racecheck::global_report();
  ThreadTeam outer(2);
  std::atomic<int> ran{0};
  outer.run([&](int tid, int) {
    if (tid == 0) {
      ThreadTeam inner(2);  // fork/join inside a region: flagged
      inner.run([&](int, int) { ran.fetch_add(1); });
    }
  });
  const Report after = racecheck::global_report();
  EXPECT_GE(after.discipline_violations, before.discipline_violations + 1);
  EXPECT_EQ(ran.load(), 2);
}

TEST(Racecheck, DisciplinedThreadTeamIsClean) {
  racecheck::ScopedEnable on(true);
  const Report before = racecheck::global_report();
  std::vector<std::atomic<int>> hits(64);
  ThreadTeam team(4);
  for (int iter = 0; iter < 3; ++iter) {
    // Back-to-back regions forked from the host thread: fine.
    team.run([&](int tid, int nthreads) {
      for (int v = tid; v < 64; v += nthreads) hits[v].fetch_add(1);
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
  const Report after = racecheck::global_report();
  EXPECT_EQ(after.discipline_violations, before.discipline_violations);
}

// ---------------------------------------------------------------------------
// Concurrent verifier (satellite): many threads, mixed algorithms, lazily
// built references. Under TSan this doubles as a data-race check on the
// Verifier's lazy initialization.

TEST(Verifier, ConcurrentMixedAlgorithmChecksAreSafe) {
  const Graph g = make_rmat(7);
  Verifier ver(g, 0);
  AlgoOutput bfs, sssp, cc, mis, pr, tc;
  bfs.labels = serial::bfs(g, 0);
  sssp.labels = serial::sssp(g, 0);
  cc.labels = serial::cc(g);
  const auto mis_ref = serial::mis(g);
  mis.labels.assign(mis_ref.begin(), mis_ref.end());
  pr.ranks = serial::pagerank(g);
  tc.count = serial::tc(g);

  std::atomic<int> failures{0};
  ThreadTeam team(8);
  team.run([&](int tid, int) {
    for (int i = 0; i < 12; ++i) {
      std::string err;
      switch ((tid + i) % 6) {
        case 0: err = ver.check(Algorithm::BFS, bfs); break;
        case 1: err = ver.check(Algorithm::SSSP, sssp); break;
        case 2: err = ver.check(Algorithm::CC, cc); break;
        case 3: err = ver.check(Algorithm::MIS, mis); break;
        case 4: err = ver.check(Algorithm::PR, pr); break;
        default: err = ver.check(Algorithm::TC, tc); break;
      }
      if (!err.empty()) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace indigo
