// Tests for the C++-threads substrate: team fork/join, schedules, atomics,
// and the concurrent worklist.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "threading/atomics.hpp"
#include "threading/schedule.hpp"
#include "threading/thread_team.hpp"

namespace indigo {
namespace {

TEST(ThreadTeam, RunsEveryWorkerExactlyOnce) {
  ThreadTeam team(4);
  std::vector<int> hits(4, 0);
  team.run([&](int tid, int n) {
    EXPECT_EQ(n, 4);
    ++hits[static_cast<std::size_t>(tid)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadTeam, ReusableAcrossManyRegions) {
  ThreadTeam team(3);
  std::atomic<int> total{0};
  for (int i = 0; i < 100; ++i) {
    team.run([&](int, int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 300);
}

TEST(ThreadTeam, PropagatesWorkerExceptions) {
  ThreadTeam team(2);
  EXPECT_THROW(team.run([&](int tid, int) {
    if (tid == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
  // Team still usable afterwards.
  std::atomic<int> n{0};
  team.run([&](int, int) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 2);
}

TEST(Schedule, BlockedRangesPartitionExactly) {
  const std::uint64_t n = 1007;
  std::uint64_t covered = 0;
  std::uint64_t prev_end = 0;
  for (int t = 0; t < 7; ++t) {
    const auto [beg, end] = blocked_range(t, 7, n);
    EXPECT_EQ(beg, prev_end);  // contiguous
    covered += end - beg;
    prev_end = end;
  }
  EXPECT_EQ(prev_end, n);
  EXPECT_EQ(covered, n);
}

template <CppSched S>
std::vector<int> run_schedule(int nthreads, std::uint64_t n) {
  std::vector<int> owner(n, -1);
  for (int t = 0; t < nthreads; ++t) {
    scheduled_loop<S>(t, nthreads, n, [&](std::uint64_t i) {
      EXPECT_EQ(owner[i], -1) << "iteration executed twice";
      owner[i] = t;
    });
  }
  return owner;
}

TEST(Schedule, BlockedAndCyclicCoverAllIterationsOnce) {
  for (std::uint64_t n : {0ull, 1ull, 5ull, 64ull, 1001ull}) {
    auto blocked = run_schedule<CppSched::Blocked>(4, n);
    auto cyclic = run_schedule<CppSched::Cyclic>(4, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_NE(blocked[i], -1);
      EXPECT_NE(cyclic[i], -1);
    }
  }
}

TEST(Schedule, CyclicIsRoundRobin) {
  const auto owner = run_schedule<CppSched::Cyclic>(3, 9);
  for (std::uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(owner[i], static_cast<int>(i % 3));
  }
}

TEST(Atomics, FetchMinMaxSemantics) {
  std::uint32_t x = 10;
  EXPECT_EQ(atomic_fetch_min(x, 7u), 10u);
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(atomic_fetch_min(x, 9u), 7u);  // no change
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(atomic_fetch_max(x, 9u), 7u);
  EXPECT_EQ(x, 9u);
}

TEST(Atomics, ConcurrentMinConvergesToGlobalMin) {
  ThreadTeam team(4);
  std::uint32_t x = 0xffffffffu;
  team.run([&](int tid, int nthreads) {
    for (std::uint32_t i = 0; i < 10000; ++i) {
      if (i % static_cast<std::uint32_t>(nthreads) ==
          static_cast<std::uint32_t>(tid)) {
        atomic_fetch_min(x, i * 3 + static_cast<std::uint32_t>(tid));
      }
    }
  });
  EXPECT_EQ(x, 0u);  // thread 0, i=0
}

TEST(Atomics, FloatAddAccumulatesUnderContention) {
  ThreadTeam team(4);
  float sum = 0.0f;
  team.run([&](int, int) {
    for (int i = 0; i < 1000; ++i) atomic_add_float(sum, 1.0f);
  });
  EXPECT_FLOAT_EQ(sum, 4000.0f);
}

TEST(CpuThreads, RespectsEnvironmentOverride) {
  // cpu_threads() must be at least 2 so every style is really parallel.
  EXPECT_GE(cpu_threads(), 2);
}

}  // namespace
}  // namespace indigo
