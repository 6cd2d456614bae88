// Tests for the bench harness's ratio machinery on synthetic measurements
// (no real sweeps here; those live in the bench binaries), and for the
// shared command-line flags every bench binary parses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util/args.hpp"
#include "bench_util/harness.hpp"

namespace indigo::bench {
namespace {

Measurement fake(Model m, Algorithm a, StyleConfig c, std::string graph,
                 double thr, bool verified = true) {
  Measurement x;
  x.model = m;
  x.algo = a;
  x.style = c;
  x.program = program_name(m, a, c);
  x.graph = std::move(graph);
  x.throughput_ges = thr;
  x.verified = verified;
  return x;
}

TEST(PairwiseRatios, PairsOnlyConfigsDifferingInOneDimension) {
  StyleConfig push;  // defaults: vertex, topo, push, rmw, nondet, default
  StyleConfig pull = with_dimension(push, Dimension::Direction,
                                    static_cast<int>(Direction::Pull));
  StyleConfig push_edge = with_dimension(push, Dimension::Flow,
                                         static_cast<int>(Flow::Edge));
  std::vector<Measurement> ms;
  ms.push_back(fake(Model::OpenMP, Algorithm::SSSP, push, "g1", 4.0));
  ms.push_back(fake(Model::OpenMP, Algorithm::SSSP, pull, "g1", 2.0));
  ms.push_back(fake(Model::OpenMP, Algorithm::SSSP, push_edge, "g1", 100.0));
  // push_edge has no pull partner, so exactly one ratio: 4/2.
  const auto ratios =
      pairwise_ratios(ms, Algorithm::SSSP, Dimension::Direction,
                      static_cast<int>(Direction::Push),
                      static_cast<int>(Direction::Pull));
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_DOUBLE_EQ(ratios[0], 2.0);
}

TEST(PairwiseRatios, KeepsGraphsSeparate) {
  StyleConfig a;
  StyleConfig b = with_dimension(a, Dimension::Determinism,
                                 static_cast<int>(Determinism::Det));
  std::vector<Measurement> ms;
  ms.push_back(fake(Model::Cuda, Algorithm::BFS, a, "g1", 10.0));
  ms.push_back(fake(Model::Cuda, Algorithm::BFS, b, "g1", 5.0));
  ms.push_back(fake(Model::Cuda, Algorithm::BFS, a, "g2", 7.0));
  ms.push_back(fake(Model::Cuda, Algorithm::BFS, b, "g2", 70.0));
  const auto ratios = pairwise_ratios(
      ms, Algorithm::BFS, Dimension::Determinism,
      static_cast<int>(Determinism::NonDet),
      static_cast<int>(Determinism::Det));
  ASSERT_EQ(ratios.size(), 2u);
  // g1: 10/5 = 2; g2: 7/70 = 0.1 (order by map key is stable but we just
  // check the multiset).
  const double lo = std::min(ratios[0], ratios[1]);
  const double hi = std::max(ratios[0], ratios[1]);
  EXPECT_DOUBLE_EQ(lo, 0.1);
  EXPECT_DOUBLE_EQ(hi, 2.0);
}

TEST(PairwiseRatios, DropsUnverifiedMeasurements) {
  StyleConfig a;
  StyleConfig b = with_dimension(a, Dimension::Direction,
                                 static_cast<int>(Direction::Pull));
  std::vector<Measurement> ms;
  ms.push_back(fake(Model::Cuda, Algorithm::CC, a, "g", 10.0, false));
  ms.push_back(fake(Model::Cuda, Algorithm::CC, b, "g", 5.0));
  EXPECT_TRUE(pairwise_ratios(ms, Algorithm::CC, Dimension::Direction, 0, 1)
                  .empty());
}

TEST(PairwiseRatios, ThreeWayDimensionsPairEachValue) {
  StyleConfig gl;
  gl.cred = CpuReduction::Atomic;
  StyleConfig cr = with_dimension(gl, Dimension::CpuReduction,
                                  static_cast<int>(CpuReduction::Critical));
  StyleConfig cl = with_dimension(gl, Dimension::CpuReduction,
                                  static_cast<int>(CpuReduction::Clause));
  std::vector<Measurement> ms;
  ms.push_back(fake(Model::OpenMP, Algorithm::TC, gl, "g", 6.0));
  ms.push_back(fake(Model::OpenMP, Algorithm::TC, cr, "g", 2.0));
  ms.push_back(fake(Model::OpenMP, Algorithm::TC, cl, "g", 12.0));
  const auto atomic_over_critical = pairwise_ratios(
      ms, Algorithm::TC, Dimension::CpuReduction,
      static_cast<int>(CpuReduction::Atomic),
      static_cast<int>(CpuReduction::Critical));
  ASSERT_EQ(atomic_over_critical.size(), 1u);
  EXPECT_DOUBLE_EQ(atomic_over_critical[0], 3.0);
  const auto clause_over_atomic = pairwise_ratios(
      ms, Algorithm::TC, Dimension::CpuReduction,
      static_cast<int>(CpuReduction::Clause),
      static_cast<int>(CpuReduction::Atomic));
  ASSERT_EQ(clause_over_atomic.size(), 1u);
  EXPECT_DOUBLE_EQ(clause_over_atomic[0], 2.0);
}

TEST(RatioSamples, GroupsByAlgorithm) {
  StyleConfig a;
  StyleConfig b = with_dimension(a, Dimension::Direction,
                                 static_cast<int>(Direction::Pull));
  std::vector<Measurement> ms;
  ms.push_back(fake(Model::Cuda, Algorithm::BFS, a, "g", 8.0));
  ms.push_back(fake(Model::Cuda, Algorithm::BFS, b, "g", 4.0));
  ms.push_back(fake(Model::Cuda, Algorithm::SSSP, a, "g", 3.0));
  ms.push_back(fake(Model::Cuda, Algorithm::SSSP, b, "g", 6.0));
  const Algorithm algos[] = {Algorithm::BFS, Algorithm::SSSP};
  const auto samples =
      ratio_samples_by_algorithm(ms, algos, Dimension::Direction, 0, 1);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].label, "bfs");
  ASSERT_EQ(samples[0].values.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].values[0], 2.0);
  ASSERT_EQ(samples[1].values.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[1].values[0], 0.5);
}

/// argv-shaped view of `args` (argv[0] = "prog").
struct Argv {
  explicit Argv(std::vector<std::string> args) : strs(std::move(args)) {
    strs.insert(strs.begin(), "prog");
    for (std::string& s : strs) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strs;
  std::vector<char*> ptrs;
};

TEST(ParseBenchArgs, ReadsSharedFlagsAndHandsBackTheRest) {
  Argv a({"--smoke", "--model=omp", "--algo=tc", "--reps=3", "--workers=2",
          "--frobnicate"});
  std::vector<std::string> rest;
  const auto args = parse_bench_args(a.argc(), a.argv(), rest);
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->model, Model::OpenMP);
  EXPECT_EQ(args->algo, Algorithm::TC);
  EXPECT_EQ(args->reps, 3);
  EXPECT_EQ(args->workers, 2);
  EXPECT_EQ(rest, (std::vector<std::string>{"--smoke", "--frobnicate"}));
}

TEST(ParseBenchArgs, RejectsMalformedValues) {
  for (const char* bad :
       {"--workers=abc", "--workers=4x", "--workers=-1", "--workers=0",
        "--workers=",
        "--workers", "--workers=99999999999", "--reps=0", "--reps=1.5",
        "--reps=+2", "--model=gpu", "--algo="}) {
    Argv a({bad});
    std::vector<std::string> rest;
    EXPECT_FALSE(parse_bench_args(a.argc(), a.argv(), rest).has_value())
        << bad;
  }
}

}  // namespace
}  // namespace indigo::bench
