// Tests for the Verifier, measure(), and the Registry plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "algorithms/serial/serial.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/generate.hpp"
#include "obs/counters.hpp"
#include "variants/register_all.hpp"

namespace indigo {
namespace {

TEST(Verifier, AcceptsSerialOutputs) {
  const Graph g = make_rmat(7);
  Verifier ver(g, 0);
  AlgoOutput out;
  out.labels = serial::bfs(g, 0);
  EXPECT_EQ(ver.check(Algorithm::BFS, out), "");
  out.labels = serial::sssp(g, 0);
  EXPECT_EQ(ver.check(Algorithm::SSSP, out), "");
  out.labels = serial::cc(g);
  EXPECT_EQ(ver.check(Algorithm::CC, out), "");
  const auto mis = serial::mis(g);
  out.labels.assign(mis.begin(), mis.end());
  EXPECT_EQ(ver.check(Algorithm::MIS, out), "");
  out.ranks = serial::pagerank(g);
  EXPECT_EQ(ver.check(Algorithm::PR, out), "");
  AlgoOutput tc_out;
  tc_out.count = serial::tc(g);
  EXPECT_EQ(ver.check(Algorithm::TC, tc_out), "");
}

TEST(Verifier, RejectsCorruptedOutputs) {
  const Graph g = make_rmat(7);
  Verifier ver(g, 0);
  AlgoOutput out;
  out.labels = serial::bfs(g, 0);
  out.labels[3] += 1;
  EXPECT_NE(ver.check(Algorithm::BFS, out), "");
  out.labels = serial::cc(g);
  out.labels.pop_back();
  EXPECT_NE(ver.check(Algorithm::CC, out), "");
  AlgoOutput tc_out;
  tc_out.count = serial::tc(g) + 1;
  EXPECT_NE(ver.check(Algorithm::TC, tc_out), "");
  out.ranks = serial::pagerank(g);
  out.ranks[0] += 0.5f;
  EXPECT_NE(ver.check(Algorithm::PR, out), "");
}

TEST(Verifier, RejectsNonMaximalMis) {
  const Graph g = make_rmat(7);
  Verifier ver(g, 0);
  AlgoOutput out;
  out.labels.assign(g.num_vertices(), 0);  // empty set: independent but
  EXPECT_NE(ver.check(Algorithm::MIS, out), "");  // not the greedy MIS
}

TEST(Measure, ProducesVerifiedThroughput) {
  variants::register_all_variants();
  const Graph g = make_grid2d(8);
  Verifier ver(g, 0);
  const Variant* v = nullptr;
  for (const Variant& cand : Registry::instance().all()) {
    if (cand.model == Model::OpenMP && cand.algo == Algorithm::BFS) {
      v = &cand;
      break;
    }
  }
  ASSERT_NE(v, nullptr);
  RunOptions opts;
  opts.num_threads = 2;
  const Measurement m = measure(*v, g, opts, 3, ver);
  EXPECT_TRUE(m.verified) << m.error;
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_GT(m.throughput_ges, 0.0);
  EXPECT_NEAR(m.throughput_ges,
              static_cast<double>(g.num_edges()) / m.seconds / 1e9, 1e-9);
  EXPECT_EQ(m.graph, g.name());
}

TEST(Measure, DedupModelRepsSimulatesOnce) {
  const Graph g = make_grid2d(4);
  Verifier ver(g, 0);
  Variant v;
  v.model = Model::Cuda;
  v.algo = Algorithm::CC;
  v.name = "fake-cc-dedup";
  auto calls = std::make_shared<int>(0);
  v.run = [calls](const Graph& gr, const RunOptions&) {
    ++*calls;
    RunResult r;
    r.output.labels = serial::cc(gr);
    r.seconds = 2.5;
    r.iterations = 1;
    return r;
  };
  const RunOptions opts;
  const Measurement m = measure(v, g, opts, 5, ver);
  EXPECT_TRUE(m.verified) << m.error;
  EXPECT_EQ(*calls, 1);  // one simulation, sample replicated
  EXPECT_DOUBLE_EQ(m.seconds, 2.5);
}

TEST(Measure, CudaDistributionsCoverOnlyTheirOwnLaunches) {
  variants::register_all_variants();
  const Variant* v =
      Registry::instance().select(Model::Cuda, Algorithm::BFS).front();
  const vcuda::DeviceSpec spec = vcuda::rtx3090_like();
  RunOptions opts;
  opts.device = &spec;
  const Graph large = make_rmat(11);
  const Graph small = make_grid2d(3);
  Verifier large_ver(large, 0), small_ver(small, 0);
  obs::set_enabled(true);
  const Measurement before = measure(*v, large, opts, 1, large_ver);
  const Measurement m = measure(*v, small, opts, 1, small_ver);
  obs::set_enabled(false);
  ASSERT_TRUE(before.verified && m.verified);
  int distributions = 0;
  for (const auto& [key, count] : m.metrics) {
    if (!key.ends_with(".count")) continue;
    ++distributions;
    const std::string stem = key.substr(0, key.size() - 6);
    const double sum = m.metrics.at(stem + ".sum");
    const double lo = m.metrics.at(stem + ".min");
    const double hi = m.metrics.at(stem + ".max");
    const double mean = sum / count;
    const double slack = 1e-12 * std::abs(sum);  // rounding of sum / count
    EXPECT_LE(lo, mean + slack) << stem;
    EXPECT_LE(mean, hi + slack) << stem;
    EXPECT_LE(hi, sum) << stem;
  }
  EXPECT_EQ(distributions, 3);
}

TEST(Verifier, PrToleranceScalesWithRankAndVertexCount) {
  // The PR bound is tol(v) = 2e-3*|expected| + 1e-2/n. At small n the
  // absolute term dominates; deviations inside it pass, beyond it fail.
  const Graph g = make_grid2d(2);  // 4 vertices
  const auto n = static_cast<double>(g.num_vertices());
  ASSERT_EQ(n, 4.0);
  Verifier ver(g, 0);
  const std::vector<float> exact = serial::pagerank(g);
  auto perturbed = [&](double factor) {
    AlgoOutput out;
    out.ranks = exact;
    const double tol = 2e-3 * std::abs(exact[0]) + 1e-2 / n;
    out.ranks[0] += static_cast<float>(factor * tol);
    return out;
  };
  EXPECT_EQ(ver.check(Algorithm::PR, perturbed(0.9)), "");
  EXPECT_NE(ver.check(Algorithm::PR, perturbed(1.5)), "");
}

TEST(Registry, SelectFiltersByModelAndAlgorithm) {
  variants::register_all_variants();
  const auto& reg = Registry::instance();
  const auto omp_all = reg.select(Model::OpenMP);
  const auto omp_tc = reg.select(Model::OpenMP, Algorithm::TC);
  EXPECT_GT(omp_all.size(), omp_tc.size());
  EXPECT_EQ(omp_tc.size(), 12u);
  for (const Variant* v : omp_tc) {
    EXPECT_EQ(v->model, Model::OpenMP);
    EXPECT_EQ(v->algo, Algorithm::TC);
  }
  const auto everything = reg.select();
  EXPECT_EQ(everything.size(), reg.size());
}

TEST(Registry, RejectsDuplicates) {
  Registry reg;  // fresh local registry
  Variant v;
  v.model = Model::OpenMP;
  v.algo = Algorithm::TC;
  v.name = "dup";
  v.run = [](const Graph&, const RunOptions&) { return RunResult{}; };
  reg.add(v);
  EXPECT_THROW(reg.add(v), std::logic_error);
}

}  // namespace
}  // namespace indigo
