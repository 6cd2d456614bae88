// The suite's core integration test: every registered program (all models,
// all algorithms, all style combinations) must produce the serial
// reference's answer on a set of small but structurally diverse graphs.
// This is the per-program self-verification the paper describes in
// Section 4.1, promoted to a gtest parameterized suite.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/validity.hpp"
#include "graph/generate.hpp"
#include "variants/register_all.hpp"
#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace indigo {
namespace {

struct TestInput {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<Verifier> verifier;
};

const std::vector<TestInput>& test_inputs() {
  static const auto* inputs = [] {
    auto* v = new std::vector<TestInput>();
    auto add = [&](Graph g) {
      // The verifier keeps a reference, so the graph needs a stable address.
      auto stable = std::make_unique<Graph>(std::move(g));
      auto ver = std::make_unique<Verifier>(*stable, 0);
      v->push_back(TestInput{std::move(stable), std::move(ver)});
    };
    add(make_grid2d(6));    // uniform degree, high diameter
    add(make_rmat(7));      // power law, low diameter, isolated vertices
    add(make_copaper(6));   // clique-rich (triangles), dense
    add(make_roadnet(6));   // sparse, high diameter
    return v;
  }();
  return *inputs;
}

std::vector<std::string> all_variant_names() {
  variants::register_all_variants();
  std::vector<std::string> names;
  for (const Variant& v : Registry::instance().all()) {
    names.push_back(v.name);
  }
  return names;
}

const Variant& variant_by_name(const std::string& name) {
  for (const Variant& v : Registry::instance().all()) {
    if (v.name == name) return v;
  }
  throw std::logic_error("unknown variant " + name);
}

class AllVariants : public testing::TestWithParam<std::string> {};

TEST_P(AllVariants, MatchesSerialReferenceOnAllInputs) {
  const Variant& v = variant_by_name(GetParam());
  RunOptions opts;
  opts.source = 0;
  opts.num_threads = 3;
  const vcuda::DeviceSpec spec = vcuda::rtx3090_like();
  if (v.model == Model::Cuda) opts.device = &spec;
  for (const TestInput& in : test_inputs()) {
    const RunResult r = v.run(*in.graph, opts);
    ASSERT_TRUE(r.converged) << v.name << " on " << in.graph->name();
    const std::string err = in.verifier->check(v.algo, r.output);
    EXPECT_EQ(err, "") << v.name << " on " << in.graph->name();
    if (v.model == Model::Cuda) {
      EXPECT_GT(r.seconds, 0.0) << "simulated time must advance";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, AllVariants,
                         testing::ValuesIn(all_variant_names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RegistryCensus, TotalsAreInThePapersBallpark) {
  variants::register_all_variants();
  const auto& reg = Registry::instance();
  // The paper's Table 3 reports 754 CUDA, 176 OpenMP, and 176 C++ programs
  // (1106 total). Our rule-generated suite must land in the same ballpark
  // and preserve the ordering CUDA >> OpenMP == C++ threads.
  std::size_t cuda = 0, omp = 0, cpp = 0;
  for (Algorithm a : kAllAlgorithms) {
    cuda += reg.count(Model::Cuda, a);
    omp += reg.count(Model::OpenMP, a);
    cpp += reg.count(Model::CppThreads, a);
  }
  EXPECT_EQ(omp, cpp);
  EXPECT_GT(cuda, 3 * omp);
  EXPECT_GE(cuda + omp + cpp, 900u);
  EXPECT_LE(cuda + omp + cpp, 1400u);
  // Exact matches our rules reproduce from Table 3.
  EXPECT_EQ(reg.count(Model::Cuda, Algorithm::PR), 54u);
  EXPECT_EQ(reg.count(Model::Cuda, Algorithm::TC), 72u);
  EXPECT_EQ(reg.count(Model::OpenMP, Algorithm::PR), 18u);
  EXPECT_EQ(reg.count(Model::OpenMP, Algorithm::TC), 12u);
}

// Both CPU models are one kernel family over two policies: per algorithm
// they register the same style sequence, differing only in the schedule
// dimension each model owns.
TEST(RegistryOrder, CpuModelsRegisterTheSameStyles) {
  variants::register_all_variants();
  std::map<Algorithm, std::vector<StyleConfig>> omp, cpp;
  for (const Variant& v : Registry::instance().all()) {
    if (v.model == Model::OpenMP) {
      omp[v.algo].push_back(with_dimension(v.style, Dimension::OmpSched, 0));
    } else if (v.model == Model::CppThreads) {
      cpp[v.algo].push_back(with_dimension(v.style, Dimension::CppSched, 0));
    }
  }
  for (Algorithm a : kAllAlgorithms) {
    EXPECT_FALSE(omp[a].empty()) << to_string(a);
    EXPECT_TRUE(omp[a] == cpp[a]) << to_string(a);
  }
}

// Registration order is selection, job and print order: every OpenMP
// program, then every C++ program, then every CUDA program.
TEST(RegistryOrder, ModelsAreContiguousOmpThenCppThenCuda) {
  variants::register_all_variants();
  std::vector<Model> runs;
  for (const Variant& v : Registry::instance().all()) {
    if (runs.empty() || runs.back() != v.model) runs.push_back(v.model);
  }
  EXPECT_EQ(runs, (std::vector<Model>{Model::OpenMP, Model::CppThreads,
                                      Model::Cuda}));
}

// A CPU cell polls its attempt's deadline once per iteration, so an
// expired deadline stops it before it converges.
TEST(CpuDeadline, ExpiredDeadlineStopsBfs) {
  variants::register_all_variants();
  const Graph& g = *test_inputs().front().graph;
  RunOptions opts;
  opts.num_threads = 2;
  const vcuda::DeadlineScope expired(std::chrono::steady_clock::now() -
                                     std::chrono::seconds(1));
  for (Model m : {Model::OpenMP, Model::CppThreads}) {
    const auto bfs = Registry::instance().select(m, Algorithm::BFS);
    ASSERT_FALSE(bfs.empty());
    EXPECT_THROW(bfs.front()->run(g, opts), vcuda::DeadlineError)
        << bfs.front()->name;
  }
}

}  // namespace
}  // namespace indigo
