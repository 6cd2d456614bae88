// End-to-end tests of the bench Harness: sweeps produce verified
// measurements, and the measurement cache round-trips across instances.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_util/harness.hpp"
#include "obs/counters.hpp"

namespace indigo::bench {
namespace {

class HarnessCacheTest : public testing::Test {
 protected:
  void SetUp() override {
    // Tiny inputs and a private cache file for this test.
    setenv("REPRO_SCALE", "0", 1);
    cache_path_ = std::string("harness_cache_test_") +
                  std::to_string(::getpid()) + ".csv";
    setenv("REPRO_CACHE", cache_path_.c_str(), 1);
  }
  void TearDown() override {
    std::remove(cache_path_.c_str());
    unsetenv("REPRO_CACHE");
    unsetenv("REPRO_SCALE");
  }
  std::string cache_path_;
};

TEST_F(HarnessCacheTest, SweepVerifiesAndCachesAcrossInstances) {
  SweepOptions sw;
  sw.model = Model::OpenMP;
  sw.algo = Algorithm::TC;

  double first_throughput = 0;
  {
    Harness h;
    ASSERT_EQ(h.graphs().size(), 5u);
    const auto ms = h.sweep(sw);
    ASSERT_EQ(ms.size(), 12u * 5u);  // 12 OpenMP TC programs x 5 inputs
    for (const Measurement& m : ms) {
      EXPECT_TRUE(m.verified) << m.program << " on " << m.graph << ": "
                              << m.error;
      EXPECT_GT(m.throughput_ges, 0.0);
    }
    first_throughput = ms.front().throughput_ges;
  }
  {
    // A fresh Harness must serve the identical numbers from the cache.
    Harness h;
    const auto ms = h.sweep(sw);
    ASSERT_FALSE(ms.empty());
    EXPECT_DOUBLE_EQ(ms.front().throughput_ges, first_throughput);
  }
}

TEST_F(HarnessCacheTest, KeyTagsTheParsedScaleLevel) {
  {
    // SetUp selects level 0: every journal key's fifth field is "0".
    Harness h;
    const Variant* v =
        Registry::instance().select(Model::Cuda, Algorithm::TC).front();
    (void)h.measure_one(*v, h.graphs().front(), nullptr, 1);
  }
  std::ifstream journal(cache_path_);
  std::string line;
  int keys = 0;
  while (std::getline(journal, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream key(line.substr(0, line.find('\t')));
    std::string field;
    for (int i = 0; i < 5; ++i) std::getline(key, field, '|');
    EXPECT_EQ(field, "0") << line;
    ++keys;
  }
  EXPECT_EQ(keys, 1);
  // A value outside 0|1|2 is rejected before any graph is generated.
  setenv("REPRO_SCALE", "0.5", 1);
  EXPECT_THROW(Harness h, std::invalid_argument);
}

TEST_F(HarnessCacheTest, StyleFilterNarrowsTheSweep) {
  Harness h;
  SweepOptions sw;
  sw.model = Model::OpenMP;
  sw.algo = Algorithm::TC;
  sw.style_filter = [](const Variant& v) {
    return v.style.cred == CpuReduction::Clause;
  };
  const auto ms = h.sweep(sw);
  EXPECT_EQ(ms.size(), 4u * 5u);  // flow(2) x sched(2) x 5 inputs
  for (const Measurement& m : ms) {
    EXPECT_EQ(m.style.cred, CpuReduction::Clause);
  }
}

TEST_F(HarnessCacheTest, MalformedCacheLinesAreSkippedWithWarning) {
  SweepOptions sw;
  sw.model = Model::OpenMP;
  sw.algo = Algorithm::TC;
  sw.style_filter = [](const Variant& v) {
    return v.style.cred == CpuReduction::Clause;
  };
  double first_throughput = 0;
  {
    Harness h;
    first_throughput = h.sweep(sw).front().throughput_ges;
  }
  {
    // Corrupt the cache the ways it breaks in practice: a crash mid-append
    // (truncated final line), hand edits, and field garbage.
    std::ofstream out(cache_path_, std::ios::app);
    out << "short-key\t1.5\n";                       // missing fields
    out << "\t1 2 3 1\n";                            // empty key
    out << "bad-nums\tx\ty\tz\tw\n";                 // non-numeric
    out << "bad-secs\t-1\t0\t0\t1\n";                // negative seconds
    out << "bad-flag\t1\t1\t1\t7\n";                 // verified not 0/1
    out << "bad-metrics\t1\t1\t1\t1\tnot;a=map=x\n"; // broken metrics field
    out << "cut\t0.5";                               // truncated, no newline
  }
  // Reload: the valid entries must still be served byte-identically and
  // the garbage skipped without aborting the run.
  testing::internal::CaptureStderr();
  Harness h;
  const auto ms = h.sweep(sw);
  const std::string warnings = testing::internal::GetCapturedStderr();
  ASSERT_FALSE(ms.empty());
  EXPECT_DOUBLE_EQ(ms.front().throughput_ges, first_throughput);
  EXPECT_NE(warnings.find("malformed"), std::string::npos);
}

TEST_F(HarnessCacheTest, MetricsRoundTripThroughTheCache) {
  obs::set_enabled(true);
  const Variant* v =
      Registry::instance().select(Model::Cuda, Algorithm::TC).front();
  Measurement fresh, cached;
  {
    Harness h;
    fresh = h.measure_one(*v, h.graphs().front(), nullptr, 1);
  }
  {
    Harness h;
    cached = h.measure_one(*v, h.graphs().front(), nullptr, 1);
  }
  obs::set_enabled(false);
  ASSERT_TRUE(fresh.verified) << fresh.error;
  ASSERT_FALSE(fresh.metrics.empty());
  EXPECT_GE(fresh.metrics.at("vcuda.launches"), 1.0);
  // The cache stores metrics at full precision, so the round trip is exact.
  EXPECT_EQ(cached.metrics, fresh.metrics);
  EXPECT_DOUBLE_EQ(cached.seconds, fresh.seconds);
}

TEST_F(HarnessCacheTest, BaseRunOptionsCarryDeviceAndThreads) {
  Harness h;
  const vcuda::DeviceSpec spec = vcuda::titanv_like();
  const RunOptions opts = h.base_run_options(&spec);
  EXPECT_EQ(opts.device, &spec);
  EXPECT_GE(opts.num_threads, 2);
  EXPECT_EQ(opts.source, 0u);
}

}  // namespace
}  // namespace indigo::bench
