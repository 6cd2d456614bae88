// Tests for the telemetry plane: log2-bucket percentiles through the
// registry snapshot/delta, flight-recorder ring semantics (wraparound keeps
// the newest events, concurrent writers, Chrome-trace-compatible dumps),
// the telemetry snapshot publisher, the Prometheus exposition, and the
// trace reader round-trip of a multi-threaded export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

namespace indigo::obs {
namespace {

/// Validates an arbitrary JSON document (the snapshot is not a trace, so
/// read_trace_text does not apply) by wrapping it as a trace meta-less
/// object would be wrong; instead lean on the real parser via a fake trace.
bool valid_json(const std::string& body) {
  // Any valid JSON value `v` makes {"traceEvents":[],"x":v} a readable
  // trace iff v parses; a malformed v fails the whole document.
  std::string err;
  return read_trace_text("{\"traceEvents\":[],\"probe\":" + body + "}", &err)
      .has_value();
}

class TelemetryTest : public testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_trace_collecting(false);
    clear_trace_events();
    CounterRegistry::instance().reset_all();
    flight_set_ring_capacity(1024);
    set_flight_enabled(true);
    flight_clear();
  }
  void TearDown() override {
    telemetry_stop();
    set_flight_enabled(false);
    flight_set_ring_capacity(1024);
    flight_clear();
    set_enabled(false);
    set_trace_collecting(false);
    clear_trace_events();
    CounterRegistry::instance().reset_all();
  }
};

TEST_F(TelemetryTest, PercentilesTrackKnownDistributionWithinBucketError) {
  set_enabled(true);
  Distribution& d = CounterRegistry::instance().distribution("test.pct");
  for (int i = 1; i <= 1000; ++i) d.record(i);
  const Distribution::Stats s = d.stats();
  // Log2 buckets are accurate to a factor of sqrt(2) of the true rank
  // value, plus the clamp to [min, max].
  const double kErr = 1.4143;
  const double p50 = s.percentile(0.5);
  const double p99 = s.percentile(0.99);
  EXPECT_GE(p50, 500.0 / kErr);
  EXPECT_LE(p50, 500.0 * kErr);
  EXPECT_GE(p99, 990.0 / kErr);
  EXPECT_LE(p99, s.max);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), s.min);  // clamped at the bottom
}

TEST_F(TelemetryTest, PercentileOfConstantDistributionIsExact) {
  set_enabled(true);
  Distribution& d = CounterRegistry::instance().distribution("test.const");
  for (int i = 0; i < 100; ++i) d.record(7.0);
  const Distribution::Stats s = d.stats();
  // All mass in one bucket; the [min, max] clamp pins every quantile to
  // the exact recorded value.
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 7.0);
}

TEST_F(TelemetryTest, SnapshotExposesPercentileFacetsAndDeltaPassesThrough) {
  set_enabled(true);
  CounterRegistry& reg = CounterRegistry::instance();
  Distribution& d = reg.distribution("test.snapdist");
  d.record(10.0);
  const auto before = reg.snapshot();
  ASSERT_EQ(before.count("test.snapdist.p50"), 1u);
  ASSERT_EQ(before.count("test.snapdist.p95"), 1u);
  ASSERT_EQ(before.count("test.snapdist.p99"), 1u);
  for (int i = 0; i < 50; ++i) d.record(1000.0);
  const auto after = reg.snapshot();
  const auto delta = CounterRegistry::delta(before, after);
  // Percentiles are not subtractable; like min/max they pass through as
  // the after-value once the count moved.
  ASSERT_EQ(delta.count("test.snapdist.p50"), 1u);
  EXPECT_DOUBLE_EQ(delta.at("test.snapdist.p50"), after.at("test.snapdist.p50"));
  EXPECT_GT(delta.at("test.snapdist.p50"), 100.0);
}

TEST_F(TelemetryTest, RingWraparoundKeepsNewestEventsAndDumpStaysValid) {
  constexpr std::size_t kCap = 8;
  constexpr int kTotal = 100;
  flight_set_ring_capacity(kCap);
  // Capacity only applies to rings created afterwards, so record from a
  // fresh thread; joining it makes the dump race-free.
  std::uint32_t writer_tid = 0;
  std::thread writer([&writer_tid] {
    writer_tid = detail::thread_slot();
    for (int i = 0; i < kTotal; ++i) {
      flight_note("wrap", "test", "evt" + std::to_string(i));
    }
  });
  writer.join();
  EXPECT_GE(flight_overwritten(), static_cast<std::uint64_t>(kTotal - kCap));
  ASSERT_TRUE(flight_dump("wraparound-test"));

  std::string err;
  const auto trace = read_trace_file(flight_dump_path(), &err);
  ASSERT_TRUE(trace.has_value()) << err;
  std::vector<int> kept;
  for (const ReadEvent& ev : trace->events) {
    if (ev.tid != writer_tid || ev.name != "wrap") continue;
    kept.push_back(std::atoi(ev.str_args.at("detail").c_str() + 3));
  }
  // Exactly the ring capacity survived, and they are the newest kTotal-kCap
  // .. kTotal-1 (order within the dump is ring order, not sorted).
  ASSERT_EQ(kept.size(), kCap);
  for (const int i : kept) EXPECT_GE(i, kTotal - static_cast<int>(kCap));
  EXPECT_EQ(trace->meta.at("reason"), "wraparound-test");
  EXPECT_EQ(trace->meta.at("pid"), std::to_string(::getpid()));
  EXPECT_FALSE(trace->meta.at("trace_id").empty());
  std::remove(flight_dump_path().c_str());
}

TEST_F(TelemetryTest, ConcurrentWritersProduceAValidDumpWithAllTids) {
  constexpr int kThreads = 4;
  constexpr int kEach = 3000;  // > default capacity: wraps while running
  std::vector<std::thread> writers;
  std::set<std::uint32_t> tids;
  std::mutex mu;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&mu, &tids] {
      {
        std::lock_guard lk(mu);
        tids.insert(detail::thread_slot());
      }
      for (int i = 0; i < kEach; ++i) {
        flight_record_span("burst", "test", i, 0.5, "payload");
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_TRUE(flight_dump("concurrency-test"));
  std::string err;
  const auto trace = read_trace_file(flight_dump_path(), &err);
  ASSERT_TRUE(trace.has_value()) << err;
  std::set<std::uint32_t> seen;
  std::size_t burst = 0;
  for (const ReadEvent& ev : trace->events) {
    if (ev.name != "burst") continue;
    ++burst;
    seen.insert(ev.tid);
    EXPECT_EQ(ev.ph, "X");
    EXPECT_EQ(ev.cat, "test");
  }
  // Every writer's newest window survived in full.
  EXPECT_EQ(burst, static_cast<std::size_t>(kThreads) * 1024);
  for (const std::uint32_t t : tids) EXPECT_TRUE(seen.count(t) == 1);
  std::remove(flight_dump_path().c_str());
}

TEST_F(TelemetryTest, SpanEndFeedsTheFlightRingWhenTracingIsOff) {
  ASSERT_FALSE(trace_enabled());
  const std::size_t before = flight_event_count();
  {
    Span s("flight_only", "test");
    ASSERT_TRUE(s.active());  // live for the recorder despite tracing off
    s.arg("detail", std::string("ride-along"));
  }
  EXPECT_EQ(flight_event_count(), before + 1);
  EXPECT_TRUE(trace_events().empty());  // nothing reached the trace buffer
}

TEST_F(TelemetryTest, TelemetrySnapshotIsValidJsonAndCarriesSections) {
  set_enabled(true);
  CounterRegistry::instance().counter("test.snapc").add(11);
  telemetry_register_section("unit_test", [] { return "{\"x\":1}"; });
  const std::string snap = telemetry_json();
  telemetry_unregister_section("unit_test");
  EXPECT_TRUE(valid_json(snap)) << snap;
  EXPECT_NE(snap.find("\"schema\":\"indigo-telemetry v1\""), std::string::npos);
  EXPECT_NE(snap.find("\"unit_test\":{\"x\":1}"), std::string::npos);
  EXPECT_NE(snap.find("test.snapc"), std::string::npos);
  EXPECT_NE(snap.find(process_trace_id()), std::string::npos);
  // Unregistered sections disappear; a throwing section must not poison
  // the document.
  telemetry_register_section("throws", []() -> std::string {
    throw std::runtime_error("boom");
  });
  const std::string snap2 = telemetry_json();
  telemetry_unregister_section("throws");
  EXPECT_TRUE(valid_json(snap2)) << snap2;
  EXPECT_EQ(snap2.find("unit_test"), std::string::npos);
  EXPECT_NE(snap2.find("\"throws\":null"), std::string::npos);
}

TEST_F(TelemetryTest, PrometheusTextExposesCountersAndSummaries) {
  set_enabled(true);
  CounterRegistry::instance().counter("test.prom_events").add(3);
  Distribution& d = CounterRegistry::instance().distribution("test.prom_lat");
  d.record(1.0);
  d.record(2.0);
  d.record(4.0);
  const std::string text = prometheus_text();
  EXPECT_NE(text.find("# TYPE indigo_test_prom_events counter"),
            std::string::npos);
  EXPECT_NE(text.find("indigo_test_prom_events 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE indigo_test_prom_lat summary"),
            std::string::npos);
  EXPECT_NE(text.find("indigo_test_prom_lat{stat=\"count\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("indigo_test_prom_lat{stat=\"p50\"}"),
            std::string::npos);
}

TEST_F(TelemetryTest, PublisherWritesParseableSnapshotsAtomically) {
  const std::string path = "test_telemetry_snapshot.json";
  const std::string prom = "test_telemetry_snapshot.prom";
  TelemetryOptions opts;
  opts.path = path;
  opts.interval_s = 0.05;
  telemetry_start(opts);
  EXPECT_TRUE(telemetry_running());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  telemetry_stop();
  EXPECT_FALSE(telemetry_running());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(valid_json(body)) << body;
  // The final snapshot (from telemetry_stop) has seq > 1: the immediate
  // publish plus at least one periodic tick preceded it.
  EXPECT_NE(body.find("\"seq\":"), std::string::npos);
  std::ifstream pin(prom);
  EXPECT_TRUE(pin.good());
  std::remove(path.c_str());
  std::remove(prom.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((prom + ".tmp").c_str());
}

TEST_F(TelemetryTest, TelemetryStartLeavesTheCounterLayerAsItFoundIt) {
  // obs::enabled() changes a sweep's journal keys and execution classes, so
  // publishing must neither arm nor disarm it.
  TelemetryOptions opts;
  opts.path = "test_telemetry_unarmed.json";
  for (const bool armed : {false, true}) {
    set_enabled(armed);
    telemetry_start(opts);
    EXPECT_EQ(enabled(), armed);
    telemetry_stop();
    EXPECT_EQ(enabled(), armed);
  }
  std::remove(opts.path.c_str());
  std::remove("test_telemetry_unarmed.prom");
}

TEST_F(TelemetryTest, EnvSwitchesAcceptOffAndUnsetTakesTheDefault) {
  // "0" and "off" keep a default-on tool's instruments off.
  for (const char* off : {"0", "off"}) {
    ::setenv("INDIGO_FLIGHT", off, 1);
    ::setenv("INDIGO_TELEMETRY", off, 1);
    set_flight_enabled(false);
    flight_init_from_env(/*unset_on=*/true);
    telemetry_init_from_env("test_telemetry_env.json");
    EXPECT_FALSE(flight_enabled()) << off;
    EXPECT_FALSE(telemetry_running()) << off;
  }
  ::unsetenv("INDIGO_FLIGHT");
  ::unsetenv("INDIGO_TELEMETRY");
  set_flight_enabled(false);
  flight_init_from_env();
  telemetry_init_from_env();
  EXPECT_FALSE(flight_enabled());
  EXPECT_FALSE(telemetry_running());
  flight_init_from_env(/*unset_on=*/true);
  telemetry_init_from_env("test_telemetry_env.json");
  EXPECT_TRUE(flight_enabled());
  EXPECT_TRUE(telemetry_running());
  telemetry_stop();
  std::remove("test_telemetry_env.json");
  std::remove("test_telemetry_env.prom");
}

TEST_F(TelemetryTest, MultiThreadedTraceExportRoundTripsThroughTheReader) {
  set_trace_collecting(true);
  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  std::set<std::uint32_t> tids;
  std::mutex mu;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &mu, &tids] {
      {
        std::lock_guard lk(mu);
        tids.insert(detail::thread_slot());
      }
      for (int i = 0; i < 50; ++i) {
        Span s("worker_span", "test");
        s.arg("thread", static_cast<double>(t));
        s.arg("label", std::string("t") + std::to_string(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::size_t recorded = trace_events().size();
  ASSERT_EQ(recorded, static_cast<std::size_t>(kThreads) * 50);

  const std::string path = "test_trace_roundtrip.json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::string err;
  const auto trace = read_trace_file(path, &err);
  ASSERT_TRUE(trace.has_value()) << err;
  EXPECT_EQ(trace->events.size(), recorded);
  EXPECT_EQ(trace->meta.at("pid"), std::to_string(::getpid()));
  EXPECT_EQ(trace->meta.at("trace_id"), process_trace_id());
  std::set<std::uint32_t> seen;
  for (const ReadEvent& ev : trace->events) {
    EXPECT_EQ(ev.name, "worker_span");
    EXPECT_EQ(ev.ph, "X");
    seen.insert(ev.tid);
    // Args round-trip with their types intact.
    ASSERT_EQ(ev.num_args.count("thread"), 1u);
    const int t = static_cast<int>(ev.num_args.at("thread"));
    EXPECT_EQ(ev.str_args.at("label"), "t" + std::to_string(t));
  }
  EXPECT_EQ(seen, tids);  // every exported tid is a real recording thread
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, TraceReaderRejectsMalformedDocuments) {
  std::string err;
  EXPECT_FALSE(read_trace_text("", &err).has_value());
  EXPECT_FALSE(read_trace_text("{\"traceEvents\":}", &err).has_value());
  EXPECT_FALSE(read_trace_text("{\"traceEvents\":[]", &err).has_value());
  EXPECT_FALSE(read_trace_text("[1,2,3]", &err).has_value());
  EXPECT_FALSE(read_trace_text("{\"traceEvents\":[]}trailing", &err)
                   .has_value());
  EXPECT_TRUE(read_trace_text("{\"traceEvents\":[],\"pid\":1}", &err)
                  .has_value());
}

}  // namespace
}  // namespace indigo::obs
