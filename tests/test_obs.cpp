// Tests for the observability layer: counter exactness under concurrent
// increments, distribution stats, snapshot/delta semantics, span nesting,
// the allocation-free disabled path, and Chrome-trace JSON well-formedness.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

// Count every heap allocation in the binary so tests can assert that the
// disabled obs path performs none. The replacements stay out of line, and
// every delete goes through the one that calls free: inlined into a caller,
// a malloc-backed new and a free-backed delete would read to the compiler
// as a mismatched allocation pair.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace indigo::obs {
namespace {

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// trace exporter emits well-formed JSON without a real parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : p_(s.data()), end_(s.data() + s.size()) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  const char* p_;
  const char* end_;

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }
  bool literal(std::string_view lit) {
    if (end_ - p_ < static_cast<std::ptrdiff_t>(lit.size())) return false;
    if (std::string_view(p_, lit.size()) != lit) return false;
    p_ += lit.size();
    return true;
  }
  bool string() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        if (*p_ == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ == end_ || std::isxdigit(static_cast<unsigned char>(*p_)) == 0) return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(*p_) == std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(*p_) < 0x20) {
        return false;  // raw control characters must be escaped
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    }
    return p_ != start;
  }
  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ != end_ && *p_ == '}') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ != end_ && *p_ == ']') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
};

class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_trace_collecting(false);
    clear_trace_events();
    CounterRegistry::instance().reset_all();
  }
  void TearDown() override {
    set_enabled(false);
    set_trace_collecting(false);
    clear_trace_events();
    CounterRegistry::instance().reset_all();
  }
};

TEST_F(ObsTest, ConcurrentIncrementsSumExactlyAcrossShards) {
  set_enabled(true);
  Counter& c = CounterRegistry::instance().counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kIters; ++i) c.add(i % 3 == 0 ? 2 : 1);
    });
  }
  for (auto& w : workers) w.join();
  // Per thread: ceil(kIters/3) doubles + the rest singles.
  const std::uint64_t per_thread = kIters + (kIters + 2) / 3;
  EXPECT_EQ(c.value(), kThreads * per_thread);
}

TEST_F(ObsTest, DistributionTracksCountSumMinMaxUnderConcurrency) {
  set_enabled(true);
  Distribution& d = CounterRegistry::instance().distribution("test.dist");
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&d, t] {
      for (int i = 0; i < kIters; ++i) d.record(t * kIters + i);
    });
  }
  for (auto& w : workers) w.join();
  const Distribution::Stats s = d.stats();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, kThreads * kIters - 1.0);
  // 0 + 1 + ... + (n-1); every addend is an exact double, and fetch_add on
  // atomic<double> commutes over these magnitudes without rounding.
  const double n = kThreads * static_cast<double>(kIters);
  EXPECT_DOUBLE_EQ(s.sum, n * (n - 1) / 2);
  EXPECT_DOUBLE_EQ(s.mean(), (n - 1) / 2);
}

TEST_F(ObsTest, SnapshotDeltaSubtractsAndDropsUnchangedEntries) {
  set_enabled(true);
  CounterRegistry& reg = CounterRegistry::instance();
  reg.counter("test.unchanged").add(7);
  const auto before = reg.snapshot();
  reg.counter("test.moved").add(5);
  Distribution& d = reg.distribution("test.ddist");
  d.record(2.0);
  d.record(4.0);
  const auto after = reg.snapshot();
  const auto delta = CounterRegistry::delta(before, after);
  EXPECT_EQ(delta.count("test.unchanged"), 0u);  // zero delta dropped
  ASSERT_EQ(delta.count("test.moved"), 1u);
  EXPECT_DOUBLE_EQ(delta.at("test.moved"), 5.0);
  EXPECT_DOUBLE_EQ(delta.at("test.ddist.count"), 2.0);
  EXPECT_DOUBLE_EQ(delta.at("test.ddist.sum"), 6.0);
  EXPECT_DOUBLE_EQ(delta.at("test.ddist.min"), 2.0);
  EXPECT_DOUBLE_EQ(delta.at("test.ddist.max"), 4.0);
}

TEST_F(ObsTest, DisabledMutationsAreAllocationFreeNoOps) {
  // Resolve handles first: lookup legitimately allocates; mutation may not.
  Counter& c = CounterRegistry::instance().counter("test.disabled");
  Distribution& d = CounterRegistry::instance().distribution("test.disabled_d");
  ASSERT_FALSE(enabled());
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    c.add(3);
    d.record(1.5);
    Span span("noop", "test");
    span.arg("k", 1.0);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(d.stats().count, 0u);
  EXPECT_TRUE(trace_events().empty());
}

TEST_F(ObsTest, SpansNestAndPublishInEndOrder) {
  set_trace_collecting(true);
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
      ASSERT_TRUE(inner.active());
      inner.arg("depth", 2.0);
    }
    outer.arg("depth", 1.0);
  }
  set_trace_collecting(false);
  const auto events = trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Inner ends first, so it publishes first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  ASSERT_EQ(inner.num_args.size(), 1u);
  EXPECT_DOUBLE_EQ(inner.num_args[0].second, 2.0);
}

TEST_F(ObsTest, SpanEndIsIdempotentAndDisarmsTheSpan) {
  set_trace_collecting(true);
  Span span("once", "test");
  span.end();
  span.end();
  span.end();
  set_trace_collecting(false);
  EXPECT_EQ(trace_events().size(), 1u);
  EXPECT_FALSE(span.active());
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormedJson) {
  set_trace_collecting(true);
  {
    Span span("escape \"me\"\n", "test");
    span.arg("label", std::string("back\\slash and \ttab"));
    span.arg("value", 0.125);
    span.arg("weird", std::numeric_limits<double>::infinity());  // -> null
  }
  set_trace_collecting(false);
  const std::string path =
      "obs_trace_test_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  const std::string text = buf.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  // Nothing hit the buffer cap, and the file says so.
  EXPECT_EQ(dropped_trace_events(), 0u);
  EXPECT_NE(text.find("\"dropped_events\":0"), std::string::npos);
}

TEST_F(ObsTest, ConcurrentSpanExportKeepsPerThreadTidsAndValidJson) {
  set_trace_collecting(true);
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 25;
  std::vector<std::uint32_t> tid_of(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &tid_of] {
      tid_of[t] = detail::thread_slot();
      for (int i = 0; i < kSpansEach; ++i) {
        Span s("mt_span", "test");
        s.arg("owner", static_cast<double>(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  set_trace_collecting(false);

  const auto events = trace_events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpansEach);
  // Every event carries the slot id of the thread that recorded it, so the
  // per-thread lanes in the viewer are faithful.
  std::map<std::uint32_t, int> per_tid;
  for (const TraceEvent& ev : events) {
    ASSERT_EQ(ev.num_args.size(), 1u);
    const int owner = static_cast<int>(ev.num_args[0].second);
    EXPECT_EQ(ev.tid, tid_of[static_cast<std::size_t>(owner)]);
    ++per_tid[ev.tid];
  }
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, n] : per_tid) EXPECT_EQ(n, kSpansEach);

  const std::string path =
      "obs_trace_mt_test_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_TRUE(JsonChecker(buf.str()).valid()) << buf.str();
}

TEST_F(ObsTest, JsonBuilderEscapesAndStaysParseable) {
  JsonObject o;
  o.field("s", std::string_view("quote \" slash \\ ctrl \x01 tab \t"))
      .field("d", 1.0 / 3.0)
      .field("u", std::uint64_t{1} << 60)
      .field("b", true)
      .field_raw("m", json_of_metrics({{"a.count", 2.0}, {"b", -0.5}}));
  const std::string text = o.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("1152921504606846976"), std::string::npos);  // no 1e18
}

}  // namespace
}  // namespace indigo::obs
