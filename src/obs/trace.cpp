#include "obs/trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>

#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"

namespace indigo::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

std::atomic<bool> g_collecting{false};

struct TraceState {
  std::mutex mu;
  std::string trace_path;
  std::string metrics_path;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::ofstream metrics_out;
};

TraceState& state() {
  static TraceState s;
  return s;
}

// Events are buffered in memory until export; the cap bounds a runaway
// instrumented run (~a few hundred MB worst case) and is counted, not
// silent.
constexpr std::size_t kMaxEvents = 4u << 20;

void publish(TraceEvent ev) {
  if (!g_collecting.load(std::memory_order_relaxed)) return;
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  if (s.events.size() >= kMaxEvents) {
    ++s.dropped;
    return;
  }
  s.events.push_back(std::move(ev));
}

void write_trace_at_exit() {
  TraceState& s = state();
  std::string path;
  {
    std::lock_guard lock(s.mu);
    path = s.trace_path;
  }
  if (!path.empty()) write_chrome_trace(path);
}

/// Round-trippable JSON number; non-finite values become null (JSON has no
/// inf/nan).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    (void)epoch();
    if (const char* p = std::getenv("INDIGO_TRACE"); p != nullptr && *p) {
      set_trace_path(p);
    }
    if (const char* p = std::getenv("INDIGO_METRICS"); p != nullptr && *p) {
      set_metrics_path(p);
    }
    flight_init_from_env();
    telemetry_init_from_env();
    std::atexit(write_trace_at_exit);
  });
}

namespace {
// Arms the layer even if no code path calls an obs function explicitly
// before instrumented work starts.
const bool g_env_init = [] {
  init_from_env();
  return true;
}();
}  // namespace

bool trace_enabled() {
  return g_collecting.load(std::memory_order_relaxed);
}

const std::string& trace_path() {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  return s.trace_path;
}

void set_trace_path(std::string path) {
  TraceState& s = state();
  bool arm = false;
  {
    std::lock_guard lock(s.mu);
    s.trace_path = std::move(path);
    arm = !s.trace_path.empty();
  }
  if (arm) {
    g_collecting.store(true, std::memory_order_relaxed);
    set_enabled(true);
  }
}

void set_trace_collecting(bool on) {
  g_collecting.store(on, std::memory_order_relaxed);
  if (on) set_enabled(true);
}

const std::string& metrics_path() {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  return s.metrics_path;
}

void set_metrics_path(std::string path) {
  TraceState& s = state();
  {
    std::lock_guard lock(s.mu);
    if (s.metrics_out.is_open()) s.metrics_out.close();
    s.metrics_path = std::move(path);
  }
  if (!metrics_path().empty()) set_enabled(true);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch())
      .count();
}

Span::Span(const char* name, const char* cat) {
  init_from_env();
  // A span is live when either sink wants it: the in-memory trace buffer
  // (Chrome-trace export) or the flight recorder's per-thread rings.
  if (!trace_enabled() && !flight_enabled()) return;
  active_ = true;
  name_ = name;
  cat_ = cat;
  start_us_ = now_us();
}

void Span::arg(std::string key, double value) {
  if (!active_) return;
  num_args_.emplace_back(std::move(key), value);
}

void Span::arg(std::string key, std::string value) {
  if (!active_) return;
  str_args_.emplace_back(std::move(key), std::move(value));
}

void Span::end() {
  if (!active_) return;
  active_ = false;
  const double dur_us = now_us() - start_us_;
  if (flight_enabled()) {
    // The first string arg is the most identifying one by convention (job
    // name, graph name); it rides along as the flight event's detail.
    flight_record_span(name_, cat_, start_us_, dur_us,
                       str_args_.empty() ? std::string_view()
                                         : std::string_view(str_args_[0].second));
  }
  TraceEvent ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.ts_us = start_us_;
  ev.dur_us = dur_us;
  ev.tid = detail::thread_slot();
  ev.num_args = std::move(num_args_);
  ev.str_args = std::move(str_args_);
  publish(std::move(ev));
}

std::vector<TraceEvent> trace_events() {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  return s.events;
}

void clear_trace_events() {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  s.events.clear();
  s.dropped = 0;
}

std::uint64_t dropped_trace_events() {
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  return s.dropped;
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<TraceEvent> events = trace_events();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[obs] cannot write trace file " << path << '\n';
    return false;
  }
  // Records are stamped with the real pid and the stable process trace id
  // so traces of several runs (a killed sweep and its resume) merge without
  // tid/pid collisions.
  const auto pid = static_cast<std::uint64_t>(::getpid());
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
        << json_escape(ev.cat) << "\",\"ph\":\"X\",\"pid\":" << pid
        << ",\"tid\":" << ev.tid << ",\"ts\":" << json_number(ev.ts_us)
        << ",\"dur\":" << json_number(ev.dur_us);
    if (!ev.num_args.empty() || !ev.str_args.empty()) {
      out << ",\"args\":{";
      bool afirst = true;
      for (const auto& [k, v] : ev.num_args) {
        if (!afirst) out << ',';
        afirst = false;
        out << '"' << json_escape(k) << "\":" << json_number(v);
      }
      for (const auto& [k, v] : ev.str_args) {
        if (!afirst) out << ',';
        afirst = false;
        out << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
      }
      out << '}';
    }
    out << '}';
  }
  out << "],\"pid\":" << pid << ",\"trace_id\":\""
      << json_escape(process_trace_id())
      << "\",\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::string json_escape(std::string_view sv) {
  std::string out;
  out.reserve(sv.size());
  for (const char c : sv) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonObject& JsonObject::field(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::field_raw(std::string_view k, std::string_view raw) {
  key(k);
  body_ += raw;
  return *this;
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

std::string json_of_metrics(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":";
    out += json_number(v);
  }
  out += '}';
  return out;
}

void append_metrics_record(const std::string& json_line) {
  init_from_env();
  TraceState& s = state();
  std::lock_guard lock(s.mu);
  if (s.metrics_path.empty()) return;
  if (!s.metrics_out.is_open()) {
    s.metrics_out.open(s.metrics_path, std::ios::app);
    if (!s.metrics_out) {
      std::cerr << "[obs] cannot open metrics file " << s.metrics_path
                << '\n';
      s.metrics_path.clear();
      return;
    }
  }
  s.metrics_out << json_line << '\n' << std::flush;
}

}  // namespace indigo::obs
