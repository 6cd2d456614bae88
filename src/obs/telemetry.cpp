#include "obs/telemetry.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace indigo::obs {
namespace {

struct TelemetryState {
  std::mutex mu;
  std::condition_variable cv;
  TelemetryOptions opts;
  bool configured = false;
  bool running = false;
  bool stop = false;
  std::thread publisher;
  std::map<std::string, std::function<std::string()>> sections;
  std::uint64_t seq = 0;
};

TelemetryState& state() {
  static TelemetryState s;
  return s;
}

bool write_file_atomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* data = body.data();
  std::size_t len = body.size();
  bool ok = true;
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

std::string prom_path_of(const std::string& json_path) {
  if (json_path.size() > 5 && json_path.ends_with(".json")) {
    return json_path.substr(0, json_path.size() - 5) + ".prom";
  }
  return json_path + ".prom";
}

std::string sanitize_prom(std::string_view name) {
  std::string out = "indigo_";
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

/// Splits a snapshot key into (stem, facet) when it carries a distribution
/// facet suffix, e.g. "sched.queue_depth.p95" -> ("sched.queue_depth",
/// "p95"); facet is empty for plain counters.
std::pair<std::string, std::string> split_facet(const std::string& name) {
  static constexpr const char* kFacets[] = {".count", ".sum", ".min",
                                            ".max",   ".p50", ".p95",
                                            ".p99"};
  for (const char* f : kFacets) {
    const std::string_view fv(f);
    if (name.size() > fv.size() && name.ends_with(fv)) {
      return {name.substr(0, name.size() - fv.size()), std::string(fv.substr(1))};
    }
  }
  return {name, {}};
}

/// Body shared by publish paths; assumes nothing about locks (snapshot and
/// section callbacks take their own).
std::string build_snapshot_json() {
  TelemetryState& s = state();
  JsonObject o;
  o.field("schema", std::string_view("indigo-telemetry v1"));
  o.field("pid", static_cast<std::uint64_t>(::getpid()));
  o.field("trace_id", process_trace_id());
  std::uint64_t seq = 0;
  std::map<std::string, std::function<std::string()>> sections;
  {
    std::lock_guard lk(s.mu);
    seq = ++s.seq;
    sections = s.sections;
  }
  o.field("seq", seq);
  o.field("published_at_us", now_us());
  o.field("unix_time_s",
          static_cast<std::uint64_t>(std::time(nullptr)));
  if (flight_enabled()) o.field("flight_dump_path", flight_dump_path());
  o.field_raw("counters",
              json_of_metrics(CounterRegistry::instance().snapshot()));
  std::string secs = "{";
  bool first = true;
  for (const auto& [name, fn] : sections) {
    std::string body;
    try {
      body = fn();
    } catch (...) {
      body = "null";
    }
    if (body.empty()) body = "null";
    if (!first) secs += ',';
    first = false;
    secs += '"';
    secs += json_escape(name);
    secs += "\":";
    secs += body;
  }
  secs += '}';
  o.field_raw("sections", secs);
  return o.str();
}

void publisher_loop() {
  TelemetryState& s = state();
  std::unique_lock lk(s.mu);
  while (!s.stop) {
    const double interval = std::max(0.05, s.opts.interval_s);
    lk.unlock();
    telemetry_publish_now();
    lk.lock();
    s.cv.wait_for(lk, std::chrono::duration<double>(interval),
                  [&] { return s.stop; });
  }
}

}  // namespace

const std::string& process_trace_id() {
  static const std::string id = [] {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%08x%08x",
                  static_cast<unsigned>(::getpid()),
                  static_cast<unsigned>(std::time(nullptr)));
    return std::string(buf);
  }();
  return id;
}

void telemetry_start(TelemetryOptions opts) {
  TelemetryState& s = state();
  std::unique_lock lk(s.mu);
  s.opts = std::move(opts);
  s.configured = true;
  if (!s.running) {
    s.stop = false;
    s.running = true;
    s.publisher = std::thread(publisher_loop);
  }
}

void telemetry_stop() {
  TelemetryState& s = state();
  {
    std::lock_guard lk(s.mu);
    if (!s.running) return;
    s.stop = true;
  }
  s.cv.notify_all();
  s.publisher.join();
  {
    std::lock_guard lk(s.mu);
    s.running = false;
  }
  telemetry_publish_now();  // the final snapshot
}

bool telemetry_running() {
  TelemetryState& s = state();
  std::lock_guard lk(s.mu);
  return s.running;
}

bool telemetry_publish_now() {
  TelemetryState& s = state();
  std::string path;
  {
    std::lock_guard lk(s.mu);
    if (!s.configured) return false;
    path = s.opts.path;
  }
  if (path.empty()) return false;
  bool ok = write_file_atomic(path, telemetry_json() + "\n");
  ok = write_file_atomic(prom_path_of(path), prometheus_text()) && ok;
  if (!ok) {
    std::cerr << "[obs] telemetry publish to " << path << " failed\n";
  }
  return ok;
}

std::string telemetry_json() {
  return build_snapshot_json();
}

std::string prometheus_text() {
  const auto snap = CounterRegistry::instance().snapshot();
  // Group distribution facets under one metric name with stat labels.
  std::map<std::string, std::map<std::string, double>> grouped;
  for (const auto& [name, value] : snap) {
    auto [stem, facet] = split_facet(name);
    grouped[stem][facet] = value;
  }
  std::string out;
  char buf[64];
  for (const auto& [stem, facets] : grouped) {
    const std::string prom_name = sanitize_prom(stem);
    const bool is_dist = facets.size() > 1 || !facets.begin()->first.empty();
    out += "# TYPE " + prom_name + (is_dist ? " summary\n" : " counter\n");
    for (const auto& [facet, value] : facets) {
      out += prom_name;
      if (!facet.empty()) out += "{stat=\"" + facet + "\"}";
      std::snprintf(buf, sizeof(buf), " %.17g\n", value);
      out += buf;
    }
  }
  return out;
}

void telemetry_register_section(const std::string& name,
                                std::function<std::string()> fn) {
  TelemetryState& s = state();
  std::lock_guard lk(s.mu);
  s.sections[name] = std::move(fn);
}

void telemetry_unregister_section(const std::string& name) {
  TelemetryState& s = state();
  std::lock_guard lk(s.mu);
  s.sections.erase(name);
}

void telemetry_init_from_env(std::string_view unset_path) {
  if (telemetry_running()) return;
  const char* p = std::getenv("INDIGO_TELEMETRY");
  const std::string_view v = p != nullptr && *p != '\0' ? p : unset_path;
  if (v.empty() || v == "0" || v == "off") return;
  TelemetryOptions opts;
  opts.path = std::string(v);
  if (const char* i = std::getenv("INDIGO_TELEMETRY_INTERVAL_S")) {
    const std::string_view s(i);
    double secs = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), secs);
    if (ec != std::errc() || ptr != s.data() + s.size() ||
        !std::isfinite(secs) || secs <= 0) {
      throw std::invalid_argument(
          "INDIGO_TELEMETRY_INTERVAL_S must be a finite decimal > 0, got \"" +
          std::string(s) + '"');
    }
    opts.interval_s = secs;
  }
  telemetry_start(std::move(opts));
  std::atexit(telemetry_stop);
}

}  // namespace indigo::obs
