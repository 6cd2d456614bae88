// Observability layer, part 2: run spans and exporters.
//
// A Span is one timed scope (a kernel launch, a measurement, a sweep). Ended
// spans become trace events that export as Chrome trace-event JSON
// (chrome://tracing / Perfetto "traceEvents" format) when INDIGO_TRACE names
// a file. Per-measurement counter snapshots export as one JSON object per
// line when INDIGO_METRICS names a file (the JSONL schema is documented in
// docs/OBSERVABILITY.md). Either variable switches the whole layer on; with
// both unset every entry point here is a checked-flag no-op that performs no
// allocation.
//
// Span names and categories must be string literals (they are stored as
// pointers); argument keys may be dynamic strings.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"

namespace indigo::obs {

/// Reads INDIGO_TRACE / INDIGO_METRICS once per process and arms the layer
/// accordingly (idempotent; called on first use of the functions below and
/// from a static initializer, so simply setting the variables works).
void init_from_env();

/// Trace collection is on if a trace path is set or a test forced it.
bool trace_enabled();
/// Output file for Chrome trace JSON; empty = no file (set by INDIGO_TRACE).
const std::string& trace_path();
void set_trace_path(std::string path);
/// Force event collection without a file (tests).
void set_trace_collecting(bool on);

/// Output file for JSONL run records; empty = disabled (set by
/// INDIGO_METRICS).
const std::string& metrics_path();
void set_metrics_path(std::string path);

/// One ended span, ready for export.
struct TraceEvent {
  const char* name;
  const char* cat;
  double ts_us;   // start, microseconds since process trace epoch
  double dur_us;  // duration, microseconds
  std::uint32_t tid;
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// A timed scope. Construction stamps the start, end() (or the destructor)
/// stamps the duration and publishes the event. Inactive spans (layer
/// disabled at construction time) are inert and allocation-free.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "app");
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric or string argument (no-op when inactive).
  void arg(std::string key, double value);
  void arg(std::string key, std::string value);

  /// Overrides the recorded start time (microseconds from now_us()'s
  /// epoch); lets a caller that timed a scope itself publish it as a span.
  void set_start_us(double us) {
    if (active_) start_us_ = us;
  }

  /// Ends the span and publishes it (idempotent).
  void end();

  [[nodiscard]] bool active() const { return active_; }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  double start_us_ = 0;
  std::vector<std::pair<std::string, double>> num_args_;
  std::vector<std::pair<std::string, std::string>> str_args_;
};

/// Microseconds since the process trace epoch (first obs use).
double now_us();

/// Copy of the collected events (tests and exporters).
std::vector<TraceEvent> trace_events();
/// Drops all collected events (tests).
void clear_trace_events();
/// Events dropped because the in-memory buffer hit its cap.
std::uint64_t dropped_trace_events();

/// Writes all collected events as Chrome trace JSON, with the count of
/// events the capped buffer dropped as the top-level "dropped_events" (also
/// reported on stderr when nonzero). Returns false (and keeps the events)
/// if the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// Minimal JSON object builder for export records (escapes strings,
/// prints doubles round-trippably, integers without exponents).
class JsonObject {
 public:
  JsonObject& field(std::string_view key, double value);
  JsonObject& field(std::string_view key, std::uint64_t value);
  JsonObject& field(std::string_view key, bool value);
  JsonObject& field(std::string_view key, std::string_view value);
  /// Inserts `raw` verbatim — it must itself be valid JSON.
  JsonObject& field_raw(std::string_view key, std::string_view raw);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

std::string json_escape(std::string_view s);
/// name -> value map as a JSON object (the `metrics` field of run records).
std::string json_of_metrics(const std::map<std::string, double>& metrics);

/// Appends one line to the INDIGO_METRICS file (no-op when unset). The line
/// must be a complete JSON object without trailing newline.
void append_metrics_record(const std::string& json_line);

}  // namespace indigo::obs
