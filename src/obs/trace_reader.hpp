// Observability layer, part 5: reading traces back.
//
// The exporters in this directory write three flavors of the same event
// stream: Chrome trace JSON (write_chrome_trace), flight dumps
// (flight_recorder.cpp — Chrome-trace-compatible with extra top-level
// keys), and telemetry snapshots. This reader parses any of them with a
// small self-contained JSON parser, so post-run tools (bench/obs_timeline)
// can merge the streams of several runs (a live trace plus crash dumps)
// without an external JSON dependency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace indigo::obs {

/// One event read back from a trace file; strings are owned (unlike the
/// write-side TraceEvent, whose name/cat are literals).
struct ReadEvent {
  std::string name;
  std::string cat;
  std::string ph;
  double ts_us = 0;
  double dur_us = 0;
  std::uint64_t pid = 0;
  std::uint32_t tid = 0;
  std::map<std::string, double> num_args;
  std::map<std::string, std::string> str_args;
};

struct ReadTrace {
  std::vector<ReadEvent> events;
  /// Top-level scalar metadata (pid, trace_id, reason, overwritten, ...),
  /// stringified.
  std::map<std::string, std::string> meta;
};

/// Parses a Chrome-trace-shaped JSON file (a top-level object with a
/// "traceEvents" array). Returns nullopt and fills *error on failure.
std::optional<ReadTrace> read_trace_file(const std::string& path,
                                         std::string* error = nullptr);

/// Same, from an in-memory document (tests).
std::optional<ReadTrace> read_trace_text(const std::string& text,
                                         std::string* error = nullptr);

}  // namespace indigo::obs
