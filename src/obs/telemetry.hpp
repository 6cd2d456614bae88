// Observability layer, part 4: the telemetry snapshot publisher.
//
// Periodically (and on demand) publishes the live state of the process as
// one atomically-replaced JSON file — counter/distribution snapshots with
// percentiles, plus any registered *sections* (the sweep executor registers
// one with its Progress and per-job attempt states) — and a Prometheus-style
// text exposition next to it. Every snapshot is stamped with the process id,
// a stable process trace id, and a monotonically increasing sequence number,
// so snapshots from successive runs (a killed sweep and its resume) can be
// told apart and ordered.
//
// Publishing is write-temp + rename: a reader (or a CI artifact collector
// racing a SIGKILL) always sees a complete, parseable snapshot — the
// previous one at worst, never a torn one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace indigo::obs {

/// Stable id for this process's telemetry/trace stream: hex of pid and
/// process start time. Computed once; safe to read concurrently after the
/// first call.
const std::string& process_trace_id();

struct TelemetryOptions {
  /// Snapshot path; the Prometheus exposition lands next to it with the
  /// extension swapped to ".prom".
  std::string path = "telemetry.json";
  /// Publisher cadence; clamped to >= 0.05.
  double interval_s = 1.0;
  /// Also write the Prometheus text exposition on each publish.
  bool prometheus = true;
  /// Arm the obs counter layer (obs::set_enabled(true)) so the counters
  /// field has content. Callers that must not perturb measurement semantics
  /// (obs::enabled() changes the sweep's journal keys and execution
  /// classes) set this false and publish sections + zeroed counters only.
  bool arm_counters = true;
};

/// Starts the background publisher (idempotent: a second start replaces the
/// options). Publishes one snapshot immediately, then every interval_s.
void telemetry_start(TelemetryOptions opts);

/// Stops the publisher after one final snapshot. Safe to call when never
/// started.
void telemetry_stop();

/// Whether the publisher is currently running.
bool telemetry_running();

/// One immediate atomic publish with the active options. Returns false when
/// never configured or the write failed.
bool telemetry_publish_now();

/// The snapshot body (tests and embedding): a complete JSON object.
std::string telemetry_json();

/// Prometheus text exposition of the current counter snapshot. Counter
/// names are sanitized ("vcuda.sim_ns" -> "indigo_vcuda_sim_ns");
/// distribution facets become {stat="..."} labels.
std::string prometheus_text();

/// Registers a named section whose raw-JSON value is embedded in every
/// snapshot under "sections". The callback runs on the publisher thread (or
/// the telemetry_publish_now caller); it must return a complete JSON value.
void telemetry_register_section(const std::string& name,
                                std::function<std::string()> fn);
void telemetry_unregister_section(const std::string& name);

/// Reads INDIGO_TELEMETRY (snapshot path; "0"/"off" disables) and
/// INDIGO_TELEMETRY_INTERVAL_S. Called from obs::init_from_env().
void telemetry_init_from_env();

}  // namespace indigo::obs
