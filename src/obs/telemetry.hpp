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
#include <string_view>

namespace indigo::obs {

/// Stable id for this process's telemetry/trace stream: hex of pid and
/// process start time. Computed once; safe to read concurrently after the
/// first call.
const std::string& process_trace_id();

/// The publisher never arms the counter layer: obs::enabled() changes a
/// sweep's journal keys, so the counters field has content only when
/// something else (INDIGO_TRACE, INDIGO_METRICS) armed it. Even then it
/// holds the process-wide counters (sched.*, cpu.*, worklist.*), not
/// vcuda.*: a cuda measurement's counters live in its own Devices.
struct TelemetryOptions {
  /// Snapshot path; the Prometheus exposition lands next to it with the
  /// extension swapped to ".prom".
  std::string path = "telemetry.json";
  /// Publisher cadence; clamped to >= 0.05.
  double interval_s = 1.0;
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

/// Reads INDIGO_TELEMETRY (snapshot path; "0"/"off" disables; unset or empty
/// means `unset_path`, where empty disables) and INDIGO_TELEMETRY_INTERVAL_S,
/// and starts the publisher unless it is already running. The only reader
/// of both: obs::init_from_env() calls it with no default, and long-lived
/// tools that publish by default pass their path. When it would start the
/// publisher, an INDIGO_TELEMETRY_INTERVAL_S that is not wholly a finite
/// decimal > 0 throws std::invalid_argument naming the variable.
void telemetry_init_from_env(std::string_view unset_path = {});

}  // namespace indigo::obs
