// Observability layer, part 3: the flight recorder.
//
// A crash-proof record of what the process was doing *just before* it died.
// Every span end (and explicit flight_note) is copied into a fixed-size
// per-thread ring buffer; when the process quarantines a job, hits a
// deadline, receives a fatal signal, or calls std::terminate, the rings are
// dumped to `flightdump-<pid>.json` — a Chrome-trace-compatible file that
// both Perfetto and bench/obs_timeline can read.
//
// Design constraints, in order:
//
//   1. Recording must be cheap and lock-free: each record is a seqlocked
//      write into a preallocated slot (no allocation, no locks, no
//      syscalls). Rings are registered on a lock-free intrusive list and
//      never freed, so a dump can walk them after the owning thread exited.
//   2. Dumping must work from a fatal-signal handler: the dump path is
//      precomputed, the writer uses only open/write/close with its own
//      integer formatting, and slot seqlocks let it skip entries that were
//      mid-write when the signal hit. Event payloads are sanitized at
//      record time so the handler can copy bytes verbatim.
//   3. Off means off: with the recorder disarmed every entry point is one
//      relaxed atomic load (the same discipline as counters.hpp), so the
//      perf-gated paths are unaffected.
//
// Name/category pointers must be string literals (same rule as Span).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace indigo::obs {

/// Whether the recorder is armed (rings record, handlers dump).
bool flight_enabled();
/// Arms (or disarms) the recorder. Arming installs the fatal-signal and
/// std::terminate handlers once per process and fixes the dump path.
void set_flight_enabled(bool on);

/// Reads INDIGO_FLIGHT and arms the recorder for any non-empty value other
/// than "0" or "off"; unset or empty arms it iff `unset_on`. The only reader
/// of INDIGO_FLIGHT: obs::init_from_env() calls it with false, and
/// long-lived tools that record by default pass true. Idempotent.
void flight_init_from_env(bool unset_on = false);

/// Ring capacity in events per thread. Only affects rings created after the
/// call (tests size it down to exercise wraparound); default 1024.
void flight_set_ring_capacity(std::size_t events);

/// Records one instant event (duration 0). `detail` is truncated to the
/// slot's inline buffer and sanitized for raw JSON embedding.
void flight_note(const char* name, const char* cat, std::string_view detail);

/// Records one completed span (called by Span::end; also usable directly).
void flight_record_span(const char* name, const char* cat, double ts_us,
                        double dur_us, std::string_view detail = {});

/// The fixed dump path for this process: "flightdump-<pid>.json" in the
/// working directory at arm time.
const std::string& flight_dump_path();

/// Writes every ring to flight_dump_path(), newest-first capped at ring
/// capacity per thread, tagging the dump with `reason`. Overwrites any
/// previous dump (the newest state is the interesting one). Safe to call
/// from signal handlers; returns false if the recorder is disarmed or the
/// file cannot be written.
bool flight_dump(const char* reason);

/// Events overwritten by ring wraparound since arming (monitoring).
std::uint64_t flight_overwritten();
/// Events currently held across all rings (tests).
std::size_t flight_event_count();
/// Drops all recorded events (tests). Not signal-safe.
void flight_clear();

/// Installs the SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT/SIGTERM/SIGINT and
/// std::terminate handlers that dump the rings and re-raise. Idempotent;
/// called automatically by set_flight_enabled(true).
void install_crash_handlers();

}  // namespace indigo::obs
