// Dynamic data-race and determinism audit (racecheck).
//
// The paper's determinism dimension (Section 2.7, Fig 7) distinguishes
// styles by the races they admit: deterministic codes must be race-free,
// while the non-deterministic styles deliberately exploit benign races
// (monotonic in-place updates, duplicate-tolerant worklists). Output
// verification cannot tell those apart — a racy "deterministic" variant can
// still produce the right answer on one interleaving. racecheck closes that
// gap dynamically:
//
//  * vcuda: the simulator already routes every global-memory access through
//    Thread::record; a VcudaChecker extends that into per-element shadow
//    state (last reader/writer thread + block + __syncthreads epoch) and
//    flags conflicting unsynchronized read-write / write-write pairs,
//    classified by the benign-race taxonomy below.
//  * CPU models: real threads race for real, so the checker cannot observe
//    individual accesses cheaply; instead it audits the synchronization
//    *discipline* (ThreadTeam region nesting) and defers instruction-level
//    checking to the TSan build preset (INDIGO_TSAN, see docs/RACECHECK.md).
//
// Everything is gated on enabled(): when off (the default), the hooks are a
// single relaxed atomic load and no shadow state is allocated, so the
// timing model and the measured CPU codes are unperturbed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace indigo::racecheck {

// ---------------------------------------------------------------------------
// Global enable gate (mirrors obs::enabled()).

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Turns the checker on for a scope (no-op when `on` is false or it is
/// already enabled); restores the previous state on destruction.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(enabled()) {
    if (on && !prev_) set_enabled(true);
  }
  ~ScopedEnable() { set_enabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

// ---------------------------------------------------------------------------
// Findings.

/// Conflict classes, in classification priority order. A "conflict" is a
/// pair of accesses to the same element, at least one a write, from
/// different threads of the same launch, not ordered by __syncthreads
/// (different blocks never synchronize within a launch).
struct Report {
  /// Both sides are atomic operations: the hardware serializes them; this
  /// is the paper's sanctioned non-deterministic RMW style (Listing 5b).
  std::uint64_t conflicts_atomic = 0;
  /// The address lies in a range the kernel declared racy-by-design
  /// (Device::declare_racy): e.g. pull-style non-deterministic PageRank
  /// updates ranks in place with plain stores (Listing 5a world) whose
  /// values move non-monotonically between sweeps-in-flight.
  std::uint64_t conflicts_declared = 0;
  /// The racing write did not change the value (e.g. every thread storing 1
  /// into a `changed` flag): any interleaving yields the same memory state.
  std::uint64_t conflicts_same_value = 0;
  /// The racing write moved the value in this element's consistent
  /// direction (distances only decrease, MIS statuses only advance): the
  /// paper's benign monotonic read-write race (Listing 5a).
  std::uint64_t conflicts_monotonic = 0;
  /// Everything else — a plain-access conflict whose value moves in both
  /// directions. A deterministic-style variant must never produce one, and
  /// neither should any published non-deterministic style.
  std::uint64_t conflicts_harmful = 0;

  /// CPU-side synchronization-discipline violations (nested ThreadTeam
  /// regions); see docs/RACECHECK.md.
  std::uint64_t discipline_violations = 0;

  /// Distinct element addresses that ever entered the shadow map (info).
  std::uint64_t addresses_tracked = 0;

  /// First few harmful sites / violations, human-readable.
  std::vector<std::string> notes;

  [[nodiscard]] std::uint64_t benign_conflicts() const {
    return conflicts_atomic + conflicts_declared + conflicts_same_value +
           conflicts_monotonic;
  }
  [[nodiscard]] std::uint64_t total_conflicts() const {
    return benign_conflicts() + conflicts_harmful;
  }
  [[nodiscard]] bool clean() const {
    return conflicts_harmful == 0 && discipline_violations == 0;
  }

  static constexpr std::size_t kMaxNotes = 8;
  void add_note(std::string s);
  void merge(const Report& other);
};

/// Difference of two cumulative reports (notes taken from `after` minus the
/// first `before.notes.size()` entries).
Report diff(const Report& after, const Report& before);

/// Process-wide running totals of the CPU discipline hooks, which fold each
/// violation in immediately. Thread-safe. A vcuda Device's findings never
/// land here: its VcudaChecker's report reaches the measurement through
/// vcuda::MetricsScope.
Report global_report();
void reset_global();
void merge_global(const Report& r);

/// Metric-map entries ("racecheck.*") for a report, as written into
/// Measurement::metrics by runner::measure.
std::vector<std::pair<std::string, double>> metric_entries(const Report& r);

// ---------------------------------------------------------------------------
// vcuda shadow-state checker.
//
// One VcudaChecker per vcuda::Device, created only while enabled(). The
// simulator is sequential, so the checker needs no locking; it observes the
// scrambled-but-deterministic interleaving the Device executes and applies
// CUDA's synchronization rules to it:
//   ordered(a, b) :=  a.launch != b.launch            (kernel boundary)
//                  || a.thread == b.thread             (program order)
//                  || (a.block == b.block && a.epoch != b.epoch)
//                                                      (__syncthreads)
// Accesses from different blocks of the same launch are never ordered.
class VcudaChecker {
 public:
  /// Kernel boundary: everything before happens-before everything after.
  void on_launch_begin();
  /// __syncthreads: advances the intra-block sync epoch.
  void on_sync();

  void read(const void* elem, std::uint32_t block, std::uint32_t tid,
            bool atomic);
  /// `delta_sign` is the direction the write moved the value: -1 lowered,
  /// +1 raised, 0 unchanged. Computed by DeviceArray before mutating.
  void write(const void* elem, std::uint32_t block, std::uint32_t tid,
             bool atomic, int delta_sign);

  /// Marks [base, base+bytes) as racy-by-design: conflicts on it are
  /// classified BenignDeclared instead of escalating to harmful.
  void declare_racy(const void* base, std::size_t bytes);

  /// The tallies so far, with addresses_tracked filled in.
  [[nodiscard]] Report report() const;

 private:
  struct AccessRec {
    std::uint64_t launch = 0;
    std::uint64_t epoch = 0;
    std::uint32_t block = 0;
    std::uint32_t tid = 0;
    bool atomic = false;
    bool valid = false;
  };
  struct Shadow {
    AccessRec last_write;
    AccessRec last_read;
    std::int8_t last_write_sign = 0;
    /// Direction established by the first value-changing racing write;
    /// later racing writes must agree or the race is harmful.
    std::int8_t mono_dir = 0;
    /// How many addresses entered the map before this one: names the
    /// element in notes the same way in every process (addresses do not).
    std::uint32_t ordinal = 0;
  };

  Shadow& shadow_of(std::uint64_t addr);

  [[nodiscard]] bool conflicts(const AccessRec& prev,
                               const AccessRec& cur) const;
  [[nodiscard]] bool declared(std::uint64_t addr) const;
  void classify(Shadow& s, std::uint64_t addr, const AccessRec& prev,
                const AccessRec& cur, bool both_atomic, int write_sign);

  std::unordered_map<std::uint64_t, Shadow> shadow_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> racy_ranges_;
  Report report_;
  std::uint64_t launch_ = 0;
  std::uint64_t epoch_ = 0;
};

// ---------------------------------------------------------------------------
// CPU-side discipline hooks (ThreadTeam).

/// True while the calling thread is a ThreadTeam worker executing a job.
/// Set by the team's worker loop; used to flag nested run() calls.
bool cpu_in_worker();
void cpu_set_in_worker(bool in);

/// Records one discipline violation (bumps the global report).
void cpu_note_violation(const std::string& what);

}  // namespace indigo::racecheck
