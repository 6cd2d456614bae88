// Shared harness of the bench binaries.
//
// A Harness owns the five study inputs, runs (variant x graph) sweeps with
// verification, and memoizes every measurement in a journaled result store
// (src/sched/result_store.hpp) so every table and figure of bench/study can
// share one full-suite sweep instead of re-running it. sweep() is the one
// place that turns (variant x graph) cells into jobs; bench/sweep_all runs
// the whole study through it. Sweeps execute through the sweep runtime (src/sched):
// model-timed vcuda jobs run concurrently, taken in cell order from one
// FIFO by a worker pool, while wall-clock CPU jobs serialize through the
// exclusive lane, so parallelism never distorts a reported CPU time. A
// per-attempt deadline (INDIGO_SCHED_TIMEOUT_S) takes effect at a cuda
// cell's next kernel launch (see docs/SWEEP_RUNTIME.md). Ratio utilities
// implement the paper's methodology (Section 5 preamble): to compare two
// alternatives of one style dimension, pair up programs that are identical
// in every other dimension and divide their throughputs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/validity.hpp"
#include "graph/generate.hpp"
#include "sched/result_store.hpp"
#include "stats/summary.hpp"
#include "vcuda/device_spec.hpp"

namespace indigo::bench {

struct SweepOptions {
  std::optional<Model> model;
  std::optional<Algorithm> algo;
  /// Device for Model::Cuda variants; nullptr = the default rtx3090_like.
  const vcuda::DeviceSpec* device = nullptr;
  /// Only variants whose style passes this predicate (nullptr = all).
  std::function<bool(const Variant&)> style_filter;
  int reps = 1;
  /// Scheduler pool for this sweep: N > 0 = exactly N workers, <= 0 = the
  /// executor's default (INDIGO_SCHED_WORKERS, else a small pool).
  int workers = 0;
  /// Run every measurement under the race/determinism checker (see
  /// docs/RACECHECK.md). Checked jobs keep their execution class (each
  /// cuda cell tallies its own Devices), and their journal entries are
  /// keyed separately ("|rc") from plain timing runs.
  bool racecheck = false;
};

/// Accounting of the most recent sweep() (resume/quarantine diagnostics).
struct SweepStats {
  std::size_t pairs = 0;        // (variant, graph) pairs selected
  std::size_t cache_hits = 0;   // served from the result journal
  std::size_t executed = 0;     // measured fresh by this sweep
  std::size_t quarantined = 0;  // failed every attempt; excluded
  std::size_t oom_rejected = 0;  // exceeded modeled device memory
  std::uint64_t lane_batches = 0;  // exclusive wall-clock phases the run took
};

class Harness {
 public:
  /// Registers all variants, opens the journaled measurement store at
  /// REPRO_CACHE (default "repro_cache.csv"; empty keeps results in memory
  /// only), and generates the five study inputs at their default scales.
  /// Throws std::invalid_argument when REPRO_THREADS or REPRO_SCALE is
  /// malformed.
  Harness();

  /// The five study inputs.
  [[nodiscard]] const std::vector<Graph>& graphs() const { return graphs_; }

  /// Measures every selected (variant, graph) pair through the sweep
  /// runtime: one job per pair missing from the journal; journaled results
  /// are reused. Streams a progress line to stderr while jobs run, then
  /// checkpoints the journal and annotates it with any quarantined pairs.
  /// The returned order is deterministic (registry x graph order)
  /// regardless of the worker count. Throws std::invalid_argument, before
  /// running anything, when INDIGO_SCHED_RETRIES or INDIGO_SCHED_TIMEOUT_S
  /// is malformed.
  std::vector<Measurement> sweep(const SweepOptions& opts);

  /// Convenience: one measurement (journaled). Thread-safe. Throws
  /// vcuda::DeadlineError, journaling nothing, when the calling thread's
  /// deadline (vcuda::DeadlineScope) passes before it is done.
  Measurement measure_one(const Variant& v, const Graph& g,
                          const vcuda::DeviceSpec* device, int reps);

  /// Outcome counts of the most recent sweep().
  [[nodiscard]] const SweepStats& last_sweep_stats() const { return stats_; }

  /// The journaled measurement store (checkpointing, resume stats).
  [[nodiscard]] sched::ResultStore& result_store() { return *store_; }

  [[nodiscard]] RunOptions base_run_options(
      const vcuda::DeviceSpec* device) const;

  /// The shared, thread-safe reference checker of one of graphs().
  Verifier& verifier_for(const Graph& g);

 private:

  std::vector<Graph> graphs_;
  std::unique_ptr<sched::ResultStore> store_;
  std::vector<std::unique_ptr<Verifier>> verifiers_;
  std::mutex verifiers_mu_;
  SweepStats stats_;
};

/// All pairwise throughput ratios value_a-over-value_b of one dimension,
/// holding every other dimension and the input graph fixed. Unverified or
/// failed measurements are dropped (the paper only reports verified runs).
std::vector<double> pairwise_ratios(std::span<const Measurement> ms,
                                    Algorithm algo, Dimension d, int value_a,
                                    int value_b);

/// Groups ratios per algorithm into the boxen samples the figures plot.
std::vector<stats::NamedSample> ratio_samples_by_algorithm(
    std::span<const Measurement> ms, std::span<const Algorithm> algos,
    Dimension d, int value_a, int value_b);

/// Simple shape-check reporting: prints PASS/DIFF (to stdout) of a named
/// expectation and returns whether it held. Failures also bump a
/// process-wide counter so bench binaries can exit nonzero.
bool shape_check(const std::string& name, bool condition);

/// Exit status for a bench main(): 0 when every shape check held, 1
/// otherwise (so CI and scripts notice broken reproductions).
int exit_code();

}  // namespace indigo::bench
