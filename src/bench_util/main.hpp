// Shared entry point for the per-figure bench binaries.
//
// Main() factors out the boilerplate a bench binary opens with - construct
// the Harness, print the figure banner, run sweeps, return exit_code() - and
// adds a uniform CLI (--model / --algo / --reps / --workers) so a figure can
// be re-derived on a subset of the study or through a specific
// sweep-runtime pool size without editing code. fig05, fig14 and obs_report
// use it; sweep_all reads the same flags through parse_bench_args.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"

namespace indigo::bench {

/// Parsed command-line overrides, shared by every bench binary:
///   --model=cuda|omp|cpp   restrict sweeps to one programming model
///   --algo=bfs|sssp|...    restrict sweeps to one algorithm
///   --reps=N               repetitions per measurement (median reported)
///   --workers=N            sweep-runtime pool of N >= 1 workers
struct BenchArgs {
  std::optional<Model> model;
  std::optional<Algorithm> algo;
  int reps = 1;
  int workers = 0;  // 0 = INDIGO_SCHED_WORKERS / scheduler default

  /// SweepOptions prefilled with these overrides.
  [[nodiscard]] SweepOptions sweep() const;
  /// The models a figure should iterate: all of them, or just --model.
  [[nodiscard]] std::vector<Model> models() const;
};

/// Parses the shared flags of argv[1..argc) into a BenchArgs. Numbers must
/// be whole decimal values (--reps > 0, --workers > 0); a malformed value
/// prints "bad argument" and returns nullopt. Arguments that are not shared
/// flags are appended to `rest`, in order, for the caller to interpret.
std::optional<BenchArgs> parse_bench_args(int argc, char** argv,
                                          std::vector<std::string>& rest);

struct MainOptions {
  std::string id;           // e.g. "Figure 5"
  std::string title;        // one-line figure description
  std::string paper_claim;  // the claim being reproduced (banner text)
  /// Turn the obs layer on before the Harness exists (counter-driven
  /// reports need metrics even without INDIGO_TRACE/INDIGO_METRICS).
  bool force_obs = false;
};

/// Runs one bench binary: parses argv, optionally forces obs on, prints
/// the banner, constructs the Harness, and invokes `body`. The returned
/// status is the body's, or exit_code() when the body returns 0, so shape
/// check failures always surface; exceptions report and return 1.
int Main(int argc, char** argv, const MainOptions& mo,
         const std::function<int(Harness&, const BenchArgs&)>& body);

}  // namespace indigo::bench
