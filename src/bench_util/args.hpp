// The command-line flags shared by the bench binaries (study, sweep_all,
// obs_report), parsed in one place: --model / --algo / --reps / --workers
// let a figure be re-derived on a subset of the study or through a given
// sweep-runtime pool size without editing code.
#pragma once

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

/// Whole decimal `s` >= `min` into `out`; false on anything else (empty,
/// sign-only, trailing characters, out of int range).
bool parse_count(const std::string& s, int min, int& out);

/// Parses the shared flags of argv[1..argc) into a BenchArgs. Numbers must
/// be whole decimal values (--reps > 0, --workers > 0); a malformed value
/// prints "bad argument" and returns nullopt. Arguments that are not shared
/// flags are appended to `rest`, in order, for the caller to interpret.
std::optional<BenchArgs> parse_bench_args(int argc, char** argv,
                                          std::vector<std::string>& rest);

}  // namespace indigo::bench
