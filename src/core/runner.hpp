// Variant execution: options, results, timing, throughput.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/styles.hpp"
#include "graph/csr.hpp"
#include "vcuda/device_spec.hpp"

namespace indigo {

/// Union of the six algorithms' outputs; which fields are meaningful
/// depends on the algorithm:
///   CC   -> labels (component label per vertex)
///   MIS  -> labels (1 = in the set, 0 = out)
///   BFS  -> labels (hop distance, kInfDist unreachable)
///   SSSP -> labels (weighted distance, kInfDist unreachable)
///   PR   -> ranks
///   TC   -> count (triangles)
struct AlgoOutput {
  std::vector<std::uint32_t> labels;
  std::vector<float> ranks;
  std::uint64_t count = 0;
};

/// PR convergence threshold: the L1 residual below which every PageRank
/// code (variants and baselines) stops. Defined in runner.cpp.
extern const double kPrEpsilon;
/// Convergence guard: the iteration count at which every iterative code
/// gives up (RunResult::converged = false). Defined in runner.cpp.
extern const std::uint64_t kMaxIterations;

/// Per-run options shared by all variants. The race/determinism checker is
/// not an option: a run is checked while racecheck::enabled() holds (see
/// src/racecheck), which a sweep turns on around all its jobs.
struct RunOptions {
  vid_t source = 0;                            // BFS/SSSP root
  int num_threads = 0;                         // 0 = cpu_threads()
  const vcuda::DeviceSpec* device = nullptr;   // required for Model::Cuda
  /// Data-driven relaxation variants size their worklists generously
  /// (2m + 2n + 1024 entries) and in practice never overflow. Tests set
  /// this to a small nonzero value to clamp the *logical* capacity below
  /// the allocation, forcing the overflow path (saturating device guard +
  /// host recovery sweep) to run on tiny graphs. 0 = use the allocated
  /// capacity.
  std::uint32_t wl_cap_override = 0;
};

/// What one variant execution produced.
struct RunResult {
  AlgoOutput output;
  double seconds = 0;        // wall time (CPU) or simulated time (vcuda)
  std::uint64_t iterations = 0;
  bool converged = true;     // false if kMaxIterations was hit
};

/// Checks a variant's output against the serial references, computing the
/// references lazily (and only once) per graph.
class Verifier {
 public:
  Verifier(const Graph& g, vid_t source);

  /// Empty string if correct, otherwise a description of the mismatch.
  /// Thread-safe: one Verifier is shared by every concurrent measurement
  /// of the same graph, and the lazily built references must not race.
  std::string check(Algorithm a, const AlgoOutput& out);

 private:
  std::mutex mu_;
  const Graph& g_;
  vid_t source_;
  std::vector<dist_t> bfs_, sssp_;
  std::vector<vid_t> cc_;
  std::vector<std::uint8_t> mis_;
  std::vector<float> pr_;
  std::uint64_t tc_ = 0;
  bool have_bfs_ = false, have_sssp_ = false, have_cc_ = false,
       have_mis_ = false, have_pr_ = false, have_tc_ = false;
};

struct Variant;  // see core/registry.hpp

/// One timed, verified data point: variant x graph.
struct Measurement {
  std::string program;     // program_name()
  Model model{};
  Algorithm algo{};
  StyleConfig style{};
  std::string graph;
  double seconds = 0;          // median over reps
  double throughput_ges = 0;   // giga-edges/s (paper Section 4.5)
  std::uint64_t iterations = 0;
  bool verified = false;
  std::string error;
  /// Per-run observability counters (counter-name -> per-rep delta), filled
  /// only while the obs layer is enabled (INDIGO_TRACE / INDIGO_METRICS),
  /// plus racecheck.* audit tallies while racecheck::enabled() holds.
  /// Cycle-valued counters are averages over reps, hence double.
  std::map<std::string, double> metrics;
};

/// Runs `v` on `g` `reps` times, medians the time, verifies the last
/// output. A vcuda run is deterministic, so a Model::Cuda variant is
/// simulated once and that time stands for every rep. `verifier` may be
/// shared across calls for the same graph.
Measurement measure(const Variant& v, const Graph& g, const RunOptions& opts,
                    int reps, Verifier& verifier);

}  // namespace indigo
