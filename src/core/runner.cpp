#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "algorithms/serial/serial.hpp"
#include "core/registry.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "racecheck/racecheck.hpp"
#include "stats/summary.hpp"
#include "vcuda/sim.hpp"

namespace indigo {

// Out of line rather than constexpr in the header: as compile-time values
// they change GCC's code layout of the vcuda PR host loops (pr_run), which
// ran the level-0 PR programs about 15% slower in single-thread timing.
const double kPrEpsilon = 1e-6;
const std::uint64_t kMaxIterations = 1u << 22;

Verifier::Verifier(const Graph& g, vid_t source) : g_(g), source_(source) {}

namespace {

std::string mismatch(const std::string& what, std::size_t index,
                     double expected, double actual) {
  std::ostringstream os;
  os << what << " mismatch at " << index << ": expected " << expected
     << ", got " << actual;
  return os.str();
}

}  // namespace

std::string Verifier::check(Algorithm a, const AlgoOutput& out) {
  std::lock_guard lk(mu_);
  const vid_t n = g_.num_vertices();
  switch (a) {
    case Algorithm::BFS: {
      if (!have_bfs_) {
        bfs_ = serial::bfs(g_, source_);
        have_bfs_ = true;
      }
      if (out.labels.size() != n) return "BFS output has wrong size";
      for (vid_t v = 0; v < n; ++v) {
        if (out.labels[v] != bfs_[v])
          return mismatch("BFS distance", v, bfs_[v], out.labels[v]);
      }
      return {};
    }
    case Algorithm::SSSP: {
      if (!have_sssp_) {
        sssp_ = serial::sssp(g_, source_);
        have_sssp_ = true;
      }
      if (out.labels.size() != n) return "SSSP output has wrong size";
      for (vid_t v = 0; v < n; ++v) {
        if (out.labels[v] != sssp_[v])
          return mismatch("SSSP distance", v, sssp_[v], out.labels[v]);
      }
      return {};
    }
    case Algorithm::CC: {
      if (!have_cc_) {
        cc_ = serial::cc(g_);
        have_cc_ = true;
      }
      if (out.labels.size() != n) return "CC output has wrong size";
      // Min-label propagation converges to the smallest id per component,
      // which is exactly the serial reference's normalization.
      for (vid_t v = 0; v < n; ++v) {
        if (out.labels[v] != cc_[v])
          return mismatch("CC label", v, cc_[v], out.labels[v]);
      }
      return {};
    }
    case Algorithm::MIS: {
      if (!have_mis_) {
        mis_ = serial::mis(g_);
        have_mis_ = true;
      }
      if (out.labels.size() != n) return "MIS output has wrong size";
      // The priority-greedy MIS is unique, so exact comparison is valid
      // (and subsumes independence + maximality).
      for (vid_t v = 0; v < n; ++v) {
        if ((out.labels[v] != 0) != (mis_[v] != 0))
          return mismatch("MIS membership", v, mis_[v], out.labels[v]);
      }
      return {};
    }
    case Algorithm::PR: {
      if (!have_pr_) {
        pr_ = serial::pagerank(g_);
        have_pr_ = true;
      }
      if (out.ranks.size() != n) return "PR output has wrong size";
      // All variants converge to the same fixpoint; tolerate iteration-
      // order and float-atomics differences with a mixed abs/rel bound
      // (residual thresholds leave up to ~epsilon/(1-d) of L1 slack).
      for (vid_t v = 0; v < n; ++v) {
        const double e = pr_[v], got = out.ranks[v];
        const double tol = 2e-3 * std::abs(e) + 1e-2 / std::max<double>(n, 1);
        if (std::abs(e - got) > tol)
          return mismatch("PageRank score", v, e, got);
      }
      return {};
    }
    case Algorithm::TC: {
      if (!have_tc_) {
        tc_ = serial::tc(g_);
        have_tc_ = true;
      }
      if (out.count != tc_)
        return mismatch("triangle count", 0, static_cast<double>(tc_),
                        static_cast<double>(out.count));
      return {};
    }
  }
  return "unknown algorithm";
}

Measurement measure(const Variant& v, const Graph& g, const RunOptions& opts,
                    int reps, Verifier& verifier) {
  Measurement m;
  m.program = v.name;
  m.model = v.model;
  m.algo = v.algo;
  m.style = v.style;
  m.graph = g.name();

  // Instruments. A cuda run's come from the Devices it creates, which hand
  // their totals and racecheck findings to `scope` as they are destroyed,
  // so cuda measurements may share the pool. An omp/cpp run's are deltas
  // of the process-wide counters and racecheck report; they stay exact
  // because a WallClock job runs alone in the exclusive lane, which it
  // needs for its timing anyway.
  const bool cuda = v.model == Model::Cuda;
  const bool observe = obs::enabled();
  const bool racecheck_on = racecheck::enabled();
  std::map<std::string, double> before;
  racecheck::Report rc_before;
  if (!cuda && observe) before = obs::CounterRegistry::instance().snapshot();
  if (!cuda && racecheck_on) rc_before = racecheck::global_report();
  vcuda::MetricsScope scope;
  obs::Span span("measure", "harness");
  span.arg("program", v.name);
  span.arg("graph", g.name());

  // A vcuda run is deterministic: further reps would re-simulate identical
  // work, so one simulation stands for all of them (median unchanged).
  const int runs = cuda ? 1 : std::max(1, reps);
  std::vector<double> times;
  RunResult last;
  for (int r = 0; r < runs; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    last = v.run(g, opts);
    const auto t1 = std::chrono::steady_clock::now();
    // A vcuda variant reports its simulated time directly.
    times.push_back(cuda ? last.seconds
                         : std::chrono::duration<double>(t1 - t0).count());
  }
  m.seconds = stats::median(times);
  m.iterations = last.iterations;
  // Metrics accumulate per executed run, so average over the runs.
  const double denom = runs;
  if (observe) {
    if (cuda) {
      m.metrics = scope.totals().metrics();
    } else {
      m.metrics = obs::CounterRegistry::delta(
          before, obs::CounterRegistry::instance().snapshot());
      // Counters accumulated over every rep; report the per-run average.
      // Distribution extremes (.min/.max) are run-final values, not sums.
      for (auto& [key, value] : m.metrics) {
        if (key.ends_with(".min") || key.ends_with(".max")) continue;
        value /= denom;
      }
    }
    span.arg("seconds", m.seconds);
    span.arg("iterations", static_cast<double>(m.iterations));
  }
  if (racecheck_on) {
    // Written directly (not through the obs counters) so the audit works
    // with tracing off; per-rep averages like the obs counters.
    const racecheck::Report rc =
        cuda ? scope.racecheck_report()
             : racecheck::diff(racecheck::global_report(), rc_before);
    for (const auto& [key, value] : racecheck::metric_entries(rc)) {
      m.metrics[key] = value / denom;
    }
  }
  span.end();
  if (!last.converged) {
    m.error = "did not converge within max_iterations";
    return m;
  }
  m.error = verifier.check(v.algo, last.output);
  m.verified = m.error.empty();
  // Paper Section 4.5: edges / runtime / 1e9.
  m.throughput_ges = static_cast<double>(g.num_edges()) /
                     std::max(m.seconds, 1e-12) / 1e9;
  return m;
}

}  // namespace indigo
