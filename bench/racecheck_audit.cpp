// Determinism audit: sweeps every registered variant under the racecheck
// subsystem and asserts the paper's Table-2 / Section 2.7 expectation —
// deterministic-style codes admit no unsynchronized plain-access races,
// non-deterministic codes race only benignly (atomic RMW, monotonic
// in-place updates, declared racy-by-design ranges) — plus a negative test
// proving the detector actually fires (docs/RACECHECK.md).
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/printing.hpp"
#include "racecheck/racecheck.hpp"
#include "racecheck/selftest.hpp"

namespace {

double metric(const indigo::Measurement& m, const std::string& key) {
  const auto it = m.metrics.find(key);
  return it == m.metrics.end() ? 0.0 : it->second;
}

struct Tally {
  double atomic = 0, declared = 0, same_value = 0, monotonic = 0, harmful = 0,
         discipline = 0;
  int runs = 0;
  void add(const indigo::Measurement& m) {
    atomic += metric(m, "racecheck.conflicts_atomic");
    declared += metric(m, "racecheck.conflicts_declared");
    same_value += metric(m, "racecheck.conflicts_same_value");
    monotonic += metric(m, "racecheck.conflicts_monotonic");
    harmful += metric(m, "racecheck.conflicts_harmful");
    discipline += metric(m, "racecheck.discipline_violations");
    ++runs;
  }
};

}  // namespace

int main() {
  using namespace indigo;
  // The audit checks race classes, not timing; the smoke graphs cover every
  // kernel path in seconds. An explicit REPRO_SCALE still wins.
  setenv("REPRO_SCALE", "0", /*overwrite=*/0);

  bench::print_header(
      "Racecheck audit",
      "Dynamic race & determinism check over all registered variants",
      "Table 2 / Section 2.7: deterministic styles synchronize every "
      "conflicting access (two-array updates, kernel-boundary ordering); "
      "non-deterministic styles race on purpose but only benignly "
      "(monotonic read-write, atomic RMW, duplicate-tolerant worklists).");

  std::map<std::string, Tally> groups;
  std::size_t failed_runs = 0;

  try {
    bench::Harness h;
    for (Model m : kAllModels) {
      bench::SweepOptions sw;
      sw.model = m;
      sw.racecheck = true;
      for (const Measurement& meas : h.sweep(sw)) {
        if (!meas.verified) {
          ++failed_runs;
          continue;
        }
        const bool has_det = dimension_applies(meas.model, meas.algo,
                                               Dimension::Determinism);
        const char* det = !has_det                             ? "nodim"
                          : meas.style.det == Determinism::Det ? "det"
                                                               : "nondet";
        groups[std::string(to_string(m)) + "/" + det].add(meas);
      }
    }
  } catch (const std::invalid_argument& ex) {
    // A malformed REPRO_SCALE or INDIGO_SCHED_* value.
    std::cerr << "[error] " << ex.what() << '\n';
    return 2;
  }

  std::cout << "\nConflict classes per model/determinism group (totals over "
               "all verified runs):\n";
  std::vector<std::string> rows;
  std::vector<std::vector<double>> cells;
  for (const auto& [name, t] : groups) {
    rows.push_back(name);
    cells.push_back({static_cast<double>(t.runs), t.atomic, t.declared,
                     t.same_value, t.monotonic, t.harmful, t.discipline});
  }
  bench::print_matrix(rows,
                      {"runs", "atomic", "declared", "same_val", "monotonic",
                       "harmful", "discipline"},
                      cells, 0);

  double harmful_all = 0, discipline_all = 0, det_plain = 0, benign_nondet = 0;
  for (const auto& [name, t] : groups) {
    harmful_all += t.harmful;
    discipline_all += t.discipline;
    if (name.ends_with("/det")) det_plain += t.monotonic + t.declared;
    if (name.ends_with("/nondet")) {
      benign_nondet += t.atomic + t.declared + t.same_value + t.monotonic;
    }
  }

  bench::shape_check("no harmful race in any registered variant",
                     harmful_all == 0.0);
  bench::shape_check("no synchronization-discipline violation in any variant",
                     discipline_all == 0.0);
  bench::shape_check(
      "deterministic styles have zero unsynchronized plain-access conflicts",
      det_plain == 0.0);
  bench::shape_check(
      "non-deterministic styles exhibit their benign races (sum > 0)",
      benign_nondet > 0.0);
  bench::shape_check("all registered variants verified under racecheck",
                     failed_runs == 0);

  // Negative test: the detector must fire on a known-bad kernel and stay
  // silent on its synchronized twin.
  const auto bad =
      racecheck::selftest::injected_race_report(vcuda::rtx3090_like());
  const auto good =
      racecheck::selftest::synced_control_report(vcuda::rtx3090_like());
  bench::shape_check("injected-race kernel is detected as harmful",
                     bad.conflicts_harmful > 0);
  bench::shape_check("synchronized control kernel reports zero conflicts",
                     good.total_conflicts() == 0);
  if (!bad.notes.empty()) {
    std::cout << "\n  detector sample: " << bad.notes.front() << '\n';
  }

  return bench::exit_code();
}
