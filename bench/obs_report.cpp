// Observability demo: re-derives the paper's Section 5.5 explanation of the
// push-vs-pull gap from hardware-style counters instead of asserting it.
//
// The paper argues push-style codes win on the worklist/non-deterministic
// styles but lose their advantage where same-address atomic traffic piles
// up: push writes to the *neighbor's* label, so hub vertices of a power-law
// graph become serialization hotspots, while pull only writes to the
// vertex a thread owns. With the obs layer on, the simulator exports the
// same-address conflict chains its timing model already charges, so the
// mechanism is observable per program: this binary measures matched
// push/pull pairs of virtual-CUDA SSSP on the RMAT input and prints their
// atomic-conflict counters side by side.
//
// Run with INDIGO_TRACE=trace.json and/or INDIGO_METRICS=runs.jsonl to get
// the exportable artifacts (per-launch spans; per-measurement records).
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util/args.hpp"
#include "bench_util/printing.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "vcuda/sim.hpp"

int main(int argc, char** argv) {
  using namespace indigo;
  // The report measures one fixed set of cuda SSSP pairs, so --reps is its
  // only flag; parse_bench_args validates its value.
  for (int i = 1; i < argc; ++i) {
    if (!std::string_view(argv[i]).starts_with("--reps=")) {
      std::cerr << "bad argument: " << argv[i] << '\n'
                << "usage: obs_report [--reps=N]\n";
      return 2;
    }
  }
  std::vector<std::string> rest;
  const std::optional<bench::BenchArgs> args =
      bench::parse_bench_args(argc, argv, rest);
  if (!args) {
    std::cerr << "usage: obs_report [--reps=N]\n";
    return 2;
  }
  // Counters are the whole point here: force the layer on even when no
  // INDIGO_TRACE/INDIGO_METRICS export was requested.
  obs::set_enabled(true);
  bench::print_header(
      "Obs report", "Section 5.5 push vs pull, explained by counters",
      "Push-style SSSP updates neighbor labels and therefore accumulates "
      "same-address atomic conflicts on RMAT hub vertices; pull-style "
      "updates only the owned vertex and stays conflict-free.");
  try {
    bench::Harness h;
    const Graph* rmat = nullptr;
    for (const Graph& g : h.graphs()) {
      if (g.name().starts_with("rmat-")) rmat = &g;
    }
    if (rmat == nullptr) {
      std::cerr << "no rmat input generated\n";
      return 1;
    }

    // Matched pairs: identical style except the Direction dimension.
    // Read-modify-write classic atomics so the conflict chains are the
    // mechanism under observation (read-write push races instead of
    // serializing, and cuda::atomic adds the orthogonal fence penalty).
    const auto selected =
        Registry::instance().select(Model::Cuda, Algorithm::SSSP);
    std::map<std::string, const Variant*> push_of, pull_of;
    for (const Variant* v : selected) {
      if (v->style.alib != AtomicsLib::Classic) continue;
      if (v->style.upd != Update::ReadModifyWrite) continue;
      const StyleConfig base =
          with_dimension(v->style, Dimension::Direction, 0);
      const std::string key =
          program_name(Model::Cuda, Algorithm::SSSP, base);
      (v->style.dir == Direction::Push ? push_of : pull_of)[key] = v;
    }

    std::vector<std::string> row_labels;
    std::vector<std::vector<double>> cells;
    std::vector<std::pair<Measurement, Measurement>> measured;
    int pairs = 0, push_heavier = 0;
    double push_total = 0, pull_total = 0;
    for (const auto& [key, push_v] : push_of) {
      const auto it = pull_of.find(key);
      if (it == pull_of.end()) continue;
      const Measurement mp =
          h.measure_one(*push_v, *rmat, nullptr, args->reps);
      const Measurement ml =
          h.measure_one(*it->second, *rmat, nullptr, args->reps);
      if (!mp.verified || !ml.verified) continue;
      auto conflicts = [](const Measurement& m) {
        const auto c = m.metrics.find("vcuda.atomic_conflicts");
        return c == m.metrics.end() ? 0.0 : c->second;
      };
      const double cp = conflicts(mp), cl = conflicts(ml);
      ++pairs;
      push_heavier += cp > cl;
      push_total += cp;
      pull_total += cl;
      row_labels.push_back(key);
      cells.push_back({cp, cl, mp.throughput_ges / ml.throughput_ges});
      measured.emplace_back(mp, ml);
    }

    bench::print_matrix(
        row_labels, {"conflicts(push)", "conflicts(pull)", "thr push/pull"},
        cells, 2);
    std::cout << "\npairs: " << pairs << ", push heavier in " << push_heavier
              << "; total conflicts push=" << push_total
              << " pull=" << pull_total << '\n';

    // Distribution shape, not just extremes: each measurement's metrics
    // carry log2-bucket percentiles of its own launches' distributions.
    std::set<std::string> stems;
    for (const auto& [mp, ml] : measured) {
      for (const auto& [name, value] : mp.metrics) {
        if (name.ends_with(".p50")) stems.insert(name.substr(0, name.size() - 4));
      }
    }
    for (const std::string& stem : stems) {
      std::vector<std::vector<double>> pct;
      for (const auto& [mp, ml] : measured) {
        std::vector<double> row;
        for (const Measurement* m : {&mp, &ml}) {
          for (const char* q : {".p50", ".p95", ".p99"}) {
            const auto it = m->metrics.find(stem + q);
            row.push_back(it == m->metrics.end() ? 0.0 : it->second);
          }
        }
        pct.push_back(std::move(row));
      }
      std::cout << "\n" << stem << " percentiles per pair:\n";
      bench::print_matrix(row_labels,
                          {"p50(push)", "p95(push)", "p99(push)", "p50(pull)",
                           "p95(pull)", "p99(pull)"},
                          pct, 2);
    }

    // Device-memory plane: the capacity model's peak footprint over the
    // same launches that produced the conflict counters.
    std::cout << "\ndevice memory:\n"
              << "  peak modeled footprint: "
              << bench::format_bytes(vcuda::peak_modeled_footprint_bytes())
              << '\n';

    bench::shape_check(
        "push-style SSSP incurs strictly more same-address atomic conflicts "
        "than pull-style on rmat (every matched pair)",
        pairs > 0 && push_heavier == pairs);
    bench::shape_check(
        "pull-style SSSP is conflict-free on owned-vertex updates",
        pairs > 0 && pull_total < push_total);

    if (!obs::trace_path().empty()) {
      std::cout << "trace spans collected: " << obs::trace_events().size()
                << " -> " << obs::trace_path() << '\n';
    }
    if (!obs::metrics_path().empty()) {
      std::cout << "run records appended to " << obs::metrics_path() << '\n';
    }
  } catch (const std::exception& ex) {
    std::cerr << "[error] " << ex.what() << '\n';
    return 2;
  }
  return bench::exit_code();
}
