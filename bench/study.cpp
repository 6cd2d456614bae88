// The reproduction of the paper's evaluation: every table, figure and
// section is one entry of this binary, named after the experiment (see
// DESIGN.md's per-experiment index).
//
//   study [name...] [--model=M] [--algo=A] [--reps=N] [--workers=N]
//
// With no names it runs every entry in the paper's order. Each entry prints
// its banner (the paper claim it reproduces), its table or distributions and
// one `[SHAPE PASS]`/`[SHAPE DIFF]` line per check. The measuring entries
// share one Harness, so one journal (REPRO_CACHE) serves them all; the
// structural tables (Tables 2-5) open no journal. Exit status: 0 when
// every check held, 1 when one differs, 2 on a bad argument or a malformed
// environment value (REPRO_SCALE, INDIGO_SCHED_*).
//
// --model restricts the figures that compare models; the flags otherwise
// apply to every sweep an entry makes.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_util/args.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/printing.hpp"
#include "core/validity.hpp"
#include "graph/properties.hpp"
#include "obs/telemetry.hpp"
#include "variants/register_all.hpp"
#include "vcuda/device_spec.hpp"

namespace {

using namespace indigo;

// ---------------------------------------------------------------------------
// Shared by the figures.

/// Sweeps model `m` under the shared flags, classic atomics only for cuda
/// (the paper excludes the CudaAtomic codes after Section 5.1).
std::vector<Measurement> sweep_model(bench::Harness& h,
                                     const bench::BenchArgs& args, Model m) {
  bench::SweepOptions sw = args.sweep();
  sw.model = m;
  if (m == Model::Cuda) {
    sw.style_filter = [](const Variant& v) {
      return v.style.alib == AtomicsLib::Classic;
    };
  }
  return h.sweep(sw);
}

/// The non-persistent vertex-based thread-granularity codes: the slice Fig
/// 1 and guideline G3a compare the two atomics libraries on.
bool thread_vertex_slice(const Variant& v) {
  return v.style.pers == Persistence::NonPersistent &&
         v.style.gran == Granularity::Thread && v.style.flow == Flow::Vertex;
}

/// One panel of a paired-ratio figure (Figs 1-8, 12, 13): prints
/// "--- heading ---" (none when empty), then the boxen of the
/// value_a-over-value_b throughput ratios of `ms` per algorithm, and
/// returns those samples.
std::vector<stats::NamedSample> ratio_panel(std::span<const Measurement> ms,
                                            const std::string& heading,
                                            std::span<const Algorithm> algos,
                                            Dimension d, int value_a,
                                            int value_b,
                                            const std::string& y_label) {
  if (!heading.empty()) std::cout << "\n--- " << heading << " ---\n";
  const auto samples =
      bench::ratio_samples_by_algorithm(ms, algos, d, value_a, value_b);
  bench::print_distribution(samples, y_label);
  return samples;
}

/// One panel of a throughput figure (Figs 9-11): prints "--- heading ---"
/// and the throughput distribution of the verified measurements of `ms`
/// that `keep` accepts (all when null), one sample per value of `d`,
/// labelled `labels`. Returns each value's median, or 0 when it has no
/// samples.
std::array<double, 3> throughput_panel(
    std::span<const Measurement> ms, Dimension d,
    const std::array<const char*, 3>& labels,
    const std::function<bool(const Measurement&)>& keep,
    const std::string& heading, const std::string& y_label) {
  std::vector<stats::NamedSample> samples(3);
  for (std::size_t k = 0; k < 3; ++k) samples[k].label = labels[k];
  for (const Measurement& m : ms) {
    if (!m.verified || (keep && !keep(m))) continue;
    samples[static_cast<std::size_t>(get_dimension(m.style, d))]
        .values.push_back(m.throughput_ges);
  }
  std::cout << "\n--- " << heading << " ---\n";
  bench::print_distribution(samples, y_label);
  std::array<double, 3> med{};
  for (std::size_t k = 0; k < 3; ++k) {
    med[k] = samples[k].values.empty() ? 0 : stats::median(samples[k].values);
  }
  return med;
}

// ---------------------------------------------------------------------------
// Tables 2-5: structural, measured by no sweep.

// The style applicability matrix, generated from the same validity rules
// the registry uses (so the printed table is the truth about what this
// suite instantiates).
void tab02_styles() {
  std::cout << "('+' = alternative exists for the algorithm; per-model "
               "dimensions shown for their model)\n\n";

  printf("%-18s", "style dimension");
  for (Algorithm a : kAllAlgorithms) printf("%7s", to_string(a));
  printf("\n");
  for (Dimension d : kAllDimensions) {
    // Pick the model the dimension belongs to.
    Model m = Model::Cuda;
    if (d == Dimension::CpuReduction || d == Dimension::OmpSched) {
      m = Model::OpenMP;
    } else if (d == Dimension::CppSched) {
      m = Model::CppThreads;
    }
    printf("%-18s", to_string(d));
    for (Algorithm a : kAllAlgorithms) {
      std::string cell;
      if (!dimension_applies(m, a, d)) {
        cell = "-";
      } else {
        // Count how many alternatives survive the pairing constraints in
        // at least one full configuration.
        int alts = 0;
        for (int v = 0; v < dimension_cardinality(d); ++v) {
          bool any = false;
          // Scan a coarse sample of the rest of the space.
          for (int f = 0; f < 2 && !any; ++f)
            for (int dr = 0; dr < 3 && !any; ++dr)
              for (int di = 0; di < 2 && !any; ++di)
                for (int up = 0; up < 2 && !any; ++up)
                  for (int de = 0; de < 2 && !any; ++de) {
                    StyleConfig c;
                    c.flow = static_cast<Flow>(f);
                    c.drive = static_cast<Drive>(dr);
                    c.dir = static_cast<Direction>(di);
                    c.upd = static_cast<Update>(up);
                    c.det = static_cast<Determinism>(de);
                    c = with_dimension(c, d, v);
                    any = is_valid(m, a, c);
                  }
          alts += any;
        }
        for (int k = 0; k < alts; ++k) cell += cell.empty() ? "+" : ",+";
      }
      printf("%7s", cell.c_str());
    }
    printf("\n");
  }
}

// The number of code versions per model and algorithm. The paper's exact
// counts come from Indigo2's curated config lists; this suite generates
// every combination valid under Table 2 plus the stated pairing
// constraints (see DESIGN.md "Variant-count note"), so the check is
// structural: same ordering, same ballpark, exact matches where the rules
// fully determine the count (CUDA/OpenMP PR and TC).
void tab03_versions() {
  variants::register_all_variants();
  const auto& reg = Registry::instance();

  const std::size_t paper[3][7] = {{168, 112, 54, 72, 180, 168, 754},
                                   {36, 36, 18, 12, 38, 36, 176},
                                   {36, 36, 18, 12, 38, 36, 176}};
  const char* row_names[3] = {"CUDA (sim)", "OpenMP", "C++ threads"};
  printf("%-14s%8s%8s%8s%8s%8s%8s%8s\n", "Language", "CC", "MIS", "PR", "TC",
         "BFS", "SSSP", "Total");
  std::size_t grand = 0;
  const Algorithm order[] = {Algorithm::CC,  Algorithm::MIS, Algorithm::PR,
                             Algorithm::TC,  Algorithm::BFS, Algorithm::SSSP};
  for (int r = 0; r < 3; ++r) {
    const Model m = kAllModels[r];
    printf("%-14s", row_names[r]);
    std::size_t total = 0;
    for (Algorithm a : order) {
      const std::size_t c = reg.count(m, a);
      total += c;
      printf("%8zu", c);
    }
    printf("%8zu\n", total);
    printf("%-14s", "  (paper)");
    for (int c = 0; c < 7; ++c) printf("%8zu", paper[r][c]);
    printf("\n");
    grand += total;
  }
  printf("\nTotal programs in this suite: %zu (paper: 1106)\n", grand);

  bench::shape_check("CUDA count >> OpenMP count == C++ count",
                     reg.select(Model::Cuda).size() >
                             3 * reg.select(Model::OpenMP).size() &&
                         reg.select(Model::OpenMP).size() ==
                             reg.select(Model::CppThreads).size());
  bench::shape_check("rule-determined counts match the paper exactly "
                     "(CUDA PR=54, CUDA TC=72, OMP PR=18, OMP TC=12)",
                     reg.count(Model::Cuda, Algorithm::PR) == 54 &&
                         reg.count(Model::Cuda, Algorithm::TC) == 72 &&
                         reg.count(Model::OpenMP, Algorithm::PR) == 18 &&
                         reg.count(Model::OpenMP, Algorithm::TC) == 12);
  bench::shape_check("total within 25% of the paper's 1106",
                     grand > 830 && grand < 1400);
}

// Tables 4 + 5: the five study inputs and their structural properties,
// printed next to the paper's originals. The generated stand-ins are
// smaller (REPRO_SCALE-controlled) but must preserve the
// degree-distribution and diameter classes the analysis relies on.
void tab04_graphs() {
  printf("%-16s%-18s%12s%12s%10s%8s%8s%9s%9s%10s\n", "stand-in", "paper graph",
         "vertices", "edges", "size(MB)", "d_avg", "d_max", "d>=32",
         "d>=512", "diameter");
  GraphProperties props[5];
  int i = 0;
  for (InputClass c : kAllInputs) {
    const Graph g = make_input(c, default_input_scale(c));
    props[i] = compute_properties(g);
    const auto& p = props[i];
    printf("%-16s%-18s%12u%12u%10.1f%8.1f%8u%8.1f%%%8.2f%%%10u\n",
           input_class_name(c), input_class_paper_name(c), p.vertices,
           p.edges, p.size_mb, p.avg_degree, p.max_degree, p.pct_deg_ge_32,
           p.pct_deg_ge_512, p.diameter);
    ++i;
  }
  printf("\nPaper's originals (Table 4/5): 2d-2e20 d_avg 4.0 diam 2047; "
         "coPapersDBLP d_avg 56.4 diam 24; rmat22 d_avg 15.7 diam 19; "
         "soc-LiveJournal1 d_avg 17.7 d_max 20333 diam 21; USA-road-d.NY "
         "d_avg 2.8 diam 721.\n\n");

  // Shape checks, in kAllInputs order: grid, copaper, rmat, social, road.
  const auto& grid = props[0];
  const auto& copaper = props[1];
  const auto& rmat = props[2];
  const auto& social = props[3];
  const auto& road = props[4];
  bench::shape_check("grid: degree <= 4, no d>=32, by far largest diameter",
                     grid.max_degree <= 4 && grid.pct_deg_ge_32 == 0 &&
                         grid.diameter > 4 * rmat.diameter);
  bench::shape_check("road map: d_avg < 4, high diameter, uniform degrees",
                     road.avg_degree < 4.0 && road.pct_deg_ge_32 == 0 &&
                         road.diameter > 3 * rmat.diameter);
  bench::shape_check("rmat & social: low diameter, power-law tails; the "
                     "social graph is relatively more hub-dominated",
                     rmat.diameter < 40 && social.diameter < 40 &&
                         rmat.pct_deg_ge_32 > 1.0 &&
                         social.max_degree / social.avg_degree >
                             rmat.max_degree / rmat.avg_degree);
  bench::shape_check("copaper: densest graph (highest d_avg), like "
                     "coPapersDBLP's 56.4",
                     copaper.avg_degree > grid.avg_degree &&
                         copaper.avg_degree > rmat.avg_degree &&
                         copaper.avg_degree > social.avg_degree &&
                         copaper.avg_degree > road.avg_degree &&
                         copaper.pct_deg_ge_32 > 5.0);
}

// ---------------------------------------------------------------------------
// Figures 1-13: one style dimension at a time.

// Classic Atomic over default CudaAtomic codes on the two simulated GPUs.
void fig01_cudaatomic(bench::Harness& h, const bench::BenchArgs& args) {
  const vcuda::DeviceSpec rtx = vcuda::rtx3090_like();
  const vcuda::DeviceSpec titan = vcuda::titanv_like();

  // PR is excluded: CudaAtomic does not support floats (Section 5.1).
  const Algorithm algos[] = {Algorithm::CC, Algorithm::MIS, Algorithm::TC,
                             Algorithm::BFS, Algorithm::SSSP};

  double med_rtx_core = 0, med_titan_core = 0, med_rtx_tc = 0;
  for (const auto* dev : {&rtx, &titan}) {
    std::vector<Measurement> ms;
    for (Algorithm a : algos) {  // PR skipped: it has no CudaAtomic codes
      bench::SweepOptions sw = args.sweep();
      sw.model = Model::Cuda;
      sw.algo = a;
      sw.device = dev;
      // The persistence, granularity, and flow dimensions are orthogonal
      // to the atomics-library effect (the fence cost applies per shared-
      // data access regardless of how work is mapped); measuring the
      // non-persistent vertex/thread slice keeps this figure's two-device
      // sweep affordable while retaining every drive/direction/update/
      // determinism combination of all five algorithms.
      sw.style_filter = thread_vertex_slice;
      const auto part = h.sweep(sw);
      ms.insert(ms.end(), part.begin(), part.end());
    }
    const auto samples = ratio_panel(
        ms, dev->name, algos, Dimension::AtomicsLib,
        static_cast<int>(AtomicsLib::Classic),
        static_cast<int>(AtomicsLib::CudaAtomic), "Atomic / CudaAtomic");
    std::vector<double> core;
    double tc_med = 0;
    for (const auto& s : samples) {
      if (s.values.empty()) continue;
      const double med = stats::median(s.values);
      if (s.label == "tc") {
        tc_med = med;
      } else {
        core.push_back(med);
      }
    }
    const double med_core = stats::median(core);
    if (dev == &rtx) {
      med_rtx_core = med_core;
      med_rtx_tc = tc_med;
    } else {
      med_titan_core = med_core;
    }
  }

  bench::shape_check("Atomic beats default CudaAtomic by >= 3x on the "
                     "RTX3090-like device (paper: ~10x median)",
                     med_rtx_core > 3.0);
  bench::shape_check("the Titan-V-like device pays several times more "
                     "(paper: ~100x median)",
                     med_titan_core > 3.0 * med_rtx_core);
  bench::shape_check("TC's ratio is markedly lower than the other codes'",
                     med_rtx_tc < med_rtx_core / 2.0);
}

// Vertex- over edge-based codes on the simulated GPU (a), the CPU models
// (b), and the thread-level TC subset (c).
void fig02_vertex_edge(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::BFS, Algorithm::CC, Algorithm::MIS,
                             Algorithm::SSSP, Algorithm::TC};

  auto flow_panel = [](std::span<const Measurement> ms, const char* heading,
                       std::span<const Algorithm> algs) {
    return ratio_panel(ms, heading, algs, Dimension::Flow,
                       static_cast<int>(Flow::Vertex),
                       static_cast<int>(Flow::Edge), "vertex / edge");
  };

  // (a) CUDA, excluding the CudaAtomic codes (Section 5.1).
  const auto cuda_ms = sweep_model(h, args, Model::Cuda);
  const auto cuda_samples = flow_panel(cuda_ms, "(a) CUDA (simulated)", algos);

  // (b) OpenMP and C++ threads pooled, as in the paper's figure.
  auto cpu_ms = sweep_model(h, args, Model::OpenMP);
  const auto cpp_ms = sweep_model(h, args, Model::CppThreads);
  cpu_ms.insert(cpu_ms.end(), cpp_ms.begin(), cpp_ms.end());
  const auto cpu_samples =
      flow_panel(cpu_ms, "(b) OpenMP and C++ threads", algos);

  // (c) Thread-granularity TC subset on the GPU.
  std::vector<Measurement> thread_tc;
  for (const Measurement& m : cuda_ms) {
    if (m.algo == Algorithm::TC && m.style.gran == Granularity::Thread) {
      thread_tc.push_back(m);
    }
  }
  const Algorithm tc_only[] = {Algorithm::TC};
  const auto tc_samples =
      flow_panel(thread_tc, "(c) thread-granularity TC", tc_only);

  auto median_of = [](const std::vector<stats::NamedSample>& ss,
                      const char* label) {
    for (const auto& s : ss) {
      if (s.label == label && !s.values.empty()) return stats::median(s.values);
    }
    return 0.0;
  };
  bench::shape_check("GPU MIS strongly prefers vertex-based (paper ~10x)",
                     median_of(cuda_samples, "mis") > 2.0);
  bench::shape_check("thread-level GPU TC prefers edge-based (median < 1)",
                     !tc_samples[0].values.empty() &&
                         stats::median(tc_samples[0].values) < 1.0);
  std::vector<double> cpu_medians;
  for (const auto& s : cpu_samples) {
    if (!s.values.empty()) cpu_medians.push_back(stats::median(s.values));
  }
  std::size_t above = 0;
  for (double m : cpu_medians) above += m > 1.0;
  bench::shape_check("most CPU medians are above 1 (CPUs prefer vertex)",
                     above * 2 > cpu_medians.size());
}

// Topology-driven over data-driven codes with duplicates allowed on the
// worklist.
void fig03_topo_dd_dup(bench::Harness& h, const bench::BenchArgs& args) {
  // MIS only supports no-duplicates; TC and PR have no data-driven codes.
  const Algorithm algos[] = {Algorithm::CC, Algorithm::BFS, Algorithm::SSSP};

  double med[3] = {0, 0, 0};  // per model, in kAllModels order
  for (Model m : args.models()) {
    const auto samples = ratio_panel(
        sweep_model(h, args, m), to_string(m), algos, Dimension::Drive,
        static_cast<int>(Drive::Topology), static_cast<int>(Drive::DataDup),
        "topology / data-dup");
    std::vector<double> all;
    for (const auto& s : samples) {
      all.insert(all.end(), s.values.begin(), s.values.end());
    }
    med[static_cast<int>(m)] = all.empty() ? 0.0 : stats::median(all);
  }

  bench::shape_check("CUDA(sim) prefers data-driven (median < 1)", med[0] < 1);
  bench::shape_check("OpenMP prefers data-driven (median < 1)", med[1] < 1);
  bench::shape_check("C++ threads prefers topology-driven (median > 1)",
                     med[2] > 1);
}

// Topology-driven over data-driven codes without duplicates on the
// worklist (includes MIS).
void fig04_topo_dd_nodup(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::CC, Algorithm::MIS, Algorithm::BFS,
                             Algorithm::SSSP};

  double cuda_med = 0, cpp_med = 0, omp_mis_med = 0;
  for (Model m : args.models()) {
    const auto samples = ratio_panel(
        sweep_model(h, args, m), to_string(m), algos, Dimension::Drive,
        static_cast<int>(Drive::Topology),
        static_cast<int>(Drive::DataNoDup), "topology / data-nodup");
    std::vector<double> all;
    for (const auto& s : samples) {
      all.insert(all.end(), s.values.begin(), s.values.end());
      if (m == Model::OpenMP && s.label == "mis" && !s.values.empty()) {
        omp_mis_med = stats::median(s.values);
      }
    }
    if (all.empty()) continue;
    if (m == Model::Cuda) cuda_med = stats::median(all);
    if (m == Model::CppThreads) cpp_med = stats::median(all);
  }

  bench::shape_check("CUDA(sim) prefers data-driven (median < 1)",
                     cuda_med < 1);
  bench::shape_check("C++ threads prefers topology-driven (median > 1)",
                     cpp_med > 1);
  bench::shape_check("OpenMP MIS prefers topology-driven (median > 1)",
                     omp_mis_med > 1);
}

// Push- over pull-style codes.
void fig05_push_pull(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::CC, Algorithm::MIS, Algorithm::PR,
                             Algorithm::BFS, Algorithm::SSSP};
  int core_above = 0, core_total = 0;
  double pr_med_sum = 0;
  int pr_count = 0;
  for (Model m : args.models()) {
    const auto samples = ratio_panel(
        sweep_model(h, args, m), to_string(m), algos, Dimension::Direction,
        static_cast<int>(Direction::Push), static_cast<int>(Direction::Pull),
        "push / pull");
    for (const auto& s : samples) {
      if (s.values.empty()) continue;
      const double med = stats::median(s.values);
      if (s.label == "pr") {
        pr_med_sum += med;
        ++pr_count;
      } else {
        ++core_total;
        core_above += med > 1.0;
      }
    }
  }

  bench::shape_check(
      "push beats pull for most of CC/MIS/BFS/SSSP across models",
      core_above * 3 >= core_total * 2);
  bench::shape_check("PR does not follow the push preference (mean of "
                     "medians <= ~1.2)",
                     pr_count > 0 && pr_med_sum / pr_count <= 1.2);
}

// Read-write over read-modify-write codes (CC, BFS, SSSP).
void fig06_rw_rmw(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::CC, Algorithm::BFS, Algorithm::SSSP};

  double gpu_max = 0, cpu_max = 0;
  int above = 0, total = 0;
  for (Model m : args.models()) {
    const auto samples = ratio_panel(
        sweep_model(h, args, m), to_string(m), algos, Dimension::Update,
        static_cast<int>(Update::ReadWrite),
        static_cast<int>(Update::ReadModifyWrite), "read-write / RMW");
    for (const auto& s : samples) {
      for (double r : s.values) {
        if (m == Model::Cuda) {
          gpu_max = std::max(gpu_max, r);
        } else {
          cpu_max = std::max(cpu_max, r);
        }
      }
      if (!s.values.empty()) {
        ++total;
        above += stats::median(s.values) >= 0.95;
      }
    }
  }

  bench::shape_check("read-write at least matches RMW in most cases",
                     above * 3 >= total * 2);
  bench::shape_check(
      "the CPU's worst RMW penalty far exceeds the GPU's (OpenMP critical "
      "sections; paper: >1000x vs 3x)",
      cpu_max > 3.0 * gpu_max);
}

// Deterministic over internally non-deterministic codes.
void fig07_determinism(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::CC, Algorithm::MIS, Algorithm::PR,
                             Algorithm::BFS, Algorithm::SSSP};

  int below = 0, total = 0;
  for (Model m : args.models()) {
    const auto samples = ratio_panel(
        sweep_model(h, args, m), to_string(m), algos, Dimension::Determinism,
        static_cast<int>(Determinism::Det),
        static_cast<int>(Determinism::NonDet), "deterministic / non-det");
    for (const auto& s : samples) {
      if (s.values.empty() || s.label == "pr") continue;
      ++total;
      below += stats::median(s.values) < 1.0;
    }
  }

  bench::shape_check(
      "non-deterministic is faster for CC/MIS/BFS/SSSP (medians < 1)",
      below * 4 >= total * 3);
}

// Persistent over non-persistent GPU codes.
void fig08_persistence(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::CC, Algorithm::MIS, Algorithm::PR,
                             Algorithm::TC, Algorithm::BFS, Algorithm::SSSP};

  const auto samples = ratio_panel(
      sweep_model(h, args, Model::Cuda), "", algos, Dimension::Persistence,
      static_cast<int>(Persistence::Persistent),
      static_cast<int>(Persistence::NonPersistent),
      "persistent / non-persistent");

  int near_one = 0, total = 0;
  for (const auto& s : samples) {
    if (s.values.empty()) continue;
    ++total;
    const double med = stats::median(s.values);
    near_one += med > 0.5 && med < 2.0;
  }
  bench::shape_check("all medians within 2x of 1.0", near_one == total);
}

// GPU throughputs of thread-, warp-, and block-level parallelization on the
// road-map-like and social-network-like inputs.
void fig09_granularity(bench::Harness& h, const bench::BenchArgs& args) {
  const auto ms = sweep_model(h, args, Model::Cuda);

  std::array<double, 3> med[2] = {};  // [graph][granularity]
  const char* tags[2] = {"roadnet", "social"};
  for (int gi = 0; gi < 2; ++gi) {
    med[gi] = throughput_panel(
        ms, Dimension::Granularity, {"thread", "warp", "block"},
        [&](const Measurement& m) {
          return m.graph.find(tags[gi]) != std::string::npos &&
                 m.style.flow != Flow::Edge;  // granularity fixed there
        },
        std::string(tags[gi]) + " (vertex-based codes, all algorithms)",
        "throughput [GE/s, simulated]");
  }

  bench::shape_check("road map: thread-level is fastest",
                     med[0][0] > med[0][1] && med[0][0] > med[0][2]);
  bench::shape_check("social network: warp-level beats thread-level",
                     med[1][1] > med[1][0]);
  bench::shape_check("block-level is the slowest granularity on both",
                     med[0][2] <= med[0][0] && med[1][2] <= med[1][1]);
}

// GPU throughputs of the three sum-reduction styles (global-add, block-add,
// reduction-add) for TC and PR.
void fig10_gpu_reductions(bench::Harness& h, const bench::BenchArgs& args) {
  std::array<double, 3> med[2] = {};
  const Algorithm algos[2] = {Algorithm::TC, Algorithm::PR};
  for (int ai = 0; ai < 2; ++ai) {
    bench::BenchArgs one = args;
    one.algo = algos[ai];
    med[ai] = throughput_panel(sweep_model(h, one, Model::Cuda),
                               Dimension::GpuReduction,
                               {"global", "block", "reduction"}, nullptr,
                               to_string(algos[ai]),
                               "throughput [GE/s, simulated]");
  }

  bench::shape_check("TC achieves higher throughput than PR",
                     stats::median(std::vector<double>{med[0][0], med[0][1],
                                                       med[0][2]}) >
                         stats::median(std::vector<double>{
                             med[1][0], med[1][1], med[1][2]}));
  bench::shape_check("reduction-add is the fastest style for PR",
                     med[1][2] >= med[1][0] && med[1][2] >= med[1][1]);
  bench::shape_check("block-add is not faster than reduction-add",
                     med[0][1] <= med[0][2] && med[1][1] <= med[1][2]);
}

// CPU throughputs of the three reduction styles (atomic, critical section,
// reduction clause) for TC and PR.
void fig11_cpu_reductions(bench::Harness& h, const bench::BenchArgs& args) {
  std::array<double, 3> med[2] = {};
  const Algorithm algos[2] = {Algorithm::TC, Algorithm::PR};
  for (int ai = 0; ai < 2; ++ai) {
    bench::BenchArgs one = args;
    one.algo = algos[ai];
    auto ms = sweep_model(h, one, Model::OpenMP);
    const auto cpp_ms = sweep_model(h, one, Model::CppThreads);
    ms.insert(ms.end(), cpp_ms.begin(), cpp_ms.end());
    med[ai] = throughput_panel(ms, Dimension::CpuReduction,
                               {"atomic", "critical", "clause"}, nullptr,
                               to_string(algos[ai]), "throughput [GE/s]");
  }

  bench::shape_check("critical sections are the slowest style for PR",
                     med[1][1] <= med[1][0] && med[1][1] <= med[1][2]);
  bench::shape_check("the reduction clause is the fastest style for PR",
                     med[1][2] >= med[1][0]);
  bench::shape_check("TC achieves higher throughput than PR",
                     med[0][2] > med[1][2]);
}

// OpenMP default over dynamic loop scheduling.
void fig12_omp_schedule(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::CC, Algorithm::MIS, Algorithm::PR,
                             Algorithm::TC, Algorithm::BFS, Algorithm::SSSP};

  const auto samples = ratio_panel(
      sweep_model(h, args, Model::OpenMP), "", algos, Dimension::OmpSched,
      static_cast<int>(OmpSched::Default), static_cast<int>(OmpSched::Dynamic),
      "default / dynamic");

  double mis_med = 0;
  int ge_one = 0, total = 0;
  for (const auto& s : samples) {
    if (s.values.empty()) continue;
    const double med = stats::median(s.values);
    if (s.label == "mis") mis_med = med;
    ++total;
    ge_one += med >= 0.9;
  }
  bench::shape_check("MIS prefers the default schedule (median > 1)",
                     mis_med > 1.0);
  bench::shape_check("default scheduling is at least on par overall",
                     ge_one * 3 >= total * 2);
}

// Blocked over cyclic scheduling in the C++-threads codes.
void fig13_cpp_schedule(bench::Harness& h, const bench::BenchArgs& args) {
  const Algorithm algos[] = {Algorithm::CC, Algorithm::MIS, Algorithm::PR,
                             Algorithm::TC, Algorithm::BFS, Algorithm::SSSP};

  const auto samples = ratio_panel(
      sweep_model(h, args, Model::CppThreads), "", algos, Dimension::CppSched,
      static_cast<int>(CppSched::Blocked), static_cast<int>(CppSched::Cyclic),
      "blocked / cyclic");

  double pr_med = 0;
  std::vector<double> tc_ratios;
  for (const auto& s : samples) {
    if (s.values.empty()) continue;
    if (s.label == "pr") pr_med = stats::median(s.values);
    if (s.label == "tc") tc_ratios = s.values;
  }
  bench::shape_check("PR prefers the blocked schedule (median >= 1)",
                     pr_med >= 1.0);
  std::sort(tc_ratios.begin(), tc_ratios.end());
  bench::shape_check(
      "TC leans cyclic (paper: 75% of its ratios below 1)",
      !tc_ratios.empty() && stats::quantile(tc_ratios, 0.75) < 1.3);
}

// ---------------------------------------------------------------------------
// Sections 5.13-5.17: across dimensions.

// Correlation of style throughputs with graph properties. The paper found
// no correlation beyond +/-0.5; the largest (0.44) is warp-level
// parallelization vs average degree.
void sec513_correlation(bench::Harness& h, const bench::BenchArgs& args) {
  // Properties per input graph.
  std::vector<GraphProperties> props;
  for (const Graph& g : h.graphs()) props.push_back(compute_properties(g));

  const auto ms = sweep_model(h, args, Model::Cuda);

  const char* prop_names[] = {"log(edges)", "avg_degree", "max_degree",
                              "pct_deg>=32", "diameter"};
  auto prop_value = [&](const GraphProperties& p, int k) -> double {
    switch (k) {
      case 0: return std::log10(std::max<double>(p.edges, 1));
      case 1: return p.avg_degree;
      case 2: return p.max_degree;
      case 3: return p.pct_deg_ge_32;
      default: return p.diameter;
    }
  };

  // Rows: the three granularities (the paper's headline) plus push/pull.
  struct Row {
    std::string label;
    std::function<bool(const Measurement&)> pred;
  };
  const Row rows[] = {
      {"thread-based",
       [](const Measurement& m) {
         return m.style.gran == Granularity::Thread &&
                m.style.flow == Flow::Vertex;
       }},
      {"warp-based",
       [](const Measurement& m) { return m.style.gran == Granularity::Warp; }},
      {"block-based",
       [](const Measurement& m) { return m.style.gran == Granularity::Block; }},
      {"push-style",
       [](const Measurement& m) { return m.style.dir == Direction::Push; }},
      {"pull-style",
       [](const Measurement& m) { return m.style.dir == Direction::Pull; }},
  };

  std::vector<std::vector<double>> cells;
  double warp_avg_degree_corr = 0;
  for (const auto& row : rows) {
    std::vector<double> line;
    for (int k = 0; k < 5; ++k) {
      std::vector<double> xs, ys;
      for (const Measurement& m : ms) {
        if (!m.verified || !row.pred(m)) continue;
        for (std::size_t gi = 0; gi < props.size(); ++gi) {
          if (props[gi].name == m.graph) {
            xs.push_back(prop_value(props[gi], k));
            ys.push_back(std::log10(std::max(m.throughput_ges, 1e-12)));
          }
        }
      }
      const double c = stats::pearson(xs, ys);
      line.push_back(c);
      if (row.label == "warp-based" && k == 1) warp_avg_degree_corr = c;
    }
    cells.push_back(std::move(line));
  }
  std::vector<std::string> row_labels, col_labels;
  for (const auto& r : rows) row_labels.push_back(r.label);
  for (const char* p : prop_names) col_labels.push_back(p);
  bench::print_matrix(row_labels, col_labels, cells);

  bench::shape_check(
      "warp-based throughput correlates positively with average degree",
      warp_avg_degree_corr > 0.1);
}

// The paper's programming guidelines as a scorecard. Each bullet is
// re-derived from this suite's measurements (all journaled by the earlier
// figures) and marked PASS/DIFF.
void sec516_guidelines(bench::Harness& h, const bench::BenchArgs& args) {
  const auto cuda = sweep_model(h, args, Model::Cuda);
  const auto omp = sweep_model(h, args, Model::OpenMP);
  const auto cpp = sweep_model(h, args, Model::CppThreads);

  const Algorithm core[] = {Algorithm::CC, Algorithm::MIS, Algorithm::BFS,
                            Algorithm::SSSP};

  auto median_ratio = [&](std::span<const Measurement> ms, Dimension d,
                          int a, int b) {
    std::vector<double> all;
    for (Algorithm alg : core) {
      const auto r = bench::pairwise_ratios(ms, alg, d, a, b);
      all.insert(all.end(), r.begin(), r.end());
    }
    return all.empty() ? 0.0 : stats::median(all);
  };

  // 1. High-degree inputs prefer warp-based parallelization in CUDA.
  {
    double thread_med = 0, warp_med = 0;
    std::vector<double> tv, wv;
    for (const Measurement& m : cuda) {
      if (!m.verified || m.style.flow == Flow::Edge) continue;
      const bool dense = m.graph.find("copaper") != std::string::npos ||
                         m.graph.find("social") != std::string::npos;
      if (!dense) continue;
      if (m.style.gran == Granularity::Thread) tv.push_back(m.throughput_ges);
      if (m.style.gran == Granularity::Warp) wv.push_back(m.throughput_ges);
    }
    thread_med = stats::median(tv);
    warp_med = stats::median(wv);
    bench::shape_check("G1: high-degree inputs prefer warp-based CUDA",
                       warp_med > thread_med);
  }
  // 2. Use non-deterministic and push styles everywhere.
  bench::shape_check(
      "G2a: non-deterministic beats deterministic in all three models",
      median_ratio(cuda, Dimension::Determinism, 1, 0) < 1.0 &&
          median_ratio(omp, Dimension::Determinism, 1, 0) < 1.0 &&
          median_ratio(cpp, Dimension::Determinism, 1, 0) < 1.0);
  bench::shape_check(
      "G2b: push beats pull in all three models",
      median_ratio(cuda, Dimension::Direction, 0, 1) > 1.0 &&
          median_ratio(omp, Dimension::Direction, 0, 1) > 1.0 &&
          median_ratio(cpp, Dimension::Direction, 0, 1) > 1.0);
  // 3. Avoid default CudaAtomic and CPU critical sections.
  {
    bench::SweepOptions all_cu = args.sweep();
    all_cu.model = Model::Cuda;
    all_cu.algo = Algorithm::SSSP;
    all_cu.style_filter = thread_vertex_slice;
    const auto ms = h.sweep(all_cu);
    const auto r = bench::pairwise_ratios(
        ms, Algorithm::SSSP, Dimension::AtomicsLib, 0, 1);
    bench::shape_check("G3a: default CudaAtomic loses badly (median > 3x)",
                       !r.empty() && stats::median(r) > 3.0);
    // critical vs clause reduction on PR.
    std::vector<double> crit, clause;
    for (const Measurement& m : omp) {
      if (m.algo != Algorithm::PR || !m.verified) continue;
      if (m.style.cred == CpuReduction::Critical)
        crit.push_back(m.throughput_ges);
      if (m.style.cred == CpuReduction::Clause)
        clause.push_back(m.throughput_ges);
    }
    bench::shape_check("G3b: critical-section reductions lose to the clause",
                       stats::median(clause) > stats::median(crit));
  }
  // 4. Vertex- vs edge-based depends on the algorithm.
  {
    const auto mis_r =
        bench::pairwise_ratios(cuda, Algorithm::MIS, Dimension::Flow, 0, 1);
    const auto tc_r =
        bench::pairwise_ratios(cuda, Algorithm::TC, Dimension::Flow, 0, 1);
    bench::shape_check(
        "G4: flow preference is algorithm-specific (MIS vertex, TC edge)",
        !mis_r.empty() && !tc_r.empty() && stats::median(mis_r) > 1.0 &&
            stats::median(tc_r) < stats::median(mis_r));
  }
  // 5. Persistent threads rarely help.
  {
    std::vector<double> all;
    for (Algorithm a : kAllAlgorithms) {
      const auto r =
          bench::pairwise_ratios(cuda, a, Dimension::Persistence, 1, 0);
      all.insert(all.end(), r.begin(), r.end());
    }
    const double med = stats::median(all);
    bench::shape_check("G5: persistent ~= non-persistent (median within 2x)",
                       med > 0.5 && med < 2.0);
  }
  // 6. Default/blocked scheduling is the safe CPU choice.
  {
    std::vector<double> o, c;
    for (Algorithm a : kAllAlgorithms) {
      const auto r1 = bench::pairwise_ratios(omp, a, Dimension::OmpSched, 0, 1);
      o.insert(o.end(), r1.begin(), r1.end());
      const auto r2 = bench::pairwise_ratios(cpp, a, Dimension::CppSched, 0, 1);
      c.insert(c.end(), r2.begin(), r2.end());
    }
    bench::shape_check(
        "G6: default (OMP) and blocked (C++) schedules are safe (median "
        ">= 0.9)",
        stats::median(o) >= 0.9 && stats::median(c) >= 0.9);
  }
  // 7. C++ threads prefers topology-driven.
  bench::shape_check("G7: C++ threads prefers topology-driven",
                     median_ratio(cpp, Dimension::Drive, 0, 2) > 1.0);
  // 8. Data-driven wins on the GPU.
  bench::shape_check("G8: CUDA prefers data-driven",
                     median_ratio(cuda, Dimension::Drive, 0, 2) < 1.0);
}

// The percentage of each style among the best-performing codes, per
// programming model, along the 6 style pairs that exist in all three
// models.
void fig14_best_styles(bench::Harness& h, const bench::BenchArgs& args) {
  // Columns: the paper's 6 pair-dimensions (12 style values).
  struct Col {
    Dimension dim;
    int value;
    const char* name;
  };
  const Col cols[] = {
      {Dimension::Flow, 0, "vertex"},      {Dimension::Flow, 1, "edge"},
      {Dimension::Drive, 0, "topo"},       {Dimension::Drive, -1, "data"},
      {Dimension::Direction, 0, "push"},   {Dimension::Direction, 1, "pull"},
      {Dimension::Update, 0, "rw"},        {Dimension::Update, 1, "rmw"},
      {Dimension::Determinism, 1, "det"},  {Dimension::Determinism, 0,
                                            "nondet"},
      {Dimension::Drive, 1, "dup"},        {Dimension::Drive, 2, "nodup"},
  };

  std::vector<std::string> row_labels, col_labels;
  for (const Col& c : cols) col_labels.push_back(c.name);
  std::vector<std::vector<double>> cells;
  std::map<std::string, double> check;  // model x col -> pct

  for (Model model : args.models()) {
    const auto ms = sweep_model(h, args, model);
    // Winner per (algorithm, graph).
    std::map<std::pair<Algorithm, std::string>, const Measurement*> best;
    for (const Measurement& m : ms) {
      if (!m.verified) continue;
      auto& slot = best[{m.algo, m.graph}];
      if (slot == nullptr || m.throughput_ges > slot->throughput_ges) {
        slot = &m;
      }
    }
    std::vector<double> line;
    for (const Col& c : cols) {
      int have = 0, total = 0;
      for (const auto& [key, m] : best) {
        if (!dimension_applies(model, key.first, c.dim)) continue;
        // "data" pools dup and nodup (paper's topo/data pair).
        if (c.value == -1) {
          ++total;
          have += m->style.drive != Drive::Topology;
        } else if (c.dim == Dimension::Drive && c.value != 0) {
          // dup/nodup shares: only over data-driven winners.
          if (m->style.drive == Drive::Topology) continue;
          ++total;
          have += get_dimension(m->style, c.dim) == c.value;
        } else {
          ++total;
          have += get_dimension(m->style, c.dim) == c.value;
        }
      }
      const double pct = total == 0 ? std::nan("") : 100.0 * have / total;
      line.push_back(pct);
      check[std::string(to_string(model)) + "/" + c.name] = pct;
    }
    row_labels.push_back(to_string(model));
    cells.push_back(std::move(line));
  }
  bench::print_matrix(row_labels, col_labels, cells, 0);
  std::cout << "(cells are % of best-performing codes using the column's "
               "style; dup/nodup % is over data-driven winners)\n";

  bench::shape_check("vertex-based dominates the winners in every model",
                     check["cuda/vertex"] > 50 && check["omp/vertex"] > 50 &&
                         check["cpp/vertex"] > 50);
  bench::shape_check("push dominates the winners in every model",
                     check["cuda/push"] > 50 && check["omp/push"] > 50 &&
                         check["cpp/push"] > 50);
  bench::shape_check(
      "non-deterministic dominates the winners in every model",
      check["cuda/nondet"] > 50 && check["omp/nondet"] > 50 &&
          check["cpp/nondet"] > 50);
  bench::shape_check("C++ threads leans topology-driven more than CUDA",
                     check["cpp/topo"] >= check["cuda/topo"]);
}

// For the CUDA codes, the ratio of the median throughput of style_x
// combined with style_y over style_x without style_y - which styles
// amplify which.
void fig15_combinations(bench::Harness& h, const bench::BenchArgs& args) {
  const auto ms = sweep_model(h, args, Model::Cuda);

  struct Val {
    Dimension dim;
    int value;
    const char* name;
  };
  const Val vals[] = {
      {Dimension::Flow, 0, "vertex"},
      {Dimension::Flow, 1, "edge"},
      {Dimension::Drive, 0, "topo"},
      {Dimension::Drive, 1, "dup"},
      {Dimension::Drive, 2, "nodup"},
      {Dimension::Direction, 0, "push"},
      {Dimension::Direction, 1, "pull"},
      {Dimension::Update, 0, "rw"},
      {Dimension::Update, 1, "rmw"},
      {Dimension::Determinism, 0, "nondet"},
      {Dimension::Determinism, 1, "det"},
      {Dimension::Persistence, 0, "nonpers"},
      {Dimension::Persistence, 1, "pers"},
      {Dimension::Granularity, 0, "thread"},
      {Dimension::Granularity, 1, "warp"},
      {Dimension::Granularity, 2, "block"},
  };

  auto has = [](const Measurement& m, const Val& v) {
    return get_dimension(m.style, v.dim) == v.value;
  };

  std::vector<std::string> labels;
  for (const Val& v : vals) labels.push_back(v.name);
  std::vector<std::vector<double>> cells;
  double push_col_geo = 1, pull_col_geo = 1;
  int push_n = 0, pull_n = 0;
  for (const Val& x : vals) {
    std::vector<double> line;
    for (const Val& y : vals) {
      if (x.dim == y.dim) {
        line.push_back(std::nan(""));
        continue;
      }
      std::vector<double> with_y, without_y;
      for (const Measurement& m : ms) {
        if (!m.verified || !has(m, x)) continue;
        (has(m, y) ? with_y : without_y).push_back(m.throughput_ges);
      }
      if (with_y.empty() || without_y.empty()) {
        line.push_back(std::nan(""));
        continue;
      }
      const double r = stats::median(with_y) / stats::median(without_y);
      line.push_back(r);
      if (y.name == std::string("push")) {
        push_col_geo *= r;
        ++push_n;
      }
      if (y.name == std::string("pull")) {
        pull_col_geo *= r;
        ++pull_n;
      }
    }
    cells.push_back(std::move(line));
  }
  bench::print_matrix(labels, labels, cells);
  std::cout << "(rows: style_x, columns: style_y; '-' = same dimension or "
               "no overlap)\n";

  const double push_geo = std::pow(push_col_geo, 1.0 / std::max(push_n, 1));
  const double pull_geo = std::pow(pull_col_geo, 1.0 / std::max(pull_n, 1));
  bench::shape_check(
      "adding push helps on average more than adding pull does",
      push_geo > pull_geo);
  bench::shape_check("the push column is net positive (geomean > 1)",
                     push_geo > 1.0);
}

/// Times a baseline run (simulated seconds for the GPU, wall clock for the
/// CPU) and returns throughput in GE/s, verifying the output.
double baseline_throughput(Model model, Algorithm a, const Graph& g,
                           const RunOptions& opts, Verifier& ver) {
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = baselines::run_baseline(model, a, g, opts);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = model == Model::Cuda
                          ? r.seconds
                          : std::chrono::duration<double>(t1 - t0).count();
  std::string err;
  if (a == Algorithm::MIS) {
    err = baselines::verify_mis_properties(g, r.output.labels);
  } else {
    err = ver.check(a, r.output);
  }
  if (!err.empty()) {
    std::cerr << "[warn] baseline " << to_string(a) << " failed on "
              << g.name() << ": " << err << '\n';
    return 0.0;
  }
  return static_cast<double>(g.num_edges()) / std::max(secs, 1e-12) / 1e9;
}

// Figure 16 + Table 6: speedup of each algorithm's best-performing style
// over the optimized third-party-flavoured baselines (Lonestar-like on the
// CPU, Gardenia-like on the simulated GPU).
void fig16_baselines(bench::Harness& h, const bench::BenchArgs& args) {
  RunOptions base_opts = h.base_run_options(nullptr);

  printf("%-12s", "Language");
  const Algorithm order[] = {Algorithm::BFS, Algorithm::SSSP, Algorithm::CC,
                             Algorithm::MIS, Algorithm::PR, Algorithm::TC};
  for (Algorithm a : order) printf("%9s", to_string(a));
  printf("%9s\n", "geomean");
  const double paper[3][7] = {{1.97, 0.40, 1.11, std::nan(""), 0.45, 0.43,
                               0.70},
                              {0.90, 0.10, 0.89, 6.55, 2.86, 5.11, 1.54},
                              {1.14, 0.07, 0.51, 21.14, 12.47, 3.04, 1.80}};

  double sssp_geo_worst = 1e9;
  int rows_within = 0;
  for (Model model : args.models()) {
    const int mi = static_cast<int>(model);
    const auto ms = sweep_model(h, args, model);

    printf("%-12s", to_string(model));
    std::vector<double> row_geos;
    for (Algorithm a : order) {
      if (!baselines::baseline_available(model, a)) {
        printf("%9s", "N/A");
        continue;
      }
      // Best-performing style: highest average throughput over all inputs
      // (Section 5.17).
      std::map<std::string, std::vector<double>> by_program;
      for (const Measurement& m : ms) {
        if (m.algo == a && m.verified) {
          by_program[m.program].push_back(m.throughput_ges);
        }
      }
      std::string best_prog;
      double best_avg = -1;
      for (auto& [prog, thr] : by_program) {
        const double avg = stats::geomean(thr);
        if (avg > best_avg) {
          best_avg = avg;
          best_prog = prog;
        }
      }
      // Per-input speedup over the baseline; geometric mean (Table 6).
      std::vector<double> speedups;
      for (const Graph& g : h.graphs()) {
        double ours = 0;
        for (const Measurement& m : ms) {
          if (m.program == best_prog && m.graph == g.name()) {
            ours = m.throughput_ges;
          }
        }
        const double theirs =
            baseline_throughput(model, a, g, base_opts, h.verifier_for(g));
        if (ours > 0 && theirs > 0) speedups.push_back(ours / theirs);
      }
      const double geo = stats::geomean(speedups);
      row_geos.push_back(geo);
      if (a == Algorithm::SSSP) sssp_geo_worst = std::min(sssp_geo_worst, geo);
      printf("%9.2f", geo);
    }
    const double overall = stats::geomean(row_geos);
    printf("%9.2f\n", overall);
    printf("%-12s", "  (paper)");
    for (int c = 0; c < 7; ++c) {
      if (std::isnan(paper[mi][c])) {
        printf("%9s", "N/A");
      } else {
        printf("%9.2f", paper[mi][c]);
      }
    }
    printf("\n");
    rows_within += overall > 0.2 && overall < 5.0;
  }

  bench::shape_check(
      "every model's overall geomean vs the baselines is within 5x of "
      "parity (paper: 0.70-1.80)",
      rows_within == 3);
  bench::shape_check(
      "SSSP is the weakest algorithm vs its (delta-stepping/active-array) "
      "baseline (paper: 0.07-0.40)",
      sssp_geo_worst < 1.0);
}

// ---------------------------------------------------------------------------
// The entry table, in DESIGN.md's per-experiment order.

struct Entry {
  const char* name;   // the subcommand
  const char* id;     // banner: "Figure 5"
  const char* title;  // banner: what is plotted
  const char* claim;  // banner: the paper claim being reproduced
  // Exactly one is set: `table` for entries that read no measurement,
  // `figure` for those that read the journal through the Harness.
  void (*table)();
  void (*figure)(bench::Harness&, const bench::BenchArgs&);
};

const Entry kEntries[] = {
    {"tab02_styles", "Table 2", "Included implementation styles",
     "13 style dimensions apply per-algorithm as listed; reductions only for "
     "TC and PR, CudaAtomic not for PR, no duplicate worklists for MIS.",
     tab02_styles, nullptr},
    {"tab03_versions", "Table 3", "Number of code versions (32-bit data type)",
     "CUDA 754, OpenMP 176, C++ threads 176; total 1106.", tab03_versions,
     nullptr},
    {"tab04_graphs", "Tables 4 and 5",
     "Graph information and degree information",
     "grid/road: uniform low degree, huge diameter; rmat/social: power law, "
     "tiny diameter, social has the heavier tail; copaper: dense "
     "clique-rich with d_avg ~56.",
     tab04_graphs, nullptr},
    {"fig01_cudaatomic", "Figure 1",
     "Throughput ratios of Atomic over CudaAtomic",
     "Atomic is 1-2 orders of magnitude faster; median ~10 on the RTX 3090 "
     "and ~100 on the Titan V for CC/MIS/BFS/SSSP; TC's ratios are much "
     "lower because it only uses an atomic add.",
     nullptr, fig01_cudaatomic},
    {"fig02_vertex_edge", "Figure 2",
     "Throughput ratios of vertex- over edge-based",
     "GPU: mixed overall (median ~1) but MIS strongly prefers vertex (~10x) "
     "and thread-level TC strongly prefers edge; CPU: medians above 1 (CPUs "
     "prefer vertex-based).",
     nullptr, fig02_vertex_edge},
    {"fig03_topo_dd_dup", "Figure 3",
     "Throughput ratios of topology-driven over data-driven (duplicates)",
     "GPUs and OpenMP prefer data-driven (medians < 1); C++ threads prefers "
     "topology-driven because its fast atomics make per-edge work cheap "
     "relative to worklist upkeep.",
     nullptr, fig03_topo_dd_dup},
    {"fig04_topo_dd_nodup", "Figure 4",
     "Throughput ratios of topology-driven over data-driven (no duplicates)",
     "GPU medians < 1; C++ medians > 1; OpenMP below 1 for CC/BFS/SSSP but "
     "MIS prefers topology-driven. Extremes span orders of magnitude "
     "(data-driven wins hugely on high-diameter inputs).",
     nullptr, fig04_topo_dd_nodup},
    {"fig05_push_pull", "Figure 5", "Throughput ratios of push over pull",
     "Medians consistently above 1 for CC, MIS, BFS, SSSP on all models "
     "(push pairs with data-driven worklists and non-deterministic "
     "updates); PR's medians sit slightly below 1.",
     nullptr, fig05_push_pull},
    {"fig06_rw_rmw", "Figure 6",
     "Throughput ratios of read-write over read-modify-write",
     "Read-write is slightly faster in most cases (up to 3x on GPUs, over "
     "1000x on CPUs, where RMW min/max costs a critical section in OpenMP); "
     "RMW remains the safe general choice.",
     nullptr, fig06_rw_rmw},
    {"fig07_determinism", "Figure 7",
     "Throughput ratios of deterministic over non-deterministic",
     "Non-deterministic wins nearly everywhere (two-array deterministic "
     "codes pay extra memory traffic and converge in more iterations); PR "
     "is the exception because its push style only exists "
     "deterministically.",
     nullptr, fig07_determinism},
    {"fig08_persistence", "Figure 8",
     "Throughput ratios of persistent over non-persistent",
     "Most ratios and medians are very close to 1: the suite's kernels "
     "cannot exploit the persistent style's precomputation opportunity.",
     nullptr, fig08_persistence},
    {"fig09_granularity", "Figure 9",
     "GPU throughputs of thread/warp/block parallelization (road vs social)",
     "Thread-level wins on the low-degree uniform road map; warp-level wins "
     "on the scale-free social network; block-level is slowest because no "
     "input has enough degree-512+ vertices.",
     nullptr, fig09_granularity},
    {"fig10_gpu_reductions", "Figure 10",
     "Throughputs of reduction styles on the simulated GPU",
     "TC outruns PR (PR reduces every iteration); block-add tends to be "
     "slowest; reduction-add is fastest for PR and is the recommended "
     "style.",
     nullptr, fig10_gpu_reductions},
    {"fig11_cpu_reductions", "Figure 11",
     "Throughputs of reduction styles on the CPU",
     "TC outruns PR; critical sections are slowest; the reduction clause is "
     "fastest - avoid criticals and even atomics when a clause works.",
     nullptr, fig11_cpu_reductions},
    {"fig12_omp_schedule", "Figure 12",
     "Ratio of default over dynamic OpenMP scheduling",
     "Little difference for PR/BFS/SSSP; MIS always prefers the default "
     "schedule; load balancing is unnecessary on these inputs so dynamic's "
     "bookkeeping usually costs more than it saves.",
     nullptr, fig12_omp_schedule},
    {"fig13_cpp_schedule", "Figure 13",
     "Ratio of blocked over cyclic scheduling (C++ threads)",
     "CC/MIS/BFS/SSSP barely care; PR prefers blocked (locality), TC prefers "
     "cyclic (balances the skewed intersection work) - the best schedule "
     "depends on the loop characteristics.",
     nullptr, fig13_cpp_schedule},
    {"sec513_correlation", "Section 5.13",
     "Correlation of throughput with graph properties",
     "No property correlates beyond +/-0.5; the highest is warp-based "
     "parallelization vs average degree (0.44 in the paper).",
     nullptr, sec513_correlation},
    {"sec516_guidelines", "Section 5.16", "Programming guidelines scorecard",
     "Eight guidelines distilled from Figures 1-15, re-checked against this "
     "reproduction's measurements.",
     nullptr, sec516_guidelines},
    {"fig14_best_styles", "Figure 14",
     "Percentage of each style in best-performing codes",
     "Vertex-based, push, and non-deterministic dominate the winners in "
     "every model; C++ threads leans topology-driven while CUDA and OpenMP "
     "lean data-driven.",
     nullptr, fig14_best_styles},
    {"fig15_combinations", "Figure 15",
     "Median-throughput ratio of style_x with style_y over style_x without "
     "style_y (CUDA codes)",
     "The push, non-deterministic, and non-persistent columns are mostly > "
     "1 (combine well with everything); warp also helps (high degree "
     "inputs); dup/nodup and rw/rmw show no general preference.",
     nullptr, fig15_combinations},
    {"fig16_baselines", "Figure 16 + Table 6",
     "Throughput ratio of the best-performing style to optimized baseline "
     "codes",
     "The unoptimized style suite stays within reach of Lonestar/Gardenia-"
     "grade codes: some algorithms win (paper: CUDA BFS ~2x, CPU MIS/PR/TC), "
     "SSSP loses to delta-stepping/active-array baselines, and the overall "
     "geomeans are within ~2x of parity.",
     nullptr, fig16_baselines},
};

void print_usage() {
  std::cerr << "usage: study [name...] [--model=cuda|omp|cpp]"
               " [--algo=cc|mis|pr|tc|bfs|sssp] [--reps=N] [--workers=N]\n"
               "names (default: all, in this order):\n";
  for (const Entry& e : kEntries) {
    std::cerr << "  " << e.name << "  " << e.id << ": " << e.title << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  const std::optional<bench::BenchArgs> args =
      bench::parse_bench_args(argc, argv, names);
  bool ok = args.has_value();
  std::vector<const Entry*> selected;
  for (const std::string& name : names) {
    const auto it =
        std::find_if(std::begin(kEntries), std::end(kEntries),
                     [&](const Entry& e) { return name == e.name; });
    if (it == std::end(kEntries)) {
      std::cerr << "unknown entry: " << name << '\n';
      ok = false;
    } else {
      selected.push_back(it);
    }
  }
  if (!ok) {
    print_usage();
    return 2;
  }
  if (names.empty()) {
    for (const Entry& e : kEntries) selected.push_back(&e);
  }
  try {
    // Tables alone open no Harness, which would report a malformed
    // INDIGO_TELEMETRY_INTERVAL_S; this call does.
    obs::telemetry_init_from_env();
    // One Harness (the inputs and the journal) serves every figure; tables
    // alone open no journal.
    std::optional<bench::Harness> h;
    if (std::any_of(selected.begin(), selected.end(),
                    [](const Entry* e) { return e->figure != nullptr; })) {
      h.emplace();
    }
    for (const Entry* e : selected) {
      bench::print_header(e->id, e->title, e->claim);
      if (e->figure != nullptr) {
        e->figure(*h, *args);
      } else {
        e->table();
      }
    }
  } catch (const std::exception& ex) {
    std::cerr << "[error] " << ex.what() << '\n';
    return 2;
  }
  return bench::exit_code();
}
