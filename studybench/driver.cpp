// Study benchmark driver.
//
// Composes the study sweep from the same public layer calls bench/sweep_all
// composes — graph::make_input, core::measure over a Registry variant and a
// per-input Verifier, sched::ResultStore::put on a fresh fsync'd journal,
// sched::Executor::run on 4 workers (cuda cells ModelTimed, omp/cpp cells
// WallClock) — and times every layer from outside, in this file only.
//
//   studybench_driver --workload=NAME --seed=S --seconds=T --trace=0|1
//                     --workdir=DIR
//
// Prints one `metric <name> <value> <unit>` line per metric, a few report
// lines, and, as the last line of stdout, one JSON result object. With
// --trace=0 the result carries the end-to-end metrics, with --trace=1 the
// per-layer ones. Exits nonzero on a bad argument or when attempted cells
// are not all accounted as verified or failed. README.md has the details.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/generate.hpp"
#include "layer_math.hpp"
#include "sched/executor.hpp"
#include "sched/job_graph.hpp"
#include "sched/result_store.hpp"
#include "threading/thread_team.hpp"
#include "variants/register_all.hpp"

namespace {

using namespace indigo;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr int kWorkers = 4;
constexpr int kSetupReps = 5;
constexpr int kMinSweeps = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

struct Input {
  InputClass cls;
  unsigned scale;  // log2 of the approximate vertex count
};

struct Workload {
  std::string_view name;
  std::optional<Model> model;  // nullopt: every model
  std::vector<Input> inputs;
  std::size_t copies;          // instances of each input, salts seed*copies+k
  const char* scale_tag;       // the journal key's scale field
  std::size_t variant_stride;  // every stride-th selected variant
};

// The tiny inputs are level 0 of default_input_scale(), pinned here so that
// they do not depend on REPRO_SCALE; order as in kAllInputs. The two
// single-class workloads sample every k-th variant and average over several
// instances of their input, so that one sweep takes a few seconds and one
// instance's structure (a roadnet's diameter, an rmat's hubs) does not set
// the figure for a whole seed; README.md gives the numbers.
const std::vector<Input> kTinyInputs = {
    {InputClass::Grid2d, 8}, {InputClass::CoPaper, 7}, {InputClass::Rmat, 8},
    {InputClass::Social, 8}, {InputClass::RoadNet, 8}};

const Workload kWorkloads[] = {
    {"study-tiny", std::nullopt, kTinyInputs, 1, "0", 8},
    {"cuda-tiny", Model::Cuda, kTinyInputs, 1, "0", 4},
    {"cuda-road", Model::Cuda, {{InputClass::RoadNet, 10}}, 8, "1", 32},
    {"cuda-rmat", Model::Cuda, {{InputClass::Rmat, 11}}, 8, "1", 24},
};

// ------------------------------------------------------------------ stamps

/// What the driver records around one cell body; times are seconds since
/// the sweep's Executor::run call. Each cell is written by the one worker
/// that runs it and read after run() returned (its threads are joined).
struct CellStamp {
  double body_start = 0, body_end = 0;
  double measure_s = 0;  // traced sweeps only
  double run_s = 0;      // traced: summed over Variant::run calls
  double put_s = 0;      // traced
};

/// The traced cell body sets this so the wrapped Variant::run can add its
/// time to the cell being measured on this thread.
thread_local CellStamp* t_cell = nullptr;

/// A copy of `v` whose run is timed into the current cell.
Variant timed_copy(const Variant& v) {
  Variant w = v;
  w.run = [inner = v.run](const Graph& g, const RunOptions& o) {
    const auto t0 = Clock::now();
    RunResult r = inner(g, o);
    if (t_cell != nullptr) t_cell->run_s += seconds_since(t0);
    return r;
  };
  return w;
}

// ------------------------------------------------------------------- sweep

struct Cell {
  const Variant* plain;
  const Variant* timed;
  std::size_t input;
  std::string name;  // variant@input, machine-independent
  std::string key;   // the journal key, shaped like Harness's
};

struct SweepResult {
  double sweep_s = 0;
  std::vector<CellStamp> stamps;
  std::vector<std::optional<Measurement>> slots;
  std::vector<sched::JobStatus> statuses;
  std::uintmax_t journal_bytes = 0;
};

/// One whole sweep over `cells` against a fresh journal at `journal`; the
/// returned sweep_s is the wall time of Executor::run alone.
SweepResult run_sweep(const std::vector<Cell>& cells,
                      const std::vector<Graph>& inputs,
                      const fs::path& journal, bool traced) {
  fs::remove(journal);
  SweepResult out;
  out.stamps.resize(cells.size());
  out.slots.resize(cells.size());
  std::vector<std::unique_ptr<Verifier>> verifiers;
  for (const Graph& g : inputs) {
    verifiers.push_back(std::make_unique<Verifier>(g, 0));
  }
  RunOptions opts;  // as Harness::base_run_options
  opts.source = 0;
  opts.num_threads = cpu_threads();
  Clock::time_point t0;
  {
    sched::ResultStore store(journal.string());
    sched::JobGraph jg;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sched::Job j;
      const Cell& c = cells[i];
      j.name = c.key;
      j.exec_class = c.plain->model == Model::Cuda
                         ? sched::ExecClass::ModelTimed
                         : sched::ExecClass::WallClock;
      j.max_retries = 1;  // sweep_all's default INDIGO_SCHED_RETRIES
      j.work = [&, i, traced](const sched::JobContext&) {
        const Cell& cell = cells[i];
        CellStamp& st = out.stamps[i];
        st.body_start = seconds_since(t0);
        const Graph& g = inputs[cell.input];
        const Variant& v = traced ? *cell.timed : *cell.plain;
        Measurement m;
        t_cell = traced ? &st : nullptr;
        const auto m0 = Clock::now();
        try {
          m = measure(v, g, opts, 1, *verifiers[cell.input]);
        } catch (const std::exception& ex) {  // e.g. a modeled device OOM
          m.program = v.name;
          m.model = v.model;
          m.graph = g.name();
          m.verified = false;
          m.error = ex.what();
        }
        t_cell = nullptr;
        const auto p0 = Clock::now();
        store.put(cell.key, {m.seconds, m.throughput_ges, m.iterations,
                             m.verified, m.metrics});
        if (traced) {
          st.measure_s = std::chrono::duration<double>(p0 - m0).count();
          st.put_s = seconds_since(p0);
        }
        out.slots[i] = std::move(m);
        st.body_end = seconds_since(t0);
      };
      jg.add(std::move(j));
    }
    sched::ExecutorOptions eo;
    eo.num_workers = kWorkers;
    sched::Executor ex(eo);
    t0 = Clock::now();
    out.statuses = ex.run(jg);
    out.sweep_s = seconds_since(t0);
  }
  std::error_code ec;
  out.journal_bytes = fs::file_size(journal, ec);
  fs::remove(journal, ec);
  return out;
}

// ------------------------------------------------------------ per-sweep view

/// Everything the report needs from one sweep, derived from its stamps.
struct SweepView {
  double sweep_s = 0;
  studybench::Tally tally;
  std::uint64_t digest = 0;
  std::size_t cuda_cells = 0;
  std::vector<std::string> failures;  // first few, for stderr
  // Per-layer figures; the timed ones are meaningful for traced sweeps.
  std::map<std::string, double> layer;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

SweepView view_of(const SweepResult& r, const std::vector<Cell>& cells) {
  SweepView v;
  v.sweep_s = r.sweep_s;
  const std::size_t n = cells.size();
  std::vector<studybench::Interval> bodies(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = {r.stamps[i].body_start, r.stamps[i].body_end,
                 cells[i].plain->model != Model::Cuda};
  }
  const std::vector<bool> overlap = studybench::exclusive_overlaps(bodies);
  std::vector<studybench::CellOutcome> outcomes(n);
  v.digest = 1469598103934665603ull;
  double busy = 0, wallclock_busy = 0, verify = 0, put = 0;
  double cuda_run = 0, cpu_run = 0, cpu_measured = 0, cuda_iters = 0;
  std::vector<double> cuda_run_ms, put_ms;
  for (std::size_t i = 0; i < n; ++i) {
    const CellStamp& st = r.stamps[i];
    const std::optional<Measurement>& m = r.slots[i];
    const bool cuda = cells[i].plain->model == Model::Cuda;
    const bool quarantined =
        r.statuses[i].state == sched::JobState::Quarantined;
    outcomes[i] = {m.has_value(), m && m->verified, quarantined, overlap[i]};
    if (m && cuda) {
      ++v.cuda_cells;
      v.digest = fnv1a(v.digest, cells[i].name.data(), cells[i].name.size());
      v.digest = fnv1a(v.digest, &m->seconds, sizeof m->seconds);
      v.digest = fnv1a(v.digest, &m->iterations, sizeof m->iterations);
    }
    if ((!m || !m->verified || overlap[i] || quarantined) &&
        v.failures.size() < 5) {
      v.failures.push_back(cells[i].key + ": " +
                           (overlap[i]      ? "overlapped the exclusive lane"
                            : quarantined ? "quarantined: " + r.statuses[i].error
                            : m           ? m->error
                                          : "no outcome"));
    }
    const double body = st.body_end - st.body_start;
    busy += body;
    if (!cuda) wallclock_busy += body;
    verify += st.measure_s - st.run_s;
    put += st.put_s;
    put_ms.push_back(1e3 * st.put_s);
    if (cuda) {
      cuda_run += st.run_s;
      cuda_run_ms.push_back(1e3 * st.run_s);
      if (m) cuda_iters += static_cast<double>(m->iterations);
    } else {
      cpu_run += st.run_s;
      if (m) cpu_measured += m->seconds;
    }
  }
  v.tally = studybench::tally(outcomes);
  const double capacity = kWorkers * r.sweep_s;
  auto& L = v.layer;
  L["vcuda.run_s"] = cuda_run;
  L["vcuda.run_ms_p50"] = studybench::percentile(cuda_run_ms, 5000);
  L["vcuda.run_ms_tail"] = studybench::percentile(
      cuda_run_ms, studybench::tail_percentile(cuda_run_ms.size()));
  L["vcuda.iterations"] = cuda_iters;
  L["vcuda.us_per_iteration"] = cuda_iters > 0 ? 1e6 * cuda_run / cuda_iters : 0;
  L["journal.put_s"] = put;
  L["journal.puts"] = static_cast<double>(n);
  L["journal.put_ms_tail"] =
      studybench::percentile(put_ms, studybench::tail_percentile(n));
  L["journal.bytes"] = static_cast<double>(r.journal_bytes);
  L["core.verify_s"] = verify;
  L["sched.busy_s"] = busy;
  L["sched.idle_s"] = capacity - busy;
  L["sched.busy_share"] = capacity > 0 ? busy / capacity : 0;
  L["sched.underfull_s"] =
      studybench::underfull_seconds(bodies, 0, r.sweep_s, kWorkers);
  L["sched.wallclock_busy_s"] = wallclock_busy;
  L["cpu.run_s"] = cpu_run;
  L["cpu.measured_s"] = cpu_measured;
  // Self time of the cell body outside measure and put: the driver's own
  // bookkeeping plus the result move.
  L["body.self_s"] = busy - (verify + cuda_run + cpu_run) - put;
  return v;
}

// ------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m) {
  std::printf("metric %-24s %.9g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

std::string json_result(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", ms[i].value);
    s += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + num +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "studybench_driver: %s\nusage: studybench_driver "
               "--workload=NAME --seed=S --seconds=T --trace=0|1 "
               "--workdir=DIR\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fputc('\n', stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, workdir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto eq = a.find('=');
    const std::string_view key = a.substr(0, eq);
    const std::string val(eq == std::string_view::npos ? "" : a.substr(eq + 1));
    try {
      if (key == "--workload") workload_name = val;
      else if (key == "--seed") seed = std::stoull(val);
      else if (key == "--seconds") seconds = std::stod(val);
      else if (key == "--trace") trace = std::stoi(val);
      else if (key == "--workdir") workdir = val;
      else return usage(("unknown argument " + std::string(a)).c_str());
    } catch (const std::exception&) {
      return usage(("bad value in " + std::string(a)).c_str());
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == workload_name) wl = &w;
  }
  if (wl == nullptr) return usage("unknown or missing --workload");
  if (!(seconds > 0) || (trace != 0 && trace != 1) || workdir.empty()) {
    return usage("--seconds > 0, --trace=0|1 and --workdir are required");
  }
  fs::create_directories(workdir);
  const fs::path journal = fs::path(workdir) / "journal.csv";

  // ---- set-up: registration once (it is idempotent per process), then
  // input generation and a journal open, repeated; the median repetition.
  auto t = Clock::now();
  variants::register_all_variants();
  const double register_s = seconds_since(t);
  std::vector<Graph> inputs;
  std::vector<std::string> labels;  // graph name, plus #k for copy k > 0
  std::vector<double> generate_s, setup_rest_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inputs.clear();
    labels.clear();
    t = Clock::now();
    for (const Input& in : wl->inputs) {
      for (std::size_t k = 0; k < wl->copies; ++k) {
        inputs.push_back(make_input(in.cls, in.scale, seed * wl->copies + k));
        labels.push_back(inputs.back().name() +
                         (k == 0 ? "" : "#" + std::to_string(k)));
      }
    }
    generate_s.push_back(seconds_since(t));
    fs::remove(journal);
    { sched::ResultStore open_only(journal.string()); }
    setup_rest_s.push_back(seconds_since(t));
  }
  fs::remove(journal);
  const double setup_s = register_s + studybench::median(setup_rest_s);
  double arcs = 0;
  for (const Graph& g : inputs) arcs += static_cast<double>(g.num_edges());

  // ---- the cells, in sweep_all's variant-major enumeration.
  const std::vector<const Variant*> selected =
      Registry::instance().select(wl->model);
  std::vector<const Variant*> chosen;
  for (std::size_t i = 0; i < selected.size(); i += wl->variant_stride) {
    chosen.push_back(selected[i]);
  }
  std::vector<Variant> timed;
  timed.reserve(chosen.size());
  for (const Variant* v : chosen) timed.push_back(timed_copy(*v));
  const std::string threads = std::to_string(cpu_threads());
  std::vector<Cell> cells;
  for (std::size_t vi = 0; vi < chosen.size(); ++vi) {
    const Variant* v = chosen[vi];
    const char* dev = v->model == Model::Cuda ? "rtx3090_like" : "cpu";
    for (std::size_t gi = 0; gi < inputs.size(); ++gi) {
      cells.push_back({v, &timed[vi], gi, v->name + '@' + labels[gi],
                       v->name + '|' + labels[gi] + '|' + dev + '|' + threads +
                           '|' + wl->scale_tag});
    }
  }

  // ---- warm-up: one untimed sweep over every fourth cell wakes the thread
  // pools, the allocator and the clock before anything is measured.
  {
    std::vector<Cell> warm;
    for (std::size_t i = 0; i < cells.size(); i += 4) warm.push_back(cells[i]);
    (void)run_sweep(warm, inputs, journal, false);
  }

  // ---- timed sweeps. The untraced run measures plain sweeps; the traced
  // run alternates plain and traced sweeps, so its overhead figure compares
  // like with like.
  std::vector<SweepView> plain, traced;
  const auto run_t0 = Clock::now();
  for (;;) {
    const bool do_trace = trace == 1 && plain.size() > traced.size();
    SweepView v = view_of(run_sweep(cells, inputs, journal, do_trace), cells);
    for (const std::string& f : v.failures) {
      std::fprintf(stderr, "[studybench] failed cell %s\n", f.c_str());
    }
    const double last_s = v.sweep_s;
    (do_trace ? traced : plain).push_back(std::move(v));
    const std::size_t per_side = trace == 1
                                     ? std::min(plain.size(), traced.size())
                                     : plain.size();
    // Stop when another sweep would likely end past the deadline.
    if (per_side >= static_cast<std::size_t>(kMinSweeps) &&
        seconds_since(run_t0) + last_s > seconds) {
      break;
    }
  }

  // ---- correctness: every sweep fully accounted, no failed cell, and the
  // modeled digest identical across sweeps of the same inputs.
  studybench::Tally total;
  bool digest_stable = true;
  const std::uint64_t digest = plain.front().digest;
  for (const auto* side : {&plain, &traced}) {
    for (const SweepView& v : *side) {
      total.attempted += v.tally.attempted;
      total.verified += v.tally.verified;
      total.failed += v.tally.failed;
      digest_stable = digest_stable && v.digest == digest;
    }
  }
  const std::size_t attempted = total.attempted, failed = total.failed;
  const bool balanced = total.balanced();
  const bool correct = balanced && digest_stable && failed == 0;
  const double failed_share = total.failed_share();

  auto median_of = [](const std::vector<SweepView>& vs, auto get) {
    std::vector<double> xs;
    for (const SweepView& v : vs) xs.push_back(get(v));
    return studybench::median(xs);
  };
  const double sweep_s =
      median_of(plain, [](const SweepView& v) { return v.sweep_s; });

  std::printf("[studybench] workload=%.*s seed=%" PRIu64
              " cells=%zu (cuda %zu) variants=%zu inputs=%zu workers=%d "
              "sweeps=%zu plain + %zu traced\n",
              static_cast<int>(wl->name.size()), wl->name.data(), seed,
              cells.size(), plain.front().cuda_cells, chosen.size(),
              inputs.size(), kWorkers, plain.size(), traced.size());
  for (const auto* side : {&plain, &traced}) {
    if (side->empty()) continue;
    std::printf("[studybench] %s sweep_s:", side == &plain ? "plain" : "traced");
    for (const SweepView& v : *side) std::printf(" %.4f", v.sweep_s);
    std::printf("\n");
  }
  std::printf("[studybench] digest.modeled %016" PRIx64
              " (cuda cells' modeled seconds and iterations)%s\n",
              digest, digest_stable ? "" : " UNSTABLE ACROSS SWEEPS");
  std::printf("[studybench] cells attempted=%zu failed=%zu%s\n", attempted,
              failed,
              balanced ? "" : " UNBALANCED: attempted != verified + failed");

  std::vector<Metric> result;
  if (trace == 0) {
    result = {{"sweep_s", sweep_s, "s"}, {"setup_s", setup_s, "s"}};
    for (const Metric& m : result) print_metric(m);
    print_metric({"peak_rss_mb", peak_rss_mb(), "MB"});
    print_metric({"failed_share", failed_share, "fraction"});
  } else {
    const double traced_sweep_s =
        median_of(traced, [](const SweepView& v) { return v.sweep_s; });
    auto layer = [&](const char* name) {
      return median_of(traced,
                       [name](const SweepView& v) { return v.layer.at(name); });
    };
    const std::pair<const char*, const char*> layer_units[] = {
        {"vcuda.run_s", "s"},          {"vcuda.run_ms_p50", "ms"},
        {"vcuda.run_ms_tail", "ms"},   {"vcuda.iterations", "count"},
        {"vcuda.us_per_iteration", "us"},
        {"journal.put_s", "s"},        {"journal.puts", "count"},
        {"journal.put_ms_tail", "ms"}, {"journal.bytes", "bytes"},
        {"core.verify_s", "s"},        {"sched.busy_s", "s"},
        {"sched.idle_s", "s"},         {"sched.busy_share", "fraction"},
        {"sched.underfull_s", "s"},    {"sched.wallclock_busy_s", "s"},
        {"cpu.run_s", "s"},            {"cpu.measured_s", "s"}};
    result = {{"graph.generate_s", studybench::median(generate_s), "s"},
              {"graph.arcs", arcs, "count"},
              {"core.register_s", register_s, "s"}};
    for (const auto& [name, unit] : layer_units) {
      result.push_back({name, layer(name), unit});
    }
    result.push_back(
        {"trace.overhead_share", traced_sweep_s / sweep_s - 1, "fraction"});
    result.push_back({"failed_share", failed_share, "fraction"});
    result.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    for (const Metric& m : result) print_metric(m);

    // Layer accounting: self times plus idle against workers x sweep_s, for
    // the traced sweep whose wall time is the traced median.
    const SweepView& mid = *std::min_element(
        traced.begin(), traced.end(), [&](const SweepView& a, const SweepView& b) {
          return std::abs(a.sweep_s - traced_sweep_s) <
                 std::abs(b.sweep_s - traced_sweep_s);
        });
    const double capacity = kWorkers * mid.sweep_s;
    const std::pair<const char*, const char*> rows[] = {
        {"Variant::run (cuda)", "vcuda.run_s"},
        {"Variant::run (omp/cpp)", "cpu.run_s"},
        {"measure self (verify)", "core.verify_s"},
        {"ResultStore::put", "journal.put_s"},
        {"cell body self", "body.self_s"},
        {"idle (no cell body)", "sched.idle_s"}};
    double accounted = 0;
    std::printf("[studybench] layer accounting, traced sweep %.4f s x %d "
                "workers = %.4f worker-s\n",
                mid.sweep_s, kWorkers, capacity);
    for (const auto& [label, key] : rows) {
      const double s = mid.layer.at(key);
      accounted += s;
      std::printf("[studybench]   %-24s %10.4f s  %6.2f%%\n", label, s,
                  capacity > 0 ? 100 * s / capacity : 0.0);
    }
    const double gap = capacity > 0 ? accounted / capacity - 1 : 0;
    std::printf("[studybench]   %-24s %10.4f s  (gap %.3g, overhead %.3g)\n",
                "total", accounted, gap, traced_sweep_s / sweep_s - 1);
    std::printf("[studybench] tails: vcuda.run_ms_tail is p%g of %zu cuda "
                "cells, journal.put_ms_tail p%g of %zu puts\n",
                studybench::tail_percentile(mid.cuda_cells) / 100.0,
                mid.cuda_cells, studybench::tail_percentile(cells.size()) / 100.0,
                cells.size());
  }
  std::printf("%s\n", json_result(correct, attempted, failed, result).c_str());
  std::fflush(stdout);
  return balanced ? 0 : 1;
}
