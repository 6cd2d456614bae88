// The whole reproduction as one job DAG.
//
// sweep_all runs every selected (variant x graph) measurement of the study
// through the sweep runtime (src/sched): graph materialization jobs feed
// the measurement jobs that depend on them, per-model aggregation jobs wait
// on their model's measurements, and a final report job checkpoints the
// result journal and prints the resume accounting CI asserts on. Progress
// and an ETA stream to stderr from the executor's monitor thread.
//
// The sweep is one process with N worker threads. The executor's exclusive
// lane keeps every wall-clock (omp/cpp) measurement alone on the machine;
// the model-timed cuda cells share it. See docs/SWEEP_RUNTIME.md.
//
// Flags:
//   --smoke        tiny inputs (REPRO_SCALE=0) and BFS only; used by CI's
//                  kill/resume check
//   --bench        time the sequential loop vs the scheduled pool on the
//                  virtual-CUDA subset and write BENCH_sweep.json
//   --model=M --algo=A --workers=N --reps=R   as in the other binaries
//
// Interrupt it at any point and re-run: journaled measurements are never
// re-executed (the journal is fsynced per append), so a resumed sweep only
// runs what is missing. The final report prints `re-executed: N`, computed
// from the journal's own accounting, which must be 0.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/main.hpp"
#include "bench_util/printing.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sched/executor.hpp"
#include "sched/job_graph.hpp"
#include "vcuda/sim.hpp"

namespace {

using namespace indigo;

/// "264 KiB" / "2 MiB" for the device-memory summary lines.
std::string format_bytes(std::uint64_t bytes) {
  return bytes >= (1u << 20) ? std::to_string(bytes >> 20) + " MiB"
                             : std::to_string(bytes >> 10) + " KiB";
}

/// Progress line for the executor's monitor thread. On a terminal the line
/// redraws in place (`\r`); when stderr is redirected (CI logs, `2>file`)
/// carriage returns would glue every update into one unreadable mega-line,
/// so we emit complete newline-terminated lines instead, rate-limited so an
/// hours-long sweep logs one line every few seconds, not per tick. Only the
/// monitor thread and (after it joined) run()'s final call invoke this, so
/// the statics need no locking.
void print_progress(const sched::Progress& p, double eta_s) {
  static const bool tty = ::isatty(::fileno(stderr)) != 0;
  static double last_logged_s = -1e9;
  const bool final = p.done == p.total;
  if (!tty && !final && p.elapsed_s - last_logged_s < 5.0) return;
  last_logged_s = p.elapsed_s;
  std::fprintf(stderr,
               "%s[sweep] %zu/%zu done, %zu running, %zu queued, "
               "%llu steals, elapsed %.1fs, eta %.0fs%s",
               tty ? "\r" : "", p.done, p.total, p.running, p.queue_depth,
               static_cast<unsigned long long>(p.steals), p.elapsed_s,
               eta_s < 0 ? 0.0 : eta_s, tty ? "   " : "\n");
  if (tty && final) std::fputc('\n', stderr);
}

struct SweepOutcome {
  std::size_t total = 0;
  std::size_t hits = 0;         // journaled before this process ran them
  std::size_t executed = 0;     // measured fresh
  std::size_t quarantined = 0;  // hung or crashed past every retry
  std::size_t verified = 0;
  double wall_s = 0;
};

/// Builds and runs the full DAG on `workers` workers. Cell c is (variant
/// selected[c / num_graphs], graph c % num_graphs).
SweepOutcome run_dag(bench::Harness& h, std::optional<Model> model,
                     std::optional<Algorithm> algo, int reps, int workers) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto selected = Registry::instance().select(model, algo);
  const std::size_t num_graphs = h.num_graphs();
  const std::size_t total = selected.size() * num_graphs;
  const int retries = bench::env_retries();
  const double timeout_s = bench::env_timeout_s();
  sched::JobGraph jg;
  std::vector<sched::JobId> cell_job;  // cell -> measurement job
  std::vector<std::optional<Measurement>> slots(total);
  std::atomic<std::size_t> hits{0};

  // Stage 1: one materialization job per graph. Model-timed class:
  // generation is not a reported measurement, so it may share the machine.
  std::vector<sched::JobId> graph_job;
  for (std::size_t gi = 0; total > 0 && gi < num_graphs; ++gi) {
    sched::Job j;
    j.name = "materialize#" + std::to_string(gi);
    j.exec_class = sched::ExecClass::ModelTimed;
    j.work = [&h, gi](const sched::JobContext&) { h.materialize_graph(gi); };
    graph_job.push_back(jg.add(std::move(j)));
  }

  // Stage 2: one measurement job per cell, depending on its graph. Journal
  // hits are counted at run time (the graph's name - part of the journal
  // key - only exists once stage 1 materialized it).
  cell_job.reserve(total);
  for (std::size_t c = 0; c < total; ++c) {
    const Variant* v = selected[c / num_graphs];
    const std::size_t gi = c % num_graphs;
    sched::Job j;
    j.name = v->name + "@g" + std::to_string(gi);
    j.exec_class = v->model == Model::Cuda && !obs::enabled()
                       ? sched::ExecClass::ModelTimed
                       : sched::ExecClass::WallClock;
    j.timeout_s = timeout_s;
    j.max_retries = retries;
    j.work = [&h, &slots, &hits, v, gi, c, reps](const sched::JobContext&) {
      const Graph& g = h.graph(gi);
      if (h.cached(*v, g, nullptr, reps)) {
        hits.fetch_add(1, std::memory_order_relaxed);
      }
      slots[c] = h.measure_one(*v, g, nullptr, reps);
    };
    cell_job.push_back(jg.add(std::move(j)));
    jg.depend(cell_job.back(), graph_job[gi]);
  }

  // Stage 3: per-model aggregation, then the final checkpoint/report job.
  sched::Job report;
  report.name = "report";
  report.exec_class = sched::ExecClass::ModelTimed;
  report.work = [&h](const sched::JobContext&) {
    h.result_store().checkpoint();
  };
  const sched::JobId report_id = jg.add(std::move(report));
  for (Model m : kAllModels) {
    std::vector<std::size_t> mine;  // cells of this model
    for (std::size_t c = 0; c < total; ++c) {
      if (selected[c / num_graphs]->model == m) mine.push_back(c);
    }
    if (mine.empty()) continue;
    sched::Job agg;
    agg.name = std::string("aggregate:") + to_string(m);
    agg.exec_class = sched::ExecClass::ModelTimed;
    agg.work = [&slots, mine, m](const sched::JobContext&) {
      std::size_t verified = 0, measured = 0, oom = 0;
      for (std::size_t c : mine) {
        if (!slots[c]) continue;
        ++measured;
        verified += slots[c]->verified;
        oom += slots[c]->metrics.count("validity.oom") != 0;
      }
      std::cout << "[sweep] " << to_string(m) << ": " << verified << '/'
                << measured << " verified of " << mine.size()
                << " measurements";
      if (oom > 0) std::cout << " (" << oom << " OOM-rejected)";
      std::cout << '\n';
      if (m == Model::Cuda) {
        // The capacity model's peak: the largest modeled footprint any
        // cuda cell reached.
        std::cout << "[sweep] cuda device memory: peak modeled footprint "
                  << format_bytes(vcuda::peak_modeled_footprint_bytes())
                  << '\n';
      }
    };
    const sched::JobId agg_id = jg.add(std::move(agg));
    for (std::size_t c : mine) jg.depend(agg_id, cell_job[c]);
    jg.depend(report_id, agg_id);
  }

  sched::ExecutorOptions eo;
  eo.num_workers = workers;
  // Resume-aware ETA: journal hits complete in microseconds, so the
  // executor's naive done/elapsed rate wildly underestimates the time left
  // on a resumed sweep (thousands of "done" jobs that cost nothing inflate
  // the throughput). Rate the remaining work on fresh executions only.
  eo.on_progress = [&hits](const sched::Progress& p) {
    const std::size_t n = hits.load(std::memory_order_relaxed);
    const std::size_t fresh = p.done > n ? p.done - n : 0;
    const double eta = fresh > 0 ? p.elapsed_s *
                                       static_cast<double>(p.total - p.done) /
                                       static_cast<double>(fresh)
                                 : -1.0;
    print_progress(p, eta);
  };
  const auto statuses = sched::Executor(eo).run(jg);

  // Accounting, plus a journal annotation for every quarantined cell.
  SweepOutcome out;
  out.total = total;
  out.hits = hits.load();
  for (std::size_t c = 0; c < total; ++c) {
    if (!slots[c]) {
      ++out.quarantined;
      const sched::JobStatus& st = statuses[cell_job[c]];
      const std::string& name = jg.job(cell_job[c]).name;
      std::cerr << "[warn] quarantined: " << name << ": " << st.error;
      if (!st.flight_dump.empty()) {
        std::cerr << " (flight dump: " << st.flight_dump << ')';
      }
      std::cerr << '\n';
      h.result_store().annotate(
          "quarantined " + name + " after " + std::to_string(st.attempts) +
          " attempt(s): " + st.error +
          (st.flight_dump.empty()
               ? std::string()
               : " (flight dump: " + st.flight_dump + ")"));
      continue;
    }
    out.verified += slots[c]->verified;
  }
  out.executed = out.total - out.hits - out.quarantined;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  return out;
}

/// --bench: wall-clock of the sequential reference loop vs the scheduled
/// pool on the virtual-CUDA subset, from cold journals both times.
int run_bench_mode(std::optional<Algorithm> algo, int reps, int workers) {
  const int pool = sched::Executor::resolve_workers(workers);
  ::setenv("REPRO_CACHE", "", 1);  // in-memory stores: no reuse between runs

  bench::Harness seq;
  bench::SweepOptions sw;
  sw.model = Model::Cuda;
  sw.algo = algo;
  sw.reps = reps;
  sw.workers = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto ms_seq = seq.sweep(sw);
  const double seq_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  bench::Harness sched_h;
  sw.workers = pool;
  const auto t1 = std::chrono::steady_clock::now();
  const auto ms_sched = sched_h.sweep(sw);
  const double sched_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();

  std::ofstream json("BENCH_sweep.json");
  json.precision(6);
  json << "{\n"
       << "  \"subset\": \"cuda" << (algo ? std::string("/") + to_string(*algo)
                                          : std::string())
       << "\",\n"
       << "  \"measurements\": " << ms_seq.size() << ",\n"
       << "  \"workers\": " << pool << ",\n"
       << "  \"sequential_s\": " << seq_s << ",\n"
       << "  \"scheduled_s\": " << sched_s << ",\n"
       << "  \"speedup\": " << (sched_s > 0 ? seq_s / sched_s : 0) << "\n"
       << "}\n";
  std::cout << "[bench] sequential " << seq_s << "s, scheduled (" << pool
            << " workers) " << sched_s << "s -> BENCH_sweep.json\n";
  return ms_seq.size() == ms_sched.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> rest;
  std::optional<bench::BenchArgs> args =
      bench::parse_bench_args(argc, argv, rest);
  bool smoke = false, bench_mode = false;
  bool ok = args.has_value();
  for (const std::string& arg : rest) {
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--bench") {
      bench_mode = true;
    } else {
      std::cerr << "bad argument: " << arg << '\n';
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "usage: sweep_all [--smoke] [--bench] [--model=M] "
                 "[--algo=A] [--reps=N] [--workers=N]\n";
    return 2;
  }
  if (smoke) {
    ::setenv("REPRO_SCALE", "0", 1);
    if (!args->algo) args->algo = Algorithm::BFS;
  }
  if (bench_mode) return run_bench_mode(args->algo, args->reps, args->workers);

  // A sweep is long-lived and killable, so the telemetry plane is on by
  // default: the flight recorder captures what was in flight when a signal
  // lands, and the snapshot publisher keeps telemetry.json current. Both
  // honor explicit env choices (INDIGO_FLIGHT=0 / INDIGO_TELEMETRY=0 keep
  // them off; non-zero values were already applied by init_from_env).
  // Default telemetry leaves the counter layer alone: obs::enabled() must
  // stay measurement-driven (it changes journal keys and exec classes).
  if (std::getenv("INDIGO_FLIGHT") == nullptr) {
    obs::set_flight_enabled(true);
  }
  if (std::getenv("INDIGO_TELEMETRY") == nullptr) {
    obs::TelemetryOptions topts;
    topts.arm_counters = false;
    obs::telemetry_start(std::move(topts));
  }

  bench::print_header(
      "Sweep", "The full study as one fault-tolerant job DAG",
      "All selected (variant x graph) measurements execute through the "
      "sweep runtime; interrupted sweeps resume from the journal with "
      "zero re-executed jobs.");

  bench::Harness h{bench::Harness::DeferGraphs{}};
  const std::size_t journal_at_start = h.result_store().size();
  const int pool = sched::Executor::resolve_workers(args->workers);
  const SweepOutcome out =
      run_dag(h, args->model, args->algo, args->reps, pool);

  // Resume accounting straight from the journal: an executed job whose key
  // was already journaled would overwrite instead of grow the map, so
  //   re-executed = appends - (final size - initial size).
  const std::size_t appended = h.result_store().appended();
  const std::size_t grew = h.result_store().size() - journal_at_start;
  const std::size_t re_executed = appended - grew;

  std::cout << "[sweep] journal hits: " << out.hits << '/' << out.total
            << " (" << (out.total ? 100 * out.hits / out.total : 0)
            << "%), executed: " << out.executed
            << ", quarantined: " << out.quarantined
            << ", re-executed: " << re_executed << '\n'
            << "[sweep] wall: " << out.wall_s << "s on " << pool
            << " workers; journal: " << h.result_store().path() << " ("
            << h.result_store().size() << " entries)\n";
  const bool had_telemetry = obs::telemetry_running();
  obs::telemetry_stop();  // one final snapshot with the end-state counters
  if (had_telemetry || obs::flight_enabled()) {
    std::cout << "[sweep] telemetry plane:";
    if (had_telemetry) std::cout << " snapshots published";
    if (obs::flight_enabled()) {
      std::cout << (had_telemetry ? ";" : "")
                << " flight dump on crash/kill: " << obs::flight_dump_path();
    }
    std::cout << '\n';
  }

  bench::shape_check("every pair is journaled or quarantined",
                     out.hits + out.executed + out.quarantined == out.total);
  bench::shape_check("no journaled measurement was re-executed",
                     re_executed == 0);
  bench::shape_check("most measurements verified",
                     out.verified * 10 >= (out.total - out.quarantined) * 9);
  return bench::exit_code();
}
