// The whole reproduction as one job DAG.
//
// sweep_all runs every selected (variant x graph) measurement of the study
// through the sweep runtime (src/sched): graph materialization jobs feed
// the measurement jobs that depend on them, per-model aggregation jobs wait
// on their model's measurements, and a final report job checkpoints the
// result journal and prints the resume accounting CI asserts on. Progress
// and an ETA stream to stderr from the executor's monitor thread.
//
// Fleet mode (--fleet=N) runs the same sweep as a sharded multi-process
// fleet (src/fleet): this process becomes the coordinator, forks N worker
// daemons of itself, hands out shard leases over a local socket, survives
// SIGKILLed workers via lease reassignment, and merges the per-worker
// journals back into the canonical store. See docs/SWEEP_RUNTIME.md.
//
// Flags:
//   --smoke        tiny inputs (REPRO_SCALE=0) and BFS only; used by CI's
//                  kill/resume check
//   --bench        time the sequential loop vs the scheduled pool on the
//                  virtual-CUDA subset and write BENCH_sweep.json (with
//                  --fleet=N: time in-process vs fleet and write
//                  BENCH_fleet.json with the fleet overhead)
//   --fleet=N      coordinator + N forked local worker daemons
//   --model=M --algo=A --workers=N --reps=R   as in the other binaries
//
// Hidden flags (used by the fleet itself, not meant for humans):
//   --fleet-worker --connect=host:port --rank=R --fleet-journal=PATH
//                  run as a worker daemon for that coordinator
//   --fleet-kill-one
//                  fault injection: the coordinator SIGKILLs the first
//                  worker that heartbeats while holding a lease (CI's
//                  deterministic mid-shard kill)
//
// Interrupt it at any point and re-run: journaled measurements are never
// re-executed (the journal is fsynced per append), so a resumed sweep only
// runs what is missing. The final report prints `re-executed: N`, computed
// from the journal's own accounting, which must be 0.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/main.hpp"
#include "bench_util/printing.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/journal_merge.hpp"
#include "fleet/worker.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sched/executor.hpp"
#include "sched/job_graph.hpp"
#include "sched/shard.hpp"
#include "vcuda/sim.hpp"

namespace {

using namespace indigo;

double env_lease_s() {
  if (const char* env = std::getenv("INDIGO_FLEET_LEASE_S")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 10.0;
}

double env_fleet_timeout_s() {
  if (const char* env = std::getenv("INDIGO_FLEET_TIMEOUT_S")) {
    return std::max(0.0, std::atof(env));
  }
  return 0;  // wait forever; the unfinishable-run detector still applies
}

std::size_t env_fleet_shards(int fleet_n) {
  if (const char* env = std::getenv("INDIGO_FLEET_SHARDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  // Several shards per worker: small enough that a SIGKILL loses little
  // work, large enough that lease traffic stays negligible.
  return static_cast<std::size_t>(6 * fleet_n);
}

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

/// One built slice of the sweep: materialization jobs feeding the
/// measurement jobs of cells [begin, end) in the deterministic enumeration
/// `cell c = (variant selected[c / num_graphs], graph c % num_graphs)`.
/// Every fleet process rebuilds this enumeration identically from the same
/// registry filter, which is what lets a shard be described as a bare
/// [begin, end) range on the wire.
struct CellRun {
  sched::JobGraph jg;
  std::vector<std::size_t> cell_index;  // local slot -> global cell index
  std::vector<sched::JobId> cell_job;   // local slot -> measurement job
  std::vector<std::optional<Measurement>> slots;
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> done_cells{0};
};

std::unique_ptr<CellRun> build_cell_jobs(
    bench::Harness& h, const std::vector<const Variant*>& selected, int reps,
    std::size_t begin, std::size_t end,
    std::atomic<std::size_t>* external_progress = nullptr) {
  auto crp = std::make_unique<CellRun>();
  CellRun& cr = *crp;
  const std::size_t num_graphs = h.num_graphs();
  const int retries = bench::env_retries();
  const double timeout_s = bench::env_timeout_s();

  // Stage 1: one materialization job per graph the range touches.
  // Model-timed class: generation is not a reported measurement, so it may
  // share the machine.
  std::map<std::size_t, sched::JobId> graph_job;
  for (std::size_t c = begin; c < end; ++c) {
    const std::size_t gi = c % num_graphs;
    if (graph_job.count(gi) != 0) continue;
    sched::Job j;
    j.name = "materialize#" + std::to_string(gi);
    j.exec_class = sched::ExecClass::ModelTimed;
    j.work = [&h, gi](const sched::JobContext&) { h.materialize_graph(gi); };
    graph_job[gi] = cr.jg.add(std::move(j));
  }

  // Stage 2: one measurement job per cell, depending on its graph and
  // tagged with its global cell index (Job::shard_cell) so a coordinator
  // can extract the shard plan from the built graph. Journal hits are
  // counted at run time (the graph's name - part of the journal key - only
  // exists once stage 1 materialized it).
  const std::size_t n = end - begin;
  cr.cell_index.reserve(n);
  cr.cell_job.reserve(n);
  cr.slots.resize(n);
  for (std::size_t c = begin; c < end; ++c) {
    const std::size_t slot = c - begin;
    const Variant* v = selected[c / num_graphs];
    const std::size_t gi = c % num_graphs;
    sched::Job j;
    j.name = v->name + "@g" + std::to_string(gi);
    j.exec_class = v->model == Model::Cuda && !obs::enabled()
                       ? sched::ExecClass::ModelTimed
                       : sched::ExecClass::WallClock;
    j.timeout_s = timeout_s;
    j.max_retries = retries;
    j.shard_cell = static_cast<std::int64_t>(c);
    j.work = [&h, v, gi, slot, reps, cr = crp.get(),
              external_progress](const sched::JobContext&) {
      const Graph& g = h.graph(gi);
      if (h.cached(*v, g, nullptr, reps)) {
        cr->hits.fetch_add(1, std::memory_order_relaxed);
      }
      cr->slots[slot] = h.measure_one(*v, g, nullptr, reps);
      cr->done_cells.fetch_add(1, std::memory_order_relaxed);
      if (external_progress != nullptr) {
        external_progress->fetch_add(1, std::memory_order_relaxed);
      }
    };
    cr.cell_index.push_back(c);
    cr.cell_job.push_back(cr.jg.add(std::move(j)));
    cr.jg.depend(cr.cell_job.back(), graph_job[gi]);
  }
  return crp;
}

/// Post-run accounting over a CellRun: counts hits/executed/quarantined,
/// sums verification, and annotates the journal for every quarantined cell
/// (the annotations survive a fleet merge, so the audit trail of a worker's
/// quarantines lands in the canonical store).
SweepOutcome finish_cells(bench::Harness& h, CellRun& cr,
                          const std::vector<sched::JobStatus>& statuses) {
  SweepOutcome out;
  out.total = cr.cell_job.size();
  out.hits = cr.hits.load();
  for (std::size_t s = 0; s < cr.cell_job.size(); ++s) {
    if (!cr.slots[s]) {
      ++out.quarantined;
      const sched::JobStatus& st = statuses[cr.cell_job[s]];
      const std::string& name = cr.jg.job(cr.cell_job[s]).name;
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
    out.verified += cr.slots[s]->verified;
  }
  out.executed = out.total - out.hits - out.quarantined;
  return out;
}

/// Builds and runs the full DAG on `workers` workers (0 = no DAG: the
/// harness's plain sequential loop semantics, used by --bench as baseline).
SweepOutcome run_dag(bench::Harness& h, std::optional<Model> model,
                     std::optional<Algorithm> algo, int reps, int workers,
                     bool quiet_progress) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto selected = Registry::instance().select(model, algo);
  const std::size_t total = selected.size() * h.num_graphs();
  auto cr = build_cell_jobs(h, selected, reps, 0, total);

  // Stage 3: per-model aggregation, then the final checkpoint/report job.
  sched::Job report;
  report.name = "report";
  report.exec_class = sched::ExecClass::ModelTimed;
  report.work = [&h](const sched::JobContext&) {
    h.result_store().checkpoint();
  };
  const sched::JobId report_id = cr->jg.add(std::move(report));
  for (Model m : kAllModels) {
    std::vector<std::size_t> mine;  // local slots of this model
    for (std::size_t s = 0; s < cr->cell_index.size(); ++s) {
      if (selected[cr->cell_index[s] / h.num_graphs()]->model == m) {
        mine.push_back(s);
      }
    }
    if (mine.empty()) continue;
    sched::Job agg;
    agg.name = std::string("aggregate:") + to_string(m);
    agg.exec_class = sched::ExecClass::ModelTimed;
    agg.work = [cr = cr.get(), mine, m](const sched::JobContext&) {
      std::size_t verified = 0, measured = 0, oom = 0;
      for (std::size_t s : mine) {
        if (!cr->slots[s]) continue;
        ++measured;
        verified += cr->slots[s]->verified;
        oom += cr->slots[s]->metrics.count("validity.oom") != 0;
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
    const sched::JobId agg_id = cr->jg.add(std::move(agg));
    for (std::size_t s : mine) cr->jg.depend(agg_id, cr->cell_job[s]);
    cr->jg.depend(report_id, agg_id);
  }

  sched::ExecutorOptions eo;
  eo.num_workers = workers;
  if (!quiet_progress) {
    // Resume-aware ETA: journal hits complete in microseconds, so the
    // executor's naive done/elapsed rate wildly underestimates the time
    // left on a resumed sweep (thousands of "done" jobs that cost nothing
    // inflate the throughput). Rate the remaining work on fresh executions
    // only.
    eo.on_progress = [cr = cr.get()](const sched::Progress& p) {
      const std::size_t h = cr->hits.load(std::memory_order_relaxed);
      const std::size_t fresh = p.done > h ? p.done - h : 0;
      const double eta =
          fresh > 0 ? p.elapsed_s *
                          static_cast<double>(p.total - p.done) /
                          static_cast<double>(fresh)
                    : -1.0;
      print_progress(p, eta);
    };
  }
  const auto statuses = sched::Executor(eo).run(cr->jg);

  SweepOutcome out = finish_cells(h, *cr, statuses);
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  return out;
}

// ---------------------------------------------------------------------------
// Fleet mode (--fleet=N): coordinator + forked worker daemons.

std::vector<std::string> worker_args(std::uint16_t port, int rank,
                                     const std::string& canonical,
                                     std::optional<Model> model,
                                     std::optional<Algorithm> algo, int reps,
                                     int workers, bool smoke) {
  std::vector<std::string> a{"/proc/self/exe",
                             "--fleet-worker",
                             "--connect=127.0.0.1:" + std::to_string(port),
                             "--rank=" + std::to_string(rank),
                             "--fleet-journal=" + canonical,
                             "--reps=" + std::to_string(reps)};
  if (model) a.push_back("--model=" + std::string(to_string(*model)));
  if (algo) a.push_back("--algo=" + std::string(to_string(*algo)));
  if (workers >= 0) a.push_back("--workers=" + std::to_string(workers));
  if (smoke) a.push_back("--smoke");
  return a;
}

pid_t spawn_worker(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  std::perror("[fleet] execv worker");
  ::_exit(127);
}

struct FleetRunResult {
  bool ok = false;
  fleet::CoordinatorStats stats;
  fleet::FleetMergeStats merge;
  int respawns = 0;
  double wall_s = 0;
  std::size_t journal_entries = 0;
  std::string journal_path;
};

/// The coordinator side of a fleet run: builds the shard plan from the
/// tagged sweep JobGraph, serves leases, forks and supervises N local
/// workers (respawning the last one if it dies with shards remaining), and
/// merges the worker journals into the canonical store. Never materializes
/// a graph itself - only workers pay that cost.
FleetRunResult run_fleet(int fleet_n, bool kill_one,
                         std::optional<Model> model,
                         std::optional<Algorithm> algo, int reps, int workers,
                         bool smoke) {
  FleetRunResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const std::string canonical = bench::env_journal_path();
  if (canonical.empty()) {
    std::cerr << "[fleet] fleet mode needs a journal: REPRO_CACHE must name "
                 "a file (empty keeps results in memory, which cannot be "
                 "merged across processes)\n";
    return out;
  }

  bench::Harness h{bench::Harness::DeferGraphs{}};
  const auto selected = Registry::instance().select(model, algo);
  const std::size_t total = selected.size() * h.num_graphs();
  auto cr = build_cell_jobs(h, selected, reps, 0, total);
  const auto shards =
      sched::extract_shards(cr->jg, env_fleet_shards(fleet_n));

  fleet::CoordinatorOptions copts;
  copts.shards = shards;
  copts.lease_s = env_lease_s();
  copts.canonical = &h.result_store();
  copts.log = [](const std::string& s) {
    std::cerr << "[fleet] " << s << '\n';
  };
  std::atomic<bool> killed{false};
  fleet::Coordinator* coordp = nullptr;
  if (kill_one) {
    // Deterministic mid-run kill: wait until the victim has completed at
    // least one shard (so its journal holds entries the merge must
    // recover), then SIGKILL it while it holds a fresh lease. The hook
    // runs outside the coordinator's lock, so stats() is safe here.
    copts.on_heartbeat = [&killed, &coordp](int rank, long pid,
                                            std::uint32_t shard) {
      if (killed.load() || coordp == nullptr) return;
      const auto cs = coordp->stats();
      bool victim_has_work = false;
      for (const fleet::WorkerView& w : cs.workers) {
        victim_has_work =
            victim_has_work || (w.rank == rank && w.shards_done >= 1);
      }
      if (!victim_has_work) return;
      bool expected = false;
      if (!killed.compare_exchange_strong(expected, true)) return;
      std::cerr << "[fleet] fault injection: SIGKILL worker w" << rank
                << " (pid " << pid << ") holding shard " << shard << '\n';
      ::kill(static_cast<pid_t>(pid), SIGKILL);
    };
  }
  fleet::Coordinator coord(std::move(copts));
  coordp = &coord;
  const std::uint16_t port = coord.start();
  if (port == 0) {
    std::cerr << "[fleet] cannot listen on 127.0.0.1\n";
    return out;
  }
  std::cerr << "[fleet] coordinator on 127.0.0.1:" << port << " serving "
            << shards.size() << " shard(s) over " << total << " cell(s) to "
            << fleet_n << " worker(s)\n";

  std::mutex smu;
  std::map<pid_t, int> child_rank;
  int live = 0;
  int respawns = 0;
  const int respawn_cap = fleet_n + 2;
  const auto spawn_rank = [&](int rank) {
    const pid_t pid = spawn_worker(worker_args(port, rank, canonical, model,
                                               algo, reps, workers, smoke));
    if (pid < 0) {
      std::perror("[fleet] fork");
      return;
    }
    std::lock_guard lk(smu);
    child_rank[pid] = rank;
    ++live;
  };
  for (int i = 0; i < fleet_n; ++i) spawn_rank(i);
  coord.set_live_workers(live);

  // Reap children as they exit; the coordinator learns of each death (to
  // release its leases and pick up its flight dump) and of the remaining
  // liveness (to detect an unfinishable run). If the *last* worker dies
  // with shards remaining, respawn it - the respawned process resumes from
  // its own journal, which is the single-worker crash-recovery path.
  std::thread supervisor([&] {
    while (true) {
      int st = 0;
      const pid_t pid = ::waitpid(-1, &st, 0);
      if (pid < 0) {
        if (errno == EINTR) continue;
        break;  // ECHILD: every child reaped and none respawned
      }
      const bool clean = WIFEXITED(st) && WEXITSTATUS(st) == 0;
      int rank = -1;
      int now_live = 0;
      {
        std::lock_guard lk(smu);
        const auto it = child_rank.find(pid);
        if (it != child_rank.end()) {
          rank = it->second;
          child_rank.erase(it);
          --live;
        }
        now_live = live;
      }
      coord.note_worker_exit(pid, clean);
      if (!clean) {
        if (WIFSIGNALED(st)) {
          std::cerr << "[fleet] worker w" << rank << " (pid " << pid
                    << ") killed by signal " << WTERMSIG(st) << '\n';
        } else {
          std::cerr << "[fleet] worker w" << rank << " (pid " << pid
                    << ") exited with status "
                    << (WIFEXITED(st) ? WEXITSTATUS(st) : -1) << '\n';
        }
      }
      // Decide on a respawn BEFORE publishing the new liveness: reporting
      // zero live workers first would race wait_until_done's unfinishable
      // detector against the respawn.
      const auto cs = coord.stats();
      bool respawn = false;
      {
        std::lock_guard lk(smu);
        if (!clean && now_live == 0 && cs.done_shards < cs.shards &&
            respawns < respawn_cap && rank >= 0) {
          ++respawns;
          respawn = true;
        }
      }
      if (respawn) {
        std::cerr << "[fleet] respawning worker w" << rank
                  << " (last worker died with shards remaining)\n";
        spawn_rank(rank);
        std::lock_guard lk(smu);
        now_live = live;
      }
      coord.set_live_workers(now_live);
    }
  });

  out.ok = coord.wait_until_done(env_fleet_timeout_s());

  // Drain window: workers see `drain` on their next lease_request and exit
  // cleanly. Force-kill stragglers after a grace period so a wedged worker
  // cannot hang the coordinator.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard lk(smu);
        if (live == 0) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::vector<pid_t> stragglers;
    {
      std::lock_guard lk(smu);
      for (const auto& [pid, rank] : child_rank) stragglers.push_back(pid);
    }
    for (pid_t p : stragglers) ::kill(p, SIGTERM);
    if (!stragglers.empty()) {
      std::this_thread::sleep_for(std::chrono::seconds(2));
      std::lock_guard lk(smu);
      for (const auto& [pid, rank] : child_rank) ::kill(pid, SIGKILL);
    }
  }
  supervisor.join();
  coord.shutdown();

  // Merge every worker journal into the canonical store. The coordinator's
  // hello records are authoritative; the rank-derived fallback paths cover
  // a worker that died before it ever said hello.
  std::vector<std::string> paths = coord.worker_journals();
  for (int i = 0; i < fleet_n; ++i) {
    const std::string p = canonical + ".w" + std::to_string(i);
    bool seen = false;
    for (const std::string& q : paths) seen = seen || q == p;
    if (!seen) paths.push_back(p);
  }
  out.merge = fleet::merge_worker_journals(h.result_store(), paths,
                                           [](const std::string& s) {
                                             std::cerr << "[fleet] " << s
                                                       << '\n';
                                           });

  out.stats = coord.stats();
  {
    std::lock_guard lk(smu);
    out.respawns = respawns;
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  out.journal_entries = h.result_store().size();
  out.journal_path = h.result_store().path();
  return out;
}

void write_bench_fleet_json(const FleetRunResult& r, int fleet_n,
                            double inproc_s, double overhead,
                            const std::string& subset) {
  std::ofstream json("BENCH_fleet.json");
  json.precision(6);
  json << "{\n"
       << "  \"subset\": \"" << subset << "\",\n"
       << "  \"fleet_workers\": " << fleet_n << ",\n"
       << "  \"shards\": " << r.stats.shards << ",\n"
       << "  \"cells\": " << r.stats.cells << ",\n"
       << "  \"executed\": " << r.stats.executed << ",\n"
       << "  \"hits\": " << r.stats.hits << ",\n"
       << "  \"quarantined\": " << r.stats.quarantined << ",\n"
       << "  \"lease_releases\": " << r.stats.lease_releases << ",\n"
       << "  \"fenced\": " << r.stats.fenced << ",\n"
       << "  \"respawns\": " << r.respawns << ",\n"
       << "  \"merged\": " << r.merge.totals.merged << ",\n"
       << "  \"duplicates\": " << r.merge.totals.duplicates << ",\n"
       << "  \"conflicts\": " << r.merge.totals.conflicts << ",\n"
       << "  \"fleet_s\": " << r.wall_s;
  if (inproc_s > 0) {
    json << ",\n  \"inprocess_s\": " << inproc_s
         << ",\n  \"single_worker_overhead\": " << overhead;
  }
  json << "\n}\n";
}

void print_fleet_accounting(const FleetRunResult& r, int fleet_n) {
  std::cout << "[fleet] shards: " << r.stats.done_shards << '/'
            << r.stats.shards << " done, lease releases: "
            << r.stats.lease_releases << ", fenced: " << r.stats.fenced
            << ", respawns: " << r.respawns << '\n';
  std::cout << "[fleet] merge: " << r.merge.totals.merged << " merged, "
            << r.merge.totals.duplicates << " duplicate(s), "
            << r.merge.totals.conflicts << " conflict(s) from "
            << r.merge.files << " journal(s)"
            << (r.merge.torn_tails ? ", torn tail repaired" : "") << '\n';
  std::cout << "[sweep] journal hits: " << r.stats.hits << '/'
            << r.stats.cells << " ("
            << (r.stats.cells ? 100 * r.stats.hits / r.stats.cells : 0)
            << "%), executed: " << r.stats.executed
            << ", quarantined: " << r.stats.quarantined << '\n'
            << "[sweep] wall: " << r.wall_s << "s on " << fleet_n
            << " fleet worker(s); journal: " << r.journal_path << " ("
            << r.journal_entries << " entries)\n";
}

void fleet_shape_checks(const FleetRunResult& r) {
  bench::shape_check("fleet completed every shard",
                     r.ok && r.stats.done_shards == r.stats.shards);
  bench::shape_check(
      "every cell accounted by exactly one shard completion",
      r.stats.executed + r.stats.hits + r.stats.quarantined == r.stats.cells);
  bench::shape_check(
      "every executed measurement is durable in the canonical journal",
      r.merge.totals.merged + r.merge.totals.duplicates +
              r.merge.totals.conflicts >=
          r.stats.executed);
}

int run_fleet_mode(int fleet_n, bool kill_one, std::optional<Model> model,
                   std::optional<Algorithm> algo, int reps, int workers,
                   bool smoke) {
  // Same default telemetry plane as the in-process sweep (see main).
  if (std::getenv("INDIGO_FLIGHT") == nullptr) {
    obs::set_flight_enabled(true);
  }
  if (std::getenv("INDIGO_TELEMETRY") == nullptr) {
    obs::TelemetryOptions topts;
    topts.arm_counters = false;
    obs::telemetry_start(std::move(topts));
  }
  bench::print_header(
      "Sweep (fleet)", "The full study as a sharded multi-process fleet",
      "A coordinator hands out shard leases to worker daemons over a local "
      "socket; dead workers are fenced and their shards reassigned; worker "
      "journals merge back into one canonical store.");

  const FleetRunResult r =
      run_fleet(fleet_n, kill_one, model, algo, reps, workers, smoke);
  print_fleet_accounting(r, fleet_n);
  write_bench_fleet_json(r, fleet_n, 0, 0, "fleet-run");
  obs::telemetry_stop();
  fleet_shape_checks(r);
  return bench::exit_code();
}

/// --bench --fleet=N: the in-process scheduled sweep vs the same subset
/// through the fleet, both from cold stores, on the deterministic
/// virtual-CUDA subset. Records the fleet overhead in BENCH_fleet.json -
/// with N=1 this is the pure cost of the coordinator/worker machinery.
int run_fleet_bench(int fleet_n, std::optional<Algorithm> algo, int reps,
                    int workers) {
  const int pool = sched::Executor::resolve_workers(workers);

  // The baseline journals to a cold file exactly like a fleet worker does,
  // so the overhead below isolates the fleet machinery (fork, sockets,
  // leases, merge) instead of charging the fleet for fsync'd appends the
  // sequential path skips when run cacheless.
  const std::string inproc_jpath = "BENCH_fleet_journal.csv.inproc";
  ::unlink(inproc_jpath.c_str());
  ::setenv("REPRO_CACHE", inproc_jpath.c_str(), 1);
  double inproc_s = 0;
  std::size_t inproc_cells = 0;
  {
    bench::Harness h{bench::Harness::DeferGraphs{}};
    const SweepOutcome so = run_dag(h, Model::Cuda, algo, reps, pool, true);
    inproc_s = so.wall_s;
    inproc_cells = so.total;
  }
  ::unlink(inproc_jpath.c_str());

  const std::string jpath = "BENCH_fleet_journal.csv";
  ::unlink(jpath.c_str());
  for (int i = 0; i < fleet_n; ++i) {
    ::unlink((jpath + ".w" + std::to_string(i)).c_str());
  }
  ::setenv("REPRO_CACHE", jpath.c_str(), 1);
  const FleetRunResult r = run_fleet(fleet_n, false, Model::Cuda, algo, reps,
                                     workers, false);
  ::unlink(jpath.c_str());

  const double overhead = inproc_s > 0 ? r.wall_s / inproc_s - 1.0 : 0;
  std::cout << "[bench] in-process " << inproc_s << "s, fleet (" << fleet_n
            << " worker(s)) " << r.wall_s << "s -> overhead "
            << overhead * 100 << "% -> BENCH_fleet.json\n";
  write_bench_fleet_json(
      r, fleet_n, inproc_s, overhead,
      std::string("cuda") +
          (algo ? std::string("/") + to_string(*algo) : std::string()));

  fleet_shape_checks(r);
  bench::shape_check("fleet measured the same subset",
                     r.stats.cells == inproc_cells);
  if (fleet_n == 1) {
    bench::shape_check("single-worker fleet overhead within 5%",
                       overhead <= 0.05);
  }
  return bench::exit_code();
}

/// --fleet-worker: daemon side. Appends to its own per-rank journal (the
/// canonical journal's advisory flock forbids sharing), preloads the
/// canonical journal read-only so already-measured cells resolve as hits,
/// and runs each leased shard through the in-process Executor labelled with
/// its fleet rank (per-worker trace/telemetry attribution).
int run_fleet_worker(const std::string& host, std::uint16_t port, int rank,
                     const std::string& canonical,
                     std::optional<Model> model, std::optional<Algorithm> algo,
                     int reps, int workers) {
  const std::string mine = canonical + ".w" + std::to_string(rank);
  ::setenv("REPRO_CACHE", mine.c_str(), 1);
  // Re-point the observability outputs at per-rank files. setenv is too
  // late for these (obs::init_from_env already ran from a static
  // initializer, inheriting the coordinator's paths), so use the setters:
  // N workers appending to one trace/telemetry file would clobber each
  // other at exit.
  if (const char* t = std::getenv("INDIGO_TRACE")) {
    const std::string tv = t;
    if (!tv.empty() && tv != "0" && tv != "off") {
      obs::set_trace_path(tv + ".w" + std::to_string(rank));
    }
  }
  {
    const char* te = std::getenv("INDIGO_TELEMETRY");
    const std::string tv = te == nullptr ? std::string() : te;
    if (tv != "0" && tv != "off") {
      obs::TelemetryOptions topts;
      topts.path = tv.empty()
                       ? "telemetry.w" + std::to_string(rank) + ".json"
                       : tv + ".w" + std::to_string(rank);
      topts.arm_counters = false;
      obs::telemetry_start(std::move(topts));
    }
  }

  bench::Harness h{bench::Harness::DeferGraphs{}};
  if (!canonical.empty()) h.result_store().preload(canonical);
  if (std::getenv("INDIGO_FLIGHT") == nullptr) {
    obs::set_flight_enabled(true);
  }

  const auto selected = Registry::instance().select(model, algo);
  const int pool = sched::Executor::resolve_workers(workers);

  fleet::WorkerOptions wo;
  wo.host = host;
  wo.port = port;
  wo.rank = rank;
  wo.journal = mine;
  wo.total_cells = selected.size() * h.num_graphs();
  wo.log = [](const std::string& s) { std::cerr << "[fleet] " << s << '\n'; };
  wo.run_shard = [&](const sched::ShardSpec& spec,
                     std::atomic<std::size_t>& progress) {
    auto cr = build_cell_jobs(h, selected, reps, spec.begin, spec.end,
                              &progress);
    sched::ExecutorOptions eo;
    eo.num_workers = pool;
    eo.worker_label = "w" + std::to_string(rank);
    const auto statuses = sched::Executor(eo).run(cr->jg);
    const SweepOutcome so = finish_cells(h, *cr, statuses);
    // Device-memory accounting per finished shard, into the worker log the
    // coordinator already tails.
    wo.log("shard [" + std::to_string(spec.begin) + ',' +
           std::to_string(spec.end) + ") mem: peak footprint " +
           format_bytes(vcuda::peak_modeled_footprint_bytes()));
    fleet::ShardOutcome so2;
    so2.executed = so.executed;
    so2.hits = so.hits;
    so2.quarantined = so.quarantined;
    return so2;
  };

  const int rc = fleet::run_worker(wo);
  obs::telemetry_stop();
  return rc;
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
  bool smoke = false, bench_mode = false;
  bool fleet_worker = false, kill_one = false;
  int fleet_n = 0;
  int rank = -1;
  std::string connect, fleet_journal;
  std::optional<Model> model;
  std::optional<Algorithm> algo;
  int reps = 1;
  int workers = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    bool ok = true;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--bench") {
      bench_mode = true;
    } else if (arg == "--fleet-worker") {
      fleet_worker = true;
    } else if (arg == "--fleet-kill-one") {
      kill_one = true;
    } else if (key == "--fleet") {
      fleet_n = std::atoi(val.c_str());
      ok = fleet_n > 0;
    } else if (key == "--connect") {
      connect = val;
      ok = !val.empty();
    } else if (key == "--rank") {
      rank = std::atoi(val.c_str());
      ok = rank >= 0;
    } else if (key == "--fleet-journal") {
      fleet_journal = val;
      ok = !val.empty();
    } else if (key == "--model") {
      ok = false;
      for (Model m : kAllModels) {
        if (val == to_string(m)) {
          model = m;
          ok = true;
        }
      }
    } else if (key == "--algo") {
      ok = false;
      for (Algorithm a : kAllAlgorithms) {
        if (val == to_string(a)) {
          algo = a;
          ok = true;
        }
      }
    } else if (key == "--reps") {
      reps = std::atoi(val.c_str());
      ok = reps > 0;
    } else if (key == "--workers") {
      workers = std::atoi(val.c_str());
      ok = workers >= 0;
    } else {
      ok = false;
    }
    if (!ok) {
      std::cerr << "usage: sweep_all [--smoke] [--bench] [--fleet=N] "
                   "[--model=M] [--algo=A] [--reps=N] [--workers=N]\n";
      return 2;
    }
  }
  if (smoke) {
    ::setenv("REPRO_SCALE", "0", 1);
    if (!algo) algo = Algorithm::BFS;
  }

  if (fleet_worker) {
    const std::size_t colon = connect.rfind(':');
    if (connect.empty() || colon == std::string::npos || rank < 0 ||
        fleet_journal.empty()) {
      std::cerr << "sweep_all: --fleet-worker needs --connect=host:port, "
                   "--rank=R and --fleet-journal=PATH\n";
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const int port = std::atoi(connect.c_str() + colon + 1);
    return run_fleet_worker(host, static_cast<std::uint16_t>(port), rank,
                            fleet_journal, model, algo, reps, workers);
  }
  if (fleet_n > 0) {
    return bench_mode ? run_fleet_bench(fleet_n, algo, reps, workers)
                      : run_fleet_mode(fleet_n, kill_one, model, algo, reps,
                                       workers, smoke);
  }
  if (bench_mode) return run_bench_mode(algo, reps, workers);

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
  const int pool = sched::Executor::resolve_workers(workers);
  const SweepOutcome out = run_dag(h, model, algo, reps, pool, false);

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
