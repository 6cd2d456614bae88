// The whole reproduction as one sweep.
//
// sweep_all measures every selected (variant x graph) cell of the study
// with one Harness::sweep call - the same job builder bench/study's
// figures use - and then prints, from the returned measurements, the
// per-model verification tally, the capacity model's peak footprint and the
// resume accounting CI asserts on. Progress and an ETA stream to stderr
// while the cells run.
//
// The sweep is one process with N worker threads. The executor's exclusive
// lane keeps every wall-clock (omp/cpp) measurement alone on the machine;
// the model-timed cuda cells share it. The wall-clock cells run as one batch
// once no cuda cell is left to start, so a fresh sweep without retries
// prints `lane batches: 1`. See docs/SWEEP_RUNTIME.md.
//
// Flags:
//   --smoke        tiny inputs (REPRO_SCALE=0) and BFS only; used by CI's
//                  kill/resume check
//   --model=M --algo=A --workers=N --reps=R   as in the other binaries
//
// Interrupt it at any point and re-run: journaled measurements are never
// re-executed (the journal is fsynced per append), so a resumed sweep only
// runs what is missing. The final report prints `re-executed: N`, computed
// from the journal's own accounting, which must be 0.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util/args.hpp"
#include "bench_util/harness.hpp"
#include "bench_util/printing.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sched/executor.hpp"
#include "vcuda/sim.hpp"

namespace {

using namespace indigo;

/// "264 KiB" / "2 MiB" for the device-memory summary lines.
std::string format_bytes(std::uint64_t bytes) {
  return bytes >= (1u << 20) ? std::to_string(bytes >> 20) + " MiB"
                             : std::to_string(bytes >> 10) + " KiB";
}

/// "[sweep] cuda: 480/490 verified of 490 measurements" per model, where
/// the middle count excludes quarantined cells (they never measured).
void print_model_tallies(const std::vector<Measurement>& ms) {
  for (Model m : kAllModels) {
    std::size_t total = 0, measured = 0, verified = 0, oom = 0;
    for (const Measurement& x : ms) {
      if (x.model != m) continue;
      ++total;
      if (x.error.rfind("quarantined: ", 0) == 0) continue;
      ++measured;
      verified += x.verified;
      oom += x.metrics.count("validity.oom") != 0;
    }
    if (total == 0) continue;
    std::cout << "[sweep] " << to_string(m) << ": " << verified << '/'
              << measured << " verified of " << total << " measurements";
    if (oom > 0) std::cout << " (" << oom << " OOM-rejected)";
    std::cout << '\n';
    if (m == Model::Cuda) {
      // The capacity model's peak: the largest modeled footprint any cuda
      // cell reached.
      std::cout << "[sweep] cuda device memory: peak modeled footprint "
                << format_bytes(vcuda::peak_modeled_footprint_bytes()) << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> rest;
  std::optional<bench::BenchArgs> args =
      bench::parse_bench_args(argc, argv, rest);
  bool smoke = false;
  bool ok = args.has_value();
  for (const std::string& arg : rest) {
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "bad argument: " << arg << '\n';
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "usage: sweep_all [--smoke] [--model=M] [--algo=A] "
                 "[--reps=N] [--workers=N]\n";
    return 2;
  }
  if (smoke) {
    ::setenv("REPRO_SCALE", "0", 1);
    if (!args->algo) args->algo = Algorithm::BFS;
  }
  bench::SweepOptions sw = args->sweep();
  try {
    sw.workers = sched::Executor::resolve_workers(sw.workers);
  } catch (const std::invalid_argument& ex) {
    std::cerr << "[error] " << ex.what() << '\n';
    return 2;
  }
  // A sweep is long-lived and killable, so the telemetry plane is on by
  // default: the flight recorder captures what was in flight when a signal
  // lands, and the snapshot publisher keeps telemetry.json current. Both
  // honor explicit env choices (INDIGO_FLIGHT / INDIGO_TELEMETRY set to 0
  // or off keep them off).
  obs::flight_init_from_env(/*unset_on=*/true);
  try {
    obs::telemetry_init_from_env("telemetry.json");
  } catch (const std::invalid_argument& ex) {  // INDIGO_TELEMETRY_INTERVAL_S
    std::cerr << "[error] " << ex.what() << '\n';
    return 2;
  }

  bench::print_header(
      "Sweep", "The full study as one fault-tolerant sweep",
      "All selected (variant x graph) measurements execute through the "
      "sweep runtime; interrupted sweeps resume from the journal with "
      "zero re-executed jobs.");

  const auto t0 = std::chrono::steady_clock::now();
  std::optional<bench::Harness> harness;
  std::size_t journal_at_start = 0;
  std::vector<Measurement> ms;
  // The Harness parses REPRO_SCALE and the sweep INDIGO_SCHED_*; a
  // malformed value exits 2.
  try {
    harness.emplace();
    journal_at_start = harness->result_store().size();
    ms = harness->sweep(sw);
  } catch (const std::invalid_argument& ex) {
    obs::telemetry_stop();
    std::cerr << "[error] " << ex.what() << '\n';
    return 2;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const bench::SweepStats& st = harness->last_sweep_stats();
  print_model_tallies(ms);

  // Resume accounting straight from the journal: an executed job whose key
  // was already journaled would overwrite instead of grow the map, so
  //   re-executed = appends - (final size - initial size).
  const std::size_t appended = harness->result_store().appended();
  const std::size_t grew = harness->result_store().size() - journal_at_start;
  const std::size_t re_executed = appended - grew;

  std::cout << "[sweep] journal hits: " << st.cache_hits << '/' << st.pairs
            << " (" << (st.pairs ? 100 * st.cache_hits / st.pairs : 0)
            << "%), executed: " << st.executed
            << ", quarantined: " << st.quarantined
            << ", re-executed: " << re_executed << '\n'
            << "[sweep] lane batches: " << st.lane_batches << '\n'
            << "[sweep] wall: " << wall_s << "s on " << sw.workers
            << " workers; journal: " << harness->result_store().path()
            << " (" << harness->result_store().size() << " entries)\n";
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

  std::size_t verified = 0;
  for (const Measurement& m : ms) verified += m.verified;
  bench::shape_check("every pair is journaled or quarantined",
                     st.cache_hits + st.executed + st.quarantined == st.pairs);
  bench::shape_check("no journaled measurement was re-executed",
                     re_executed == 0);
  bench::shape_check("most measurements verified",
                     verified * 10 >= (st.pairs - st.quarantined) * 9);
  return bench::exit_code();
}
