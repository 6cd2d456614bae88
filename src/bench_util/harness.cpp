#include "bench_util/harness.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "graph/csr.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "racecheck/racecheck.hpp"
#include "sched/executor.hpp"
#include "sched/job_graph.hpp"
#include "threading/thread_team.hpp"
#include "variants/register_all.hpp"
#include "vcuda/sim.hpp"

namespace indigo::bench {
namespace {

std::atomic<int> g_shape_failures{0};

std::string scale_tag() {
  const char* env = std::getenv("REPRO_SCALE");
  return env != nullptr ? env : "1";
}

std::string make_key(const std::string& program, const std::string& graph,
                     const std::string& device, int threads, int reps) {
  std::ostringstream os;
  os << program << '|' << graph << '|' << device << '|' << threads << '|'
     << scale_tag();
  // Instrumented runs carry counter payloads and must not shadow (or be
  // shadowed by) plain timing entries recorded without them.
  if (obs::enabled()) os << "|obs";
  // Same reasoning for racecheck.* audit payloads.
  if (racecheck::enabled()) os << "|rc";
  // Multi-rep entries (median of N, per-rep metric averages) are distinct
  // from single-shot ones. reps==1 keeps the historical key shape so
  // existing journals stay valid.
  if (reps > 1) os << "|r" << reps;
  return os.str();
}

std::string device_name_of(const Variant& v, const vcuda::DeviceSpec* device) {
  return v.model == Model::Cuda
             ? (device != nullptr ? device->name : "rtx3090_like")
             : "cpu";
}

/// The measurement journal's path: REPRO_CACHE, else "repro_cache.csv" in
/// the working directory; an empty string keeps results in memory only.
std::string env_journal_path() {
  const char* env = std::getenv("REPRO_CACHE");
  return env != nullptr ? env : "repro_cache.csv";
}

/// Attempts after the first for a failing measurement
/// (INDIGO_SCHED_RETRIES: a whole number >= 0, default 1). Anything else
/// throws std::invalid_argument naming the variable.
int env_retries() {
  const char* env = std::getenv("INDIGO_SCHED_RETRIES");
  if (env == nullptr) return 1;
  const std::string_view s(env);
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size() || v < 0) {
    throw std::invalid_argument(
        "INDIGO_SCHED_RETRIES must be a whole number >= 0, got \"" +
        std::string(s) + '"');
  }
  return v;
}

/// Per-attempt deadline in seconds (INDIGO_SCHED_TIMEOUT_S: a finite
/// decimal >= 0, default 0 = none). Anything else throws
/// std::invalid_argument naming the variable.
double env_timeout_s() {
  const char* env = std::getenv("INDIGO_SCHED_TIMEOUT_S");
  if (env == nullptr) return 0;
  const std::string_view s(env);
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size() || !std::isfinite(v) ||
      v < 0) {
    throw std::invalid_argument(
        "INDIGO_SCHED_TIMEOUT_S must be a finite decimal >= 0, got \"" +
        std::string(s) + '"');
  }
  return v;
}

/// Progress line for the executor's monitor thread. On a terminal the line
/// redraws in place (`\r`); when stderr is redirected (CI logs, `2>file`)
/// carriage returns would glue every update into one unreadable mega-line,
/// so it emits complete newline-terminated lines instead, rate-limited so an
/// hours-long sweep logs one line every few seconds, not per tick.
/// `last_logged_s` is the calling sweep's rate-limit state; only the monitor
/// thread and (after it joined) run()'s final call touch it.
void print_progress(const sched::Progress& p, double& last_logged_s) {
  static const bool tty = ::isatty(::fileno(stderr)) != 0;
  const bool final = p.done == p.total;
  if (!tty && !final && p.elapsed_s - last_logged_s < 5.0) return;
  last_logged_s = p.elapsed_s;
  std::fprintf(stderr,
               "%s[sweep] %zu/%zu done, %zu running, %zu queued, "
               "elapsed %.1fs, eta %.0fs%s",
               tty ? "\r" : "", p.done, p.total, p.running, p.queue_depth,
               p.elapsed_s, p.eta_s < 0 ? 0.0 : p.eta_s, tty ? "   " : "\n");
  if (tty && final) std::fputc('\n', stderr);
}

}  // namespace

Harness::Harness() {
  variants::register_all_variants();
  obs::init_from_env();
  store_ = std::make_unique<sched::ResultStore>(env_journal_path());
  for (InputClass c : kAllInputs) {
    obs::Span span("generate_graph", "harness");
    graphs_.push_back(make_input(c, default_input_scale(c)));
    span.arg("graph", graphs_.back().name());
  }
  verifiers_.resize(graphs_.size());
}

std::string Harness::key_for(const Variant& v, const Graph& g,
                             const vcuda::DeviceSpec* device, int reps) const {
  return make_key(v.name, g.name(), device_name_of(v, device), cpu_threads(),
                  reps);
}

Verifier& Harness::verifier_for(const Graph& g) {
  for (std::size_t i = 0; i < graphs_.size(); ++i) {
    if (&graphs_[i] == &g) {
      std::lock_guard lk(verifiers_mu_);
      if (!verifiers_[i]) verifiers_[i] = std::make_unique<Verifier>(g, 0);
      return *verifiers_[i];
    }
  }
  throw std::logic_error("verifier_for: unknown graph");
}

RunOptions Harness::base_run_options(const vcuda::DeviceSpec* device) const {
  RunOptions opts;
  opts.source = 0;
  opts.num_threads = cpu_threads();
  opts.device = device;
  opts.racecheck = racecheck::enabled();
  return opts;
}

namespace {

/// One Measurement as a JSONL run record (docs/OBSERVABILITY.md schema).
void export_measurement(const Measurement& m, const std::string& dev_name,
                        bool from_cache) {
  if (obs::metrics_path().empty()) return;
  obs::JsonObject rec;
  rec.field("program", m.program)
      .field("model", to_string(m.model))
      .field("algo", to_string(m.algo))
      .field("graph", m.graph)
      .field("device", dev_name)
      .field("seconds", m.seconds)
      .field("throughput_ges", m.throughput_ges)
      .field("iterations", static_cast<std::uint64_t>(m.iterations))
      .field("verified", m.verified)
      .field("from_cache", from_cache);
  if (!m.error.empty()) rec.field("error", m.error);
  rec.field_raw("metrics", obs::json_of_metrics(m.metrics));
  obs::append_metrics_record(rec.str());
}

}  // namespace

Measurement Harness::measure_one(const Variant& v, const Graph& g,
                                 const vcuda::DeviceSpec* device, int reps) {
  const std::string dev_name = device_name_of(v, device);
  const std::string key =
      make_key(v.name, g.name(), dev_name, cpu_threads(), reps);
  if (const auto e = store_->find(key)) {
    Measurement m;
    m.program = v.name;
    m.model = v.model;
    m.algo = v.algo;
    m.style = v.style;
    m.graph = g.name();
    m.seconds = e->seconds;
    m.throughput_ges = e->throughput;
    m.iterations = e->iterations;
    m.verified = e->verified;
    m.metrics = e->metrics;
    if (!e->verified) m.error = "cached failure";
    export_measurement(m, dev_name, /*from_cache=*/true);
    return m;
  }
  const RunOptions opts = base_run_options(device);
  Measurement m;
  try {
    m = measure(v, g, opts, reps, verifier_for(g));
    // An attempt that overran its deadline is not journaled, even when the
    // run itself completed (CPU variants never check the deadline).
    vcuda::throw_if_past_deadline();
  } catch (const vcuda::DeadlineError&) {
    throw;  // the executor records a timeout; a resumed sweep retries
  } catch (const vcuda::DeviceOomError& ex) {
    // A modeled capacity rejection, not a code failure: record it as a
    // validity outcome. The metrics map is journaled, so the OOM survives
    // kill/resume and shows up in sweep summaries deterministically.
    m.program = v.name;
    m.model = v.model;
    m.algo = v.algo;
    m.style = v.style;
    m.graph = g.name();
    m.verified = false;
    m.error = ex.what();
    m.metrics["validity.oom"] = 1.0;
    m.metrics["validity.oom_footprint_bytes"] =
        static_cast<double>(ex.footprint_bytes());
  } catch (const std::exception& ex) {
    m.program = v.name;
    m.model = v.model;
    m.algo = v.algo;
    m.style = v.style;
    m.graph = g.name();
    m.verified = false;
    m.error = ex.what();
  }
  store_->put(key, {m.seconds, m.throughput_ges, m.iterations, m.verified,
                    m.metrics});
  export_measurement(m, dev_name, /*from_cache=*/false);
  if (!m.verified) {
    std::cerr << "\n[warn] " << m.program << " on " << m.graph
              << " failed verification: " << m.error << '\n';
  }
  return m;
}

std::vector<Measurement> Harness::sweep(const SweepOptions& opts) {
  const int retries = env_retries();
  const double timeout_s = env_timeout_s();
  obs::Span span("sweep", "harness");
  // Ambient enable for the whole sweep: measure_one (and the vcuda Devices
  // constructed inside the variants) read the global flag.
  racecheck::ScopedEnable rc_scope(opts.racecheck);
  const auto selected = Registry::instance().select(opts.model, opts.algo);
  struct Pair {
    const Variant* v;
    const Graph* g;
  };
  std::vector<Pair> pairs;
  for (const Variant* v : selected) {
    if (opts.style_filter && !opts.style_filter(*v)) continue;
    for (const Graph& g : graphs_) pairs.push_back({v, &g});
  }

  SweepStats stats;
  stats.pairs = pairs.size();
  std::vector<Measurement> out;
  out.reserve(pairs.size());

  // One job per pair missing from the journal. Model-timed vcuda jobs share
  // the pool; wall-clock CPU jobs (and every job of an instrumented sweep,
  // whose counter deltas must not interleave) take the exclusive lane.
  sched::JobGraph jg;
  std::vector<std::optional<Measurement>> slots(pairs.size());
  std::vector<sched::JobId> job_of(pairs.size(), sched::kInvalidJob);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    if (store_->find(key_for(*p.v, *p.g, opts.device, opts.reps))) {
      ++stats.cache_hits;
      continue;
    }
    sched::Job j;
    j.name = p.v->name + "@" + p.g->name();
    j.exec_class =
        p.v->model == Model::Cuda && !obs::enabled() && !racecheck::enabled()
            ? sched::ExecClass::ModelTimed
            : sched::ExecClass::WallClock;
    j.timeout_s = timeout_s;
    j.max_retries = retries;
    // Every attempt ends inside Executor::run, so the references into this
    // frame outlive it.
    j.work = [this, i, &slots, &pairs, &opts](const sched::JobContext& ctx) {
      const vcuda::DeadlineScope deadline(ctx.deadline);
      const Pair& q = pairs[i];
      slots[i] = measure_one(*q.v, *q.g, opts.device, opts.reps);
    };
    job_of[i] = jg.add(std::move(j));
  }
  std::vector<sched::JobStatus> statuses;
  if (jg.size() > 0) {
    sched::ExecutorOptions eo;
    eo.num_workers = opts.workers;
    // Journal hits never become jobs, so the executor's done/elapsed rate
    // (and its ETA) counts only cells that really run.
    // The monitor thread has joined before run() makes its final call, so
    // `stats` is written by one thread at a time.
    eo.on_progress = [last_logged_s = -1e9,
                      &stats](const sched::Progress& p) mutable {
      print_progress(p, last_logged_s);
      stats.lane_batches = p.lane_batches;
    };
    statuses = sched::Executor(eo).run(jg);
    // Compact first: checkpoint() drops comment lines, so the quarantine
    // annotations below must come after it to survive.
    store_->checkpoint();
  }
  // Merge in deterministic pair order, independent of completion order.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (slots[i]) {
      ++stats.executed;
      out.push_back(std::move(*slots[i]));
      continue;
    }
    if (job_of[i] == sched::kInvalidJob) {
      out.push_back(  // journal hit; resolves without running anything
          measure_one(*pairs[i].v, *pairs[i].g, opts.device, opts.reps));
      continue;
    }
    // The job never produced a measurement: quarantined (hung or threw
    // outside measure_one's own catch). Record-and-exclude, like the paper
    // excludes failed runs; downstream filters on `verified`.
    ++stats.quarantined;
    const Pair& p = pairs[i];
    const sched::JobStatus& st = statuses[job_of[i]];
    Measurement m;
    m.program = p.v->name;
    m.model = p.v->model;
    m.algo = p.v->algo;
    m.style = p.v->style;
    m.graph = p.g->name();
    m.verified = false;
    m.error = "quarantined: " + st.error;
    const std::string dump = st.flight_dump.empty()
                                 ? std::string()
                                 : " (flight dump: " + st.flight_dump + ")";
    // Leave an audit trail in the journal (as a comment, so a resumed sweep
    // still retries the pair) pointing at the flight dump the executor took
    // when the last attempt failed.
    store_->annotate("quarantined " + p.v->name + "@" + m.graph + " after " +
                     std::to_string(st.attempts) + " attempt(s): " + st.error +
                     dump);
    std::cerr << "[warn] " << m.program << " on " << m.graph << ' '
              << m.error << dump << '\n';
    out.push_back(std::move(m));
  }
  // Capacity rejections are a validity outcome, not an error: count them
  // from the (journal-stable) metrics so resumes report the same number.
  for (const Measurement& m : out) {
    if (m.metrics.count("validity.oom") != 0) ++stats.oom_rejected;
  }
  stats_ = stats;
  span.arg("measurements", static_cast<double>(pairs.size()));
  span.arg("cache_hits", static_cast<double>(stats.cache_hits));
  span.arg("executed", static_cast<double>(stats.executed));
  span.arg("oom_rejected", static_cast<double>(stats.oom_rejected));
  return out;
}

std::vector<double> pairwise_ratios(std::span<const Measurement> ms,
                                    Algorithm algo, Dimension d, int value_a,
                                    int value_b) {
  // Index verified measurements by (style-with-d-cleared, graph).
  std::map<std::pair<std::string, int>, double> table;
  auto key_of = [&](const Measurement& m) {
    StyleConfig base = with_dimension(m.style, d, 0);
    return std::pair<std::string, int>(
        m.graph + "#" + program_name(m.model, m.algo, base),
        get_dimension(m.style, d));
  };
  for (const Measurement& m : ms) {
    if (m.algo != algo || !m.verified) continue;
    table[key_of(m)] = m.throughput_ges;
  }
  std::vector<double> ratios;
  for (const auto& [key, thr_a] : table) {
    if (key.second != value_a) continue;
    const auto it = table.find({key.first, value_b});
    if (it == table.end() || it->second <= 0.0) continue;
    ratios.push_back(thr_a / it->second);
  }
  return ratios;
}

std::vector<stats::NamedSample> ratio_samples_by_algorithm(
    std::span<const Measurement> ms, std::span<const Algorithm> algos,
    Dimension d, int value_a, int value_b) {
  std::vector<stats::NamedSample> samples;
  for (Algorithm a : algos) {
    stats::NamedSample s;
    s.label = to_string(a);
    s.values = pairwise_ratios(ms, a, d, value_a, value_b);
    samples.push_back(std::move(s));
  }
  return samples;
}

std::vector<Measurement> verified_of_model(std::span<const Measurement> ms,
                                           Model m) {
  std::vector<Measurement> out;
  for (const Measurement& x : ms) {
    if (x.model == m && x.verified) out.push_back(x);
  }
  return out;
}

bool shape_check(const std::string& name, bool condition) {
  if (!condition) g_shape_failures.fetch_add(1, std::memory_order_relaxed);
  std::cout << (condition ? "[SHAPE PASS] " : "[SHAPE DIFF] ") << name
            << '\n';
  return condition;
}

int shape_check_failures() {
  return g_shape_failures.load(std::memory_order_relaxed);
}

int exit_code() { return shape_check_failures() == 0 ? 0 : 1; }

bool classic_atomics_only(const Variant& v) {
  return v.style.alib == AtomicsLib::Classic;
}

}  // namespace indigo::bench
