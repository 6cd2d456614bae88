// Post-run attribution report over exported traces.
//
// Reads one or more Chrome-trace JSON files — INDIGO_TRACE exports and/or
// flightdump-<pid>.json flight-recorder dumps, possibly from several runs —
// merges their event streams by (pid, tid), and prints the attribution the
// paper's analysis style calls for:
//
//   * total measured time by algorithm, by graph, and by style (the
//     algorithm x style x graph cells, ranked),
//   * the executor's breakdown: worker-busy vs stall time, time spent
//     waiting for the execution-class lane, steals, retries, timeouts,
//     quarantines,
//   * the top-N slowest job attempts with worker/attempt/outcome.
//
// Job labels are parsed from the `job` span's args ("variant@graph", where
// variant = "<algo>-<model>-<style dims...>"), so the report works on any
// combination of live traces and crash dumps without access to the journal.
//
// Usage: obs_timeline [--top=N] trace.json [flightdump-123.json ...]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "bench_util/printing.hpp"
#include "obs/trace_reader.hpp"

namespace {

using indigo::obs::ReadEvent;
using indigo::obs::ReadTrace;

struct JobAttempt {
  std::string label;  // "variant@graph"
  std::string algo, model, style, graph;
  double dur_us = 0;
  std::uint64_t pid = 0;
  int worker = -1;
  int attempt = -1;
  std::string outcome;
};

/// Splits "variant@graph" into its attribution axes; false when the label
/// is not a measurement job (materialize#i, aggregate:cuda, report, ...).
bool parse_label(const std::string& label, JobAttempt& out) {
  const std::size_t at = label.rfind('@');
  if (at == std::string::npos || at == 0) return false;
  out.label = label;
  out.graph = label.substr(at + 1);
  const std::string variant = label.substr(0, at);
  const std::size_t d1 = variant.find('-');
  if (d1 == std::string::npos) return false;
  const std::size_t d2 = variant.find('-', d1 + 1);
  out.algo = variant.substr(0, d1);
  out.model = d2 == std::string::npos ? variant.substr(d1 + 1)
                                      : variant.substr(d1 + 1, d2 - d1 - 1);
  out.style = d2 == std::string::npos ? std::string() : variant.substr(d2 + 1);
  return true;
}

std::string fmt_ms(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1000.0);
  return buf;
}

std::string fmt_mib(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MiB", bytes / (1024.0 * 1024.0));
  return buf;
}

void print_ranked(const char* title,
                  const std::map<std::string, double>& by_key,
                  std::size_t top) {
  std::vector<std::pair<std::string, double>> rows(by_key.begin(),
                                                   by_key.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  double total = 0;
  for (const auto& [k, v] : rows) total += v;
  std::cout << '\n' << title << " (total " << fmt_ms(total) << "):\n";
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    std::printf("  %-58s %12s  %5.1f%%\n", rows[i].first.c_str(),
                fmt_ms(rows[i].second).c_str(),
                total > 0 ? 100.0 * rows[i].second / total : 0.0);
  }
  if (rows.size() > top) {
    std::cout << "  ... " << rows.size() - top << " more\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace indigo;
  std::vector<std::string> paths;
  std::size_t top = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--top=", 0) == 0) {
      const int n = std::atoi(arg.c_str() + 6);
      if (n <= 0) {
        std::cerr << "usage: obs_timeline [--top=N] <trace.json>...\n";
        return 2;
      }
      top = static_cast<std::size_t>(n);
    } else if (arg.rfind("--trace=", 0) == 0) {
      paths.push_back(arg.substr(8));
    } else if (!arg.empty() && arg[0] != '-') {
      paths.push_back(arg);
    } else {
      std::cerr << "usage: obs_timeline [--top=N] <trace.json>...\n";
      return 2;
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: obs_timeline [--top=N] <trace.json>...\n";
    return 2;
  }

  bench::print_header(
      "Timeline", "Attribution report over merged trace streams",
      "Time by algorithm x style x graph, executor busy/stall breakdown, "
      "and the slowest job attempts, read back from Chrome-trace exports "
      "and flight-recorder dumps.");

  std::vector<JobAttempt> jobs;
  std::map<std::string, double> by_algo, by_graph, by_style, by_cell;
  // Device-memory attribution from vcuda.launch spans: each span carries
  // the device's modeled footprint at launch time, so the merged streams
  // yield a peak per process and overall.
  std::map<std::string, double> foot_peak_by_proc;
  double foot_peak_bytes = 0;  // peak modeled footprint across files
  std::size_t launches_seen = 0;
  double busy_us = 0;
  double lane_wait_us = 0;
  double run_dur_us = 0, run_workers = 0;
  double steals = 0, retries = 0, timeouts = 0, quarantined = 0;
  std::size_t parsed_files = 0, total_events = 0;

  for (const std::string& path : paths) {
    std::string error;
    const auto trace = obs::read_trace_file(path, &error);
    if (!trace) {
      std::cerr << "[error] " << path << ": " << error << '\n';
      continue;
    }
    ++parsed_files;
    total_events += trace->events.size();
    std::uint64_t file_pid = 0;
    if (const auto it = trace->meta.find("pid"); it != trace->meta.end()) {
      file_pid = std::strtoull(it->second.c_str(), nullptr, 10);
    }
    std::cout << "[read] " << path << ": " << trace->events.size()
              << " events";
    if (const auto it = trace->meta.find("reason"); it != trace->meta.end()) {
      std::cout << " (flight dump, reason " << it->second << ")";
    }
    std::cout << '\n';
    for (const ReadEvent& ev : trace->events) {
      if (ev.cat == "sched" && ev.name == "executor.run") {
        run_dur_us += ev.dur_us;
        if (const auto w = ev.num_args.find("workers");
            w != ev.num_args.end()) {
          run_workers = std::max(run_workers, w->second);
        }
        for (const auto& [key, slot] :
             {std::pair<const char*, double*>{"steals", &steals},
              {"retries", &retries},
              {"timeouts", &timeouts},
              {"quarantined", &quarantined}}) {
          if (const auto it = ev.num_args.find(key);
              it != ev.num_args.end()) {
            *slot += it->second;
          }
        }
        continue;
      }
      if (ev.cat == "vcuda" && ev.name == "vcuda.launch") {
        if (const auto it = ev.num_args.find("footprint_bytes");
            it != ev.num_args.end()) {
          ++launches_seen;
          foot_peak_bytes = std::max(foot_peak_bytes, it->second);
          const std::uint64_t pid = ev.pid != 0 ? ev.pid : file_pid;
          if (pid != 0) {
            double& p = foot_peak_by_proc["pid" + std::to_string(pid)];
            p = std::max(p, it->second);
          }
        }
        continue;
      }
      if (ev.cat == "sched" && ev.name == "lane_wait") {
        lane_wait_us += ev.dur_us;
        continue;
      }
      if (ev.cat != "sched" || ev.name != "job") continue;
      busy_us += ev.dur_us;
      std::string label;
      if (const auto it = ev.str_args.find("job"); it != ev.str_args.end()) {
        label = it->second;  // full trace export
      } else if (const auto d = ev.str_args.find("detail");
                 d != ev.str_args.end()) {
        label = d->second;  // flight dump carries the first string arg
      }
      if (label.empty()) continue;
      JobAttempt job;
      job.dur_us = ev.dur_us;
      job.pid = ev.pid != 0 ? ev.pid : file_pid;
      if (const auto it = ev.num_args.find("worker"); it != ev.num_args.end())
        job.worker = static_cast<int>(it->second);
      if (const auto it = ev.num_args.find("attempt");
          it != ev.num_args.end())
        job.attempt = static_cast<int>(it->second);
      if (const auto it = ev.str_args.find("outcome");
          it != ev.str_args.end())
        job.outcome = it->second;
      if (parse_label(label, job)) {
        by_algo[job.algo] += job.dur_us;
        by_graph[job.graph] += job.dur_us;
        by_style[job.model + '-' + job.style] += job.dur_us;
        by_cell[job.algo + " x " + job.model +
                (job.style.empty() ? "" : "-" + job.style) + " x " +
                job.graph] += job.dur_us;
      } else {
        job.label = label;  // infrastructure job (materialize, aggregate)
      }
      jobs.push_back(std::move(job));
    }
  }

  if (parsed_files == 0) {
    std::cerr << "[error] no readable trace files\n";
    return 1;
  }
  std::cout << "[merge] " << parsed_files << " file(s), " << total_events
            << " events, " << jobs.size() << " job attempts\n";

  if (!by_cell.empty()) {
    print_ranked("time by algorithm", by_algo, top);
    print_ranked("time by graph", by_graph, top);
    print_ranked("time by style", by_style, top);
    print_ranked("time by algorithm x style x graph", by_cell, top);
  }

  if (run_dur_us > 0) {
    const double workers = std::max(1.0, run_workers);
    const double capacity_us = run_dur_us * workers;
    const double stall_us = std::max(0.0, capacity_us - busy_us);
    std::cout << "\nexecutor breakdown:\n";
    std::printf("  run wall        %12s on %.0f workers\n",
                fmt_ms(run_dur_us).c_str(), workers);
    std::printf("  worker busy     %12s  (%.1f%% of capacity)\n",
                fmt_ms(busy_us).c_str(),
                capacity_us > 0 ? 100.0 * busy_us / capacity_us : 0.0);
    std::printf("  worker stall    %12s\n", fmt_ms(stall_us).c_str());
    std::printf("  lane wait       %12s  (inside stall)\n",
                fmt_ms(lane_wait_us).c_str());
    std::printf("  steals %.0f, retries %.0f, timeouts %.0f, "
                "quarantined %.0f\n",
                steals, retries, timeouts, quarantined);
  }

  if (launches_seen > 0) {
    std::cout << "\ndevice memory (from vcuda.launch spans):\n";
    std::printf("  %-58s %12s\n", "kernel launches",
                std::to_string(launches_seen).c_str());
    std::printf("  %-58s %12s\n", "peak modeled footprint",
                fmt_mib(foot_peak_bytes).c_str());
    for (const auto& [proc, peak] : foot_peak_by_proc) {
      if (foot_peak_by_proc.size() < 2) break;  // one process: no breakdown
      std::printf("  %-58s %12s\n", ("peak footprint " + proc).c_str(),
                  fmt_mib(peak).c_str());
    }
  }

  if (!jobs.empty()) {
    std::sort(jobs.begin(), jobs.end(), [](const JobAttempt& a,
                                           const JobAttempt& b) {
      return a.dur_us > b.dur_us;
    });
    std::cout << "\ntop " << std::min(top, jobs.size())
              << " slowest job attempts:\n";
    for (std::size_t i = 0; i < jobs.size() && i < top; ++i) {
      const JobAttempt& j = jobs[i];
      std::printf("  %-58s %12s", j.label.c_str(), fmt_ms(j.dur_us).c_str());
      if (j.worker >= 0) std::printf("  w%d", j.worker);
      if (j.attempt >= 0) std::printf(" a%d", j.attempt);
      if (!j.outcome.empty()) std::printf(" %s", j.outcome.c_str());
      if (j.pid != 0) std::printf(" pid=%llu",
                                  static_cast<unsigned long long>(j.pid));
      std::printf("\n");
    }
  }

  bench::shape_check("all trace files parsed",
                     parsed_files == paths.size());
  return bench::exit_code();
}
