#include "bench_util/main.hpp"

#include <charconv>
#include <exception>
#include <iostream>
#include <string>

#include "bench_util/printing.hpp"
#include "obs/counters.hpp"

namespace indigo::bench {
namespace {

bool parse_model(const std::string& s, std::optional<Model>& out) {
  for (Model m : kAllModels) {
    if (s == to_string(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

bool parse_algo(const std::string& s, std::optional<Algorithm>& out) {
  for (Algorithm a : kAllAlgorithms) {
    if (s == to_string(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

/// Whole decimal `s` >= `min` into `out`; false on anything else (empty,
/// sign-only, trailing characters, out of int range).
bool parse_count(const std::string& s, int min, int& out) {
  int v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end || v < min) return false;
  out = v;
  return true;
}

void print_usage(const char* prog) {
  std::cerr << "usage: " << prog
            << " [--model=cuda|omp|cpp] [--algo=cc|mis|pr|tc|bfs|sssp]"
               " [--reps=N] [--workers=N]\n"
               "  --workers=N sizes the sweep-runtime pool (N >= 1);"
               " see docs/SWEEP_RUNTIME.md\n";
}

}  // namespace

SweepOptions BenchArgs::sweep() const {
  SweepOptions sw;
  sw.model = model;
  sw.algo = algo;
  sw.reps = reps;
  sw.workers = workers;
  return sw;
}

std::vector<Model> BenchArgs::models() const {
  if (model) return {*model};
  return {std::begin(kAllModels), std::end(kAllModels)};
}

std::optional<BenchArgs> parse_bench_args(int argc, char** argv,
                                          std::vector<std::string>& rest) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    bool ok = eq != std::string::npos;
    if (key == "--model") {
      ok = ok && parse_model(val, args.model);
    } else if (key == "--algo") {
      ok = ok && parse_algo(val, args.algo);
    } else if (key == "--reps") {
      ok = ok && parse_count(val, 1, args.reps);
    } else if (key == "--workers") {
      ok = ok && parse_count(val, 1, args.workers);
    } else {
      rest.push_back(arg);
      continue;
    }
    if (!ok) {
      std::cerr << "bad argument: " << arg << '\n';
      return std::nullopt;
    }
  }
  return args;
}

int Main(int argc, char** argv, const MainOptions& mo,
         const std::function<int(Harness&, const BenchArgs&)>& body) {
  std::vector<std::string> rest;
  const std::optional<BenchArgs> parsed = parse_bench_args(argc, argv, rest);
  if (!parsed) {
    print_usage(argv[0]);
    return 2;
  }
  if (!rest.empty()) {
    const bool help = rest.front() == "--help" || rest.front() == "-h";
    if (!help) std::cerr << "bad argument: " << rest.front() << '\n';
    print_usage(argv[0]);
    return help ? 0 : 2;
  }
  const BenchArgs& args = *parsed;
  if (mo.force_obs) obs::set_enabled(true);
  print_header(mo.id, mo.title, mo.paper_claim);
  try {
    Harness h;
    const int rc = body(h, args);
    return rc != 0 ? rc : exit_code();
  } catch (const std::exception& ex) {
    std::cerr << "[error] " << mo.id << ": " << ex.what() << '\n';
    return 1;
  }
}

}  // namespace indigo::bench
