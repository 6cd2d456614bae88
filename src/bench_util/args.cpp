#include "bench_util/args.hpp"

#include <charconv>
#include <iostream>
#include <string>

namespace indigo::bench {
namespace {

/// The value of `all` whose name is `s` into `out`; false when none is.
template <typename E, std::size_t N>
bool parse_name(const std::string& s, const E (&all)[N],
                std::optional<E>& out) {
  for (E e : all) {
    if (s == to_string(e)) {
      out = e;
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
      ok = ok && parse_name(val, kAllModels, args.model);
    } else if (key == "--algo") {
      ok = ok && parse_name(val, kAllAlgorithms, args.algo);
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

}  // namespace indigo::bench
