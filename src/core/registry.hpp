// The variant registry: the suite's "generated programs".
//
// Each entry is one compiled program: an (algorithm, model, StyleConfig)
// triple with a runnable entry point. The variant libraries
// (src/variants/{cpu,vcuda}) instantiate their kernel templates
// for every StyleConfig that core/validity.hpp accepts and register them
// here; everything downstream (tests, benches, examples) selects from this
// registry. This mirrors the Indigo2 code generator plus its configuration
// files (paper Section 4.1).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "core/styles.hpp"

namespace indigo {

struct Variant {
  Model model{};
  Algorithm algo{};
  StyleConfig style{};
  std::string name;  // program_name(model, algo, style)
  std::function<RunResult(const Graph&, const RunOptions&)> run;
};

class Registry {
 public:
  /// The process-wide registry. Call register_all_variants() (from
  /// variants/register_all.hpp) once before using it.
  static Registry& instance();

  void add(Variant v);

  [[nodiscard]] std::span<const Variant> all() const { return variants_; }
  [[nodiscard]] std::size_t size() const { return variants_.size(); }

  /// All variants matching the given filters (nullopt = any).
  [[nodiscard]] std::vector<const Variant*> select(
      std::optional<Model> m = std::nullopt,
      std::optional<Algorithm> a = std::nullopt) const;

  /// Exact lookup; nullptr if that combination was not generated.
  [[nodiscard]] const Variant* find(Model m, Algorithm a,
                                    const StyleConfig& c) const;

  /// Census for the paper's Table 3.
  [[nodiscard]] std::size_t count(Model m, Algorithm a) const;

 private:
  std::vector<Variant> variants_;
};

}  // namespace indigo
