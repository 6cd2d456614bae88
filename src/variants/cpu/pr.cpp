// OpenMP and C++-threads PageRank variants.
//
// All variants iterate damped PageRank (d = 0.85) to the same fixpoint
// (L1 residual below kPrEpsilon). The studied styles are pull vs push
// data flow (push only exists in the deterministic two-array form, paper
// Section 5.6), deterministic vs in-place non-deterministic iteration, the
// three CPU reduction styles for the per-iteration residual sum
// (Listing 11), and loop scheduling. PR is vertex-based and topology-driven
// only (Table 2).
#include <cmath>
#include <vector>

#include "variants/cpu/models.hpp"
#include "vcuda/sim.hpp"

namespace indigo::variants::cpu {
namespace {

template <typename M, StyleConfig C>
RunResult pr_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kPush = C.dir == Direction::Push;
  constexpr bool kDet = C.det == Determinism::Det;

  M par(opts);
  const vid_t n = g.num_vertices();
  if (n == 0) return RunResult{};
  const eid_t* row = g.row_index().data();
  const vid_t* col = g.col_index().data();

  const float base = static_cast<float>((1.0 - kPrDamping) / n);
  std::vector<float> rank_a(n, 1.0f / static_cast<float>(n)), rank_b;
  float* cur = rank_a.data();
  float* nxt = cur;
  if constexpr (kDet) {
    rank_b = rank_a;
    nxt = rank_b.data();
  }

  std::uint64_t itr = 0;
  bool converged = false;
  while (itr < kMaxIterations) {
    ++itr;
    vcuda::throw_if_past_deadline();
    double residual = 0.0;
    if constexpr (kPush) {
      // Scatter phase: everybody deposits its share into the next array.
      par.template for_each<C>(n, [&](std::uint64_t v) { nxt[v] = base; });
      par.template for_each<C>(n, [&](std::uint64_t v) {
        const eid_t beg = row[v], end = row[v + 1];
        if (beg == end) return;
        const float share = static_cast<float>(kPrDamping) * cur[v] /
                            static_cast<float>(end - beg);
        for (eid_t e = beg; e < end; ++e) M::add(nxt[col[e]], share);
      });
      residual = par.template reduce<C>(n, [&](std::uint64_t v) {
        return std::abs(static_cast<double>(nxt[v]) - cur[v]);
      });
    } else {
      // Gather phase; residual accumulated with the style under study.
      residual = par.template reduce<C>(n, [&](std::uint64_t v) {
        double sum = 0.0;
        for (eid_t e = row[v]; e < row[v + 1]; ++e) {
          const vid_t u = col[e];
          sum += static_cast<double>(cur[u]) /
                 static_cast<double>(row[u + 1] - row[u]);
        }
        const auto fresh = static_cast<float>(base + kPrDamping * sum);
        const double delta = std::abs(static_cast<double>(fresh) - cur[v]);
        nxt[v] = fresh;  // nxt aliases cur in the non-deterministic style
        return delta;
      });
    }
    if constexpr (kDet) std::swap(cur, nxt);
    if (residual < kPrEpsilon) {
      converged = true;
      break;
    }
  }

  RunResult result;
  result.iterations = itr;
  result.converged = converged;
  result.output.ranks.assign(cur, cur + n);
  return result;
}

}  // namespace

void register_pr(Model m) {
  for_values<Direction::Push, Direction::Pull>([&]<Direction DI>() {
    for_values<Determinism::NonDet, Determinism::Det>([&]<Determinism DE>() {
      for_values<CpuReduction::Atomic, CpuReduction::Critical,
                 CpuReduction::Clause>([&]<CpuReduction CR>() {
        add_variants<Algorithm::PR,
                     StyleConfig{.dir = DI, .det = DE, .cred = CR}>(
            m, []<typename M, StyleConfig K>() { return &pr_run<M, K>; });
      });
    });
  });
}

}  // namespace indigo::variants::cpu
