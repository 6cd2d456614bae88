// OpenMP and C++-threads triangle-counting variants.
//
// Counts each triangle u < v < w once via sorted-adjacency intersection.
// Style dimensions: vertex-based (outer loop over vertices, inner over
// their forward neighbours) vs edge-based (outer loop over arcs with
// u < v), the three CPU reduction styles for the global count, and loop
// scheduling. TC is topology-driven, deterministic, and RMW-pinned
// (Table 2).
#include <algorithm>

#include "variants/cpu/models.hpp"

namespace indigo::variants::cpu {
namespace {

/// Common neighbours w > v of u and v (sorted CSR adjacency intersection).
inline std::uint64_t count_common_after(const Graph& g, vid_t u, vid_t v) {
  const auto nu = g.neighbors(u);
  const auto nv = g.neighbors(v);
  auto iu = std::upper_bound(nu.begin(), nu.end(), v);
  auto iv = std::upper_bound(nv.begin(), nv.end(), v);
  std::uint64_t c = 0;
  while (iu != nu.end() && iv != nv.end()) {
    if (*iu < *iv) {
      ++iu;
    } else if (*iv < *iu) {
      ++iv;
    } else {
      ++c;
      ++iu;
      ++iv;
    }
  }
  return c;
}

template <typename M, StyleConfig C>
RunResult tc_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kEdge = C.flow == Flow::Edge;

  M par(opts);
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  const vid_t* col = g.col_index().data();
  const vid_t* src = g.src_list().data();
  const eid_t* row = g.row_index().data();

  // The per-item triangle tally folded into the global count with the
  // reduction style under study (paper Listing 11).
  auto item_count = [&](std::uint64_t i) -> std::uint64_t {
    if constexpr (kEdge) {
      const auto e = static_cast<eid_t>(i);
      const vid_t u = src[e], v = col[e];
      return u < v ? count_common_after(g, u, v) : 0;
    } else {
      const auto u = static_cast<vid_t>(i);
      std::uint64_t c = 0;
      for (eid_t e = row[u]; e < row[u + 1]; ++e) {
        const vid_t v = col[e];
        if (v > u) c += count_common_after(g, u, v);
      }
      return c;
    }
  };

  RunResult result;
  result.iterations = 1;
  result.output.count = par.template reduce<C>(kEdge ? m : n, item_count);
  return result;
}

}  // namespace

void register_tc(Model m) {
  for_values<Flow::Vertex, Flow::Edge>([&]<Flow FL>() {
    for_values<CpuReduction::Atomic, CpuReduction::Critical,
               CpuReduction::Clause>([&]<CpuReduction CR>() {
      // TC is inherently deterministic (Table 2 lists no non-det TC); the
      // det dimension is non-applicable and stays pinned.
      add_variants<Algorithm::TC, StyleConfig{.flow = FL, .cred = CR}>(
          m, []<typename M, StyleConfig K>() { return &tc_run<M, K>; });
    });
  });
}

}  // namespace indigo::variants::cpu
