// CPU kernel family for the label-relaxation problems (CC, BFS, SSSP).
//
// One templated implementation per style point: vertex/edge iteration
// (paper 2.1), topology/data-driven with or without worklist duplicates
// (2.2, 2.3), push/pull (2.4), read-write/read-modify-write (2.5),
// deterministic two-array or non-deterministic single-array updates (2.6),
// and the model's loop schedule (2.11 for OpenMP, 2.12 for C++ threads).
// The model policy M (cpu/models.hpp) supplies the parallel loop and the
// element operations; the registry instantiates every combination
// core/validity.hpp accepts, for both CPU models.
#pragma once

#include <cstdint>
#include <vector>

#include "variants/common.hpp"
#include "variants/cpu/models.hpp"
#include "vcuda/sim.hpp"

namespace indigo::variants::cpu {

template <typename Problem, typename M, StyleConfig C>
RunResult relax_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kData = C.drive != Drive::Topology;
  constexpr bool kNoDup = C.drive == Drive::DataNoDup;
  constexpr bool kEdge = C.flow == Flow::Edge;
  constexpr bool kPull = C.dir == Direction::Pull;
  constexpr bool kDet = C.det == Determinism::Det;
  constexpr bool kRw = C.upd == Update::ReadWrite;

  M par(opts);
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  const vid_t source = opts.source;

  std::vector<std::uint32_t> val_a(n), val_b;
  std::uint32_t* cur = val_a.data();
  std::uint32_t* nxt = cur;  // det codes write a second array (Listing 6b)
  par.template for_each<C>(n, [&](std::uint64_t v) {
    val_a[v] = Problem::init(static_cast<vid_t>(v), source);
  });
  if constexpr (kDet) {
    val_b = val_a;
    nxt = val_b.data();
  }

  // Worklists (paper Listing 2b/3): flat arrays + "atomic capture" cursors.
  // Vertex-based codes enqueue vertices; edge-based codes enqueue arcs of
  // the updated vertex. stat[] stamps dedup the no-duplicates style.
  std::vector<std::uint32_t> wl_a, wl_b, stat;
  std::uint64_t in_size = 0, out_size = 0;
  std::uint32_t* wl_in = nullptr;
  std::uint32_t* wl_out = nullptr;
  if constexpr (kData) {
    const std::size_t cap = 2 * static_cast<std::size_t>(m) + 2 * n + 1024;
    wl_a.resize(cap);
    wl_b.resize(cap);
    wl_in = wl_a.data();
    wl_out = wl_b.data();
    if constexpr (kNoDup) stat.assign(n, 0);
    if constexpr (seeds_everywhere<Problem>()) {
      const std::uint64_t items = kEdge ? m : n;
      par.template for_each<C>(items, [&](std::uint64_t i) {
        wl_in[i] = static_cast<std::uint32_t>(i);
      });
      in_size = items;
    } else {
      if constexpr (kEdge) {
        for (eid_t e = g.begin_edge(source); e < g.end_edge(source); ++e) {
          wl_in[in_size++] = e;
        }
      } else {
        wl_in[in_size++] = source;
      }
    }
  }

  const std::size_t wl_cap = wl_a.size();
  const eid_t* row = g.row_index().data();
  const vid_t* col = g.col_index().data();
  const vid_t* src = g.src_list().data();
  const weight_t* wts = g.weights().data();

  std::uint32_t changed = 0;
  std::uint32_t overflow = 0;
  std::uint32_t itr = 0;
  bool converged = true;

  // Conditionally updates arr[u] with nd; true if the value improved.
  auto update = [&](std::uint32_t* arr, vid_t u, std::uint32_t nd) -> bool {
    if constexpr (kRw) {
      const std::uint32_t old = M::load(arr[u]);  // Listing 5a
      if (nd < old) {
        M::store(arr[u], nd);
        return true;
      }
      return false;
    } else {
      return nd < M::fetch_min(arr[u], nd);  // Listing 5b
    }
  };

  // Improvement of vertex u: raise the changed flag (topology) or enqueue
  // follow-up work (data-driven).
  auto on_improve = [&](vid_t u) {
    if constexpr (!kData) {
      M::store(changed, 1u);
    } else {
      if constexpr (kNoDup) {
        if (M::fetch_max(stat[u], itr) == itr) {  // Listing 3b
          note_worklist_duplicate();
          return;
        }
      }
      if constexpr (kEdge) {
        const std::uint64_t deg = row[u + 1] - row[u];
        const std::uint64_t base = M::fetch_add(out_size, deg);
        if (base + deg > wl_cap) {  // exceptions cannot cross the omp region
          M::store(overflow, 1u);
          return;
        }
        for (std::uint64_t k = 0; k < deg; ++k) {
          wl_out[base + k] = static_cast<std::uint32_t>(row[u] + k);
        }
        note_worklist_push(deg);
      } else {
        const std::uint64_t idx = M::fetch_add(out_size, 1);
        if (idx >= wl_cap) {
          M::store(overflow, 1u);
          return;
        }
        wl_out[idx] = u;  // Listing 3a
        note_worklist_push();
      }
    }
  };

  // One work item: a vertex (vertex-based) or an arc (edge-based).
  auto process = [&](std::uint64_t item) {
    if constexpr (kEdge) {
      const auto e = static_cast<eid_t>(item);
      const vid_t v = src[e], u = col[e];
      if constexpr (kPull) {  // Listing 4b on a single arc
        const std::uint32_t du = M::load(cur[u]);
        if (du == kInfDist) return;
        if (update(nxt, v, Problem::relax(du, wts[e]))) on_improve(v);
      } else {  // Listing 4a on a single arc
        const std::uint32_t dv = M::load(cur[v]);
        if (dv == kInfDist) return;
        if (update(nxt, u, Problem::relax(dv, wts[e]))) on_improve(u);
      }
    } else {
      const auto v = static_cast<vid_t>(item);
      const eid_t beg = row[v], end = row[v + 1];
      if constexpr (kPull) {
        bool improved = false;
        for (eid_t e = beg; e < end; ++e) {
          const std::uint32_t du = M::load(cur[col[e]]);
          if (du == kInfDist) continue;
          improved |= update(nxt, v, Problem::relax(du, wts[e]));
        }
        if (improved) on_improve(v);
      } else {
        const std::uint32_t dv = M::load(cur[v]);
        if (dv == kInfDist) return;
        for (eid_t e = beg; e < end; ++e) {
          const vid_t u = col[e];
          if (update(nxt, u, Problem::relax(dv, wts[e]))) on_improve(u);
        }
      }
    }
  };

  while (true) {
    ++itr;
    if (itr > kMaxIterations) {
      converged = false;
      break;
    }
    vcuda::throw_if_past_deadline();
    if constexpr (kDet) {
      // Refresh the write array so the no-change test is sound (the cost
      // the paper attributes to the deterministic style, Section 5.6).
      par.template for_each<C>(n, [&](std::uint64_t v) { nxt[v] = cur[v]; });
    }
    if constexpr (kData) {
      if (in_size == 0) break;
      note_worklist_pop(in_size);
      out_size = 0;
      par.template for_each<C>(in_size,
                               [&](std::uint64_t i) { process(wl_in[i]); });
      if (overflow != 0) {
        // Duplicate-heavy iterations can outgrow the worklist; dropped
        // pushes are recovered by sweeping every item once (a topology
        // iteration expressed through the worklist), which subsumes any
        // lost wake-up while keeping memory bounded.
        overflow = 0;
        const std::uint64_t items = kEdge ? m : n;
        par.template for_each<C>(items, [&](std::uint64_t i) {
          wl_out[i] = static_cast<std::uint32_t>(i);
        });
        out_size = items;
      }
      std::swap(wl_in, wl_out);
      in_size = out_size;
      if constexpr (kDet) std::swap(cur, nxt);
    } else {
      changed = 0;
      par.template for_each<C>(kEdge ? m : n, process);
      if (changed == 0) break;
      if constexpr (kDet) std::swap(cur, nxt);
    }
  }

  RunResult result;
  result.iterations = itr;
  result.converged = converged;
  result.output.labels.assign(cur, cur + n);
  return result;
}

/// Instantiates and registers every valid style combination of the given
/// relaxation problem for CPU model `m`.
template <typename Problem>
void register_relax_variants(Model m) {
  for_values<Flow::Vertex, Flow::Edge>([&]<Flow FL>() {
    for_values<Drive::Topology, Drive::DataDup, Drive::DataNoDup>(
        [&]<Drive DR>() {
          for_values<Direction::Push, Direction::Pull>([&]<Direction DI>() {
            for_values<Update::ReadWrite, Update::ReadModifyWrite>(
                [&]<Update UP>() {
                  for_values<Determinism::NonDet, Determinism::Det>(
                      [&]<Determinism DE>() {
                        add_variants<Problem::kAlgo,
                                     StyleConfig{.flow = FL, .drive = DR,
                                                 .dir = DI, .upd = UP,
                                                 .det = DE}>(
                            m, []<typename M, StyleConfig K>() {
                              return &relax_run<Problem, M, K>;
                            });
                      });
                });
          });
        });
  });
}

}  // namespace indigo::variants::cpu
