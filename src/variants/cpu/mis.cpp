// OpenMP and C++-threads maximal-independent-set variants.
//
// All variants compute the unique greedy-by-priority MIS (priorities from
// serial::mis_priority), so results are comparable across styles and with
// the serial reference. Status transitions are monotone (Undecided -> In or
// Out exactly once), which is why plain atomic reads/writes suffice; the
// style dimensions here are vertex/edge flow, topology vs no-duplicates
// worklists, push vs pull, deterministic two-array updates, and scheduling.
#include <vector>

#include "variants/cpu/models.hpp"
#include "vcuda/sim.hpp"

namespace indigo::variants::cpu {
namespace {

template <typename M, StyleConfig C>
RunResult mis_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kData = C.drive != Drive::Topology;
  constexpr bool kEdge = C.flow == Flow::Edge;
  constexpr bool kPull = C.dir == Direction::Pull;
  constexpr bool kDet = C.det == Determinism::Det;

  M par(opts);
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();

  std::vector<std::uint32_t> st_a(n, kMisUndecided), st_b;
  std::uint32_t* cur = st_a.data();
  std::uint32_t* nxt = cur;
  if constexpr (kDet) {
    st_b = st_a;
    nxt = st_b.data();
  }

  const eid_t* row = g.row_index().data();
  const vid_t* col = g.col_index().data();
  const vid_t* src = g.src_list().data();

  // Edge-based codes decide membership in a separate small vertex pass;
  // blocked[] carries "v has a live higher-priority neighbour" stamps.
  std::vector<std::uint32_t> blocked;
  if constexpr (kEdge) blocked.assign(n, 0);

  std::vector<std::uint32_t> wl_a, wl_b, stat;
  std::uint64_t in_size = 0, out_size = 0;
  std::uint32_t* wl_in = nullptr;
  std::uint32_t* wl_out = nullptr;
  if constexpr (kData) {  // vertex worklist, no duplicates (Table 2)
    wl_a.resize(n);
    wl_b.resize(n);
    wl_in = wl_a.data();
    wl_out = wl_b.data();
    stat.assign(n, 0);
    par.template for_each<C>(n, [&](std::uint64_t v) {
      wl_in[v] = static_cast<std::uint32_t>(v);
    });
    in_size = n;
  }

  std::uint32_t changed = 0;
  std::uint32_t itr = 0;
  bool converged = true;

  // Decides vertex v from the states in cur, writing to nxt. Returns true
  // if v is still undecided afterwards (data-driven re-enqueue).
  auto decide_vertex = [&](vid_t v) -> bool {
    if (M::load(cur[v]) != kMisUndecided) return false;
    bool has_in = false, is_blocked = false;
    for (eid_t e = row[v]; e < row[v + 1]; ++e) {
      const vid_t u = col[e];
      const std::uint32_t su = M::load(cur[u]);
      if (su == kMisIn) {
        has_in = true;
        break;
      }
      if (su != kMisOut && mis_beats(u, v)) is_blocked = true;
    }
    if (has_in) {
      M::store(nxt[v], kMisOut);
      M::store(changed, 1u);
      return false;
    }
    if (is_blocked) return true;
    M::store(nxt[v], kMisIn);
    M::store(changed, 1u);
    if constexpr (!kPull) {
      // Push style: the winner immediately knocks its neighbours out.
      for (eid_t e = row[v]; e < row[v + 1]; ++e) {
        M::store(nxt[col[e]], kMisOut);
      }
    }
    return false;
  };

  while (true) {
    ++itr;
    if (itr > kMaxIterations) {
      converged = false;
      break;
    }
    vcuda::throw_if_past_deadline();
    changed = 0;
    if constexpr (kDet) {
      par.template for_each<C>(n, [&](std::uint64_t v) { nxt[v] = cur[v]; });
    }
    if constexpr (kEdge) {
      // Pass 1 over arcs: propagate In -> Out and stamp blockers.
      par.template for_each<C>(m, [&](std::uint64_t ei) {
        const auto e = static_cast<eid_t>(ei);
        // Push reads the source endpoint and writes the destination's data;
        // pull reads the destination's neighbour and writes itself. With
        // symmetric arcs these visit the same pairs from opposite ends.
        const vid_t from = kPull ? col[e] : src[e];
        const vid_t to = kPull ? src[e] : col[e];
        const std::uint32_t sf = M::load(cur[from]);
        if (M::load(cur[to]) != kMisUndecided) return;
        if (sf == kMisIn) {
          M::store(nxt[to], kMisOut);
          M::store(changed, 1u);
        } else if (sf != kMisOut && mis_beats(from, to)) {
          M::store(blocked[to], itr);
        }
      });
      // Pass 2 over vertices: unblocked survivors join the set.
      par.template for_each<C>(n, [&](std::uint64_t vi) {
        const auto v = static_cast<vid_t>(vi);
        if (M::load(cur[v]) != kMisUndecided) return;
        if (M::load(nxt[v]) != kMisUndecided) return;  // out this round
        if (M::load(blocked[v]) == itr) return;
        M::store(nxt[v], kMisIn);
        M::store(changed, 1u);
      });
    } else if constexpr (kData) {
      if (in_size == 0) break;
      out_size = 0;
      par.template for_each<C>(in_size, [&](std::uint64_t i) {
        const vid_t v = wl_in[i];
        if (!decide_vertex(v)) return;
        if (M::fetch_max(stat[v], itr) == itr) return;  // no duplicates
        const std::uint64_t idx = M::fetch_add(out_size, 1);
        wl_out[idx] = v;
      });
      std::swap(wl_in, wl_out);
      in_size = out_size;
      if constexpr (kDet) std::swap(cur, nxt);
      continue;  // worklist codes terminate on emptiness, not on changed
    } else {
      par.template for_each<C>(n, [&](std::uint64_t v) {
        decide_vertex(static_cast<vid_t>(v));
      });
    }
    if constexpr (!kData) {
      if constexpr (kDet) std::swap(cur, nxt);
      if (changed == 0) break;
    }
  }

  RunResult result;
  result.iterations = itr;
  result.converged = converged;
  result.output.labels.resize(n);
  for (vid_t v = 0; v < n; ++v) {
    result.output.labels[v] = cur[v] == kMisIn ? 1 : 0;
  }
  return result;
}

}  // namespace

void register_mis(Model m) {
  for_values<Flow::Vertex, Flow::Edge>([&]<Flow FL>() {
    for_values<Drive::Topology, Drive::DataNoDup>([&]<Drive DR>() {
      for_values<Direction::Push, Direction::Pull>([&]<Direction DI>() {
        for_values<Determinism::NonDet, Determinism::Det>([&]<Determinism DE>() {
          add_variants<Algorithm::MIS,
                       StyleConfig{.flow = FL, .drive = DR, .dir = DI,
                                   .det = DE}>(
              m, []<typename M, StyleConfig K>() { return &mis_run<M, K>; });
        });
      });
    });
  });
}

}  // namespace indigo::variants::cpu
