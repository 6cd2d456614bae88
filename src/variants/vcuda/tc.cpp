// Virtual-CUDA triangle-counting variants.
//
// Vertex-based kernels assign a vertex to a thread/warp/block and stride
// its forward neighbours across the group's lanes; each lane intersects the
// two sorted adjacency lists (merge walk). Edge-based kernels assign an arc
// (u, v) with u < v; the thread walks both lists (thread granularity) or
// the group's lanes stride over N(u) past v and binary-search N(v)
// (warp/block granularity). The per-producer tallies feed the global count
// through the three GPU reduction styles of paper Listing 10. TC uses only
// an atomic add on shared data, which is why its Atomic/CudaAtomic ratios
// are the mildest in Figure 1.
#include <span>
#include <vector>

#include "variants/vcuda/vc_common.hpp"

namespace indigo::variants::vc {
namespace {

template <StyleConfig C>
RunResult tc_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kEdge = C.flow == Flow::Edge;
  constexpr GpuReduction kRed = C.gred;
  using K = Kinds<C.alib>;

  vcuda::Device dev(opts.device != nullptr ? *opts.device : default_device());
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());
  auto srcl = dev.array(g.src_list());

  std::vector<std::uint64_t> count_h(1, 0);
  // Spelled-out span type: count.fetch_add<K::kRmw> needs no `template`.
  auto count = dev.array(std::span<std::uint64_t>(count_h));

  // Serial merge intersection counting common neighbours > v of u and v.
  auto merge_count = [&](vcuda::Thread& t, vid_t u, vid_t v) {
    std::uint64_t c = 0;
    std::uint32_t iu = row.ld(t, u), eu = row.ld(t, u + 1);
    std::uint32_t iv = row.ld(t, v), ev = row.ld(t, v + 1);
    // Skip to the first neighbours greater than v (forward triangles only).
    std::uint32_t a = 0, b = 0;
    while (iu < eu && (a = col.ld(t, iu)) <= v) ++iu;
    while (iv < ev && (b = col.ld(t, iv)) <= v) ++iv;
    while (iu < eu && iv < ev) {
      t.work(2);
      if (a < b) {
        ++iu;
        if (iu < eu) a = col.ld(t, iu);
      } else if (b < a) {
        ++iv;
        if (iv < ev) b = col.ld(t, iv);
      } else {
        ++c;
        ++iu;
        ++iv;
        if (iu < eu) a = col.ld(t, iu);
        if (iv < ev) b = col.ld(t, iv);
      }
    }
    return c;
  };

  // Binary search for w in v's adjacency list.
  auto bsearch = [&](vcuda::Thread& t, vid_t v, vid_t w) -> bool {
    std::uint32_t lo = row.ld(t, v), hi = row.ld(t, v + 1);
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      const vid_t x = col.ld(t, mid);
      t.work(2);
      if (x == w) return true;
      if (x < w) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  };

  const std::uint32_t items = kEdge ? m : n;
  const std::uint32_t grid = grid_for<C.gran, C.pers>(dev, items);
  // The edges a work item strides across its group's lanes
  // (first_edgeless_warp, one_round_block): an arc (u, v) strides N(u) when
  // u < v, and every lane of an arc with u >= v returns after its two
  // uniform loads; a vertex strides its own list.
  const auto edges_of = [&](std::uint32_t i) {
    if constexpr (kEdge) {
      const vid_t u = g.src_list()[i], v = g.col_index()[i];
      return u < v ? g.degree(u) : vid_t{0};
    } else {
      return g.degree(i);
    }
  };

  dev.launch(grid, kBD, [&](vcuda::Block& blk) {
    // Integral accumulators end to end: the old double shared slots were
    // cast to uint64 at flush, silently truncating any count (or reduce_add
    // drift) above 2^53. Block::reduce_add has a uint64 overload with the
    // identical cycle charges, so the model numbers are unchanged.
    auto slots = blk.shared_array<std::uint64_t>(kBD);
    auto block_ctr = blk.shared_array<std::uint64_t>(1);
    // The per-lane body. The thread-granularity merge walk and the vertex
    // flow's merges issue loads inside data-dependent conditionals and run
    // to lengths that differ per lane, so their lanes' op streams do not
    // align batch by batch; so do the edge flow's multi-round blocks (an
    // arc whose u has more edges than the group has lanes, or a persistent
    // group with two or more arcs), whose lanes probe edge after edge.
    auto region = [&](vcuda::Thread& t) {
      for_items<C.gran, C.pers>(
          t, items,
          [&](std::uint32_t i, std::uint32_t off, std::uint32_t stride) {
            std::uint64_t local = 0;
            if constexpr (kEdge) {
              const vid_t u = srcl.ld(t, i), v = col.ld(t, i);
              if (u >= v) return;
              if constexpr (C.gran == Granularity::Thread) {
                local = merge_count(t, u, v);
              } else {
                // Lanes stride over N(u) past v, probing N(v).
                const std::uint32_t beg = row.ld(t, u);
                const std::uint32_t end = row.ld(t, u + 1);
                for (std::uint32_t e = beg + off; e < end; e += stride) {
                  const vid_t w = col.ld(t, e);
                  if (w > v && bsearch(t, v, w)) ++local;
                }
              }
            } else {
              const vid_t u = i;
              const std::uint32_t beg = row.ld(t, u);
              const std::uint32_t end = row.ld(t, u + 1);
              for (std::uint32_t e = beg + off; e < end; e += stride) {
                const vid_t v = col.ld(t, e);
                if (v > u) local += merge_count(t, u, v);
              }
            }
            if (local == 0) return;
            if constexpr (kRed == GpuReduction::GlobalAdd) {
              count.fetch_add<K::kRmw>(t, 0, local);  // Listing 10a
            } else if constexpr (kRed == GpuReduction::BlockAdd) {
              blk.atomic_add_block(t, block_ctr[0], local);
            } else {
              slots[t.thread_idx()] += local;
              t.work(1);
            }
          });
    };
    // The edge flow's body for one arc of a one-round block
    // (one_round_block): lane l probes at most the edge beg + off0 + l of
    // N(u), so batch k below is every lane's k-th op of the per-lane body —
    // the arc's loads, the edge's target, N(v)'s bounds, then one batch per
    // binary-search round over the lanes still searching, each with its
    // work(2). A lane's reduction follows its last op: GlobalAdd's
    // fetch_add is its next op, so it joins the next round's batch (or
    // trails the last round); the shared-memory folds record no access.
    auto edge_warp = [&](vcuda::WarpCtx& w, std::uint32_t i,
                         std::uint32_t off0) {
      using Mask = vcuda::WarpCtx::Mask;
      const Mask all = w.full();
      const vid_t u = srcl.ld_warp_u(w, all, i);
      const vid_t v = col.ld_warp_u(w, all, i);
      if (u >= v) return;
      const std::uint32_t beg = row.ld_warp_u(w, all, u);
      const std::uint32_t end = row.ld_warp_u(w, all, u + 1);
      const Mask me = w.mask_first(end - beg > off0 ? end - beg - off0 : 0);
      if (me == 0) return;
      // Value-initialized where gcc cannot see that the masks bound the
      // reads.
      vcuda::LaneVec<std::uint32_t> ev{}, wv{}, lo{}, hi{}, mid{}, xv{};
      w.for_lanes(me, [&](int l) {
        ev[l] = beg + off0 + static_cast<std::uint32_t>(l);
      });
      col.ld_warp(w, me, ev.v, wv.v);
      Mask live = w.where(me, [&](int l) { return wv[l] > v; });
      if (live == 0) return;
      const std::uint32_t lo0 = row.ld_warp_u(w, live, v);
      const std::uint32_t hi0 = row.ld_warp_u(w, live, v + 1);
      if (lo0 >= hi0) return;
      w.for_lanes(live, [&](int l) {
        lo[l] = lo0;
        hi[l] = hi0;
      });
      vcuda::LaneVec<std::uint32_t> zero{};
      vcuda::LaneVec<std::uint64_t> one;
      w.for_lanes(live, [&](int l) { one[l] = 1; });
      Mask hits = 0;
      Mask found = 0;  // the lanes that hit in the previous round
      while (live != 0) {
        w.for_lanes(live, [&](int l) { mid[l] = lo[l] + (hi[l] - lo[l]) / 2; });
        col.ld_warp(w, live, mid.v, xv.v);
        w.work(live, 2);
        if constexpr (kRed == GpuReduction::GlobalAdd) {
          count.fetch_add_warp<K::kRmw>(w, found, zero.v, one.v);
        }
        found = w.where(live, [&](int l) { return xv[l] == wv[l]; });
        hits |= found;
        live &= ~found;
        w.for_lanes(live, [&](int l) {
          if (xv[l] < wv[l]) {
            lo[l] = mid[l] + 1;
          } else {
            hi[l] = mid[l];
          }
        });
        live = w.where(live, [&](int l) { return lo[l] < hi[l]; });
      }
      if constexpr (kRed == GpuReduction::GlobalAdd) {
        count.fetch_add_warp<K::kRmw>(w, found, zero.v, one.v);
      } else if constexpr (kRed == GpuReduction::BlockAdd) {
        blk.atomic_add_block_warp(w, hits, block_ctr[0], one.v);
      } else {
        w.for_lanes(hits, [&](int l) { slots[w.tid(l)] += 1; });
        if (hits != 0) w.work(hits, 1);
      }
    };
    // The edge flow's Warp/Block blocks that one_round_block accepts run
    // edge_warp, and a Block-granularity block on either engine replays its
    // edge-less warps (first_edgeless_warp).
    bool one_round = false;
    if constexpr (kEdge && C.gran != Granularity::Thread) {
      one_round =
          run_one_round<C.gran, C.pers>(blk, items, edges_of, edge_warp);
    }
    if (!one_round) {
      if constexpr (C.gran == Granularity::Block) {
        blk.for_each_thread(region,
                            first_edgeless_warp<C.pers>(blk, items, edges_of));
      } else {
        blk.for_each_thread(region);
      }
    }
    drain_reduction<kRed, std::uint64_t>(
        blk, slots, block_ctr[0], [&](vcuda::Thread& t, std::uint64_t total) {
          if (total != 0) count.fetch_add<K::kRmw>(t, 0, total);
        });
  });

  RunResult result;
  result.iterations = 1;
  result.seconds = dev.elapsed_seconds();
  result.output.count = count_h[0];
  return result;
}

}  // namespace

void register_vcuda_tc() {
  for_values<Flow::Vertex, Flow::Edge>([&]<Flow FL>() {
    for_values<Persistence::NonPersistent, Persistence::Persistent>(
        [&]<Persistence PE>() {
          for_values<Granularity::Thread, Granularity::Warp,
                     Granularity::Block>([&]<Granularity GR>() {
            for_values<AtomicsLib::Classic, AtomicsLib::CudaAtomic>(
                [&]<AtomicsLib AL>() {
                  for_values<GpuReduction::GlobalAdd, GpuReduction::BlockAdd,
                             GpuReduction::ReductionAdd>(
                      [&]<GpuReduction RE>() {
                        constexpr StyleConfig kCfg{.flow = FL, .pers = PE,
                                                   .gran = GR, .alib = AL,
                                                   .gred = RE};
                        if constexpr (is_valid(Model::Cuda, Algorithm::TC,
                                               kCfg)) {
                          Registry::instance().add(Variant{
                              Model::Cuda, Algorithm::TC, kCfg,
                              program_name(Model::Cuda, Algorithm::TC, kCfg),
                              &tc_run<kCfg>});
                        }
                      });
                });
          });
        });
  });
}

}  // namespace indigo::variants::vc
