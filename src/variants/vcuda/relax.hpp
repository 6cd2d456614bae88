// Virtual-CUDA kernel family for the label-relaxation problems (CC, BFS,
// SSSP). Covers the full GPU style space: vertex/edge flow, topology/data
// driven (with and without worklist duplicates), push/pull, read-write vs
// read-modify-write, deterministic two-array updates, persistent threads,
// thread/warp/block granularity, and classic vs default-cuda::atomic
// accesses. Host-side orchestration (iteration loop, array swaps, worklist
// ping-pong) mirrors real CUDA graph codes; every per-element touch happens
// inside a kernel so the simulated clock charges it.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "variants/vcuda/vc_common.hpp"

namespace indigo::variants::vc {

template <typename Problem, StyleConfig C>
RunResult relax_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kData = C.drive != Drive::Topology;
  constexpr bool kNoDup = C.drive == Drive::DataNoDup;
  constexpr bool kEdge = C.flow == Flow::Edge;
  constexpr bool kPull = C.dir == Direction::Pull;
  constexpr bool kDet = C.det == Determinism::Det;
  constexpr bool kRw = C.upd == Update::ReadWrite;
  using K = Kinds<C.alib>;

  vcuda::Device dev(opts.device != nullptr ? *opts.device : default_device());
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  const vid_t source = opts.source;

  // Device-resident data. Host buffers stand in for device allocations;
  // every kernel-side access is accounted by the simulator.
  std::vector<std::uint32_t> val_a(n), val_b;
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());
  auto srcl = dev.array(g.src_list());
  auto wts = dev.array(g.weights());
  // Spelled-out span types keep the arrays the Kinds<> accessors touch
  // non-dependent, so calls like cur.ld<K::kLd>(...) need no `template`.
  auto cur = dev.array(std::span<std::uint32_t>(val_a));
  auto nxt = cur;
  if constexpr (kDet) {
    val_b.resize(n);
    nxt = dev.array(std::span(val_b));
  }

  std::vector<std::uint32_t> wl_a, wl_b, stat_h, size_h(1, 0), flag_h(1, 0);
  vcuda::DeviceArray<std::uint32_t> wl_in, wl_out, stat;
  auto wl_size = dev.array(std::span<std::uint32_t>(size_h));
  auto changed = dev.array(std::span<std::uint32_t>(flag_h));
  std::uint32_t wl_cap = 0;
  std::uint32_t in_size = 0;
  if constexpr (kData) {
    const std::size_t cap = 2 * static_cast<std::size_t>(m) + 2 * n + 1024;
    wl_a.resize(cap);
    wl_b.resize(cap);
    const auto cap32 = static_cast<std::uint32_t>(cap);
    // Tests clamp the logical capacity below the allocation to force the
    // overflow/recovery path; the buffers stay full-size so a recovery
    // sweep (which writes all m or n items) never writes out of bounds.
    wl_cap = opts.wl_cap_override != 0 ? std::min(opts.wl_cap_override, cap32)
                                       : cap32;
    wl_in = dev.array(std::span(wl_a));
    wl_out = dev.array(std::span(wl_b));
    if constexpr (kNoDup) {
      stat_h.assign(n, 0);
      stat = dev.array(std::span(stat_h));
    }
  }

  // --- init kernel ---------------------------------------------------------
  // Elementwise kernels (disjoint per-lane stores, per-lane-aligned op
  // order) run in lane-loop form: batch-for-batch they perform the per-lane
  // loop's exact op groups, so charges, coalescing groups and stored values
  // are unchanged — only the interpreter overhead drops (see WarpCtx).
  {
    const std::uint32_t grid = grid_for<Granularity::Thread, C.pers>(dev, n);
    dev.launch(grid, kBD, [&](vcuda::Block& blk) {
      blk.for_each_warp([&](vcuda::WarpCtx& w) {
        for_items_warp<C.pers>(
            w, n, [&](vcuda::WarpCtx::Mask mask, std::uint32_t base) {
              vcuda::LaneVec<std::uint32_t> init;
              w.for_lanes(mask, [&](int l) {
                init[l] = Problem::init(base + static_cast<std::uint32_t>(l),
                                        source);
              });
              cur.st_warp_c(w, mask, base, init.v);
              if constexpr (kDet) nxt.st_warp_c(w, mask, base, init.v);
            });
      });
    });
  }
  // --- seed worklist -------------------------------------------------------
  if constexpr (kData) {
    if constexpr (seeds_everywhere<Problem>()) {
      const std::uint32_t items = kEdge ? m : n;
      const std::uint32_t grid =
          grid_for<Granularity::Thread, C.pers>(dev, items);
      dev.launch(grid, kBD, [&](vcuda::Block& blk) {
        blk.for_each_warp([&](vcuda::WarpCtx& w) {
          for_items_warp<C.pers>(
              w, items, [&](vcuda::WarpCtx::Mask mask, std::uint32_t base) {
                vcuda::LaneVec<std::uint32_t> iota;
                w.for_lanes(mask, [&](int l) {
                  iota[l] = base + static_cast<std::uint32_t>(l);
                });
                wl_in.st_warp_c(w, mask, base, iota.v);
              });
        });
      });
      in_size = items;
    } else {
      // Single-source seed: a host-side fill of a handful of entries
      // (a cudaMemcpy in a real code; covered by launch overhead).
      if constexpr (kEdge) {
        for (eid_t e = g.begin_edge(source); e < g.end_edge(source); ++e) {
          wl_a[in_size++] = e;
        }
      } else {
        wl_a[in_size++] = source;
      }
    }
  }

  std::uint32_t itr = 0;
  bool converged = true;

  // Conditional update of arr[u] (Listing 5); returns true on improvement.
  auto update = [&](vcuda::Thread& t, vcuda::DeviceArray<std::uint32_t>& arr,
                    vid_t u, std::uint32_t nd) -> bool {
    if constexpr (kRw) {
      const std::uint32_t old = arr.ld<K::kLd>(t, u);
      if (nd < old) {
        arr.st<K::kSt>(t, u, nd);
        return true;
      }
      return false;
    } else {
      return nd < arr.fetch_min<K::kRmw>(t, u, nd);
    }
  };

  auto on_improve = [&](vcuda::Thread& t, vid_t u) {
    if constexpr (!kData) {
      changed.st<K::kSt>(t, 0, 1u);
    } else {
      if constexpr (kNoDup) {
        if (stat.fetch_max<K::kRmw>(t, u, itr) == itr) return;  // Listing 3b
      }
      if constexpr (kEdge) {
        const std::uint32_t beg = row.ld(t, u), end = row.ld(t, u + 1);
        // Saturating overflow guard: once the size counter has passed the
        // cap, stop fetch_add-ing ranges into it. Without the pre-check a
        // duplicate-heavy run kept growing wl_size by whole degrees until
        // the uint32 wrapped, which un-tripped the host's overflow sweep
        // (size_h[0] > wl_cap) and silently dropped frontier pushes. `>`
        // (not `>=`) so the first crossing push still lands the counter
        // above the cap for the host to detect.
        const std::uint32_t seen = wl_size.ld<K::kLd>(t, 0);
        if (seen > wl_cap) return;
        const std::uint32_t base = wl_size.fetch_add<K::kRmw>(t, 0, end - beg);
        // Wrap-safe form of base + (end - beg) > wl_cap.
        if (base > wl_cap || end - beg > wl_cap - base) return;
        for (std::uint32_t e = beg; e < end; ++e) {
          wl_out.st(t, base + (e - beg), e);
        }
      } else {
        const std::uint32_t idx = wl_size.fetch_add<K::kRmw>(t, 0, 1u);
        if (idx >= wl_cap) return;
        wl_out.st(t, idx, u);  // Listing 3a
      }
    }
  };

  // One work item with the granularity's inner offset/stride.
  auto process = [&](vcuda::Thread& t, std::uint32_t raw_item,
                     std::uint32_t off, std::uint32_t stride) {
    std::uint32_t item = raw_item;
    if constexpr (kData) item = wl_in.ld(t, raw_item);
    if constexpr (kEdge) {
      const auto e = static_cast<eid_t>(item);
      const vid_t v = srcl.ld(t, e), u = col.ld(t, e);
      if constexpr (kPull) {
        const std::uint32_t du = cur.ld<K::kLd>(t, u);
        if (du == kInfDist) return;
        if (update(t, nxt, v, Problem::relax(du, wts.ld(t, e)))) {
          on_improve(t, v);
        }
      } else {
        const std::uint32_t dv = cur.ld<K::kLd>(t, v);
        if (dv == kInfDist) return;
        if (update(t, nxt, u, Problem::relax(dv, wts.ld(t, e)))) {
          on_improve(t, u);
        }
      }
    } else {
      const auto v = static_cast<vid_t>(item);
      const std::uint32_t beg = row.ld(t, v), end = row.ld(t, v + 1);
      if constexpr (kPull) {
        bool improved = false;
        for (std::uint32_t e = beg + off; e < end; e += stride) {
          const std::uint32_t du = cur.ld<K::kLd>(t, col.ld(t, e));
          if (du == kInfDist) continue;
          improved |= update(t, nxt, v, Problem::relax(du, wts.ld(t, e)));
        }
        if (improved) on_improve(t, v);
      } else {
        const std::uint32_t dv = cur.ld<K::kLd>(t, v);
        if (dv == kInfDist) return;
        for (std::uint32_t e = beg + off; e < end; e += stride) {
          const vid_t u = col.ld(t, e);
          if (update(t, nxt, u, Problem::relax(dv, wts.ld(t, e)))) {
            on_improve(t, u);
          }
        }
      }
    }
  };

  // Lane-loop twins of update/on_improve for the one-round vertex body
  // below: one call performs the scalar form for every lane of m, with the
  // lane-batched accessors replaying the per-lane engine's lane order.
  using Mask = vcuda::WarpCtx::Mask;
  auto update_w = [&](vcuda::WarpCtx& w, Mask m,
                      vcuda::DeviceArray<std::uint32_t>& arr,
                      const std::uint32_t* u, const std::uint32_t* nd) {
    if constexpr (kRw) {
      return arr.ld_st_min_warp<K::kLd>(w, m, u, nd);
    } else {
      vcuda::LaneVec<std::uint32_t> old;
      arr.fetch_min_warp<K::kRmw>(w, m, u, nd, old.v);
      return w.where(m, [&](int l) { return nd[l] < old[l]; });
    }
  };
  auto on_improve_w = [&](vcuda::WarpCtx& w, Mask m, const std::uint32_t* u) {
    vcuda::LaneVec<std::uint32_t> zero, one;
    w.for_lanes(m, [&](int l) {
      zero[l] = 0;
      one[l] = 1u;
    });
    if constexpr (!kData) {
      changed.st_warp<K::kSt>(w, m, zero.v, one.v);
    } else {
      if constexpr (kNoDup) {
        vcuda::LaneVec<std::uint32_t> itrv, old;
        w.for_lanes(m, [&](int l) { itrv[l] = itr; });
        stat.fetch_max_warp<K::kRmw>(w, m, u, itrv.v, old.v);
        m = w.where(m, [&](int l) { return old[l] != itr; });
      }
      vcuda::LaneVec<std::uint32_t> idx;
      wl_size.fetch_add_warp<K::kRmw>(w, m, zero.v, one.v, idx.v);
      m = w.where(m, [&](int l) { return idx[l] < wl_cap; });
      wl_out.st_warp(w, m, idx.v, u);
    }
  };

  // `process` for one vertex item of a one-round block (one_round_block):
  // lane l owns at most the edge beg + off0 + l, so batch k below is every
  // lane's k-th op of `process`. The item's vertex, its CSR row and the
  // push side's source value are warp-uniform: no lane of the warp writes
  // them. A warp with no edge lane (me == 0; 7 of the 8 warps of a
  // Block-granularity item of degree <= 32) stops after those loads: every
  // later batch would have an empty mask and record nothing.
  auto process_warp = [&](vcuda::WarpCtx& w, std::uint32_t raw_item,
                          std::uint32_t off0) {
    const Mask all = w.full();
    vid_t v = raw_item;
    if constexpr (kData) v = wl_in.ld_warp_u(w, all, raw_item);
    const std::uint32_t beg = row.ld_warp_u(w, all, v);
    const std::uint32_t end = row.ld_warp_u(w, all, v + 1);
    const Mask me = w.mask_first(end - beg > off0 ? end - beg - off0 : 0);
    // Value-initialized where gcc cannot see that the masks bound the reads.
    vcuda::LaneVec<std::uint32_t> ev{}, ndv{};
    vcuda::LaneVec<std::uint32_t> uv, dv, wv;
    w.for_lanes(me, [&](int l) {
      ev[l] = beg + off0 + static_cast<std::uint32_t>(l);
    });
    if constexpr (kPull) {
      if (me == 0) return;
      col.ld_warp(w, me, ev.v, uv.v);
      cur.ld_warp<K::kLd>(w, me, uv.v, dv.v);
      const Mask m1 = w.where(me, [&](int l) { return dv[l] != kInfDist; });
      wts.ld_warp(w, m1, ev.v, wv.v);
      vcuda::LaneVec<std::uint32_t> vv{};
      w.for_lanes(m1, [&](int l) {
        vv[l] = v;
        ndv[l] = Problem::relax(dv[l], wv[l]);
      });
      on_improve_w(w, update_w(w, m1, nxt, vv.v, ndv.v), vv.v);
    } else {
      const std::uint32_t dsrc = cur.ld_warp_u<K::kLd>(w, all, v);
      if (dsrc == kInfDist || me == 0) return;
      col.ld_warp(w, me, ev.v, uv.v);
      wts.ld_warp(w, me, ev.v, wv.v);
      w.for_lanes(me, [&](int l) { ndv[l] = Problem::relax(dsrc, wv[l]); });
      on_improve_w(w, update_w(w, me, nxt, uv.v, ndv.v), uv.v);
    }
  };

  constexpr Granularity kGran = kEdge ? Granularity::Thread : C.gran;
  while (true) {
    ++itr;
    if (itr > kMaxIterations) {
      converged = false;
      break;
    }
    if constexpr (kDet) {
      // Refresh the write array (cost of the deterministic style).
      // Lane-loop: cur is read-only here and nxt's stores are disjoint.
      const std::uint32_t grid = grid_for<Granularity::Thread, C.pers>(dev, n);
      dev.launch(grid, kBD, [&](vcuda::Block& blk) {
        blk.for_each_warp([&](vcuda::WarpCtx& w) {
          for_items_warp<C.pers>(
              w, n, [&](vcuda::WarpCtx::Mask mask, std::uint32_t base) {
                vcuda::LaneVec<std::uint32_t> vals;
                cur.ld_warp_c(w, mask, base, vals.v);
                nxt.st_warp_c(w, mask, base, vals.v);
              });
        });
      });
    }
    std::uint32_t items = 0;
    if constexpr (kData) {
      if (in_size == 0) break;
      items = in_size;
      size_h[0] = 0;
    } else {
      items = kEdge ? m : n;
      flag_h[0] = 0;
    }
    const std::uint32_t grid = grid_for<kGran, C.pers>(dev, items);
    // Relaxation-kernel engine split. Two shapes run in lane-loop form,
    // where every lane's k-th op is the warp's k-th batch:
    //  - edge flow, Topology+Det+RMW, non-persistent: one arc per lane, cur
    //    is read-only (Det two-array), the infinite-source exit is a mask
    //    refinement, same-target crossings land in the single fetch_min
    //    batch (fetch_min_warp replays the per-lane lane order), and
    //    the changed-flag store is a conditional suffix;
    //  - vertex flow, Warp/Block granularity, in every block
    //    one_round_block accepts (each group gets at most one item, the
    //    persistent grid included, and each lane walks at most one edge;
    //    in-place styles also need no self-loop): process_warp.
    // Everything else stays on for_each_thread: its lanes' op streams do
    // not align batch by batch. Persistent lanes that get two or more items
    // interleave across them, thread granularity and multi-round blocks
    // walk edge loops of different lengths per lane, and edge-flow
    // data-driven or in-place styles read values sibling lanes write in the
    // same region — for all of those the scrambled per-lane order *is* the
    // semantics the model is calibrated for. On either engine a Block-
    // granularity block replays its edge-less warps (first_edgeless_warp).
    constexpr bool kProcLaneLoop = kEdge && !kData && kDet && !kRw &&
                                   C.pers == Persistence::NonPersistent;
    constexpr bool kOneRound = !kEdge && C.gran != Granularity::Thread;
    auto vertex_of = [&](std::uint32_t i) {
      if constexpr (kData) i = wl_in.raw()[i];
      return i;
    };
    const auto edges_of = [&](std::uint32_t i) {
      return g.degree(vertex_of(i));
    };
    // one_round_block's count: the degree, except that an in-place (NonDet)
    // style refuses a self-loop, whose write a sibling lane's read of the
    // vertex's own value would see in per-lane order only.
    const auto round_edges_of = [&](std::uint32_t i) {
      const vid_t v = vertex_of(i);
      return !kDet && g.has_edge(v, v) ? kMultiRound : g.degree(v);
    };
    dev.launch(grid, kBD, [&](vcuda::Block& blk) {
      if constexpr (kProcLaneLoop) {
        blk.for_each_warp([&](vcuda::WarpCtx& w) {
          for_items_warp<C.pers>(
              w, items, [&](vcuda::WarpCtx::Mask m0, std::uint32_t base) {
                // Value-initialized where gcc cannot see that the masks
                // bound the reads.
                vcuda::LaneVec<std::uint32_t> ev{}, ndv{};
                vcuda::LaneVec<std::uint32_t> av, bv, dv, wv, oldv;
                w.for_lanes(m0, [&](int l) {
                  ev[l] = base + static_cast<std::uint32_t>(l);
                });
                srcl.ld_warp(w, m0, ev.v, av.v);
                col.ld_warp(w, m0, ev.v, bv.v);
                // Pull relaxes arc-dst into arc-src; push the reverse.
                auto& fromv = kPull ? bv : av;
                auto& tov = kPull ? av : bv;
                cur.ld_warp<K::kLd>(w, m0, fromv.v, dv.v);
                const auto m1 =
                    w.where(m0, [&](int l) { return dv[l] != kInfDist; });
                wts.ld_warp(w, m1, ev.v, wv.v);
                w.for_lanes(m1, [&](int l) {
                  ndv[l] = Problem::relax(dv[l], wv[l]);
                });
                nxt.fetch_min_warp<K::kRmw>(w, m1, tov.v, ndv.v, oldv.v);
                const auto m2 =
                    w.where(m1, [&](int l) { return ndv[l] < oldv[l]; });
                vcuda::LaneVec<std::uint32_t> zero, one;
                w.for_lanes(m2, [&](int l) {
                  zero[l] = 0;
                  one[l] = 1u;
                });
                changed.st_warp<K::kSt>(w, m2, zero.v, one.v);
              });
        });
        return;
      }
      if constexpr (kOneRound) {
        if (run_one_round<C.gran, C.pers>(blk, items, round_edges_of,
                                          process_warp)) {
          return;
        }
      }
      auto region = [&](vcuda::Thread& t) {
        for_items<kGran, C.pers>(
            t, items,
            [&](std::uint32_t i, std::uint32_t off, std::uint32_t stride) {
              process(t, i, off, stride);
            });
      };
      if constexpr (kGran == Granularity::Block) {
        blk.for_each_thread(region,
                            first_edgeless_warp<C.pers>(blk, items, edges_of));
      } else {
        blk.for_each_thread(region);
      }
    });
    if constexpr (kData) {
      if (size_h[0] > wl_cap) {
        // Dropped pushes (duplicate-heavy iteration): recover with a full
        // sweep of all items through the worklist, as the CPU codes do.
        const std::uint32_t all = kEdge ? m : n;
        const std::uint32_t fill_grid =
            grid_for<Granularity::Thread, C.pers>(dev, all);
        dev.launch(fill_grid, kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            for_items_warp<C.pers>(
                w, all, [&](vcuda::WarpCtx::Mask mask, std::uint32_t base) {
                  vcuda::LaneVec<std::uint32_t> iota;
                  w.for_lanes(mask, [&](int l) {
                    iota[l] = base + static_cast<std::uint32_t>(l);
                  });
                  wl_out.st_warp_c(w, mask, base, iota.v);
                });
          });
        });
        size_h[0] = all;
      }
      in_size = size_h[0];
      std::swap(wl_in, wl_out);
      if constexpr (kDet) std::swap(cur, nxt);
    } else {
      const bool any = flag_h[0] != 0;
      if constexpr (kDet) std::swap(cur, nxt);
      if (!any) break;
    }
  }

  RunResult result;
  result.iterations = itr;
  result.converged = converged;
  result.seconds = dev.elapsed_seconds();
  const std::uint32_t* final_vals = cur.raw().data();
  result.output.labels.assign(final_vals, final_vals + n);
  return result;
}

/// Instantiates and registers every valid virtual-CUDA style combination of
/// the given relaxation problem.
template <typename Problem>
void register_relax_variants() {
  for_values<Flow::Vertex, Flow::Edge>([&]<Flow FL>() {
    for_values<Drive::Topology, Drive::DataDup, Drive::DataNoDup>(
        [&]<Drive DR>() {
          for_values<Direction::Push, Direction::Pull>([&]<Direction DI>() {
            for_values<Update::ReadWrite, Update::ReadModifyWrite>(
                [&]<Update UP>() {
                  for_values<Determinism::NonDet, Determinism::Det>(
                      [&]<Determinism DE>() {
                        for_values<Persistence::NonPersistent,
                                   Persistence::Persistent>(
                            [&]<Persistence PE>() {
                              for_values<Granularity::Thread,
                                         Granularity::Warp,
                                         Granularity::Block>(
                                  [&]<Granularity GR>() {
                                    for_values<AtomicsLib::Classic,
                                               AtomicsLib::CudaAtomic>(
                                        [&]<AtomicsLib AL>() {
                                          constexpr StyleConfig kCfg{
                                              .flow = FL, .drive = DR,
                                              .dir = DI, .upd = UP,
                                              .det = DE, .pers = PE,
                                              .gran = GR, .alib = AL};
                                          if constexpr (is_valid(
                                                  Model::Cuda,
                                                  Problem::kAlgo, kCfg)) {
                                            Registry::instance().add(Variant{
                                                Model::Cuda, Problem::kAlgo,
                                                kCfg,
                                                program_name(Model::Cuda,
                                                             Problem::kAlgo,
                                                             kCfg),
                                                &relax_run<Problem, kCfg>});
                                          }
                                        });
                                  });
                            });
                      });
                });
          });
        });
  });
}

}  // namespace indigo::variants::vc
