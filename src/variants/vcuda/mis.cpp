// Virtual-CUDA maximal-independent-set variants.
//
// Thread-granularity kernels decide a vertex per thread. Warp/block
// granularity kernels follow the real CUDA shape: the group's lanes scan
// the candidate's neighbourhood in strides, publishing "saw an In
// neighbour"/"saw a live higher-priority neighbour" flags in shared memory,
// a barrier separates the scan from the decision, the group leader decides,
// and (push style) a final strided region knocks the neighbours out.
// Edge-based MIS is a two-kernel-per-round pipeline (arc scan + vertex
// decision), thread granularity only.
#include <span>
#include <stdexcept>
#include <vector>

#include "variants/vcuda/vc_common.hpp"

namespace indigo::variants::vc {
namespace {

template <StyleConfig C>
RunResult mis_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kData = C.drive != Drive::Topology;
  constexpr bool kEdge = C.flow == Flow::Edge;
  constexpr bool kPull = C.dir == Direction::Pull;
  constexpr bool kDet = C.det == Determinism::Det;
  using K = Kinds<C.alib>;

  vcuda::Device dev(opts.device != nullptr ? *opts.device : default_device());
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();

  std::vector<std::uint32_t> st_a(n, kMisUndecided), st_b;
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());
  auto srcl = dev.array(g.src_list());
  // Spelled-out span types keep the arrays the Kinds<> accessors touch
  // non-dependent, so calls like cur.ld<K::kLd>(...) need no `template`.
  auto cur = dev.array(std::span<std::uint32_t>(st_a));
  auto nxt = cur;
  if constexpr (kDet) {
    st_b.assign(n, kMisUndecided);  // st_a is still all-undecided here
    nxt = dev.array(std::span(st_b));
  }

  std::vector<std::uint32_t> blocked_h;
  vcuda::DeviceArray<std::uint32_t> blocked;
  if constexpr (kEdge) {
    blocked_h.assign(n, 0);
    blocked = dev.array(std::span(blocked_h));
  }

  std::vector<std::uint32_t> wl_a, wl_b, stat_h, size_h(1, 0), flag_h(1, 0);
  vcuda::DeviceArray<std::uint32_t> wl_in, wl_out, stat;
  auto wl_size = dev.array(std::span<std::uint32_t>(size_h));
  auto changed = dev.array(std::span<std::uint32_t>(flag_h));
  std::uint32_t in_size = 0;
  if constexpr (kData) {
    wl_a.resize(n);
    wl_b.resize(n);
    wl_in = dev.array(std::span(wl_a));
    wl_out = dev.array(std::span(wl_b));
    stat_h.assign(n, 0);
    stat = dev.array(std::span(stat_h));
    const std::uint32_t grid = grid_for<Granularity::Thread, C.pers>(dev, n);
    dev.launch(grid, kBD, [&](vcuda::Block& blk) {
      blk.for_each_warp([&](vcuda::WarpCtx& w) {
        for_items_warp<C.pers>(
            w, n, [&](vcuda::WarpCtx::Mask mask, std::uint32_t vbase) {
              vcuda::LaneVec<std::uint32_t> vals;
              w.for_lanes(mask, [&](int l) {
                vals[l] = vbase + static_cast<std::uint32_t>(l);
              });
              wl_in.st_warp_c(w, mask, vbase, vals.v);
            });
      });
    });
    in_size = n;
  }

  std::uint32_t itr = 0;
  bool converged = true;
  constexpr Granularity kGran = kEdge ? Granularity::Thread : C.gran;

  while (true) {
    ++itr;
    if (itr > kMaxIterations) {
      converged = false;
      break;
    }
    flag_h[0] = 0;
    if constexpr (kDet) {
      const std::uint32_t grid = grid_for<Granularity::Thread, C.pers>(dev, n);
      dev.launch(grid, kBD, [&](vcuda::Block& blk) {
        blk.for_each_warp([&](vcuda::WarpCtx& w) {
          for_items_warp<C.pers>(
              w, n, [&](vcuda::WarpCtx::Mask mask, std::uint32_t vbase) {
                vcuda::LaneVec<std::uint32_t> vals;
                cur.ld_warp_c(w, mask, vbase, vals.v);
                nxt.st_warp_c(w, mask, vbase, vals.v);
              });
        });
      });
    }

    if constexpr (kEdge) {
      // Kernel 1 over arcs: In -> Out propagation and blocker stamps.
      // Compat holdout: the two branch arms emit stores to *different*
      // arrays (nxt+changed vs blocked) at the same per-lane op indices, so
      // a lane-loop body would have to split them into separate batches and
      // the per-lane engine's mixed coalescing groups cannot be reproduced.
      // NonDet additionally aliases nxt == cur, so sibling lanes' guard
      // loads observe each other's same-region stores in per-lane order.
      const std::uint32_t grid1 = grid_for<kGran, C.pers>(dev, m);
      dev.launch(grid1, kBD, [&](vcuda::Block& blk) {
        blk.for_each_thread([&](vcuda::Thread& t) {
          for_items<kGran, C.pers>(
              t, m, [&](std::uint32_t e, std::uint32_t, std::uint32_t) {
                const vid_t a = srcl.ld(t, e), b = col.ld(t, e);
                const vid_t from = kPull ? b : a;
                const vid_t to = kPull ? a : b;
                const std::uint32_t sf = cur.ld<K::kLd>(t, from);
                if (cur.ld<K::kLd>(t, to) != kMisUndecided) return;
                if (sf == kMisIn) {
                  nxt.st<K::kSt>(t, to, kMisOut);
                  changed.st<K::kSt>(t, 0, 1u);
                } else if (sf != kMisOut && mis_beats(from, to)) {
                  blocked.st<K::kSt>(t, to, itr);
                }
              });
        });
      });
      // Kernel 2 over vertices: unblocked survivors join. The guard chain
      // is a pure prefix-exit sequence over lane-owned slots, so the
      // lane-loop form just refines the live mask after each load.
      const std::uint32_t grid2 = grid_for<Granularity::Thread, C.pers>(dev, n);
      dev.launch(grid2, kBD, [&](vcuda::Block& blk) {
        blk.for_each_warp([&](vcuda::WarpCtx& w) {
          for_items_warp<C.pers>(
              w, n, [&](vcuda::WarpCtx::Mask m0, std::uint32_t vbase) {
                vcuda::LaneVec<std::uint32_t> v, sv;
                w.for_lanes(m0, [&](int l) {
                  v[l] = vbase + static_cast<std::uint32_t>(l);
                });
                cur.ld_warp<K::kLd>(w, m0, v.v, sv.v);
                const auto m1 = w.where(
                    m0, [&](int l) { return sv[l] == kMisUndecided; });
                nxt.ld_warp<K::kLd>(w, m1, v.v, sv.v);
                const auto m2 = w.where(
                    m1, [&](int l) { return sv[l] == kMisUndecided; });
                blocked.ld_warp<K::kLd>(w, m2, v.v, sv.v);
                const auto m3 =
                    w.where(m2, [&](int l) { return sv[l] != itr; });
                vcuda::LaneVec<std::uint32_t> in, one, zero;
                w.for_lanes(m3, [&](int l) {
                  in[l] = kMisIn;
                  one[l] = 1u;
                  zero[l] = 0u;
                });
                nxt.st_warp<K::kSt>(w, m3, v.v, in.v);
                changed.st_warp<K::kSt>(w, m3, zero.v, one.v);
              });
        });
      });
    } else if constexpr (kGran == Granularity::Thread) {
      const std::uint32_t items = kData ? in_size : n;
      if constexpr (kData) {
        if (in_size == 0) break;
        size_h[0] = 0;
      }
      const std::uint32_t grid = grid_for<kGran, C.pers>(dev, items);
      // Compat holdout: each lane walks its own vertex's adjacency list with
      // a data-dependent break, then emits decision stores at an op index
      // that depends on where (or whether) the break fired — sibling lanes'
      // op streams diverge mid-stream, so there is no common batch structure
      // and no bit-identical lane-loop form (see docs/VCUDA_MODEL.md).
      dev.launch(grid, kBD, [&](vcuda::Block& blk) {
        blk.for_each_thread([&](vcuda::Thread& t) {
          for_items<kGran, C.pers>(
              t, items, [&](std::uint32_t i, std::uint32_t, std::uint32_t) {
                const vid_t v = kData ? wl_in.ld(t, i) : i;
                if (cur.ld<K::kLd>(t, v) != kMisUndecided) return;
                const std::uint32_t beg = row.ld(t, v);
                const std::uint32_t end = row.ld(t, v + 1);
                bool has_in = false, is_blocked = false;
                for (std::uint32_t e = beg; e < end; ++e) {
                  const vid_t u = col.ld(t, e);
                  const std::uint32_t su = cur.ld<K::kLd>(t, u);
                  if (su == kMisIn) {
                    has_in = true;
                    break;
                  }
                  if (su != kMisOut && mis_beats(u, v)) is_blocked = true;
                }
                if (has_in) {
                  nxt.st<K::kSt>(t, v, kMisOut);
                  changed.st<K::kSt>(t, 0, 1u);
                  return;
                }
                if (is_blocked) {
                  if constexpr (kData) {  // still undecided: requeue
                    if (stat.fetch_max<K::kRmw>(t, v, itr) != itr) {
                      const std::uint32_t idx =
                          wl_size.fetch_add<K::kRmw>(t, 0, 1u);
                      wl_out.st(t, idx, v);
                    }
                  }
                  return;
                }
                nxt.st<K::kSt>(t, v, kMisIn);
                changed.st<K::kSt>(t, 0, 1u);
                if constexpr (!kPull) {
                  for (std::uint32_t e = beg; e < end; ++e) {
                    nxt.st<K::kSt>(t, col.ld(t, e), kMisOut);
                  }
                }
              });
        });
      });
      if constexpr (kData) {
        in_size = size_h[0];
        std::swap(wl_in, wl_out);
      }
    } else {
      // Warp/block granularity, topology or worklist driven: cooperative
      // scan -> barrier -> leader decision -> (push) strided knock-out.
      const std::uint32_t items = kData ? in_size : n;
      if constexpr (kData) {
        if (in_size == 0) break;
        size_h[0] = 0;
      }
      const std::uint32_t grid = grid_for<kGran, C.pers>(dev, items);
      constexpr bool kWarpG = kGran == Granularity::Warp;
      const std::uint32_t groups_per_block = kWarpG ? kBD / kWS : 1;
      const std::uint32_t groups_total =
          kWarpG ? grid * groups_per_block : grid;
      const std::uint32_t batches =
          C.pers == Persistence::Persistent
              ? (items + groups_total - 1) / groups_total
              : 1;
      dev.launch(grid, kBD, [&](vcuda::Block& blk) {
        auto has_in = blk.shared_array<std::uint32_t>(groups_per_block);
        auto blkd = blk.shared_array<std::uint32_t>(groups_per_block);
        auto entered = blk.shared_array<std::uint32_t>(groups_per_block);
        for (std::uint32_t batch = 0; batch < batches; ++batch) {
          // Region A resets the group's flags, B scans the neighbourhood,
          // C lets the leader decide and D (push) knocks the neighbours out.
          // B's data-dependent break (a lane that sees an In neighbour
          // leaves the scan) maps onto edge_walk's mask refinement: the body
          // drops those lanes from the returned live mask at the end of the
          // round. The shared-flag publishes are free (unrecorded) and the
          // conditional work(1) is a charge-only suffix, so every round's
          // recorded ops stay batch-aligned.
          const auto warp_item = [&](vcuda::WarpCtx& w, std::uint32_t& gib) {
            gib = kWarpG ? w.tid(0) / kWS : 0;
            const std::uint32_t group_global =
                kWarpG ? w.gidx_base() / kWS : w.block_idx();
            return group_global + batch * groups_total;
          };
          // Region A: reset flags (leaders).
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            std::uint32_t gib = 0;
            (void)warp_item(w, gib);
            if (!kWarpG && w.tid(0) != 0) return;
            has_in[gib] = 0;
            blkd[gib] = 0;
            entered[gib] = 0;
            w.work(vcuda::WarpCtx::Mask{1}, 3);
          });
          blk.sync();
          // Region B: strided neighbourhood scan (ragged edge walk).
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            std::uint32_t gib = 0;
            const std::uint32_t item = warp_item(w, gib);
            if (item >= items) return;
            // The item's vertex, state and CSR row are warp-uniform loads:
            // no lane writes them in this region.
            const vcuda::WarpCtx::Mask all = w.full();
            std::uint32_t v = item;
            if constexpr (kData) v = wl_in.ld_warp_u(w, all, item);
            if (cur.ld_warp_u<K::kLd>(w, all, v) != kMisUndecided) return;
            const std::uint32_t beg = row.ld_warp_u(w, all, v);
            const std::uint32_t end = row.ld_warp_u(w, all, v + 1);
            vcuda::LaneVec<std::uint32_t> e, fin;
            w.for_lanes(all, [&](int l) {
              e[l] = beg + (kWarpG ? static_cast<std::uint32_t>(l) : w.tid(l));
              fin[l] = end;
            });
            const std::uint32_t stride = kWarpG ? kWS : w.block_dim();
            vcuda::LaneVec<std::uint32_t> u, su;
            w.edge_walk(
                all, e, fin, stride, [&](vcuda::WarpCtx::Mask live) {
                  col.ld_warp(w, live, e.v, u.v);
                  cur.ld_warp<K::kLd>(w, live, u.v, su.v);
                  const auto m_in =
                      w.where(live, [&](int l) { return su[l] == kMisIn; });
                  const auto m_blk = w.where(live, [&](int l) {
                    return su[l] != kMisIn && su[l] != kMisOut &&
                           mis_beats(u[l], v);
                  });
                  w.for_lanes(m_in, [&](int) { has_in[gib] = 1; });
                  w.for_lanes(m_blk, [&](int) { blkd[gib] = 1; });
                  w.work(m_in | m_blk, 1);
                  return static_cast<vcuda::WarpCtx::Mask>(live & ~m_in);
                });
          });
          blk.sync();
          // Region C: leader decision (singleton batches reproduce the
          // per-lane leader's op-for-op stream).
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            std::uint32_t gib = 0;
            const std::uint32_t item = warp_item(w, gib);
            if (!kWarpG && w.tid(0) != 0) return;
            if (item >= items) return;
            const vcuda::WarpCtx::Mask lead = 1;
            vcuda::LaneVec<std::uint32_t> vv, sv;
            std::uint32_t v;
            if constexpr (kData) {
              vv[0] = item;
              wl_in.ld_warp(w, lead, vv.v, sv.v);
              v = sv[0];
            } else {
              v = item;
            }
            vv[0] = v;
            cur.ld_warp<K::kLd>(w, lead, vv.v, sv.v);
            if (sv[0] != kMisUndecided) return;
            vcuda::LaneVec<std::uint32_t> val, idx0;
            if (has_in[gib] != 0) {
              val[0] = kMisOut;
              nxt.st_warp<K::kSt>(w, lead, vv.v, val.v);
              idx0[0] = 0;
              val[0] = 1u;
              changed.st_warp<K::kSt>(w, lead, idx0.v, val.v);
              return;
            }
            if (blkd[gib] != 0) {
              if constexpr (kData) {
                vcuda::LaneVec<std::uint32_t> old;
                val[0] = itr;
                stat.fetch_max_warp<K::kRmw>(w, lead, vv.v, val.v, old.v);
                if (old[0] != itr) {
                  idx0[0] = 0;
                  val[0] = 1u;
                  wl_size.fetch_add_warp<K::kRmw>(w, lead, idx0.v, val.v,
                                                  old.v);
                  idx0[0] = old[0];
                  val[0] = v;
                  wl_out.st_warp(w, lead, idx0.v, val.v);
                }
              }
              return;
            }
            entered[gib] = 1;
            val[0] = kMisIn;
            nxt.st_warp<K::kSt>(w, lead, vv.v, val.v);
            idx0[0] = 0;
            val[0] = 1u;
            changed.st_warp<K::kSt>(w, lead, idx0.v, val.v);
          });
          blk.sync();
          // Region D (push): the whole group knocks the neighbours out.
          if constexpr (!kPull) {
            blk.for_each_warp([&](vcuda::WarpCtx& w) {
              std::uint32_t gib = 0;
              const std::uint32_t item = warp_item(w, gib);
              if (item >= items || entered[gib] == 0) return;
              const vcuda::WarpCtx::Mask all = w.full();
              std::uint32_t v = item;
              if constexpr (kData) v = wl_in.ld_warp_u(w, all, item);
              const std::uint32_t beg = row.ld_warp_u(w, all, v);
              const std::uint32_t end = row.ld_warp_u(w, all, v + 1);
              vcuda::LaneVec<std::uint32_t> e, fin, u, outv;
              w.for_lanes(all, [&](int l) {
                e[l] = beg +
                       (kWarpG ? static_cast<std::uint32_t>(l) : w.tid(l));
                fin[l] = end;
                outv[l] = kMisOut;
              });
              const std::uint32_t stride = kWarpG ? kWS : w.block_dim();
              w.edge_walk(
                  all, e, fin, stride, [&](vcuda::WarpCtx::Mask live) {
                    col.ld_warp(w, live, e.v, u.v);
                    nxt.st_warp<K::kSt>(w, live, u.v, outv.v);
                    return live;
                  });
            });
            blk.sync();
          }
        }
      });
      if constexpr (kData) {
        in_size = size_h[0];
        std::swap(wl_in, wl_out);
      }
    }

    if constexpr (kDet) std::swap(cur, nxt);
    if constexpr (!kData) {
      if (flag_h[0] == 0) break;
    } else {
      if constexpr (kEdge) {
        if (flag_h[0] == 0) break;  // unreachable: edge MIS is topo-only
      }
    }
  }

  RunResult result;
  result.iterations = itr;
  result.converged = converged;
  result.seconds = dev.elapsed_seconds();
  result.output.labels.resize(n);
  const std::uint32_t* final_vals = cur.raw().data();
  for (vid_t v = 0; v < n; ++v) {
    result.output.labels[v] = final_vals[v] == kMisIn ? 1 : 0;
  }
  return result;
}

}  // namespace

void register_vcuda_mis() {
  for_values<Flow::Vertex, Flow::Edge>([&]<Flow FL>() {
    for_values<Drive::Topology, Drive::DataNoDup>([&]<Drive DR>() {
      for_values<Direction::Push, Direction::Pull>([&]<Direction DI>() {
        for_values<Determinism::NonDet, Determinism::Det>(
            [&]<Determinism DE>() {
              for_values<Persistence::NonPersistent, Persistence::Persistent>(
                  [&]<Persistence PE>() {
                    for_values<Granularity::Thread, Granularity::Warp,
                               Granularity::Block>([&]<Granularity GR>() {
                      for_values<AtomicsLib::Classic, AtomicsLib::CudaAtomic>(
                          [&]<AtomicsLib AL>() {
                            constexpr StyleConfig kCfg{
                                .flow = FL, .drive = DR, .dir = DI,
                                .det = DE, .pers = PE, .gran = GR,
                                .alib = AL};
                            if constexpr (is_valid(Model::Cuda,
                                                   Algorithm::MIS, kCfg)) {
                              Registry::instance().add(Variant{
                                  Model::Cuda, Algorithm::MIS, kCfg,
                                  program_name(Model::Cuda, Algorithm::MIS,
                                               kCfg),
                                  &mis_run<kCfg>});
                            }
                          });
                    });
                  });
            });
      });
    });
  });
}

}  // namespace indigo::variants::vc
