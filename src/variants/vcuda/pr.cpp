// Virtual-CUDA PageRank variants.
//
// Axes: pull (non-deterministic in-place or deterministic two-array) vs
// push (deterministic scatter), persistent threads, thread/warp/block
// granularity, and the three GPU sum-reduction styles for the per-iteration
// L1 residual (paper Listing 10): global-add (every producer hits the
// global counter), block-add (shared-memory block counter, one global add
// per block), and reduction-add (warp+block tree, then one global add).
// PR is vertex-based, topology-driven, and classic-atomics-only (no float
// cuda::atomic, Section 5.1).
#include <cmath>
#include <span>
#include <vector>

#include "variants/vcuda/vc_common.hpp"

namespace indigo::variants::vc {
namespace {

template <StyleConfig C>
RunResult pr_run(const Graph& g, const RunOptions& opts) {
  constexpr bool kPush = C.dir == Direction::Push;
  constexpr bool kDet = C.det == Determinism::Det;
  constexpr GpuReduction kRed = C.gred;

  vcuda::Device dev(opts.device != nullptr ? *opts.device : default_device());
  const vid_t n = g.num_vertices();
  if (n == 0) return RunResult{};
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());

  const float base = static_cast<float>((1.0 - kPrDamping) / n);
  std::vector<float> rank_a(n, 1.0f / static_cast<float>(n)), rank_b;
  auto cur = dev.array(std::span(rank_a));
  auto nxt = cur;
  if constexpr (kDet || kPush) {
    rank_b.assign(n, 1.0f / static_cast<float>(n));  // rank_a is untouched yet
    nxt = dev.array(std::span(rank_b));
  } else {
    // Pull + non-deterministic updates ranks in place: plain stores of
    // fresh values that move non-monotonically between sweeps while
    // neighbors plain-read them. That is this style's contract (paper
    // Listing 5a applied to PR), so tell racecheck it is racy by design.
    dev.declare_racy(rank_a.data(), rank_a.size() * sizeof(float));
  }

  std::vector<double> res_h(1, 0.0);
  auto res = dev.array(std::span(res_h));

  // Folds `delta` into the residual with the reduction style under study.
  // `slot` is this thread's shared-memory accumulator, `block_ctr` the
  // block-wide one; the block epilogue below drains them.
  auto fold = [&](vcuda::Thread& t, std::span<double> slots,
                  double& block_ctr, vcuda::Block& blk, double delta) {
    if constexpr (kRed == GpuReduction::GlobalAdd) {
      res.fetch_add(t, 0, delta);  // Listing 10a
    } else if constexpr (kRed == GpuReduction::BlockAdd) {
      blk.atomic_add_block(t, block_ctr, delta);  // Listing 10b
    } else {
      slots[t.thread_idx()] += delta;  // Listing 10c, local phase
      t.work(1);
    }
  };

  // Drains the block/tree accumulators after the main region(s).
  auto epilogue = [&](vcuda::Block& blk, std::span<double> slots,
                      double& block_ctr) {
    drain_reduction<kRed, double>(
        blk, slots, block_ctr,
        [&](vcuda::Thread& t, double total) { res.fetch_add(t, 0, total); });
  };

  // Lane-batched fold: every lane of `mask` folds delta[lane] with the
  // reduction style, charged and applied exactly like popc(mask) scalar
  // fold() calls in per-lane engine order (fetch_add_warp applies the
  // GlobalAdd adds to res[0] in that order, so the FP accumulation order
  // matches).
  auto fold_w = [&](vcuda::WarpCtx& w, vcuda::Block& blk,
                    vcuda::WarpCtx::Mask mask, std::span<double> slots,
                    double& block_ctr, const vcuda::LaneVec<double>& delta) {
    if constexpr (kRed == GpuReduction::GlobalAdd) {
      vcuda::LaneVec<std::uint32_t> zero;
      w.for_lanes(mask, [&](int l) { zero[l] = 0; });
      res.fetch_add_warp(w, mask, zero.v, delta.v);
    } else if constexpr (kRed == GpuReduction::BlockAdd) {
      blk.atomic_add_block_warp(w, mask, block_ctr, delta.v);
    } else {
      w.for_lanes(mask, [&](int l) { slots[w.tid(l)] += delta[l]; });
      w.work(mask, 1);
    }
  };

  constexpr bool kWarpG = C.gran == Granularity::Warp;
  constexpr bool kThreadG = C.gran == Granularity::Thread;

  std::uint64_t itr = 0;
  bool converged = false;
  while (itr < kMaxIterations) {
    ++itr;
    res_h[0] = 0.0;

    if constexpr (kPush) {
      // Kernel 1: reset the target array to the teleport base. Elementwise
      // broadcast store — runs in lane-loop form (see WarpCtx).
      const std::uint32_t grid0 = grid_for<Granularity::Thread, C.pers>(dev, n);
      dev.launch(grid0, kBD, [&](vcuda::Block& blk) {
        blk.for_each_warp([&](vcuda::WarpCtx& w) {
          for_items_warp<C.pers>(
              w, n, [&](vcuda::WarpCtx::Mask mask, std::uint32_t vbase) {
                nxt.st_warp_cv(w, mask, vbase, base);
              });
        });
      });
      // Kernel 2: scatter shares along edges (granularity under study).
      // Warp/Block blocks that one_round_block accepts (persistent ones
      // too, when each group gets at most one vertex) run in lane-loop
      // form: each lane adds at most one share, so the float atomic_adds of
      // a warp form one batch, which fetch_add_warp applies in per-lane
      // order. A warp with no edge lane stops after its uniform loads.
      // Everything else stays per-lane: there a lane's round-2 add and a
      // sibling's round-1 add to the same vertex cross batches (thread
      // granularity, persistent groups with two or more vertices,
      // multi-round blocks), and batching would reorder a floating-point
      // accumulation, which is not bit-identical (ULP drift) — and PR's
      // verifier tolerance is exactly what bit-identity testing must not
      // lean on. On either engine a Block-granularity block replays its
      // edge-less warps (first_edgeless_warp).
      constexpr bool kOneRound = !kThreadG;
      auto scatter_warp = [&](vcuda::WarpCtx& w, std::uint32_t v,
                              std::uint32_t off0) {
        const vcuda::WarpCtx::Mask all = w.full();
        const std::uint32_t beg = row.ld_warp_u(w, all, v);
        const std::uint32_t end = row.ld_warp_u(w, all, v + 1);
        if (beg == end) return;
        const float share = static_cast<float>(kPrDamping) *
                            cur.ld_warp_u(w, all, v) /
                            static_cast<float>(end - beg);
        const vcuda::WarpCtx::Mask me =
            w.mask_first(end - beg > off0 ? end - beg - off0 : 0);
        if (me == 0) return;
        vcuda::LaneVec<std::uint32_t> ev{};
        vcuda::LaneVec<float> sharev{};
        w.for_lanes(me, [&](int l) {
          ev[l] = beg + off0 + static_cast<std::uint32_t>(l);
          sharev[l] = share;
        });
        vcuda::LaneVec<vid_t> uv;
        col.ld_warp(w, me, ev.v, uv.v);
        nxt.fetch_add_warp(w, me, uv.v, sharev.v);
      };
      const std::uint32_t grid1 = grid_for<C.gran, C.pers>(dev, n);
      const auto edges_of = [&](std::uint32_t v) { return g.degree(v); };
      dev.launch(grid1, kBD, [&](vcuda::Block& blk) {
        if constexpr (kOneRound) {
          if (run_one_round<C.gran, C.pers>(blk, n, edges_of, scatter_warp)) {
            return;
          }
        }
        auto region = [&](vcuda::Thread& t) {
          for_items<C.gran, C.pers>(
              t, n,
              [&](std::uint32_t v, std::uint32_t off, std::uint32_t stride) {
                const std::uint32_t beg = row.ld(t, v);
                const std::uint32_t end = row.ld(t, v + 1);
                if (beg == end) return;
                const float share = static_cast<float>(kPrDamping) *
                                    cur.ld(t, v) /
                                    static_cast<float>(end - beg);
                for (std::uint32_t e = beg + off; e < end; e += stride) {
                  nxt.fetch_add(t, col.ld(t, e), share);
                }
              });
        };
        if constexpr (C.gran == Granularity::Block) {
          blk.for_each_thread(region,
                              first_edgeless_warp<C.pers>(blk, n, edges_of));
        } else {
          blk.for_each_thread(region);
        }
      });
      // Kernel 3: residual with the reduction style (thread granularity;
      // an elementwise map regardless of the gather/scatter granularity).
      // Lane-loop form for every non-persistent style (the res[0] adds of
      // one warp land in a single batch, which fetch_add_warp applies in
      // per-lane order) and for persistent ReductionAdd (each
      // lane folds into its own shared slot). Persistent GlobalAdd/BlockAdd
      // stay per-lane: a persistent lane folds into the SHARED counter once
      // per item, so lane A's item-2 add and lane B's item-1 add cross
      // batches — batching reorders a floating-point accumulation across
      // items, which no lane order within a batch can undo.
      constexpr bool kResidLaneLoop =
          C.pers == Persistence::NonPersistent ||
          kRed == GpuReduction::ReductionAdd;
      const std::uint32_t grid2 = grid_for<Granularity::Thread, C.pers>(dev, n);
      dev.launch(grid2, kBD, [&](vcuda::Block& blk) {
        auto slots = blk.shared_array<double>(kBD);
        auto block_ctr = blk.shared_array<double>(1);
        if constexpr (kResidLaneLoop) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            for_items_warp<C.pers>(
                w, n, [&](vcuda::WarpCtx::Mask mask, std::uint32_t vbase) {
                  vcuda::LaneVec<float> nv, cv;
                  nxt.ld_warp_c(w, mask, vbase, nv.v);
                  cur.ld_warp_c(w, mask, vbase, cv.v);
                  vcuda::LaneVec<double> delta;
                  w.for_lanes(mask, [&](int l) {
                    delta[l] =
                        std::abs(static_cast<double>(nv[l]) - cv[l]);
                  });
                  fold_w(w, blk, mask, slots, block_ctr[0], delta);
                });
          });
        } else {
          blk.for_each_thread([&](vcuda::Thread& t) {
            for_items<Granularity::Thread, C.pers>(
                t, n, [&](std::uint32_t v, std::uint32_t, std::uint32_t) {
                  const double delta = std::abs(
                      static_cast<double>(nxt.ld(t, v)) - cur.ld(t, v));
                  fold(t, slots, block_ctr[0], blk, delta);
                });
          });
        }
        epilogue(blk, slots, block_ctr[0]);
      });
    } else {
      // Pull: gather with the granularity under study. Warp/block groups
      // accumulate per-thread partials in shared memory, a barrier
      // separates the scan from the leader's combine.
      const std::uint32_t grid = grid_for<C.gran, C.pers>(dev, n);
      const std::uint32_t groups_per_block = kWarpG ? kBD / kWS : 1;
      const std::uint32_t groups_total =
          kThreadG ? 0
                   : (kWarpG ? grid * groups_per_block : grid);
      const std::uint32_t batches =
          kThreadG ? 1
          : C.pers == Persistence::Persistent
              ? (n + groups_total - 1) / groups_total
              : 1;
      dev.launch(grid, kBD, [&](vcuda::Block& blk) {
        auto slots = blk.shared_array<double>(kBD);
        auto block_ctr = blk.shared_array<double>(1);
        if constexpr (kThreadG) {
          // Stays per-lane: the post-loop tail (cur.ld, nxt.st, fold) lands
          // at op index 2 + 4 * deg(v), so two lanes with different degrees
          // put their tails at different program points. The per-lane
          // engine groups accesses by op index; a lane-loop body would have
          // to batch the tails together, regrouping the accesses and
          // changing what coalesces — not bit-identical by construction.
          blk.for_each_thread([&](vcuda::Thread& t) {
            for_items<C.gran, C.pers>(
                t, n,
                [&](std::uint32_t v, std::uint32_t, std::uint32_t) {
                  double sum = 0.0;
                  const std::uint32_t beg = row.ld(t, v);
                  const std::uint32_t end = row.ld(t, v + 1);
                  for (std::uint32_t e = beg; e < end; ++e) {
                    const vid_t u = col.ld(t, e);
                    const std::uint32_t du =
                        row.ld(t, u + 1) - row.ld(t, u);
                    sum += static_cast<double>(cur.ld(t, u)) / du;
                    t.work(2);
                  }
                  const auto fresh =
                      static_cast<float>(base + kPrDamping * sum);
                  const double delta = std::abs(
                      static_cast<double>(fresh) - cur.ld(t, v));
                  nxt.st(t, v, fresh);
                  fold(t, slots, block_ctr[0], blk, delta);
                });
          });
          epilogue(blk, slots, block_ctr[0]);
        } else {
          // Warp/block granularity. Region A is a uniform-per-round ragged
          // edge walk (4 loads + work per round, lanes leave only by cursor
          // exhaustion, and the strided offsets make every live mask a
          // lane-prefix), region B is a leader singleton.
          auto partials = blk.shared_array<double>(kBD);
          const std::uint32_t stride = kWarpG ? kWS : kBD;
          for (std::uint32_t batch = 0; batch < batches; ++batch) {
            // Region A: strided partial sums.
            blk.for_each_warp([&](vcuda::WarpCtx& w) {
              const vcuda::WarpCtx::Mask all = w.full();
              w.for_lanes(all, [&](int l) { partials[w.tid(l)] = 0.0; });
              const std::uint32_t group =
                  (kWarpG ? w.gidx_base() / kWS : w.block_idx()) +
                  batch * groups_total;
              if (group >= n) return;
              const vid_t v = group;
              const std::uint32_t beg = row.ld_warp_u(w, all, v);
              const std::uint32_t end = row.ld_warp_u(w, all, v + 1);
              vcuda::LaneVec<std::uint32_t> e, fin;
              vcuda::LaneVec<double> sum;
              w.for_lanes(all, [&](int l) {
                const std::uint32_t off =
                    kWarpG ? static_cast<std::uint32_t>(l) : w.tid(l);
                e[l] = beg + off;
                fin[l] = end;
                sum[l] = 0.0;
              });
              w.edge_walk(
                  all, e, fin, stride, [&](vcuda::WarpCtx::Mask live) {
                    vcuda::LaneVec<vid_t> u;
                    col.ld_warp(w, live, e.v, u.v);
                    vcuda::LaneVec<std::uint32_t> up1, du1, du0;
                    w.for_lanes(live, [&](int l) { up1[l] = u[l] + 1; });
                    row.ld_warp(w, live, up1.v, du1.v);
                    row.ld_warp(w, live, u.v, du0.v);
                    vcuda::LaneVec<float> cu;
                    cur.ld_warp(w, live, u.v, cu.v);
                    w.for_lanes(live, [&](int l) {
                      sum[l] += static_cast<double>(cu[l]) /
                                (du1[l] - du0[l]);
                    });
                    w.work(live, 2);
                    return live;
                  });
              w.for_lanes(all, [&](int l) { partials[w.tid(l)] = sum[l]; });
            });
            blk.sync();
            // Region B: group leaders combine and write the fresh score.
            blk.for_each_warp([&](vcuda::WarpCtx& w) {
              if (!kWarpG && w.tid(0) != 0) return;  // block leader only
              const std::uint32_t group =
                  (kWarpG ? w.gidx_base() / kWS : w.block_idx()) +
                  batch * groups_total;
              if (group >= n) return;
              const vid_t v = group;
              const std::uint32_t width = kWarpG ? kWS : w.block_dim();
              const std::uint32_t first = kWarpG ? w.tid(0) : 0u;
              const vcuda::WarpCtx::Mask lead = 1;  // lane 0
              double sum = 0.0;
              for (std::uint32_t k = 0; k < width; ++k) {
                sum += partials[first + k];
              }
              // Tree combine cost (shuffle reduction in a real kernel).
              w.work(lead, 5 * 10.0);
              vcuda::LaneVec<std::uint32_t> vv;
              vv[0] = v;
              vcuda::LaneVec<float> cv;
              cur.ld_warp(w, lead, vv.v, cv.v);
              const auto fresh =
                  static_cast<float>(base + kPrDamping * sum);
              vcuda::LaneVec<double> delta;
              delta[0] =
                  std::abs(static_cast<double>(fresh) - cv[0]);
              vcuda::LaneVec<float> fv;
              fv[0] = fresh;
              nxt.st_warp(w, lead, vv.v, fv.v);
              fold_w(w, blk, lead, slots, block_ctr[0], delta);
            });
            blk.sync();
          }
          epilogue(blk, slots, block_ctr[0]);
        }
      });
    }

    if constexpr (kDet || kPush) std::swap(cur, nxt);
    if (res_h[0] < kPrEpsilon) {
      converged = true;
      break;
    }
  }

  RunResult result;
  result.iterations = itr;
  result.converged = converged;
  result.seconds = dev.elapsed_seconds();
  const float* final_vals = cur.raw().data();
  result.output.ranks.assign(final_vals, final_vals + n);
  return result;
}

}  // namespace

void register_vcuda_pr() {
  for_values<Direction::Push, Direction::Pull>([&]<Direction DI>() {
    for_values<Determinism::NonDet, Determinism::Det>([&]<Determinism DE>() {
      for_values<Persistence::NonPersistent, Persistence::Persistent>(
          [&]<Persistence PE>() {
            for_values<Granularity::Thread, Granularity::Warp,
                       Granularity::Block>([&]<Granularity GR>() {
              for_values<GpuReduction::GlobalAdd, GpuReduction::BlockAdd,
                         GpuReduction::ReductionAdd>([&]<GpuReduction RE>() {
                constexpr StyleConfig kCfg{.dir = DI, .det = DE, .pers = PE,
                                           .gran = GR, .gred = RE};
                if constexpr (is_valid(Model::Cuda, Algorithm::PR, kCfg)) {
                  Registry::instance().add(Variant{
                      Model::Cuda, Algorithm::PR, kCfg,
                      program_name(Model::Cuda, Algorithm::PR, kCfg),
                      &pr_run<kCfg>});
                }
              });
            });
          });
    });
  });
}

}  // namespace indigo::variants::vc
