// Shared machinery of the virtual-CUDA variant families: the style-driven
// access kinds (classic atomics vs cuda::atomic-with-defaults, paper 2.9), the
// granularity/persistence work-item loops (2.7, 2.8), and grid sizing.
#pragma once

#include <algorithm>
#include <cstdint>

#include "variants/common.hpp"
#include "vcuda/sim.hpp"

namespace indigo::variants::vc {

/// CUDA warp size; the simulator's DeviceSpecs use the same value.
inline constexpr std::uint32_t kWS = 32;
/// Block size used by all suite kernels (the paper's codes use a fixed
/// launch configuration; 256 is the common choice).
inline constexpr std::uint32_t kBD = 256;

/// The access kinds of an atomics library, for shared (non-topology) data:
/// Classic is plain loads/stores and classic atomics (Listing 9a);
/// CudaAtomic is cuda::atomic with DEFAULT scope/order (Listing 9b), whose
/// loads and stores are fenced and whose RMWs are drastically slower
/// (Section 5.1). Kernels pass them to DeviceArray's accessors; graph
/// topology arrays are never atomic and use the plain defaults.
template <AtomicsLib A>
struct Kinds {
  static constexpr vcuda::AccessKind kLd =
      A == AtomicsLib::Classic ? vcuda::AccessKind::Load
                               : vcuda::AccessKind::CudaAtomicLdSt;
  static constexpr vcuda::AccessKind kSt =
      A == AtomicsLib::Classic ? vcuda::AccessKind::Store
                               : vcuda::AccessKind::CudaAtomicLdSt;
  static constexpr vcuda::AccessKind kRmw =
      A == AtomicsLib::Classic ? vcuda::AccessKind::Atomic
                               : vcuda::AccessKind::CudaAtomicRmw;
};

/// Grid size for `items` work items under the granularity/persistence
/// styles. Persistent kernels use a device-filling grid and stride
/// (Listing 7a); non-persistent kernels launch one thread/warp/block per
/// item (Listing 7b).
template <Granularity G, Persistence P>
std::uint32_t grid_for(const vcuda::Device& dev, std::uint32_t items,
                       std::uint32_t bd = kBD) {
  if constexpr (P == Persistence::Persistent) {
    return dev.persistent_grid_dim(bd);
  }
  if constexpr (G == Granularity::Thread) {
    return (items + bd - 1) / bd;
  } else if constexpr (G == Granularity::Warp) {
    const std::uint64_t threads = static_cast<std::uint64_t>(items) * kWS;
    return static_cast<std::uint32_t>((threads + bd - 1) / bd);
  } else {
    return items;
  }
}

/// Runs fn(item, inner_offset, inner_stride) for every work item this
/// thread participates in. Thread granularity gives the whole inner loop
/// to one thread (Listing 8a); warp/block granularity strides the inner
/// loop across the warp's/block's threads (Listings 8b, 8c).
template <Granularity G, Persistence P, typename Fn>
void for_items(vcuda::Thread& t, std::uint32_t items, Fn&& fn) {
  if constexpr (G == Granularity::Thread) {
    if constexpr (P == Persistence::Persistent) {
      for (std::uint32_t i = t.gidx(); i < items; i += t.total_threads()) {
        fn(i, 0u, 1u);
      }
    } else {
      const std::uint32_t i = t.gidx();
      if (i < items) fn(i, 0u, 1u);
    }
  } else if constexpr (G == Granularity::Warp) {
    const std::uint32_t wid = t.gidx() / kWS;
    const auto lane = static_cast<std::uint32_t>(t.lane());
    if constexpr (P == Persistence::Persistent) {
      const std::uint32_t nwarps = t.total_threads() / kWS;
      for (std::uint32_t i = wid; i < items; i += nwarps) {
        fn(i, lane, kWS);
      }
    } else {
      if (wid < items) fn(wid, lane, kWS);
    }
  } else {
    if constexpr (P == Persistence::Persistent) {
      for (std::uint32_t i = t.block_idx(); i < items; i += t.grid_dim()) {
        fn(i, t.thread_idx(), t.block_dim());
      }
    } else {
      if (t.block_idx() < items) {
        fn(t.block_idx(), t.thread_idx(), t.block_dim());
      }
    }
  }
}

/// Lane-loop (de-SPMD) form of for_items<Granularity::Thread, P>: runs
/// fn(mask, base) for every warp-wide batch of work items, where lane l of
/// the batch owns item base + l and `mask` guards the `gidx < items` tail.
/// Batch-for-batch this visits exactly the item set the per-lane loop
/// visits (lane l of batch j has base + l == gidx + j * total_threads), so
/// elementwise kernels migrate between the two forms without any accounting
/// change. Only Thread granularity has a lane-loop form: warp/block
/// granularity already strides one item's inner loop across lanes.
template <Persistence P, typename Fn>
void for_items_warp(vcuda::WarpCtx& w, std::uint32_t items, Fn&& fn) {
  if constexpr (P == Persistence::Persistent) {
    for (std::uint32_t base = w.gidx_base(); base < items;
         base += w.total_threads()) {
      fn(w.mask_first(items - base), base);
    }
  } else {
    const std::uint32_t base = w.gidx_base();
    if (base < items) fn(w.mask_first(items - base), base);
  }
}

/// Lane-loop form of for_items<G, P> for Warp/Block granularity: one work
/// item's inner loop is strided across the warp's lanes, so the warp visits
/// items one at a time and fn(item, off0, stride) describes lane l's slice
/// as offsets off0 + l, off0 + l + stride, ... — exactly the offsets
/// for_items hands the per-lane threads (Warp: off0 = 0, stride = kWS;
/// Block: off0 = tid(0), stride = block_dim, every warp of the block sees
/// every item). Thread granularity has no per-item form; use the mask-based
/// for_items_warp above.
template <Granularity G, Persistence P, typename Fn>
void for_items_warp_gran(vcuda::WarpCtx& w, std::uint32_t items, Fn&& fn) {
  static_assert(G != Granularity::Thread,
                "Thread granularity uses the mask form (for_items_warp)");
  if constexpr (G == Granularity::Warp) {
    const std::uint32_t wid = w.gidx_base() / kWS;
    if constexpr (P == Persistence::Persistent) {
      const std::uint32_t nwarps = w.total_threads() / kWS;
      for (std::uint32_t i = wid; i < items; i += nwarps) fn(i, 0u, kWS);
    } else {
      if (wid < items) fn(wid, 0u, kWS);
    }
  } else {
    if constexpr (P == Persistence::Persistent) {
      for (std::uint32_t i = w.block_idx(); i < items; i += w.grid_dim()) {
        fn(i, w.tid(0), w.block_dim());
      }
    } else {
      if (w.block_idx() < items) fn(w.block_idx(), w.tid(0), w.block_dim());
    }
  }
}

/// Dispatch rule of the one-round vertex kernels. A Warp/Block-granularity
/// launch of `grid` kBD-thread blocks gives block `bidx` the work items
/// [first, first + groups) below `items`, first = bidx * groups (groups =
/// kBD / kWS warps for Warp, 1 for Block), and strides each item's edges
/// across its group's lanes. A persistent launch hands each group its next
/// item grid * groups later, so its block also needs first + grid * groups
/// >= items: then every group gets at most that one item, the item the
/// non-persistent launch gives it (a non-persistent grid covers every item
/// once, so it always passes). The block is one-round when, in addition,
/// every item's vertex (vertex_of(item)) has at most one edge per lane,
/// deg <= kWS (Warp) or kBD (Block): then each lane's k-th op is its
/// warp's k-th batch, and the lane-loop body (run_one_round) reproduces the
/// per-lane engine's op groups, charges and old-value chains exactly.
/// `in_place` styles (NonDet: one array read and written) also need no
/// self-loop, whose write a sibling lane's read of the vertex's own value
/// would see in per-lane order only. Reads the CSR on the host; records
/// nothing.
template <Granularity G, Persistence P, typename VertexOf>
bool one_round_block(const Graph& g, std::uint32_t bidx, std::uint32_t grid,
                     std::uint32_t items, bool in_place,
                     VertexOf&& vertex_of) {
  static_assert(G != Granularity::Thread,
                "Thread granularity gives one lane a whole adjacency list");
  constexpr std::uint32_t kGroups = G == Granularity::Warp ? kBD / kWS : 1;
  constexpr std::uint32_t kStride = G == Granularity::Warp ? kWS : kBD;
  const std::uint64_t first = std::uint64_t{bidx} * kGroups;
  if constexpr (P == Persistence::Persistent) {
    if (first + std::uint64_t{grid} * kGroups < items) return false;
  }
  const std::uint64_t last = std::min<std::uint64_t>(first + kGroups, items);
  for (std::uint64_t i = first; i < last; ++i) {
    const vid_t v = vertex_of(static_cast<std::uint32_t>(i));
    if (g.degree(v) > kStride || (in_place && g.has_edge(v, v))) return false;
  }
  return true;
}

/// The first edge-less warp of block `blk` of a Block-granularity launch,
/// the `alike_from` of its regions (Block::for_each_thread). Lane tid owns
/// the strided edge offsets tid, tid + kBD, ... of each of the block's
/// items, and an item has edges_of(item) of them (a vertex kernel's degree
/// of the item's vertex), so warp w (tids kWS * w ...) gets no edge when
/// every item has at most kWS * w. All such warps run the same op stream,
/// each item's warp-uniform loads with the full mask, and write nothing,
/// so the block interprets the first one it visits and replays it for the
/// others. Reads the graph on the host; records nothing.
template <Persistence P, typename EdgesOf>
std::uint32_t first_edgeless_warp(const vcuda::Block& blk,
                                  std::uint32_t items, EdgesOf&& edges_of) {
  // A non-persistent block owns item block_idx only.
  const std::uint64_t stride =
      P == Persistence::Persistent ? blk.grid_dim() : items;
  std::uint64_t max_edges = 0;
  for (std::uint64_t i = blk.block_idx(); i < items; i += stride) {
    max_edges = std::max<std::uint64_t>(
        max_edges, edges_of(static_cast<std::uint32_t>(i)));
  }
  return static_cast<std::uint32_t>((max_edges + kWS - 1) / kWS);
}

/// Runs body(w, item, off0) for every work item of block `blk` of a
/// Warp/Block-granularity launch in lane-loop form (lane l takes the item's
/// edge offset off0 + l) when one_round_block accepts the block, and
/// returns whether it did; otherwise the caller runs the block's per-lane
/// body. A Block-granularity block replays its edge-less warps.
template <Granularity G, Persistence P, typename VertexOf, typename Body>
bool run_one_round(vcuda::Block& blk, const Graph& g, std::uint32_t items,
                   bool in_place, VertexOf&& vertex_of, Body&& body) {
  if (!one_round_block<G, P>(g, blk.block_idx(), blk.grid_dim(), items,
                             in_place, vertex_of)) {
    return false;
  }
  auto region = [&](vcuda::WarpCtx& w) {
    for_items_warp_gran<G, P>(
        w, items, [&](std::uint32_t i, std::uint32_t off0, std::uint32_t) {
          body(w, i, off0);
        });
  };
  if constexpr (G == Granularity::Block) {
    const auto edges_of = [&](std::uint32_t i) {
      return g.degree(vertex_of(i));
    };
    blk.for_each_warp(region, first_edgeless_warp<P>(blk, items, edges_of));
  } else {
    blk.for_each_warp(region);
  }
  return true;
}

/// Drains the BlockAdd/ReductionAdd accumulators after a kernel's main
/// region(s) — the shared tail of every GPU-reduction kernel (paper
/// Listing 10b/10c): barrier, optional warp+block tree combine, then the
/// block leader commits the block total through `commit(t, total)`.
/// GlobalAdd styles have nothing to drain and this is a no-op. T is the
/// accumulator type (double for PR residuals, uint64 for lossless triangle
/// counts — Block::reduce_add charges identically for both). Only thread 0
/// commits, so warps 1 and up of a commit region record nothing, charge
/// nothing and write nothing: the block replays them.
template <GpuReduction R, typename T, typename Commit>
void drain_reduction(vcuda::Block& blk, std::span<T> slots, T& block_ctr,
                     Commit&& commit) {
  if constexpr (R == GpuReduction::BlockAdd) {
    blk.sync();
    blk.for_each_thread(
        [&](vcuda::Thread& t) {
          if (t.thread_idx() == 0) commit(t, block_ctr);
        },
        1);
  } else if constexpr (R == GpuReduction::ReductionAdd) {
    blk.sync();
    const T total = blk.reduce_add(slots);
    blk.for_each_thread(
        [&](vcuda::Thread& t) {
          if (t.thread_idx() == 0) commit(t, total);
        },
        1);
  }
}

/// Default device used when RunOptions does not name one.
const vcuda::DeviceSpec& default_device();

}  // namespace indigo::variants::vc
