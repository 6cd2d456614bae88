// Recorder accounting against a brute-force oracle. Each scenario runs a
// kernel on the interpreter and, next to every simulated access, logs the
// same access into an Oracle written here from the model's definition:
// every (warp region, op) group is one SIMT instruction, mem accesses cost
// one 128-B transaction per distinct line, chain atomics one transaction
// and one chain unit per distinct address, and chains replay through a
// std::map keyed by the hotspot slot. The interpreter's fast paths (bitmap
// windows, stamp dedup, sorted adjacent-compare, uniform and 1/2-lane
// short-circuits, dense-prefix contig, epoch-tagged hotspots) must agree
// with it exactly, down to the bits of the longest chain. The lane-loop
// primitives are further checked against test-local for_each_thread
// kernels, and tests/test_sim_digest.cpp pins every real variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/csr.hpp"
#include "graph/generate.hpp"
#include "racecheck/racecheck.hpp"
#include "variants/register_all.hpp"
#include "variants/vcuda/vc_common.hpp"
#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace indigo::vcuda {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_identical(const LaunchStats& a, const LaunchStats& b) {
  EXPECT_EQ(bits(a.compute_cycles), bits(b.compute_cycles));
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(bits(a.hotspot_cycles_max), bits(b.hotspot_cycles_max));
  EXPECT_EQ(bits(a.fence_cycles), bits(b.fence_cycles));
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.mem_instructions, b.mem_instructions);
  EXPECT_EQ(a.lane_accesses, b.lane_accesses);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.atomic_conflicts, b.atomic_conflicts);
  EXPECT_EQ(a.block_atomic_ops, b.block_atomic_ops);
  EXPECT_EQ(bits(a.lane_cycles), bits(b.lane_cycles));
  EXPECT_EQ(bits(a.lockstep_cycles), bits(b.lockstep_cycles));
  EXPECT_EQ(a.grid_dim, b.grid_dim);
  EXPECT_EQ(a.block_dim, b.block_dim);
  EXPECT_EQ(bits(a.occupancy), bits(b.occupancy));
}

/// Brute-force model of one launch's memory and atomic-chain accounting.
/// Kernels call region() before each for_each_thread/for_each_warp call,
/// then log every access: lane() from a Thread body (the k-th access of
/// each lane of a warp region joins group k), batch()/batch_c() from a
/// WarpCtx body (one call is one group).
class Oracle {
 public:
  struct Expect {
    std::uint64_t lane_accesses = 0;
    std::uint64_t mem_instructions = 0;
    std::uint64_t transactions = 0;
    std::uint64_t atomic_ops = 0;
    std::uint64_t block_atomic_ops = 0;
    std::uint64_t atomic_conflicts = 0;
    double hotspot_cycles_max = 0;
  };

  explicit Oracle(const DeviceSpec& spec) : spec_(spec) {}

  void region() { ++region_; }

  template <typename T>
  void lane(const Thread& t, const DeviceArray<T>& a, std::size_t i,
            AccessKind k) {
    enter(warp_id(t.block_idx(), t.block_dim(), t.thread_idx()));
    const std::uint32_t op = ops_[t.thread_idx()]++;
    if (groups_.size() <= op) groups_.resize(op + 1);
    groups_[op].push_back({addr(a, i), k});
  }

  template <typename T, typename Idx>
  void batch(const WarpCtx& w, WarpCtx::Mask m, const DeviceArray<T>& a,
             const Idx* idx, AccessKind k) {
    if (m == 0) return;
    enter(warp_id(w.block_idx(), w.block_dim(), w.tid(0)));
    groups_.emplace_back();
    for (int l = 0; l < kMaxLanes; ++l) {
      if ((m >> l) & 1) groups_.back().push_back({addr(a, idx[l]), k});
    }
  }

  template <typename T>
  void batch_c(const WarpCtx& w, WarpCtx::Mask m, const DeviceArray<T>& a,
               std::uint64_t first, AccessKind k) {
    LaneVec<std::uint64_t> idx;
    for (int l = 0; l < kMaxLanes; ++l) idx[l] = first + l;
    batch(w, m, a, idx.v, k);
  }

  void block_atomic(std::uint64_t n = 1) {
    want_.atomic_ops += n;
    want_.block_atomic_ops += n;
  }

  /// Expected counters of the launch just run; resets for the next one.
  Expect end_launch() {
    flush();
    for (const auto& [slot, chain] : chains_) {
      want_.hotspot_cycles_max =
          std::max(want_.hotspot_cycles_max, chain.cycles);
    }
    const Expect out = want_;
    want_ = Expect{};
    chains_.clear();
    return out;
  }

 private:
  struct Access {
    std::uint64_t addr;
    AccessKind kind;
  };
  struct Chain {
    double cycles = 0;
    std::uint32_t owner = 0;  // last warp to hit the slot
  };

  [[nodiscard]] std::uint32_t warp_id(std::uint32_t block,
                                      std::uint32_t block_dim,
                                      std::uint32_t tid) const {
    const auto ws = static_cast<std::uint32_t>(spec_.warp_size);
    return block * ((block_dim + ws - 1) / ws) + tid / ws;
  }

  // Recording address: the array's virtual base, aligned down to a
  // transaction, plus the element offset.
  template <typename T>
  [[nodiscard]] std::uint64_t addr(const DeviceArray<T>& a,
                                   std::size_t i) const {
    const auto tb = static_cast<std::uint64_t>(spec_.mem_transaction_bytes);
    return (reinterpret_cast<std::uint64_t>(a.rec_base()) & ~(tb - 1)) +
           i * sizeof(T);
  }

  void enter(std::uint32_t warp) {
    if (open_ && region_ == open_region_ && warp == warp_) return;
    flush();
    open_ = true;
    open_region_ = region_;
    warp_ = warp;
  }

  void flush() {
    for (const std::vector<Access>& g : groups_) {
      std::set<std::uint64_t> lines, chain_addrs;
      bool rmw = false;
      for (const Access& a : g) {
        ++want_.lane_accesses;
        if (a.kind == AccessKind::Atomic ||
            a.kind == AccessKind::CudaAtomicRmw) {
          chain_addrs.insert(a.addr);
          rmw |= a.kind == AccessKind::CudaAtomicRmw;
        } else {
          lines.insert(a.addr / spec_.mem_transaction_bytes);
        }
      }
      if (!lines.empty()) {
        ++want_.mem_instructions;
        want_.transactions += lines.size();
      }
      const double unit = spec_.same_address_atomic_cycles *
                          (rmw ? spec_.cudaatomic_rmw_mult : 1.0);
      for (std::uint64_t a : chain_addrs) {
        ++want_.atomic_ops;
        ++want_.transactions;
        const auto [it, fresh] =
            chains_.try_emplace(detail::mix_addr(a) & 4095);
        if (!fresh && it->second.owner != warp_) ++want_.atomic_conflicts;
        it->second.owner = warp_;
        it->second.cycles += unit;
      }
    }
    groups_.clear();
    ops_.clear();
    open_ = false;
  }

  DeviceSpec spec_;
  std::uint64_t region_ = 0;
  bool open_ = false;
  std::uint64_t open_region_ = 0;
  std::uint32_t warp_ = 0;
  std::vector<std::vector<Access>> groups_;  // of the open warp region
  std::map<std::uint32_t, std::uint32_t> ops_;  // tid -> accesses so far
  std::map<std::uint64_t, Chain> chains_;
  Expect want_;
};

void expect_matches(const Oracle::Expect& want, const LaunchStats& got) {
  EXPECT_EQ(want.lane_accesses, got.lane_accesses);
  EXPECT_EQ(want.mem_instructions, got.mem_instructions);
  EXPECT_EQ(want.transactions, got.transactions);
  EXPECT_EQ(want.atomic_ops, got.atomic_ops);
  EXPECT_EQ(want.block_atomic_ops, got.block_atomic_ops);
  EXPECT_EQ(want.atomic_conflicts, got.atomic_conflicts);
  EXPECT_EQ(bits(want.hotspot_cycles_max), bits(got.hotspot_cycles_max));
}

TEST(SimGolden, CoalescedStridedAndScatteredLoads) {
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  std::vector<std::uint32_t> big(1u << 16, 1);
  std::vector<std::uint32_t> out(4096, 0);
  auto src = dev.array(std::span<std::uint32_t>(big));
  auto dst = dev.array(std::span<std::uint32_t>(out));
  dev.launch(8, 256, [&](Block& blk) {
    o.region();
    blk.for_each_thread([&](Thread& t) {
      const std::uint32_t i = t.gidx();
      // Fully coalesced: lane-contiguous 4B loads (one 128B line/warp).
      std::uint32_t v = src.ld(t, i);
      o.lane(t, src, i, AccessKind::Load);
      // Constant stride 2: a two-line window per warp (bitmap path).
      const std::size_t j = (2 * i) % big.size();
      v += src.ld(t, j);
      o.lane(t, src, j, AccessKind::Load);
      // Scattered: pseudo-random lines far beyond a 64-line window
      // (dedup fallback).
      const std::size_t k = (i * 2654435761u) % big.size();
      v += src.ld(t, k);
      o.lane(t, src, k, AccessKind::Load);
      dst.st(t, i % out.size(), v);
      o.lane(t, dst, i % out.size(), AccessKind::Store);
    });
  });
  expect_matches(o.end_launch(), dev.last_stats());
}

TEST(SimGolden, PartialWarpsAndDivergence) {
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  std::vector<std::uint32_t> data(4096, 3);
  auto arr = dev.array(std::span<std::uint32_t>(data));
  // 80 threads/block: last warp runs 16 lanes; odd lanes do extra work.
  dev.launch(3, 80, [&](Block& blk) {
    o.region();
    blk.for_each_thread([&](Thread& t) {
      const std::size_t i = t.gidx() % data.size();
      std::uint32_t acc = arr.ld(t, i);
      o.lane(t, arr, i, AccessKind::Load);
      if (t.lane() % 2 == 1) {
        for (int k = 0; k < 3; ++k) {
          const std::size_t j = (t.gidx() + 97u * k) % data.size();
          acc += arr.ld(t, j);
          o.lane(t, arr, j, AccessKind::Load);
          t.work(2);
        }
      }
      arr.st(t, i, acc);
      o.lane(t, arr, i, AccessKind::Store);
    });
    blk.sync();
  });
  expect_matches(o.end_launch(), dev.last_stats());
}

TEST(SimGolden, AtomicsUniformScatteredAcrossLaunches) {
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  std::vector<std::uint32_t> counters(512, 0);
  auto arr = dev.array(std::span<std::uint32_t>(counters));
  // Three launches, so the epoch-tagged hotspot table is re-used with
  // stale slots from the previous launch.
  for (int launch = 0; launch < 3; ++launch) {
    SCOPED_TRACE("launch " + std::to_string(launch));
    dev.launch(4, 128, [&](Block& blk) {
      o.region();
      blk.for_each_thread([&](Thread& t) {
        // Warp-uniform: every lane lands on one address (aggregated).
        arr.fetch_add(t, 7, 1u);
        o.lane(t, arr, 7, AccessKind::Atomic);
        // Scattered: distinct per-lane addresses, colliding across warps.
        const std::size_t s = (t.gidx() * 31u) % counters.size();
        arr.fetch_min(t, s, t.gidx());
        o.lane(t, arr, s, AccessKind::Atomic);
        // Partially-uniform: pairs of lanes share an address.
        const std::size_t p = (t.thread_idx() / 2) % counters.size();
        arr.fetch_max(t, p, t.gidx());
        o.lane(t, arr, p, AccessKind::Atomic);
      });
    });
    const Oracle::Expect want = o.end_launch();
    EXPECT_GT(want.atomic_conflicts, 0u);
    expect_matches(want, dev.last_stats());
  }
}

TEST(SimGolden, CudaAtomicsChargeFences) {
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  std::vector<std::uint32_t> data(2048, 0);
  auto arr = dev.array(std::span<std::uint32_t>(data));
  dev.launch(2, 192, [&](Block& blk) {
    o.region();
    blk.for_each_thread([&](Thread& t) {
      const std::uint32_t i = t.gidx() % data.size();
      const std::uint32_t v = arr.ld<AccessKind::CudaAtomicLdSt>(t, i);
      o.lane(t, arr, i, AccessKind::CudaAtomicLdSt);
      arr.fetch_add<AccessKind::CudaAtomicRmw>(t, (i * 17u) % data.size(), 1u);
      o.lane(t, arr, (i * 17u) % data.size(), AccessKind::CudaAtomicRmw);
      arr.fetch_min<AccessKind::CudaAtomicRmw>(t, 11, v);
      o.lane(t, arr, 11, AccessKind::CudaAtomicRmw);
      arr.st<AccessKind::CudaAtomicLdSt>(t, i, v + 1);
      o.lane(t, arr, i, AccessKind::CudaAtomicLdSt);
    });
  });
  expect_matches(o.end_launch(), dev.last_stats());
  EXPECT_GT(dev.last_stats().fence_cycles, 0.0);
}

TEST(SimGolden, BlockAtomicsAndReductions) {
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  std::vector<std::uint32_t> out(64, 0);
  auto arr = dev.array(std::span<std::uint32_t>(out));
  dev.launch(16, 96, [&](Block& blk) {
    auto sh = blk.shared_array<std::uint32_t>(4);
    o.region();
    blk.for_each_thread([&](Thread& t) {
      blk.atomic_add_block(t, sh[t.thread_idx() % 4], t.gidx());
      o.block_atomic();
    });
    blk.sync();
    std::vector<double> vals(96, 1.0);
    blk.reduce_add(std::span<const double>(vals));
    o.region();
    blk.for_each_thread([&](Thread& t) {
      if (t.thread_idx() < 4) {
        const std::size_t i =
            (blk.block_idx() * 4 + t.thread_idx()) % out.size();
        arr.st(t, i, sh[t.thread_idx()]);
        o.lane(t, arr, i, AccessKind::Store);
      }
    });
  });
  expect_matches(o.end_launch(), dev.last_stats());
}

TEST(SimGolden, UnevenLaneRunsMatchOracle) {
  // Per-lane regions whose lanes record runs of very different lengths
  // (WarpRecorder's lane-major log rebuilds group g from word g of every
  // run longer than g). Lane 5 of every warp records more words than the
  // log's initial capacity, loads with a sprinkling of both chain-atomic
  // kinds, so its tail after the other lanes run out holds atomics too.
  // Every other lane l records l % 4 accesses: the lanes l % 4 == 0 record
  // nothing and sit between recording lanes in the scrambled visit order
  // (0, 19, 6, 25, 12, 31, ... for a full warp). Access 2 is a Load, an
  // Atomic or a CudaAtomicRmw on one address, by lane, so group 2 mixes
  // the three. 48 threads per block end in a 16-lane tail warp. The second
  // launch records short runs into the grown log.
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  constexpr std::size_t kLong = detail::WarpRecorder::kLogInitialWords + 777;
  std::vector<std::uint32_t> data(1u << 14, 1);
  auto arr = dev.array(std::span<std::uint32_t>(data));
  constexpr std::size_t kShared = 99;
  for (const bool with_long : {true, false}) {
    SCOPED_TRACE(with_long ? "long lane" : "short lanes");
    dev.launch(3, 48, [&](Block& blk) {
      o.region();
      blk.for_each_thread([&](Thread& t) {
        const int lane = t.lane();
        if (lane == 5 && with_long) {
          for (std::size_t k = 0; k < kLong; ++k) {
            const std::size_t i = (t.gidx() * 13 + k * 37) % data.size();
            if (k % 100 == 7) {
              arr.fetch_add(t, i, 1u);
              o.lane(t, arr, i, AccessKind::Atomic);
            } else if (k % 150 == 11) {
              arr.fetch_max<AccessKind::CudaAtomicRmw>(t, kShared, 5u);
              o.lane(t, arr, kShared, AccessKind::CudaAtomicRmw);
            } else {
              (void)arr.ld(t, i);
              o.lane(t, arr, i, AccessKind::Load);
            }
          }
          return;
        }
        for (int k = 0; k < lane % 4; ++k) {
          if (k == 2 && lane % 3 == 1) {
            arr.fetch_add(t, kShared, 1u);
            o.lane(t, arr, kShared, AccessKind::Atomic);
          } else if (k == 2 && lane % 3 == 2) {
            arr.fetch_add<AccessKind::CudaAtomicRmw>(t, kShared, 1u);
            o.lane(t, arr, kShared, AccessKind::CudaAtomicRmw);
          } else {
            const std::size_t i =
                k == 2 ? kShared : (t.gidx() * 97 + k * 1031) % data.size();
            (void)arr.ld(t, i);
            o.lane(t, arr, i, AccessKind::Load);
          }
          t.work(1);
        }
      });
    });
    const Oracle::Expect want = o.end_launch();
    EXPECT_GT(want.atomic_ops, 0u);
    expect_matches(want, dev.last_stats());
  }
}

// --- lane-loop (de-SPMD) engine ---------------------------------------------
// A kernel written once per lane (for_each_thread) and once per warp
// (for_each_warp, batched WarpCtx recording) must model identically to the
// last bit, and both must match the oracle.

/// One elementwise round, per-lane style: guarded contiguous load, ALU work,
/// scattered distinct-address atomic add, contiguous store.
void elementwise_per_lane(Device& dev, std::uint32_t n,
                          std::span<std::uint32_t> in,
                          std::span<std::uint32_t> out,
                          std::span<std::uint32_t> ctr) {
  auto src = dev.array(in);
  auto dst = dev.array(out);
  auto cnt = dev.array(ctr);
  dev.launch(4, 256, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      const std::uint32_t i = t.gidx();
      if (i >= n) return;
      const std::uint32_t v = src.ld(t, i);
      t.work(3.0);
      cnt.fetch_add(t, (i * 2654435761u) % ctr.size(), v);
      dst.st(t, i, v + 1);
    });
  });
}

/// The identical round in lane-loop style: same guard, same op sequence,
/// same addresses, batched per warp.
void elementwise_lane_loop(Device& dev, std::uint32_t n,
                           std::span<std::uint32_t> in,
                           std::span<std::uint32_t> out,
                           std::span<std::uint32_t> ctr) {
  auto src = dev.array(in);
  auto dst = dev.array(out);
  auto cnt = dev.array(ctr);
  dev.launch(4, 256, [&](Block& blk) {
    blk.for_each_warp([&](WarpCtx& w) {
      const std::uint32_t base = w.gidx_base();
      if (base >= n) return;
      const WarpCtx::Mask m = w.mask_first(n - base);
      LaneVec<std::uint32_t> v, inc, slot;
      src.ld_warp_c(w, m, base, v.v);
      w.work(m, 3.0);
      w.for_lanes(m, [&](int l) {
        slot[l] = ((base + static_cast<std::uint32_t>(l)) * 2654435761u) %
                  static_cast<std::uint32_t>(ctr.size());
      });
      cnt.fetch_add_warp(w, m, slot.v, v.v);
      w.for_lanes(m, [&](int l) { inc[l] = v[l] + 1; });
      dst.st_warp_c(w, m, base, inc.v);
    });
  });
}

TEST(SimGolden, LaneLoopBitIdenticalToPerLaneElementwise) {
  // n = 1000 on a 1024-thread grid: the last warp runs with a partial
  // mask_first mask in the lane-loop engine and per-lane early returns in
  // the for_each_thread one.
  constexpr std::uint32_t n = 1000;
  // One set of buffers for BOTH engines: the hotspot table hashes raw
  // addresses, so distinct allocations would legitimately chain atomics
  // into different slots and the comparison would test the allocator.
  std::vector<std::uint32_t> in(1024), out(1024), ctr(4096);
  for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = i * 7 + 1;
  Device per_lane(rtx3090_like()), lane_loop(rtx3090_like());
  elementwise_per_lane(per_lane, n, in, out, ctr);
  const std::vector<std::uint32_t> out_a = out, ctr_a = ctr;
  std::fill(out.begin(), out.end(), 0u);
  std::fill(ctr.begin(), ctr.end(), 0u);
  elementwise_lane_loop(lane_loop, n, in, out, ctr);
  EXPECT_EQ(bits(per_lane.elapsed_seconds()),
            bits(lane_loop.elapsed_seconds()));
  expect_identical(per_lane.last_stats(), lane_loop.last_stats());
  EXPECT_EQ(out_a, out);  // functional agreement too
  EXPECT_EQ(ctr_a, ctr);
}

TEST(SimGolden, LaneLoopDivergentEdgeLoop) {
  // A push-style ragged edge loop in lane-loop form: the active mask decays
  // lane by lane (where-refinement), gathers go through ld_warp, and the
  // relaxations are scattered atomics plus cuda::atomic fetches (fence
  // charges).
  constexpr std::uint32_t n = 700;  // not a multiple of 256 or 32
  std::vector<std::uint32_t> deg(n), dist(n, 0xffffffffu), adist(n, ~0u);
  for (std::uint32_t i = 0; i < n; ++i) deg[i] = i % 9;
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  auto dg = dev.array(std::span<std::uint32_t>(deg));
  auto d = dev.array(std::span<std::uint32_t>(dist));
  auto ad = dev.array(std::span<std::uint32_t>(adist));
  dev.launch(3, 256, [&](Block& blk) {
    o.region();
    blk.for_each_warp([&](WarpCtx& w) {
      const std::uint32_t base = w.gidx_base();
      if (base >= n) return;
      const WarpCtx::Mask active = w.mask_first(n - base);
      LaneVec<std::uint32_t> k, lim, u, nd;
      dg.ld_warp_c(w, active, base, lim.v);
      o.batch_c(w, active, dg, base, AccessKind::Load);
      w.for_lanes(active, [&](int l) {
        k[l] = 0;
        nd[l] = base + static_cast<std::uint32_t>(l);
      });
      WarpCtx::Mask live =
          w.where(active, [&](int l) { return k[l] < lim[l]; });
      while (live != 0) {
        w.for_lanes(live, [&](int l) {
          u[l] = (nd[l] * 31u + k[l] * 131u) % n;  // scattered neighbor
        });
        d.fetch_min_warp(w, live, u.v, nd.v);
        o.batch(w, live, d, u.v, AccessKind::Atomic);
        // Fenced flavor.
        ad.fetch_min_warp<AccessKind::CudaAtomicRmw>(w, live, u.v, nd.v);
        o.batch(w, live, ad, u.v, AccessKind::CudaAtomicRmw);
        w.work(live, 2.0);
        w.for_lanes(live, [&](int l) { ++k[l]; });
        live = w.where(live, [&](int l) { return k[l] < lim[l]; });
      }
    });
  });
  expect_matches(o.end_launch(), dev.last_stats());
}

TEST(SimGolden, LaneLoopAllInactiveAndTailWarps) {
  // 80-thread blocks make a 16-lane tail warp (width() < warp_size, partial
  // full()); n = 40 leaves that tail warp and half of warp 1 fully masked
  // out. Fully inactive batches must charge and record nothing.
  constexpr std::uint32_t n = 40;
  std::vector<std::uint32_t> buf(128, 5), out(128, 0);
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  auto src = dev.array(std::span<std::uint32_t>(buf));
  auto dst = dev.array(std::span<std::uint32_t>(out));
  dev.launch(1, 80, [&](Block& blk) {
    o.region();
    blk.for_each_warp([&](WarpCtx& w) {
      EXPECT_LE(w.width(), 32);
      const std::uint32_t base = w.gidx_base();
      // Deliberately no early return: warps past n see mask_first(0) == 0
      // and every accessor must be a no-op on an empty mask.
      const WarpCtx::Mask m =
          base >= n ? w.mask_first(0) : w.mask_first(n - base);
      LaneVec<std::uint32_t> v;
      src.ld_warp_c(w, m, base, v.v);
      o.batch_c(w, m, src, base, AccessKind::Load);
      w.for_lanes(m, [&](int l) { v[l] *= 2; });
      dst.st_warp_c(w, m, base, v.v);
      o.batch_c(w, m, dst, base, AccessKind::Store);
    });
  });
  expect_matches(o.end_launch(), dev.last_stats());
  for (std::uint32_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i < n ? 10u : 0u) << i;
  }
}

TEST(SimGolden, LaneLoopRecorderRungs) {
  // One batch shape per accounting rung of the batched recorder, on
  // 80-thread blocks so every block also runs a 16-lane tail warp: 1- and
  // 2-lane gathers (mem and chain, same and distinct line/address), the
  // sorted adjacent-compare count, the <=64-line bitmap, the >64-line
  // dedup, uniform and scattered chain atomics, cuda::atomic kinds, the
  // dense-prefix contig shortcut and a contig batch with holes.
  std::vector<std::uint32_t> buf(1u << 15, 1), ctr(1024, 0);
  Device dev(rtx3090_like());
  Oracle o(dev.spec());
  auto a = dev.array(std::span<std::uint32_t>(buf));
  auto c = dev.array(std::span<std::uint32_t>(ctr));
  const auto nb = static_cast<std::uint32_t>(buf.size());
  dev.launch(3, 80, [&](Block& blk) {
    o.region();
    blk.for_each_warp([&](WarpCtx& w) {
      using M = WarpCtx::Mask;
      const M all = w.full();
      const int width = w.width();
      const std::uint32_t g = w.gidx_base();
      LaneVec<std::uint32_t> idx, v, one;
      w.for_lanes(all, [&](int l) { one[l] = 1; });
      auto load = [&](M m) {
        a.ld_warp(w, m, idx.v, v.v);
        o.batch(w, m, a, idx.v, AccessKind::Load);
      };
      auto add = [&](M m) {
        c.fetch_add_warp(w, m, idx.v, one.v);
        o.batch(w, m, c, idx.v, AccessKind::Atomic);
      };
      // 1 lane: a gather and a chain atomic.
      idx[3] = g * 7 % nb;
      load(M{1} << 3);
      idx[3] = g % 1024;
      add(M{1} << 3);
      // 2 lanes: one line, then two lines; one address, then two.
      const M two = (M{1} << 1) | (M{1} << 5);
      idx[1] = g;
      idx[5] = g + 1;
      load(two);
      idx[5] = (g + 4096) % nb;
      load(two);
      idx[1] = idx[5] = g % 1024;
      add(two);
      idx[5] = (g + 1) % 1024;
      add(two);
      // Ascending, four lanes per line: sorted adjacent-compare.
      w.for_lanes(all, [&](int l) { idx[l] = g + 8 * l; });
      load(all);
      // Descending inside a few lines: unsorted, bitmap window.
      w.for_lanes(all, [&](int l) { idx[l] = g + 4 * (width - 1 - l); });
      load(all);
      // Descending pairs 32 lines apart: unsorted, wider than 64 lines.
      w.for_lanes(all, [&](int l) {
        idx[l] = (static_cast<std::uint32_t>(width - 1 - l) / 2 * 1024) % nb;
      });
      load(all);
      // Warp-uniform chain atomic, hit by every warp (conflicts).
      w.for_lanes(all, [&](int l) { idx[l] = 9; });
      add(all);
      // Scattered chain atomics, colliding across warps.
      w.for_lanes(all, [&](int l) { idx[l] = (g + 37u * l) % 1024; });
      add(all);
      // cuda::atomic RMW (rmw chain unit) and load (fenced mem kind).
      c.fetch_add_warp<AccessKind::CudaAtomicRmw>(w, all, idx.v, one.v);
      o.batch(w, all, c, idx.v, AccessKind::CudaAtomicRmw);
      c.ld_warp<AccessKind::CudaAtomicLdSt>(w, all, idx.v, v.v);
      o.batch(w, all, c, idx.v, AccessKind::CudaAtomicLdSt);
      // Contiguous: dense prefix, then every other lane.
      a.ld_warp_c(w, all, g, v.v);
      o.batch_c(w, all, a, g, AccessKind::Load);
      const M holes = all & 0x5555555555555555ull;
      a.st_warp_c(w, holes, g, v.v);
      o.batch_c(w, holes, a, g, AccessKind::Store);
    });
  });
  const Oracle::Expect want = o.end_launch();
  EXPECT_GT(want.atomic_conflicts, 0u);
  expect_matches(want, dev.last_stats());
}

// --- mutating gathers, edge_walk, block atomics -----------------------------
// The ragged-kernel migration relies on three properties beyond batched
// accounting: mutating gathers apply their lanes in the per-lane engine's
// scrambled lane order (so same-batch address collisions replay the exact
// old-value chains), the edge_walk ragged-walk helper (prefix-mask rounds
// with body-driven refinement), and the lane-batched shared-memory atomic.
// Each twin below runs the same kernel per-lane and lane-loop on one set of
// buffers and demands identical stats AND values.

/// One launch in which every lane of a block applies `op` (or, for a store
/// kind K, a store) to ONE of two hot slots: per-lane through the scalar
/// accessor, or lane-loop through its lane-batched twin. Each lane's old
/// value and the slots' final values depend on the lane application order,
/// which for the per-lane engine is the scrambled coprime order. Block dim
/// 80 adds a 16-lane tail warp with its own lane stride. `olds[gidx]` gets
/// each thread's old value (RMW kinds only).
template <AccessKind K>
std::pair<LaunchStats, double> hot_slot_round(detail::RmwOp op,
                                              bool lane_loop,
                                              std::span<std::uint32_t> slots,
                                              std::span<std::uint32_t> olds) {
  using detail::RmwOp;
  std::fill(slots.begin(), slots.end(), 500u);
  std::fill(olds.begin(), olds.end(), 0u);
  Device dev(rtx3090_like());
  auto sl = dev.array(slots);
  auto val_of = [](std::uint32_t gidx) { return (gidx * 37u) % 1000u; };
  dev.launch(2, 80, [&](Block& blk) {
    if (lane_loop) {
      blk.for_each_warp([&](WarpCtx& w) {
        const WarpCtx::Mask m = w.full();
        LaneVec<std::uint32_t> idx, val, old;
        w.for_lanes(m, [&](int l) {
          idx[l] = w.tid(l) % 2;
          val[l] = val_of(w.gidx(l));
          old[l] = 0;
        });
        if constexpr (detail::is_store_kind(K)) {
          sl.st_warp<K>(w, m, idx.v, val.v);
        } else if (op == RmwOp::Min) {
          sl.fetch_min_warp<K>(w, m, idx.v, val.v, old.v);
        } else if (op == RmwOp::Max) {
          sl.fetch_max_warp<K>(w, m, idx.v, val.v, old.v);
        } else {
          sl.fetch_add_warp<K>(w, m, idx.v, val.v, old.v);
        }
        w.for_lanes(m, [&](int l) { olds[w.gidx(l)] = old[l]; });
      });
    } else {
      blk.for_each_thread([&](Thread& t) {
        const std::uint32_t i = t.thread_idx() % 2;
        const std::uint32_t v = val_of(t.gidx());
        if constexpr (detail::is_store_kind(K)) {
          sl.st<K>(t, i, v);
        } else if (op == RmwOp::Min) {
          olds[t.gidx()] = sl.fetch_min<K>(t, i, v);
        } else if (op == RmwOp::Max) {
          olds[t.gidx()] = sl.fetch_max<K>(t, i, v);
        } else {
          olds[t.gidx()] = sl.fetch_add<K>(t, i, v);
        }
      });
    }
  });
  return {dev.last_stats(), dev.elapsed_seconds()};
}

/// Runs hot_slot_round per-lane and lane-loop and demands bit-identical
/// stats, seconds, final slots and old values.
template <AccessKind K>
void expect_hot_slot_twins(detail::RmwOp op) {
  std::vector<std::uint32_t> slots(2), olds(2 * 80);
  const auto [a, sa] = hot_slot_round<K>(op, false, slots, olds);
  const std::vector<std::uint32_t> slots_pl = slots, olds_pl = olds;
  const auto [b, sb] = hot_slot_round<K>(op, true, slots, olds);
  expect_identical(a, b);
  EXPECT_EQ(bits(sa), bits(sb));
  EXPECT_EQ(slots_pl, slots);
  EXPECT_EQ(olds_pl, olds);
  // The scenario exercises the order: the lanes did not all see one value.
  if constexpr (detail::is_store_kind(K)) {
    EXPECT_NE(slots[0], 500u);
  } else {
    EXPECT_NE(std::count(olds.begin(), olds.end(), olds[0]),
              static_cast<std::ptrdiff_t>(olds.size()));
  }
}

TEST(SimGolden, MutatingGathersMatchPerLaneTwins) {
  using detail::RmwOp;
  for (const RmwOp op : {RmwOp::Min, RmwOp::Max, RmwOp::Add}) {
    SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)));
    expect_hot_slot_twins<AccessKind::Atomic>(op);
    expect_hot_slot_twins<AccessKind::CudaAtomicRmw>(op);
  }
  // Stores: the last lane in per-lane engine order wins each slot.
  expect_hot_slot_twins<AccessKind::Store>(RmwOp::Min);
  expect_hot_slot_twins<AccessKind::CudaAtomicLdSt>(RmwOp::Min);
}

TEST(SimGolden, LdStMinMatchesPerLanePair) {
  // Read-write min (Listing 5a) with several lanes on each of three slots:
  // in the per-lane engine a lane's load sees the stores of the lanes
  // visited before it, so the old values, the store set and the final
  // slots all depend on the scrambled lane order. Block dim 80 adds a
  // 16-lane tail warp with its own lane stride. Both load kinds: plain
  // ld/st and cuda::atomic load()/store().
  constexpr std::uint32_t kThreads = 2 * 80;
  std::vector<std::uint32_t> slots(3), olds(kThreads), stored(kThreads);
  auto run = [&](bool lane_loop, bool cuda_atomic) {
    std::fill(slots.begin(), slots.end(), 500u);
    std::fill(olds.begin(), olds.end(), 0u);
    std::fill(stored.begin(), stored.end(), 0u);
    Device dev(rtx3090_like());
    auto sl = dev.array(std::span<std::uint32_t>(slots));
    auto val_of = [](std::uint32_t gidx) { return (gidx * 37u) % 600u; };
    dev.launch(2, 80, [&](Block& blk) {
      if (lane_loop) {
        blk.for_each_warp([&](WarpCtx& w) {
          const WarpCtx::Mask m = w.full();
          LaneVec<std::uint32_t> idx, val, old;
          w.for_lanes(m, [&](int l) {
            idx[l] = w.tid(l) % 3;
            val[l] = val_of(w.gidx(l));
          });
          const WarpCtx::Mask st =
              cuda_atomic ? sl.ld_st_min_warp<AccessKind::CudaAtomicLdSt>(
                                w, m, idx.v, val.v, old.v)
                          : sl.ld_st_min_warp(w, m, idx.v, val.v, old.v);
          EXPECT_EQ(st, w.where(m, [&](int l) { return val[l] < old[l]; }));
          w.for_lanes(m, [&](int l) {
            olds[w.gidx(l)] = old[l];
            stored[w.gidx(l)] = (st >> l) & 1u;
          });
        });
      } else {
        blk.for_each_thread([&](Thread& t) {
          const std::uint32_t i = t.thread_idx() % 3;
          const std::uint32_t v = val_of(t.gidx());
          const std::uint32_t o =
              cuda_atomic ? sl.ld<AccessKind::CudaAtomicLdSt>(t, i) : sl.ld(t, i);
          if (v < o) {
            if (cuda_atomic) {
              sl.st<AccessKind::CudaAtomicLdSt>(t, i, v);
            } else {
              sl.st(t, i, v);
            }
            stored[t.gidx()] = 1;
          }
          olds[t.gidx()] = o;
        });
      }
    });
    return std::pair{dev.last_stats(), dev.elapsed_seconds()};
  };
  for (const bool cuda_atomic : {false, true}) {
    const auto [a, sa] = run(false, cuda_atomic);
    const std::vector<std::uint32_t> slots_pl = slots, olds_pl = olds,
                                     stored_pl = stored;
    const auto [b, sb] = run(true, cuda_atomic);
    expect_identical(a, b);
    EXPECT_EQ(bits(sa), bits(sb));
    EXPECT_EQ(slots_pl, slots);
    EXPECT_EQ(olds_pl, olds);
    EXPECT_EQ(stored_pl, stored);
    // The scenario exercises the chain: some lane loaded a sibling's store.
    EXPECT_TRUE(std::any_of(olds.begin(), olds.end(),
                            [](std::uint32_t o) { return o != 500u; }));
  }
}

TEST(SimGolden, UniformLoadMatchesEqualIndexGather) {
  // ld_warp_u skips collecting the index vector; its accounting must be the
  // gather's over all-equal indices, for every mask rung (1 lane, 2 lanes,
  // prefix, holes, the 16-lane tail warp) and both load kinds.
  std::vector<std::uint32_t> buf(4096);
  for (std::uint32_t i = 0; i < buf.size(); ++i) buf[i] = i * 3;
  auto run = [&](bool uniform) {
    Device dev(rtx3090_like());
    auto a = dev.array(std::span<std::uint32_t>(buf));
    std::uint64_t sum = 0;
    dev.launch(3, 80, [&](Block& blk) {
      blk.for_each_warp([&](WarpCtx& w) {
        using M = WarpCtx::Mask;
        const M all = w.full();
        const M masks[] = {M{1} << 3, (M{1} << 1) | (M{1} << 5), all >> 4,
                           all & 0x5555555555555555ull, all};
        std::uint32_t i = w.gidx_base() % 4000;
        for (const M m : masks) {
          for (const bool fenced : {false, true}) {
            i = (i * 7 + 1) % 4000;
            if (uniform) {
              sum += fenced ? a.ld_warp_u<AccessKind::CudaAtomicLdSt>(w, m, i)
                            : a.ld_warp_u(w, m, i);
            } else {
              LaneVec<std::uint32_t> idx, out;
              w.for_lanes(all, [&](int l) { idx[l] = i; });
              if (fenced) {
                a.ld_warp<AccessKind::CudaAtomicLdSt>(w, m, idx.v, out.v);
              } else {
                a.ld_warp(w, m, idx.v, out.v);
              }
              sum += out[std::countr_zero(m)];
            }
          }
        }
      });
    });
    return std::tuple{dev.last_stats(), dev.elapsed_seconds(), sum};
  };
  const auto [a, sa, suma] = run(false);
  const auto [b, sb, sumb] = run(true);
  expect_identical(a, b);
  EXPECT_EQ(bits(sa), bits(sb));
  EXPECT_EQ(suma, sumb);
}

TEST(SimGolden, CleanRegionsMatchPerLaneRegions) {
  // A warp region that records no access and takes no charge costs only
  // the fixed per-warp overhead (WarpRecorder::flush's clean path), and the
  // region after it skips the lane-cycle reset. Empty regions interleaved
  // with charge-only regions (work on odd lanes, shared-memory block
  // atomics on lanes 0-4) and a recorded load must give the same launch in
  // both engines, and the charges must show in it. 80-thread blocks give
  // every block a 16-lane tail warp.
  constexpr std::uint32_t kGrid = 3, kBd = 80, kWarps = kGrid * 3;
  std::vector<std::uint32_t> buf(kGrid * kBd);
  enum Kind { kEmpty, kWork, kAtomic, kLoad };
  auto run = [&](bool lane_loop, std::vector<Kind> regions) {
    Device dev(rtx3090_like());
    auto a = dev.array(std::span<std::uint32_t>(buf));
    dev.launch(kGrid, kBd, [&](Block& blk) {
      auto ctr = blk.shared_array<double>(1);
      for (const Kind kind : regions) {
        if (!lane_loop) {
          blk.for_each_thread([&](Thread& t) {
            if (kind == kWork && t.lane() % 2 == 1) t.work(3);
            if (kind == kAtomic && t.lane() < 5)
              blk.atomic_add_block(t, ctr[0], 1.0);
            if (kind == kLoad) (void)a.ld(t, t.gidx());
          });
          continue;
        }
        blk.for_each_warp([&](WarpCtx& w) {
          using M = WarpCtx::Mask;
          if (kind == kWork) w.work(w.full() & 0xAAAAAAAAAAAAAAAAull, 3);
          if (kind == kAtomic) {
            LaneVec<double> one;
            w.for_lanes(w.full(), [&](int l) { one[l] = 1.0; });
            blk.atomic_add_block_warp(w, w.full() & M{0x1f}, ctr[0], one.v);
          }
          if (kind == kLoad) {
            LaneVec<std::uint32_t> out;
            a.ld_warp_c(w, w.full(), w.gidx_base(), out.v);
          }
        });
      }
    });
    return std::pair{dev.last_stats(), dev.elapsed_seconds()};
  };
  const std::vector<Kind> mixed = {kEmpty, kWork, kEmpty, kAtomic,
                                   kEmpty, kLoad, kEmpty, kWork,
                                   kLoad,  kEmpty, kEmpty};
  for (const auto& regions :
       {std::vector<Kind>{kEmpty, kEmpty}, std::vector<Kind>{kWork, kEmpty},
        std::vector<Kind>{kAtomic, kEmpty}, mixed}) {
    const auto [a, sa] = run(false, regions);
    const auto [b, sb] = run(true, regions);
    expect_identical(a, b);
    EXPECT_EQ(bits(sa), bits(sb));
  }
  // Empty regions: the fixed overhead of every warp, nothing else.
  const DeviceSpec spec = rtx3090_like();
  const LaunchStats empty = run(true, {kEmpty, kEmpty}).first;
  EXPECT_EQ(empty.compute_cycles, 2 * kWarps * spec.warp_fixed_cycles);
  EXPECT_EQ(empty.lane_cycles, 0.0);
  EXPECT_EQ(empty.lockstep_cycles, 0.0);
  // Charge-only regions: 16 + 16 + 8 odd lanes per block work 3 cycles,
  // and 5 lanes per warp pay one ALU op per block atomic.
  for (const bool lane_loop : {false, true}) {
    EXPECT_EQ(run(lane_loop, {kWork, kEmpty}).first.lane_cycles,
              kGrid * 40 * 3.0);
    EXPECT_EQ(run(lane_loop, {kAtomic, kEmpty}).first.lane_cycles,
              kWarps * 5 * 1.0);
  }
}

TEST(SimGolden, OneRoundBlockDispatchBoundaries) {
  // Hubs of degree 32 | 33 | 256 | 257 at vertices 0 | 8 | 16 | 24 (one
  // warp-granularity block each: 8 items per block) and a self-loop at 40.
  GraphBuilder b(600, "one-round");
  const vid_t hubs[] = {0, 8, 16, 24};
  const vid_t degrees[] = {32, 33, 256, 257};
  for (std::size_t h = 0; h < std::size(hubs); ++h) {
    for (vid_t k = 0; k < degrees[h]; ++k) {
      b.add_undirected(hubs[h], 100 + (static_cast<vid_t>(h) * 61 + k) % 500);
    }
  }
  b.add_arc(40, 40);
  const Graph g = b.finish({.remove_self_loops = false});
  for (std::size_t h = 0; h < std::size(hubs); ++h) {
    ASSERT_EQ(g.degree(hubs[h]), degrees[h]);
  }
  using variants::vc::one_round_block;
  const std::uint32_t n = g.num_vertices();
  auto id = [](std::uint32_t i) { return i; };
  constexpr auto kWarp = Granularity::Warp;
  constexpr auto kBlock = Granularity::Block;
  constexpr auto kNp = Persistence::NonPersistent;
  constexpr auto kP = Persistence::Persistent;
  // Non-persistent launches get their own grid: 8 items per Warp block, one
  // per Block block.
  auto warp = [&](std::uint32_t bidx, std::uint32_t items, bool in_place,
                  auto&& vertex_of) {
    return one_round_block<kWarp, kNp>(g, bidx, (items + 7) / 8, items,
                                       in_place, vertex_of);
  };
  auto block = [&](std::uint32_t bidx, std::uint32_t items, bool in_place,
                   auto&& vertex_of) {
    return one_round_block<kBlock, kNp>(g, bidx, items, items, in_place,
                                        vertex_of);
  };
  // Warp granularity: the stride is 32.
  EXPECT_TRUE(warp(0, n, false, id));
  EXPECT_FALSE(warp(1, n, false, id));
  EXPECT_FALSE(warp(2, n, false, id));
  EXPECT_TRUE(warp(4, n, false, id));
  // Items past `items` are not the block's: block 1 owns none of [0, 8).
  EXPECT_TRUE(warp(1, 8, false, id));
  // Block granularity: the stride is 256.
  EXPECT_TRUE(block(0, n, false, id));
  EXPECT_TRUE(block(8, n, false, id));
  EXPECT_TRUE(block(16, n, false, id));
  EXPECT_FALSE(block(24, n, false, id));
  // A self-loop only matters to in-place styles.
  EXPECT_TRUE(warp(5, n, false, id));
  EXPECT_FALSE(warp(5, n, true, id));
  EXPECT_TRUE(block(40, n, false, id));
  EXPECT_FALSE(block(40, n, true, id));
  EXPECT_TRUE(block(16, n, true, id));
  // Data-driven items map through the worklist to their vertex.
  const std::vector<std::uint32_t> wl = {3, 24, 40};
  auto from_wl = [&](std::uint32_t i) { return wl[i]; };
  EXPECT_TRUE(block(0, 3, true, from_wl));
  EXPECT_FALSE(block(1, 3, false, from_wl));
  EXPECT_FALSE(block(2, 3, true, from_wl));
  EXPECT_FALSE(warp(0, 3, false, from_wl));
  // Persistent launches: a group's second item comes grid * groups after
  // its first, so block bidx qualifies only while bidx * groups + grid *
  // groups >= items.
  auto warp_p = [&](std::uint32_t bidx, std::uint32_t grid,
                    std::uint32_t items, bool in_place) {
    return one_round_block<kWarp, kP>(g, bidx, grid, items, in_place, id);
  };
  auto block_p = [&](std::uint32_t bidx, std::uint32_t grid,
                     std::uint32_t items, bool in_place) {
    return one_round_block<kBlock, kP>(g, bidx, grid, items, in_place, id);
  };
  // Warp, grid 10 (80 warps): block 4 owns items 32-39.
  EXPECT_TRUE(warp_p(4, 10, 112, false));
  EXPECT_FALSE(warp_p(4, 10, 113, false));
  // Block 9 owns no item of 50.
  EXPECT_TRUE(warp_p(9, 10, 50, false));
  // The degree test still applies to the one item: block 1 holds hub 8.
  EXPECT_FALSE(warp_p(1, 10, 80, false));
  // Block, the rtx3090_like grid of 492 blocks.
  EXPECT_TRUE(block_p(108, 492, n, false));
  EXPECT_FALSE(block_p(107, 492, n, false));
  EXPECT_FALSE(block_p(108, 492, n + 1, false));
  EXPECT_TRUE(block_p(400, 492, 300, false));
  EXPECT_TRUE(block_p(16, 640, n, false));
  EXPECT_FALSE(block_p(24, 640, n, false));
  EXPECT_FALSE(block_p(40, 640, n, true));
}

/// One launch of a Block-granularity push relaxation over items 0..items-1
/// (vertex i = item i) on either engine, with the block's edge-less warps
/// replayed (bounded) or through the region without a bound. The source value is a
/// cuda::atomic load, so the replayed charge includes the fence pool.
struct ReplayRun {
  LaunchStats stats;
  double seconds = 0;
  std::vector<std::uint32_t> dist;
  std::uint64_t warps_run = 0;  // warp bodies the engine interpreted
};

template <Persistence P>
ReplayRun replay_run(const Graph& g, std::uint32_t grid, std::uint32_t items,
                     bool lane_loop, bool bounded) {
  using variants::vc::first_edgeless_warp;
  using M = WarpCtx::Mask;
  constexpr auto kBlock = Granularity::Block;
  Device dev(rtx3090_like());
  ReplayRun r;
  r.dist.assign(g.num_vertices(), 100);
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());
  auto dist = dev.array(std::span<std::uint32_t>(r.dist));
  auto per_lane = [&](Thread& t) {
    if (t.lane() == 0) ++r.warps_run;
    variants::vc::for_items<kBlock, P>(
        t, items,
        [&](std::uint32_t v, std::uint32_t off, std::uint32_t stride) {
          const std::uint32_t beg = row.ld(t, v);
          const std::uint32_t end = row.ld(t, v + 1);
          const std::uint32_t dv = dist.ld<AccessKind::CudaAtomicLdSt>(t, v);
          for (std::uint32_t e = beg + off; e < end; e += stride)
            (void)dist.fetch_min(t, col.ld(t, e), dv + 1);
        });
  };
  auto lane_loop_body = [&](WarpCtx& w) {
    ++r.warps_run;
    variants::vc::for_items_warp_gran<kBlock, P>(
        w, items,
        [&](std::uint32_t v, std::uint32_t off0, std::uint32_t stride) {
          const M all = w.full();
          const std::uint32_t beg = row.ld_warp_u(w, all, v);
          const std::uint32_t end = row.ld_warp_u(w, all, v + 1);
          const std::uint32_t dv =
              dist.ld_warp_u<AccessKind::CudaAtomicLdSt>(w, all, v);
          LaneVec<std::uint32_t> cur{}, endv{}, u{}, nd{};
          w.for_lanes(all, [&](int l) {
            cur[l] = beg + off0 + static_cast<std::uint32_t>(l);
            endv[l] = end;
            nd[l] = dv + 1;
          });
          w.edge_walk(all, cur, endv, stride, [&](M live) {
            col.ld_warp(w, live, cur.v, u.v);
            dist.fetch_min_warp(w, live, u.v, nd.v);
            return live;
          });
        });
  };
  dev.launch(grid, variants::vc::kBD, [&](Block& blk) {
    const std::uint32_t alike_from = first_edgeless_warp<P>(
        blk, items, [&](std::uint32_t v) { return g.degree(v); });
    if (lane_loop) {
      if (bounded) {
        blk.for_each_warp(lane_loop_body, alike_from);
      } else {
        blk.for_each_warp(lane_loop_body);
      }
    } else if (bounded) {
      blk.for_each_thread(per_lane, alike_from);
    } else {
      blk.for_each_thread(per_lane);
    }
  });
  r.stats = dev.last_stats();
  r.seconds = dev.elapsed_seconds();
  return r;
}

void expect_same_report(const racecheck::Report& a,
                        const racecheck::Report& b) {
  EXPECT_EQ(a.conflicts_atomic, b.conflicts_atomic);
  EXPECT_EQ(a.conflicts_declared, b.conflicts_declared);
  EXPECT_EQ(a.conflicts_same_value, b.conflicts_same_value);
  EXPECT_EQ(a.conflicts_monotonic, b.conflicts_monotonic);
  EXPECT_EQ(a.conflicts_harmful, b.conflicts_harmful);
  EXPECT_EQ(a.discipline_violations, b.discipline_violations);
  EXPECT_EQ(a.addresses_tracked, b.addresses_tracked);
  EXPECT_EQ(a.notes, b.notes);  // elements are named by first-touch order
}

TEST(SimGolden, ReplayedWarpsMatchInterpretedWarps) {
  // A Block-granularity vertex block interprets its first edge-less warp
  // and replays it for the others (detail::AlikeWarps, bound from
  // vc::first_edgeless_warp). Items of degree 0 to 257, around the warp and
  // block strides, one per block and in persistent blocks of two to nine
  // items, must give the launch, the seconds and the output that
  // interpreting every warp gives, on both engines.
  constexpr vid_t kDegrees[] = {0, 31, 32, 33, 64, 65, 255, 256, 257};
  constexpr auto kItems = static_cast<std::uint32_t>(std::size(kDegrees));
  GraphBuilder b(kItems + 300, "replay");
  for (vid_t h = 0; h < kItems; ++h) {
    for (vid_t k = 0; k < kDegrees[h]; ++k)
      b.add_arc(h, kItems + (h * 31 + k) % 300);
  }
  const Graph g = b.finish({});
  for (vid_t h = 0; h < kItems; ++h) ASSERT_EQ(g.degree(h), kDegrees[h]);

  auto expect_replay_exact = [&](auto run) {
    for (const bool lane_loop : {false, true}) {
      const ReplayRun a = run(lane_loop, true);
      const ReplayRun b = run(lane_loop, false);
      expect_identical(a.stats, b.stats);
      EXPECT_EQ(bits(a.seconds), bits(b.seconds));
      EXPECT_EQ(a.dist, b.dist);
#ifdef NDEBUG
      // Every case has a block with two or more edge-less warps, so some
      // warp was replayed. Builds with assertions interpret them all.
      EXPECT_LT(a.warps_run, b.warps_run);
#endif
    }
  };
  // Non-persistent: one item per block.
  expect_replay_exact([&](bool lane_loop, bool bounded) {
    return replay_run<Persistence::NonPersistent>(g, kItems, kItems,
                                                  lane_loop, bounded);
  });
  // Persistent: grid 4 pairs degrees 31/65 (warps 3-7 edge-less), 32/255
  // and 33/256 and gives block 0 three items; grid 5 and 6 leave blocks of
  // one item of degree 64 or 33 (warps 2-7); one block takes the first two
  // (warps 1-7) or five (warps 2-7) items.
  for (const auto& [items, grid] :
       {std::pair{kItems, 4u}, std::pair{kItems, 5u}, std::pair{kItems, 6u},
        std::pair{2u, 1u}, std::pair{5u, 1u}}) {
    expect_replay_exact([&](bool lane_loop, bool bounded) {
      return replay_run<Persistence::Persistent>(g, grid, items, lane_loop,
                                                 bounded);
    });
  }
}

TEST(SimGolden, ReplayRefusedForAtomicsAndRacecheck) {
  // The replay contract is the caller's promise; the region still refuses
  // it where replaying would be wrong. A body that claims warps 1-7 alike
  // but lets each of them do a global or a block atomic is interpreted in
  // full: every lane's add lands, and the launch equals the unbounded one.
  constexpr std::uint32_t kGrid = 2, kBd = 256, kWarps = kBd / 32;
  enum Kind { kGlobal, kBlockAtomic };
  auto run_atomic = [&](Kind kind, bool lane_loop, std::uint32_t alike_from) {
    Device dev(rtx3090_like());
    std::vector<std::uint32_t> hits(kWarps, 0);
    auto h = dev.array(std::span<std::uint32_t>(hits));
    double block_hits = 0;
    dev.launch(kGrid, kBd, [&](Block& blk) {
      auto ctr = blk.shared_array<double>(1);
      if (!lane_loop) {
        blk.for_each_thread(
            [&](Thread& t) {
              if (t.warp_in_block() == 0) return;
              if (kind == kGlobal) {
                (void)h.fetch_add(t, t.warp_in_block(), 1u);
              } else {
                blk.atomic_add_block(t, ctr[0], 1.0);
              }
            },
            alike_from);
      } else {
        blk.for_each_warp(
            [&](WarpCtx& w) {
              const std::uint32_t warp = w.tid(0) / 32;
              if (warp == 0) return;
              LaneVec<std::uint32_t> idx{}, one{};
              LaneVec<double> oned{};
              w.for_lanes(w.full(), [&](int l) {
                idx[l] = warp;
                one[l] = 1u;
                oned[l] = 1.0;
              });
              if (kind == kGlobal) {
                h.fetch_add_warp(w, w.full(), idx.v, one.v);
              } else {
                blk.atomic_add_block_warp(w, w.full(), ctr[0], oned.v);
              }
            },
            alike_from);
      }
      block_hits += ctr[0];
    });
    return std::tuple{dev.last_stats(), hits, block_hits};
  };
  for (const Kind kind : {kGlobal, kBlockAtomic}) {
    for (const bool lane_loop : {false, true}) {
      const auto [sa, ha, ba] = run_atomic(kind, lane_loop, 1);
      const auto [sb, hb, bb] = run_atomic(kind, lane_loop,
                                           Block::kNoAlikeWarps);
      expect_identical(sa, sb);
      EXPECT_EQ(ha, hb);
      EXPECT_EQ(ba, bb);
      if (kind == kGlobal) {
        for (std::uint32_t w = 1; w < kWarps; ++w)
          EXPECT_EQ(ha[w], kGrid * 32);
      } else {
        EXPECT_EQ(ba, kGrid * (kWarps - 1) * 32.0);
      }
    }
  }

  // Racecheck needs every lane's thread id in its read hooks, so it never
  // replays: warps 1-7 only read a[0] (truly alike), thread 0 writes it,
  // and the report must equal the unbounded run's.
  auto run_race = [&](bool lane_loop, std::uint32_t alike_from) {
    racecheck::ScopedEnable on(true);
    Device dev(rtx3090_like());
    std::vector<std::uint32_t> buf(1, 7);
    auto a = dev.array(std::span<std::uint32_t>(buf));
    dev.launch(kGrid, kBd, [&](Block& blk) {
      if (!lane_loop) {
        blk.for_each_thread(
            [&](Thread& t) {
              (void)a.ld(t, 0);
              if (t.thread_idx() == 0) a.st(t, 0, 5u);
            },
            alike_from);
        return;
      }
      blk.for_each_warp(
          [&](WarpCtx& w) {
            (void)a.ld_warp_u(w, w.full(), 0);
            if (w.tid(0) != 0) return;
            LaneVec<std::uint32_t> idx{}, val{};
            val[0] = 5u;
            a.st_warp(w, WarpCtx::Mask{1}, idx.v, val.v);
          },
          alike_from);
    });
    return std::pair{dev.last_stats(), dev.racecheck_report()};
  };
  for (const bool lane_loop : {false, true}) {
    const auto [sa, ra] = run_race(lane_loop, 1);
    const auto [sb, rb] = run_race(lane_loop, Block::kNoAlikeWarps);
    expect_identical(sa, sb);
    expect_same_report(ra, rb);
    EXPECT_GT(rb.total_conflicts(), 0u);
  }
}

TEST(SimGolden, EdgeWalkMatchesPerLaneStridedLoop) {
  // A warp-granularity ragged neighbour scan in both styles: per-lane
  // strided loops whose trip counts differ per lane vs edge_walk's
  // round-major batches. With a uniform stride the live masks are exactly
  // the per-lane op groups, so stats must match bit-for-bit; the body also
  // refines the mask (drops lanes that hit a sentinel) to exercise the
  // data-dependent-break mapping used by the MIS scan region.
  constexpr std::uint32_t n = 96;
  std::vector<std::uint32_t> degv(n), out(n);
  for (std::uint32_t i = 0; i < n; ++i) degv[i] = (i * 13u) % 40u;
  auto run = [&](bool lane_loop) {
    std::fill(out.begin(), out.end(), 0u);
    Device dev(rtx3090_like());
    auto dg = dev.array(std::span<std::uint32_t>(degv));
    auto dst = dev.array(std::span<std::uint32_t>(out));
    dev.launch(3, 64, [&](Block& blk) {
      if (lane_loop) {
        blk.for_each_warp([&](WarpCtx& w) {
          const std::uint32_t v = w.gidx_base() / 32;
          const WarpCtx::Mask all = w.full();
          LaneVec<std::uint32_t> vv, lim, e, fin, x, sidx;
          w.for_lanes(all, [&](int l) { vv[l] = v; });
          dg.ld_warp(w, all, vv.v, lim.v);
          w.for_lanes(all, [&](int l) {
            e[l] = static_cast<std::uint32_t>(l);
            fin[l] = lim[l];
            sidx[l] = (v * 32u + static_cast<std::uint32_t>(l)) % n;
          });
          w.edge_walk(all, e, fin, 32u, [&](WarpCtx::Mask live) {
            w.for_lanes(live, [&](int l) { vv[l] = (v + e[l]) % n; });
            dg.ld_warp(w, live, vv.v, x.v);
            dst.fetch_add_warp(w, live, sidx.v, x.v);
            w.work(live, 1.0);
            // Lanes that read a sentinel degree leave the walk early —
            // the round-end refinement that models a per-lane `break`.
            const WarpCtx::Mask done =
                w.where(live, [&](int l) { return x[l] == 39u; });
            return static_cast<WarpCtx::Mask>(live & ~done);
          });
        });
      } else {
        blk.for_each_thread([&](Thread& t) {
          const std::uint32_t v = t.gidx() / 32;
          const std::uint32_t lim = dg.ld(t, v);
          const std::uint32_t sidx =
              (v * 32u + static_cast<std::uint32_t>(t.lane())) % n;
          for (std::uint32_t e = static_cast<std::uint32_t>(t.lane());
               e < lim; e += 32u) {
            const std::uint32_t x = dg.ld(t, (v + e) % n);
            dst.fetch_add(t, sidx, x);
            t.work(1.0);
            if (x == 39u) break;
          }
        });
      }
    });
    return dev.elapsed_seconds();
  };
  const double s_pl = run(false);
  const std::vector<std::uint32_t> out_pl = out;
  const double s_ll = run(true);
  EXPECT_EQ(bits(s_pl), bits(s_ll));
  EXPECT_EQ(out_pl, out);
}

TEST(SimGolden, BlockAtomicAddWarpTwin) {
  std::vector<std::uint32_t> out(8);
  auto run = [&](bool lane_loop) {
    std::fill(out.begin(), out.end(), 0u);
    Device dev(rtx3090_like());
    auto dst = dev.array(std::span<std::uint32_t>(out));
    dev.launch(2, 96, [&](Block& blk) {
      auto sh = blk.shared_array<std::uint32_t>(1);
      if (lane_loop) {
        blk.for_each_warp([&](WarpCtx& w) {
          const WarpCtx::Mask m = w.full();
          LaneVec<std::uint32_t> val;
          w.for_lanes(m, [&](int l) { val[l] = w.gidx(l) + 1; });
          blk.atomic_add_block_warp(w, m, sh[0], val.v);
        });
      } else {
        blk.for_each_thread(
            [&](Thread& t) { blk.atomic_add_block(t, sh[0], t.gidx() + 1); });
      }
      blk.sync();
      blk.for_each_thread([&](Thread& t) {
        if (t.thread_idx() == 0) dst.st(t, blk.block_idx(), sh[0]);
      });
    });
    return dev.elapsed_seconds();
  };
  const double s_pl = run(false);
  const std::vector<std::uint32_t> out_pl = out;
  const double s_ll = run(true);
  EXPECT_EQ(bits(s_pl), bits(s_ll));
  EXPECT_EQ(out_pl, out);
}

// --- integral reduction (TC count precision) --------------------------------
// TC used to accumulate per-block counts in double shared slots and cast the
// reduced total to uint64: any block total above 2^53 silently truncated.
// The uint64 reduce_add overload must be exact where the double tree is not.
TEST(SimGolden, ReduceAddUint64ExactAbove2p53) {
  Device dev(rtx3090_like());
  constexpr std::uint64_t kBig = 1ull << 53;
  dev.launch(1, 64, [&](Block& blk) {
    std::vector<std::uint64_t> vals(64, 0);
    vals[0] = kBig + 1;  // not representable as double
    vals[1] = 1;
    vals[63] = 3;
    const std::uint64_t exact =
        blk.reduce_add(std::span<const std::uint64_t>(vals));
    EXPECT_EQ(exact, kBig + 5);
    // The old double pipeline loses the low bits of the same data.
    std::vector<double> dvals(vals.begin(), vals.end());
    const double rounded = blk.reduce_add(std::span<const double>(dvals));
    EXPECT_NE(static_cast<std::uint64_t>(rounded), kBig + 5);
  });
}

// --- worklist overflow recovery ---------------------------------------------
// Edge-mode data-driven relaxation pushes whole degree ranges through one
// fetch_add; with the logical capacity clamped tiny, every iteration
// overflows, the device guard saturates the counter instead of wrapping it,
// and the host recovery sweep must still converge to the right labels.
TEST(SimGolden, WorklistOverflowRecoverySweep) {
  variants::register_all_variants();
  const Graph g = make_rmat(7);
  const auto cuda = Registry::instance().select(Model::Cuda, std::nullopt);
  RunOptions opts;
  opts.source = 0;
  std::size_t tested = 0;
  for (const Variant* v : cuda) {
    if (v->algo != Algorithm::BFS || v->style.flow != Flow::Edge ||
        v->style.drive == Drive::Topology) {
      continue;
    }
    const RunResult normal = v->run(g, opts);
    RunOptions tiny = opts;
    tiny.wl_cap_override = 8;  // far below any frontier's degree sum
    const RunResult forced = v->run(g, tiny);
    EXPECT_TRUE(forced.converged) << v->name;
    EXPECT_EQ(normal.output.labels, forced.output.labels) << v->name;
    if (++tested >= 4) break;  // a few duplicate/no-dup × det/non-det shapes
  }
  EXPECT_GT(tested, 0u);
}

// --- host-address independence ----------------------------------------------
// Modeled time must not depend on where the host heap lands: Device::array
// assigns deterministic virtual bases for recording, so the same kernel on
// buffers at different host addresses / 128B phases models identically.
// (With real addresses, ASLR made atomic-chain hash collisions — and with
// them cudaatomic modeled seconds — vary from process to process.)
TEST(SimGolden, ModeledTimeIndependentOfHostAddresses) {
  constexpr std::uint32_t kN = 2048;
  // One oversized backing store; carve the working arrays out at a given
  // element offset so both their addresses and their transaction-line
  // phases differ between the two runs.
  auto run_at = [&](std::size_t off) {
    std::vector<std::uint32_t> backing(2 * kN + 512, 0);
    std::vector<std::uint32_t> hist(kN, 0);
    Device dev(rtx3090_like());
    auto vals =
        dev.array(std::span<std::uint32_t>(backing.data() + off, kN));
    auto hot = dev.array(std::span<std::uint32_t>(hist));
    dev.launch(kN / 256, 256, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        const std::uint32_t i = t.gidx();
        const std::uint32_t v = vals.ld(t, i);
        // Scattered RMWs: chain identity flows through the hotspot hash,
        // which the old real-address model made layout-dependent.
        hot.fetch_add<AccessKind::CudaAtomicRmw>(t, (v + i * 37u) % kN, 1u);
        vals.st(t, i, v + 1);
      });
    });
    return std::pair{dev.last_stats(), dev.elapsed_seconds()};
  };
  const auto [a, sa] = run_at(0);
  const auto [b, sb] = run_at(33);  // different address AND line phase
  expect_identical(a, b);
  EXPECT_EQ(bits(sa), bits(sb));
}

}  // namespace
}  // namespace indigo::vcuda
