// Tests for the virtual-CUDA simulator: execution semantics (ids, barriers,
// shared memory, atomics) and the performance model's qualitative laws
// (coalescing, divergence, same-address serialization, cuda::atomic default
// penalty, device-spec differences).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace indigo::vcuda {
namespace {

DeviceSpec spec() { return rtx3090_like(); }

TEST(VcudaExec, GlobalIndicesCoverTheGridExactlyOnce) {
  Device dev(spec());
  std::vector<std::uint32_t> hits(1024, 0);
  auto arr = dev.array(std::span<std::uint32_t>(hits));
  dev.launch(4, 256, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      EXPECT_LT(t.thread_idx(), 256u);
      EXPECT_LT(t.block_idx(), 4u);
      EXPECT_EQ(t.gidx(), t.block_idx() * 256 + t.thread_idx());
      arr.fetch_add(t, t.gidx(), 1u);
    });
  });
  for (auto h : hits) EXPECT_EQ(h, 1u);
}

TEST(VcudaExec, LaneAndWarpDerivedFromThreadIdx) {
  Device dev(spec());
  dev.launch(1, 96, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      EXPECT_EQ(t.lane(), static_cast<int>(t.thread_idx() % 32));
      EXPECT_EQ(t.warp_in_block(), t.thread_idx() / 32);
    });
  });
}

TEST(VcudaExec, SharedMemoryIsPerBlockAndZeroed) {
  Device dev(spec());
  std::vector<std::uint32_t> out(8, 0);
  auto arr = dev.array(std::span<std::uint32_t>(out));
  dev.launch(8, 64, [&](Block& blk) {
    auto sh = blk.shared_array<std::uint32_t>(1);
    EXPECT_EQ(sh[0], 0u);  // fresh per block
    blk.for_each_thread([&](Thread& t) {
      blk.atomic_add_block(t, sh[0], 1u);
    });
    blk.sync();
    blk.for_each_thread([&](Thread& t) {
      if (t.thread_idx() == 0) arr.st(t, t.block_idx(), sh[0]);
    });
  });
  for (auto v : out) EXPECT_EQ(v, 64u);
}

TEST(VcudaExec, AtomicsHaveFetchSemantics) {
  Device dev(spec());
  std::vector<std::uint32_t> x{10};
  auto arr = dev.array(std::span<std::uint32_t>(x));
  dev.launch(1, 1, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      EXPECT_EQ(arr.fetch_min(t, 0, 7u), 10u);
      EXPECT_EQ(arr.fetch_min(t, 0, 9u), 7u);
      EXPECT_EQ(arr.fetch_max(t, 0, 12u), 7u);
      EXPECT_EQ(arr.fetch_add(t, 0, 3u), 12u);
      EXPECT_EQ(arr.atomic_cas(t, 0, 15u, 99u), 15u);
      EXPECT_EQ(arr.ld(t, 0), 99u);
      EXPECT_EQ(arr.atomic_cas(t, 0, 15u, 1u), 99u);  // failed CAS
      EXPECT_EQ(arr.ld(t, 0), 99u);
      // cuda::atomic flavor.
      EXPECT_EQ(arr.fetch_min<AccessKind::CudaAtomicRmw>(t, 0, 4u), 99u);
      EXPECT_EQ(arr.ld<AccessKind::CudaAtomicLdSt>(t, 0), 4u);
    });
  });
}

TEST(VcudaExec, ReduceAddSumsPerThreadValues) {
  Device dev(spec());
  std::vector<double> result(1, 0.0);
  auto res = dev.array(std::span<double>(result));
  dev.launch(2, 128, [&](Block& blk) {
    auto slots = blk.shared_array<double>(128);
    blk.for_each_thread([&](Thread& t) {
      slots[t.thread_idx()] = t.thread_idx();  // 0+1+...+127 = 8128
    });
    blk.sync();
    const double total = blk.reduce_add(slots);
    EXPECT_DOUBLE_EQ(total, 8128.0);
    blk.for_each_thread([&](Thread& t) {
      if (t.thread_idx() == 0) res.fetch_add(t, 0, total);
    });
  });
  EXPECT_DOUBLE_EQ(result[0], 2 * 8128.0);
}

TEST(VcudaExec, PersistentGridMatchesDeviceCapacity) {
  Device dev(spec());
  EXPECT_EQ(dev.persistent_grid_dim(256),
            dev.spec().concurrent_threads() / 256);
  EXPECT_GE(dev.persistent_grid_dim(1 << 20), 1u);
}

// --- spec and launch validation ---------------------------------------------
// These are throwing checks, not asserts: the default build defines NDEBUG,
// and a bad spec or launch config must still fail loudly in Release.

TEST(VcudaValidate, BadDeviceSpecsThrowAtConstruction) {
  auto rejects = [](auto&& tweak) {
    DeviceSpec s = rtx3090_like();
    tweak(s);
    EXPECT_THROW(Device{s}, std::invalid_argument);
  };
  rejects([](DeviceSpec& s) { s.warp_size = 0; });
  rejects([](DeviceSpec& s) { s.warp_size = 65; });  // lane arrays hold 64
  rejects([](DeviceSpec& s) { s.mem_transaction_bytes = 96; });  // not pow2
  rejects([](DeviceSpec& s) { s.mem_transaction_bytes = 0; });
  rejects([](DeviceSpec& s) { s.num_sms = 0; });
  rejects([](DeviceSpec& s) { s.max_threads_per_sm = 0; });
  rejects([](DeviceSpec& s) { s.clock_ghz = 0.0; });
  rejects([](DeviceSpec& s) { s.mem_bandwidth_gbs = -1.0; });
  // Legal boundary values still construct.
  DeviceSpec ok = rtx3090_like();
  ok.warp_size = 64;
  ok.mem_transaction_bytes = 32;
  Device dev(ok);
  EXPECT_EQ(dev.spec().warp_size, 64);
}

TEST(VcudaValidate, BadLaunchDimensionsThrow) {
  Device dev(spec());
  auto noop = [](Block& blk) { blk.for_each_thread([](Thread&) {}); };
  EXPECT_THROW(dev.launch(0, 32, noop), std::invalid_argument);
  EXPECT_THROW(dev.launch(1, 0, noop), std::invalid_argument);
  EXPECT_THROW(dev.launch(1, 2048, noop), std::invalid_argument);
  dev.launch(1, 1024, noop);  // CUDA's block-dim ceiling is inclusive
  EXPECT_EQ(dev.launches(), 1u);
}

// --- performance-model laws ------------------------------------------------

/// Simulated seconds for a 1-block kernel where each of 32 lanes loads
/// `per_lane` values with the given lane stride (1 word apart = coalesced,
/// 32 words apart = fully scattered).
double load_time(std::uint32_t stride_words, int per_lane) {
  Device dev(spec());
  std::vector<std::uint32_t> data(32u * 32u * 1024u, 1);
  auto arr = dev.array(std::span<std::uint32_t>(data));
  dev.launch(1, 32, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      std::uint32_t sink = 0;
      for (int k = 0; k < per_lane; ++k) {
        sink += arr.ld(
            t, (static_cast<std::uint32_t>(k) * 32u + t.thread_idx()) *
                   stride_words);
      }
      (void)sink;
    });
  });
  return dev.elapsed_seconds();
}

TEST(VcudaModel, CoalescedLoadsBeatScatteredLoads) {
  Device dev_c(spec()), dev_s(spec());
  // Directly compare transaction counts for one warp-wide load group.
  std::vector<std::uint32_t> data(4096, 0);
  auto run = [&](Device& dev, std::uint32_t stride) {
    auto arr = dev.array(std::span<std::uint32_t>(data));
    dev.launch(1, 32, [&](Block& blk) {
      blk.for_each_thread(
          [&](Thread& t) { (void)arr.ld(t, t.thread_idx() * stride); });
    });
    return dev.last_stats().transactions;
  };
  EXPECT_EQ(run(dev_c, 1), 1u);    // 32 adjacent words: one 128B line
  EXPECT_EQ(run(dev_s, 32), 32u);  // 128B apart: one line each
}

TEST(VcudaModel, CoalescingHonorsNonDefaultTransactionSize) {
  // The segment size must come from the spec, not a baked-in 128.
  std::vector<std::uint32_t> data(4096, 0);
  auto run = [&](int seg_bytes, std::uint32_t stride) {
    DeviceSpec s = rtx3090_like();
    s.mem_transaction_bytes = seg_bytes;
    Device dev(s);
    auto arr = dev.array(std::span<std::uint32_t>(data));
    dev.launch(1, 32, [&](Block& blk) {
      blk.for_each_thread(
          [&](Thread& t) { (void)arr.ld(t, t.thread_idx() * stride); });
    });
    return dev.last_stats().transactions;
  };
  // 32 adjacent words = 128 bytes: two 64B segments, one 256B segment.
  EXPECT_EQ(run(64, 1), 2u);
  EXPECT_EQ(run(256, 1), 1u);
  // One segment-width apart: a replay per lane at either size.
  EXPECT_EQ(run(64, 16), 32u);
  EXPECT_EQ(run(256, 64), 32u);
}

TEST(VcudaModel, BaseAlignmentMaskTracksTransactionSize) {
  // Regression: the coalescer used to canonicalize the buffer base with a
  // hardcoded ~127 mask. On a 256B-segment device a base sitting at
  // 128 (mod 256) then straddled two segments, so a warp-contiguous
  // 256-byte load counted 2 transactions instead of 1.
  DeviceSpec s = rtx3090_like();
  s.mem_transaction_bytes = 256;
  std::vector<std::uint64_t> backing(1024, 0);
  const auto addr = reinterpret_cast<std::uintptr_t>(backing.data());
  // Offset the span so its base address is exactly 128 (mod 256).
  const std::size_t off =
      ((128 + 256 - addr % 256) % 256) / sizeof(std::uint64_t);
  Device dev(s);
  auto arr = dev.array(std::span<std::uint64_t>(backing.data() + off, 512));
  dev.launch(1, 32, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) { (void)arr.ld(t, t.thread_idx()); });
  });
  // 32 x 8B = 256 contiguous bytes from a segment-aligned (canonicalized)
  // base: exactly one 256-byte transaction.
  EXPECT_EQ(dev.last_stats().transactions, 1u);
}

TEST(VcudaModel, DivergenceChargesWarpAtSlowestLane) {
  // One lane doing 1000 units of work must cost the warp ~1000, not ~31.
  auto run = [&](bool imbalanced) {
    Device dev(spec());
    dev.launch(1, 32, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        const bool heavy = imbalanced ? t.thread_idx() == 0 : true;
        t.work(heavy ? 1000.0 : 1000.0 / 32.0);
      });
    });
    return dev.last_stats().compute_cycles;
  };
  const double balanced = run(false);     // every lane 1000: max = 1000
  const double imbalanced = run(true);    // lane0 1000, rest ~31: max = 1000
  EXPECT_NEAR(balanced, imbalanced, 1.0);
}

TEST(VcudaModel, SameAddressAtomicsSerializeAcrossWarps) {
  auto hotspot = [&](bool same_address) {
    Device dev(spec());
    std::vector<std::uint32_t> ctr(4096, 0);
    auto arr = dev.array(std::span<std::uint32_t>(ctr));
    dev.launch(32, 256, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        arr.fetch_add(t, same_address ? 0 : t.gidx() % 4096, 1u);
      });
    });
    return dev.last_stats().hotspot_cycles_max;
  };
  // 8192 threads on one address = 256 warp-aggregated units; spread over
  // 4096 addresses only a couple land per chain (hash-bin collisions can
  // stack a few addresses per slot, hence 10x not 100x).
  EXPECT_GT(hotspot(true), 10 * hotspot(false));
}

TEST(VcudaModel, WarpAggregationCoalescesSameAddressAtomicsWithinWarp) {
  Device dev(spec());
  std::vector<std::uint32_t> ctr(1, 0);
  auto arr = dev.array(std::span<std::uint32_t>(ctr));
  dev.launch(1, 32, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) { arr.fetch_add(t, 0, 1u); });
  });
  // One warp, one address, one program point -> one serialization unit.
  EXPECT_NEAR(dev.last_stats().hotspot_cycles_max,
              dev.spec().same_address_atomic_cycles, 1e-9);
  EXPECT_EQ(ctr[0], 32u);  // functionally still 32 adds
}

TEST(VcudaModel, DefaultCudaAtomicIsMuchSlowerThanClassic) {
  auto run = [&](bool cuda_atomic) {
    Device dev(spec());
    std::vector<std::uint32_t> data(1 << 16, 0xffffffffu);
    auto arr = dev.array(std::span<std::uint32_t>(data));
    dev.launch(64, 256, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        const std::uint32_t i = t.gidx();
        if (cuda_atomic) {
          (void)arr.ld<AccessKind::CudaAtomicLdSt>(t, i);
          (void)arr.fetch_min<AccessKind::CudaAtomicRmw>(t, i, i);
        } else {
          (void)arr.ld(t, i);
          (void)arr.fetch_min(t, i, i);
        }
      });
    });
    return dev.elapsed_seconds();
  };
  const double classic = run(false);
  const double cudaatomic = run(true);
  EXPECT_GT(cudaatomic, 4.0 * classic);  // Section 5.1's headline effect
}

TEST(VcudaModel, TitanVLikePaysMoreForCudaAtomicThanRtx3090Like) {
  auto ratio_on = [&](const DeviceSpec& s) {
    auto run = [&](bool cuda_atomic) {
      Device dev(s);
      std::vector<std::uint32_t> data(1 << 14, 0xffffffffu);
      auto arr = dev.array(std::span<std::uint32_t>(data));
      dev.launch(16, 256, [&](Block& blk) {
        blk.for_each_thread([&](Thread& t) {
          if (cuda_atomic) {
            (void)arr.ld<AccessKind::CudaAtomicLdSt>(t, t.gidx());
          } else {
            (void)arr.ld(t, t.gidx());
          }
        });
      });
      return dev.elapsed_seconds();
    };
    return run(true) / run(false);
  };
  EXPECT_GT(ratio_on(titanv_like()), 2.0 * ratio_on(rtx3090_like()));
}

TEST(VcudaModel, KernelLaunchesAccumulateOverheadAndCount) {
  Device dev(spec());
  for (int i = 0; i < 10; ++i) {
    dev.launch(1, 32, [&](Block& blk) {
      blk.for_each_thread([](Thread&) {});
    });
  }
  EXPECT_EQ(dev.launches(), 10u);
  EXPECT_GE(dev.elapsed_seconds(), 10 * spec().kernel_launch_us * 1e-6);
}

TEST(VcudaModel, MoreMemoryTrafficTakesLonger) {
  EXPECT_GT(load_time(32, 64), load_time(32, 8));
}

// --- observability hooks ----------------------------------------------------

TEST(VcudaObs, UncoalescedTwinReportsMoreTransactionsAndReplays) {
  std::vector<std::uint32_t> data(4096, 0);
  // The same kernel at two lane strides: adjacent words coalesce into one
  // 128-byte transaction, 128-byte-apart words replay into 32.
  auto run = [&](std::uint32_t stride) {
    Device dev(spec());
    auto arr = dev.array(std::span<std::uint32_t>(data));
    dev.launch(1, 32, [&](Block& blk) {
      blk.for_each_thread(
          [&](Thread& t) { (void)arr.ld(t, t.thread_idx() * stride); });
    });
    return dev.totals().metrics();
  };
  auto coalesced = run(1);
  auto scattered = run(32);
  EXPECT_DOUBLE_EQ(coalesced["vcuda.launches"], 1.0);
  EXPECT_DOUBLE_EQ(coalesced["vcuda.transactions"], 1.0);
  EXPECT_DOUBLE_EQ(scattered["vcuda.transactions"], 32.0);
  EXPECT_EQ(coalesced.count("vcuda.transactions_replayed"), 0u);  // zero
  EXPECT_DOUBLE_EQ(scattered["vcuda.transactions_replayed"], 31.0);
  EXPECT_GT(scattered["vcuda.transactions"], coalesced["vcuda.transactions"]);
}

TEST(VcudaObs, MetricsScopeCollectsOnlyItsOwnDevices) {
  auto run = [](std::uint32_t grid) {
    Device dev(spec());
    for (int i = 0; i < 3; ++i) {
      dev.launch(grid, 32, [](Block& blk) {
        blk.for_each_thread([](Thread& t) { t.work(10.0); });
      });
    }
  };
  run(1);  // outside any scope: counted nowhere
  MetricsScope outer;
  run(2);
  {
    MetricsScope inner;
    run(4);
    run(8);
    EXPECT_EQ(inner.totals().launches, 6u);
    EXPECT_EQ(inner.totals().occupancy.count, 6u);
  }
  EXPECT_EQ(outer.totals().launches, 3u);
  const auto m = outer.totals().metrics();
  EXPECT_DOUBLE_EQ(m.at("vcuda.launches"), 3.0);
  EXPECT_DOUBLE_EQ(m.at("vcuda.occupancy.count"), 3.0);
  EXPECT_DOUBLE_EQ(m.at("vcuda.occupancy.min"), m.at("vcuda.occupancy.max"));
  EXPECT_TRUE(m.contains("mem.launch_footprint_bytes.p99"));
}

TEST(VcudaObs, AtomicConflictsCountCrossWarpContentionNotPrivateReuse) {
  // Contended: 8 one-warp blocks all hammer address 0. Warp aggregation
  // folds each warp's 32 adds into one chain unit, so 8 units from 8
  // distinct warps = 7 conflicts.
  Device contended(spec());
  std::vector<std::uint32_t> ctr(1024, 0);
  auto arr_c = contended.array(std::span<std::uint32_t>(ctr));
  contended.launch(8, 32, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) { arr_c.fetch_add(t, 0, 1u); });
  });
  EXPECT_EQ(contended.last_stats().atomic_conflicts, 7u);
  EXPECT_EQ(contended.last_stats().atomic_ops, 8u);

  // Private reuse: one warp where every lane re-hits its own address 16
  // times (the pull-style owned-vertex pattern) serializes only with
  // itself — not a conflict.
  Device reuse(spec());
  auto arr_r = reuse.array(std::span<std::uint32_t>(ctr));
  reuse.launch(1, 32, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      for (int k = 0; k < 16; ++k) arr_r.fetch_add(t, t.gidx(), 1u);
    });
  });
  EXPECT_EQ(reuse.last_stats().atomic_conflicts, 0u);
  EXPECT_GT(reuse.last_stats().atomic_ops, 0u);
}

TEST(VcudaObs, LaunchStatsExposeDivergenceAndOccupancy) {
  Device dev(spec());
  dev.launch(2, 64, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      // Lane 0 of each warp does 31x the work of its siblings.
      t.work(t.lane() == 0 ? 310.0 : 10.0);
    });
  });
  const LaunchStats& s = dev.last_stats();
  EXPECT_GT(s.divergence_factor(), 1.5);  // far from lockstep-perfect
  EXPECT_EQ(s.grid_dim, 2u);
  EXPECT_EQ(s.block_dim, 64u);
  EXPECT_GT(s.occupancy, 0.0);
  EXPECT_LE(s.occupancy, 1.0);

  Device uniform(spec());
  uniform.launch(2, 64, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) { t.work(10.0); });
  });
  EXPECT_DOUBLE_EQ(uniform.last_stats().divergence_factor(), 1.0);
}

}  // namespace
}  // namespace indigo::vcuda
