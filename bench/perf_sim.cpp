// Interpreter-throughput microbenchmark for the vcuda simulator.
//
// The whole-study wall clock is bound by how fast the single-threaded
// interpreter can push simulated accesses through the recorder (BENCH_sweep:
// scheduling 3470 model-timed jobs across workers bought 0.985x on one core —
// the hot path IS the study's scaling axis). This binary times that hot path
// in isolation: eight kernels spanning the paper's style axes (push/pull x
// vertex/edge BFS + PR, a MIS-style scan, a colliding edge relaxation and a
// worklist-tail hotspot) over an R-MAT input. The kernels are written in the
// lane-loop form the variant kernels use (Block::for_each_warp: a warp's
// lanes advance together through SoA state, divergence is a 64-bit mask
// word, and each *_warp accessor records a whole lane batch at once; see
// WarpCtx in vcuda/sim.hpp).
//
// One more kernel times the per-lane engine (Block::for_each_thread, where
// each lane runs to completion and the recorder groups the lanes' k-th
// accesses): a thread-granularity TC merge walk, whose hub lanes record far
// more accesses than their siblings. It is written to the JSON as
// "per_lane_kernels", outside the gated "aggregate".
//
// Integrity check: every launch must record exactly the lane-level access
// count the kernel's entry states analytically (LaunchStats::lane_accesses);
// a mismatch means the kernel no longer performs the access sequence its
// ns/access figure is computed over, and the run exits 1.
//
// Flags:
//   --scale=N        log2 vertex count of the R-MAT input (default 14)
//   --reps=N         sweeps per kernel (default 6)
//   --json=PATH      output path (default BENCH_sim.json)
//   --baseline=PATH  compare aggregate accesses/sec against a previous
//                    BENCH_sim.json; exit 1 if it regressed more than
//   --tolerance=X    the soft threshold (default 0.30, i.e. -30%)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generate.hpp"
#include "obs/counters.hpp"
#include "racecheck/racecheck.hpp"
#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace {

using namespace indigo;
using Clock = std::chrono::steady_clock;
using Mask = vcuda::WarpCtx::Mask;

constexpr std::uint32_t kBD = 256;

struct KernelResult {
  std::string name;
  double wall_s = 0;
  std::uint64_t launches = 0;
  std::uint64_t accesses = 0;       // lane-level simulated accesses issued
  std::uint64_t lane_accesses = 0;  // measured per launch (LaunchStats)
  std::uint64_t sim_edges = 0;      // edge relaxations simulated
  double ns_per_access = 0;
  double sim_edges_per_s = 0;
};

std::uint32_t grid_for(std::uint64_t items) {
  return static_cast<std::uint32_t>((items + kBD - 1) / kBD);
}

/// Times `reps` launches of `kernel(dev)`; every launch must issue
/// `accesses_per_launch` lane-level accesses over `edges_per_launch` edges.
/// The result's lane_accesses is the measured LaunchStats::lane_accesses of
/// the first launch that deviates from that count, or the count itself.
template <typename K>
KernelResult time_kernel(const std::string& name, const vcuda::DeviceSpec& spec,
                         int reps, std::uint64_t accesses_per_launch,
                         std::uint64_t edges_per_launch, K&& kernel) {
  vcuda::Device dev(spec);
  kernel(dev);  // warm-up: page in buffers, size the recorder arena
  std::uint64_t measured = dev.last_stats().lane_accesses;
  // Per-rep timing with a best-of-N estimate: the simulator is
  // deterministic, so every rep does identical work and the minimum rep is
  // the run least disturbed by scheduler jitter. Timing all reps in one
  // block instead would hand the whole measurement to whichever rep a
  // context switch landed on (observed ±15% swings).
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    kernel(dev);
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, s);
    if (measured == accesses_per_launch)
      measured = dev.last_stats().lane_accesses;
  }
  const double wall = best * reps;
  KernelResult res;
  res.name = name;
  res.wall_s = wall;
  res.launches = static_cast<std::uint64_t>(reps);
  res.accesses = accesses_per_launch * static_cast<std::uint64_t>(reps);
  res.lane_accesses = measured;
  res.sim_edges = edges_per_launch * static_cast<std::uint64_t>(reps);
  res.ns_per_access =
      res.accesses > 0 ? wall * 1e9 / static_cast<double>(res.accesses) : 0;
  res.sim_edges_per_s =
      wall > 0 ? static_cast<double>(res.sim_edges) / wall : 0;
  return res;
}

double read_baseline_accesses_per_s(const std::string& path) {
  std::ifstream in(path);
  if (!in) return -1;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"accesses_per_s\":";
  const std::size_t pos = text.rfind(key);
  if (pos == std::string::npos) return -1;
  return std::atof(text.c_str() + pos + key.size());
}

void emit_kernel_array(std::ofstream& json,
                       const std::vector<KernelResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& kr = results[i];
    json << "    {\"name\": \"" << kr.name << "\", \"wall_s\": " << kr.wall_s
         << ", \"accesses\": " << kr.accesses
         << ", \"lane_accesses\": " << kr.lane_accesses
         << ", \"ns_per_access\": " << kr.ns_per_access
         << ", \"sim_edges_per_s\": " << kr.sim_edges_per_s << "}"
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned scale = 14;
  int reps = 6;
  std::string json_path = "BENCH_sim.json";
  std::string baseline_path;
  double tolerance = 0.30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (key == "--scale") {
      scale = static_cast<unsigned>(std::atoi(val.c_str()));
    } else if (key == "--reps") {
      reps = std::max(1, std::atoi(val.c_str()));
    } else if (key == "--json") {
      json_path = val;
    } else if (key == "--baseline") {
      baseline_path = val;
    } else if (key == "--tolerance") {
      tolerance = std::atof(val.c_str());
    } else {
      std::cerr << "usage: perf_sim [--scale=N] [--reps=N] [--json=PATH] "
                   "[--baseline=PATH] [--tolerance=X]\n";
      return 2;
    }
  }
  if (obs::enabled() || racecheck::enabled()) {
    std::cerr << "[perf_sim] warning: obs/racecheck enabled; numbers will "
                 "not reflect the default timing configuration\n";
  }

  const Graph g = make_rmat(scale);
  const vid_t n = g.num_vertices();
  const eid_t e = g.num_edges();
  const vcuda::DeviceSpec spec = vcuda::rtx3090_like();
  std::cout << "[perf_sim] " << g.name() << ": " << n << " vertices, " << e
            << " arcs, " << reps << " sweeps per kernel\n";

  // Host-side state the kernels touch. The relaxations run to convergence
  // quickly, but atomic_min/ld record the same accesses whether or not the
  // value moves, so every sweep is an identical interpreter workload.
  std::vector<std::uint32_t> dist(n, 0xffffffffu);
  std::vector<float> rank(n, 1.0f / static_cast<float>(n));
  std::vector<float> contrib(n, 0.0f);
  std::vector<std::uint32_t> wl_tail(1, 0);
  dist[0] = 0;

  // The graph arrays as device spans (const_cast mirrors what the real
  // variants do: DeviceArray needs a mutable span; topology is never
  // stored to).
  auto row_span = std::span<eid_t>(const_cast<eid_t*>(g.row_index().data()),
                                   g.row_index().size());
  auto col_span = std::span<vid_t>(const_cast<vid_t*>(g.col_index().data()),
                                   g.col_index().size());
  auto src_span = std::span<vid_t>(const_cast<vid_t*>(g.src_list().data()),
                                   g.src_list().size());

  std::vector<KernelResult> results;
  auto bench = [&](const std::string& name, std::uint64_t accesses,
                   std::uint64_t edges, auto&& kernel) {
    results.push_back(time_kernel(name, spec, reps, accesses, edges, kernel));
  };

  // --- BFS push, vertex granularity: ld row[2] + per edge ld col +
  // atomic_min(dist) — the Listing 2a shape. The warp walks the ragged
  // adjacency lists in lockstep: `live` drops a lane's bit once its edge
  // cursor passes its row end (divergence as mask arithmetic).
  bench(
      "bfs_push_vertex",
      /*accesses=*/static_cast<std::uint64_t>(n) * 3 +
          static_cast<std::uint64_t>(e) * 2,
      /*edges=*/e,
      [&](vcuda::Device& dev) {
        auto row = dev.array(row_span);
        auto col = dev.array(col_span);
        auto d = dev.array(std::span<std::uint32_t>(dist));
        dev.launch(grid_for(n), kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= n) return;
            const Mask active = w.mask_first(n - base);
            vcuda::LaneVec<std::uint32_t> dv, nd;
            vcuda::LaneVec<eid_t> cur, hi;
            vcuda::LaneVec<vid_t> u;
            d.ld_warp_c(w, active, base, dv.v);
            row.ld_warp_c(w, active, base, cur.v);
            row.ld_warp_c(w, active, base + 1, hi.v);
            w.for_lanes(active, [&](int l) { nd[l] = dv[l] + 1; });
            w.edge_walk(active, cur, hi, eid_t{1}, [&](Mask live) {
              col.ld_warp(w, live, cur.v, u.v);
              d.fetch_min_warp(w, live, u.v, nd.v);
              return live;
            });
          });
        });
      });

  // --- BFS pull, vertex granularity: per edge ld col + ld dist, then one
  // plain store — all-load coalescing traffic (Listing 3a shape).
  bench(
      "bfs_pull_vertex",
      static_cast<std::uint64_t>(n) * 4 + static_cast<std::uint64_t>(e) * 2,
      e,
      [&](vcuda::Device& dev) {
        auto row = dev.array(row_span);
        auto col = dev.array(col_span);
        auto d = dev.array(std::span<std::uint32_t>(dist));
        dev.launch(grid_for(n), kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= n) return;
            const Mask active = w.mask_first(n - base);
            vcuda::LaneVec<std::uint32_t> best, du;
            vcuda::LaneVec<eid_t> cur, hi;
            vcuda::LaneVec<vid_t> u;
            d.ld_warp_c(w, active, base, best.v);
            row.ld_warp_c(w, active, base, cur.v);
            row.ld_warp_c(w, active, base + 1, hi.v);
            w.edge_walk(active, cur, hi, eid_t{1}, [&](Mask live) {
              col.ld_warp(w, live, cur.v, u.v);
              d.ld_warp(w, live, u.v, du.v);
              w.for_lanes(live, [&](int l) {
                if (du[l] != 0xffffffffu && du[l] + 1 < best[l]) {
                  best[l] = du[l] + 1;
                }
              });
              return live;
            });
            d.st_warp_c(w, active, base, best.v);
          });
        });
      });

  // --- BFS push, edge granularity: coalesced COO loads + scattered
  // atomic_min (Listing 2b shape). The guard `ds != inf` is a mask
  // refinement; the earlier BFS kernels leave every arc source finite.
  bench(
      "bfs_push_edge", static_cast<std::uint64_t>(e) * 4, e,
      [&](vcuda::Device& dev) {
        auto src = dev.array(src_span);
        auto dst = dev.array(col_span);
        auto d = dev.array(std::span<std::uint32_t>(dist));
        dev.launch(grid_for(e), kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= e) return;
            const Mask active = w.mask_first(e - base);
            vcuda::LaneVec<vid_t> s, u;
            vcuda::LaneVec<std::uint32_t> ds, nd;
            src.ld_warp_c(w, active, base, s.v);
            dst.ld_warp_c(w, active, base, u.v);
            d.ld_warp(w, active, s.v, ds.v);
            const Mask hit =
                w.where(active, [&](int l) { return ds[l] != 0xffffffffu; });
            w.for_lanes(hit, [&](int l) { nd[l] = ds[l] + 1; });
            d.fetch_min_warp(w, hit, u.v, nd.v);
          });
        });
      });

  // --- PR pull, vertex granularity: gather contributions, plain store.
  bench(
      "pr_pull_vertex",
      static_cast<std::uint64_t>(n) * 3 + static_cast<std::uint64_t>(e) * 2,
      e,
      [&](vcuda::Device& dev) {
        auto row = dev.array(row_span);
        auto col = dev.array(col_span);
        auto r = dev.array(std::span<float>(rank));
        auto c = dev.array(std::span<float>(contrib));
        dev.launch(grid_for(n), kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= n) return;
            const Mask active = w.mask_first(n - base);
            vcuda::LaneVec<float> sum, cu;
            vcuda::LaneVec<eid_t> cur, hi;
            vcuda::LaneVec<vid_t> u;
            w.for_lanes(active, [&](int l) { sum[l] = 0; });
            row.ld_warp_c(w, active, base, cur.v);
            row.ld_warp_c(w, active, base + 1, hi.v);
            w.edge_walk(active, cur, hi, eid_t{1}, [&](Mask live) {
              col.ld_warp(w, live, cur.v, u.v);
              c.ld_warp(w, live, u.v, cu.v);
              w.for_lanes(live, [&](int l) { sum[l] += cu[l]; });
              return live;
            });
            w.for_lanes(active, [&](int l) {
              sum[l] = 0.15f / static_cast<float>(n) + 0.85f * sum[l];
            });
            r.st_warp_c(w, active, base, sum.v);
          });
        });
      });

  // --- PR push, edge granularity: coalesced COO loads + scattered
  // atomic_add into ranks (the contended RMW style).
  bench(
      "pr_push_edge", static_cast<std::uint64_t>(e) * 4, e,
      [&](vcuda::Device& dev) {
        auto src = dev.array(src_span);
        auto dst = dev.array(col_span);
        auto r = dev.array(std::span<float>(rank));
        auto c = dev.array(std::span<float>(contrib));
        dev.launch(grid_for(e), kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= e) return;
            const Mask active = w.mask_first(e - base);
            vcuda::LaneVec<vid_t> s, u;
            vcuda::LaneVec<float> cs;
            src.ld_warp_c(w, active, base, s.v);
            dst.ld_warp_c(w, active, base, u.v);
            c.ld_warp(w, active, s.v, cs.v);
            r.fetch_add_warp(w, active, u.v, cs.v);
          });
        });
      });

  // --- MIS-style warp-granularity scan: one warp per vertex, lanes stride
  // the neighbourhood, and a lane that sees an "In" neighbour leaves the
  // walk early — the ragged data-dependent-break shape MIS region B runs
  // through edge_walk. `state` is never written: every sweep is identical,
  // and the access count follows from a host replay of the breaks.
  std::vector<std::uint32_t> mis_state(n);
  for (std::uint32_t i = 0; i < n; ++i) mis_state[i] = (i % 5 == 0) ? 1u : 0u;
  std::uint64_t mis_accesses = 0;
  for (vid_t v = 0; v < n; ++v) {
    const eid_t lo = g.row_index()[v], hi = g.row_index()[v + 1];
    for (eid_t l = 0; l < 32; ++l) {
      mis_accesses += 2;  // row[v], row[v + 1]
      for (eid_t i = lo + l; i < hi; i += 32) {
        mis_accesses += 2;  // col[i], state[u]
        if (mis_state[g.col_index()[i]] == 1u) break;
      }
    }
  }
  bench(
      "mis_scan_warp", mis_accesses, e,
      [&](vcuda::Device& dev) {
        auto row = dev.array(row_span);
        auto col = dev.array(col_span);
        auto st = dev.array(std::span<std::uint32_t>(mis_state));
        dev.launch(grid_for(static_cast<std::uint64_t>(n) * 32), kBD,
                   [&](vcuda::Block& blk) {
                     blk.for_each_warp([&](vcuda::WarpCtx& w) {
                       const std::uint32_t v = w.gidx_base() / 32;
                       if (v >= n) return;
                       const Mask all = w.full();
                       vcuda::LaneVec<std::uint32_t> vv, su;
                       vcuda::LaneVec<eid_t> cur, fin;
                       vcuda::LaneVec<vid_t> u;
                       w.for_lanes(all, [&](int l) { vv[l] = v; });
                       row.ld_warp(w, all, vv.v, cur.v);
                       w.for_lanes(all, [&](int l) { vv[l] = v + 1; });
                       row.ld_warp(w, all, vv.v, fin.v);
                       w.for_lanes(all, [&](int l) {
                         cur[l] += static_cast<eid_t>(l);
                       });
                       w.edge_walk(all, cur, fin, 32u, [&](Mask live) {
                         col.ld_warp(w, live, cur.v, u.v);
                         st.ld_warp(w, live, u.v, su.v);
                         const Mask done = w.where(
                             live, [&](int l) { return su[l] == 1u; });
                         w.work(done, 1.0);
                         return static_cast<Mask>(live & ~done);
                       });
                     });
                   });
      });

  // --- Edge relaxation in the exact shape the lane-loop Det+RMW edge
  // kernel runs: COO loads, a guard-mask refinement, a fetch_min whose
  // same-batch collisions replay per-lane order, and a conditional-suffix
  // flag store. `dist` is read-only here
  // (writes land in dist2), so every sweep issues identical accesses.
  std::vector<std::uint32_t> dist2(n, 0xffffffffu);
  std::vector<std::uint32_t> seq_flag(1, 0);
  std::uint64_t seq_accesses = 0;
  for (eid_t i = 0; i < e; ++i) {
    const std::uint32_t ds = dist[g.src_list()[i]];
    seq_accesses += 3;  // src[i], dst[i], dist[s]
    if (ds == 0xffffffffu) continue;
    seq_accesses += (ds & 7u) == 0u ? 2 : 1;  // fetch_min (+ flag store)
  }
  bench(
      "sssp_edge_seq", seq_accesses, e,
      [&](vcuda::Device& dev) {
        auto src = dev.array(src_span);
        auto dst = dev.array(col_span);
        auto d = dev.array(std::span<std::uint32_t>(dist));
        auto d2 = dev.array(std::span<std::uint32_t>(dist2));
        auto fl = dev.array(std::span<std::uint32_t>(seq_flag));
        dev.launch(grid_for(e), kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= e) return;
            const Mask active = w.mask_first(e - base);
            vcuda::LaneVec<vid_t> s, u;
            vcuda::LaneVec<std::uint32_t> ds, nd, old, zero, one;
            src.ld_warp_c(w, active, base, s.v);
            dst.ld_warp_c(w, active, base, u.v);
            d.ld_warp(w, active, s.v, ds.v);
            const Mask hit =
                w.where(active, [&](int l) { return ds[l] != 0xffffffffu; });
            w.for_lanes(hit, [&](int l) { nd[l] = ds[l] + 1; });
            d2.fetch_min_warp(w, hit, u.v, nd.v, old.v);
            const Mask flagged =
                w.where(hit, [&](int l) { return (ds[l] & 7u) == 0u; });
            w.for_lanes(flagged, [&](int l) {
              zero[l] = 0;
              one[l] = 1u;
            });
            fl.st_warp(w, flagged, zero.v, one.v);
          });
        });
      });

  // --- Worklist-tail hotspot: every thread bumps one shared cursor — the
  // maximally serialized same-address chain (note_atomic_chain's worst
  // case, one unit per warp after aggregation). It hits the warp-uniform
  // short-circuit in the batched accounting.
  bench(
      "wl_tail_hotspot", static_cast<std::uint64_t>(n), n,
      [&](vcuda::Device& dev) {
        auto tail = dev.array(std::span<std::uint32_t>(wl_tail));
        dev.launch(grid_for(n), kBD, [&](vcuda::Block& blk) {
          blk.for_each_warp([&](vcuda::WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= n) return;
            const Mask active = w.mask_first(n - base);
            vcuda::LaneVec<std::uint32_t> zero, one;
            w.for_lanes(active, [&](int l) {
              zero[l] = 0;
              one[l] = 1;
            });
            tail.fetch_add_warp(w, active, zero.v, one.v);
          });
        });
      });

  // --- TC merge walk, thread granularity, per-lane engine: thread u walks
  // N(u) and, for every forward neighbour v > u, merges the parts of N(u)
  // and N(v) above v (the vertex-thread TC kernel of variants/vcuda/tc.cpp).
  // The walk is written once over its two loads, so the host replay that
  // counts the accesses runs the identical sequence.
  auto tc_walk = [n](vid_t u, auto&& row_at, auto&& col_at, auto&& work) {
    if (u >= n) return;
    const eid_t beg = row_at(u), end = row_at(u + 1);
    for (eid_t e = beg; e < end; ++e) {
      const vid_t v = col_at(e);
      if (v <= u) continue;
      eid_t iu = row_at(u), eu = row_at(u + 1);
      eid_t iv = row_at(v), ev = row_at(v + 1);
      vid_t a = 0, b = 0;
      while (iu < eu && (a = col_at(iu)) <= v) ++iu;
      while (iv < ev && (b = col_at(iv)) <= v) ++iv;
      while (iu < eu && iv < ev) {
        work();
        if (a < b) {
          if (++iu < eu) a = col_at(iu);
        } else if (b < a) {
          if (++iv < ev) b = col_at(iv);
        } else {  // a common neighbour: a triangle
          if (++iu < eu) a = col_at(iu);
          if (++iv < ev) b = col_at(iv);
        }
      }
    }
  };
  std::uint64_t tc_accesses = 0;
  const auto counted = [&](const auto& arr) {
    return [&](std::size_t i) {
      ++tc_accesses;
      return arr[i];
    };
  };
  for (vid_t u = 0; u < n; ++u) {
    tc_walk(u, counted(g.row_index()), counted(g.col_index()), [] {});
  }
  std::vector<KernelResult> per_lane_results;
  per_lane_results.push_back(time_kernel(
      "tc_merge_thread", spec, reps, tc_accesses, e,
      [&](vcuda::Device& dev) {
        auto row = dev.array(row_span);
        auto col = dev.array(col_span);
        dev.launch(grid_for(n), kBD, [&](vcuda::Block& blk) {
          blk.for_each_thread([&](vcuda::Thread& t) {
            tc_walk(
                t.gidx(), [&](std::size_t i) { return row.ld(t, i); },
                [&](std::size_t i) { return col.ld(t, i); },
                [&] { t.work(2); });
          });
        });
      }));

  std::printf("[perf_sim] %-16s %10s %14s\n", "kernel", "ns/access",
              "lane accesses");
  bool access_mismatch = false;
  auto report = [&](const KernelResult& k) {
    std::printf("[perf_sim] %-16s %10.1f %14llu\n", k.name.c_str(),
                k.ns_per_access, static_cast<unsigned long long>(k.lane_accesses));
    const std::uint64_t analytic = k.accesses / k.launches;
    if (k.lane_accesses != analytic) {
      std::fprintf(stderr,
                   "[perf_sim] FAIL: '%s' recorded %llu lane accesses in a "
                   "launch, analytic count is %llu\n",
                   k.name.c_str(),
                   static_cast<unsigned long long>(k.lane_accesses),
                   static_cast<unsigned long long>(analytic));
      access_mismatch = true;
    }
  };
  double wall = 0;
  std::uint64_t total_accesses = 0, total_edges = 0;
  for (const KernelResult& k : results) {
    wall += k.wall_s;
    total_accesses += k.accesses;
    total_edges += k.sim_edges;
    report(k);
  }
  std::printf("[perf_sim] per-lane engine (not in the aggregate):\n");
  for (const KernelResult& k : per_lane_results) report(k);
  const double agg_aps =
      wall > 0 ? static_cast<double>(total_accesses) / wall : 0;
  const double agg_eps =
      wall > 0 ? static_cast<double>(total_edges) / wall : 0;
  std::printf(
      "[perf_sim] aggregate: %.3fs wall, %.2f Maccesses/s, %.2f Msimedges/s\n",
      wall, agg_aps / 1e6, agg_eps / 1e6);

  std::ofstream json(json_path);
  json.precision(6);
  json << "{\n  \"graph\": \"" << g.name() << "\",\n  \"vertices\": " << n
       << ",\n  \"arcs\": " << e << ",\n  \"reps\": " << reps
       << ",\n  \"kernels\": [\n";
  emit_kernel_array(json, results);
  json << "  ],\n  \"per_lane_kernels\": [\n";
  emit_kernel_array(json, per_lane_results);
  // "aggregate" (the gated metric) must stay the LAST accesses_per_s key in
  // the file: the baseline reader takes the final occurrence.
  json << "  ],\n  \"aggregate\": {\"wall_s\": " << wall
       << ", \"accesses_per_s\": " << agg_aps
       << ", \"sim_edges_per_s\": " << agg_eps << "}\n}\n";
  std::cout << "[perf_sim] wrote " << json_path << '\n';

  if (!baseline_path.empty()) {
    const double base = read_baseline_accesses_per_s(baseline_path);
    if (base <= 0) {
      std::cerr << "[perf_sim] could not read baseline " << baseline_path
                << '\n';
      return 1;
    }
    const double ratio = agg_aps / base;
    std::printf("[perf_sim] vs baseline: %.2fx (%.2f -> %.2f Maccesses/s, "
                "tolerance -%.0f%%)\n",
                ratio, base / 1e6, agg_aps / 1e6, tolerance * 100);
    if (ratio < 1.0 - tolerance) {
      std::cerr << "[perf_sim] FAIL: throughput regressed beyond tolerance\n";
      return 1;
    }
  }
  if (access_mismatch) return 1;
  return 0;
}
