// Gardenia-flavoured GPU baselines on the vcuda simulator.
#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "baselines/baselines.hpp"
#include "variants/vcuda/vc_common.hpp"

namespace indigo::baselines {
namespace {

using variants::vc::default_device;
using variants::vc::kBD;

std::uint32_t grid_of(std::uint32_t items) { return (items + kBD - 1) / kBD; }

vcuda::Device make_device(const RunOptions& opts) {
  return vcuda::Device(opts.device != nullptr ? *opts.device
                                              : default_device());
}

}  // namespace

RunResult gpu_bfs(const Graph& g, const RunOptions& opts) {
  // Frontier-based level-synchronous BFS (thread-mapped, dedup by CAS on
  // the distance itself - no stat array needed).
  auto dev = make_device(opts);
  const vid_t n = g.num_vertices();
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());
  std::vector<std::uint32_t> dist_h(n, kInfDist);
  auto dist = dev.array(std::span<std::uint32_t>(dist_h));
  std::vector<std::uint32_t> wl_a(n), wl_b(n), size_h(1, 0);
  auto wl_in = dev.array(std::span<std::uint32_t>(wl_a));
  auto wl_out = dev.array(std::span<std::uint32_t>(wl_b));
  auto wl_size = dev.array(std::span<std::uint32_t>(size_h));
  dist_h[opts.source] = 0;
  wl_a[0] = opts.source;
  std::uint32_t in_size = 1;
  std::uint32_t level = 0;
  std::uint64_t iterations = 0;
  while (in_size > 0) {
    ++iterations;
    ++level;
    size_h[0] = 0;
    dev.launch(grid_of(in_size), kBD, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        const std::uint32_t i = t.gidx();
        if (i >= in_size) return;
        const vid_t v = wl_in.ld(t, i);
        const std::uint32_t beg = row.ld(t, v), end = row.ld(t, v + 1);
        for (std::uint32_t e = beg; e < end; ++e) {
          const vid_t u = col.ld(t, e);
          if (dist.atomic_cas(t, u, kInfDist, level) == kInfDist) {
            const std::uint32_t idx = wl_size.fetch_add(t, 0, 1u);
            wl_out.st(t, idx, u);
          }
        }
      });
    });
    in_size = size_h[0];
    std::swap(wl_in, wl_out);
  }
  RunResult r;
  r.iterations = iterations;
  r.seconds = dev.elapsed_seconds();
  r.output.labels = std::move(dist_h);
  return r;
}

RunResult gpu_sssp(const Graph& g, const RunOptions& opts) {
  // Gardenia's trick (paper 5.17): two extra "active" arrays give
  // data-driven work efficiency without worklist maintenance.
  auto dev = make_device(opts);
  const vid_t n = g.num_vertices();
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());
  auto wts = dev.array(g.weights());
  std::vector<std::uint32_t> dist_h(n, kInfDist);
  std::vector<std::uint32_t> act_a(n, 0), act_b(n, 0), flag_h(1, 0);
  auto dist = dev.array(std::span<std::uint32_t>(dist_h));
  auto act_in = dev.array(std::span<std::uint32_t>(act_a));
  auto act_out = dev.array(std::span<std::uint32_t>(act_b));
  auto changed = dev.array(std::span<std::uint32_t>(flag_h));
  dist_h[opts.source] = 0;
  act_a[opts.source] = 1;
  std::uint64_t iterations = 0;
  while (true) {
    ++iterations;
    if (iterations > kMaxIterations) break;
    flag_h[0] = 0;
    dev.launch(grid_of(n), kBD, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        const vid_t v = t.gidx();
        if (v >= n) return;
        if (act_in.ld(t, v) == 0) return;
        act_in.st(t, v, 0);
        const std::uint32_t dv = dist.ld(t, v);
        const std::uint32_t beg = row.ld(t, v), end = row.ld(t, v + 1);
        for (std::uint32_t e = beg; e < end; ++e) {
          const vid_t u = col.ld(t, e);
          const std::uint32_t nd = dv + wts.ld(t, e);
          if (nd < dist.fetch_min(t, u, nd)) {
            act_out.st(t, u, 1);
            changed.st(t, 0, 1);
          }
        }
      });
    });
    if (flag_h[0] == 0) break;
    std::swap(act_in, act_out);
  }
  RunResult r;
  r.iterations = iterations;
  r.seconds = dev.elapsed_seconds();
  r.output.labels = std::move(dist_h);
  return r;
}

RunResult gpu_cc(const Graph& g, const RunOptions& opts) {
  // Shiloach-Vishkin on the device: edge-parallel hooking plus
  // vertex-parallel pointer jumping.
  auto dev = make_device(opts);
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  auto col = dev.array(g.col_index());
  auto srcl = dev.array(g.src_list());
  std::vector<std::uint32_t> comp_h(n), flag_h(1, 0);
  std::iota(comp_h.begin(), comp_h.end(), 0u);
  auto comp = dev.array(std::span<std::uint32_t>(comp_h));
  auto changed = dev.array(std::span<std::uint32_t>(flag_h));
  std::uint64_t iterations = 0;
  while (true) {
    ++iterations;
    if (iterations > kMaxIterations) break;
    flag_h[0] = 0;
    dev.launch(grid_of(m), kBD, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        const std::uint32_t e = t.gidx();
        if (e >= m) return;
        const vid_t u = srcl.ld(t, e), v = col.ld(t, e);
        const std::uint32_t cu = comp.ld(t, u), cv = comp.ld(t, v);
        if (cu < cv && cv == comp.ld(t, cv)) {
          comp.st(t, cv, cu);
          changed.st(t, 0, 1);
        }
      });
    });
    dev.launch(grid_of(n), kBD, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        const vid_t v = t.gidx();
        if (v >= n) return;
        std::uint32_t c = comp.ld(t, v);
        while (c != comp.ld(t, c)) c = comp.ld(t, c);
        comp.st(t, v, c);
      });
    });
    if (flag_h[0] == 0) break;
  }
  RunResult r;
  r.iterations = iterations;
  r.seconds = dev.elapsed_seconds();
  r.output.labels = std::move(comp_h);
  return r;
}

RunResult gpu_pr(const Graph& g, const RunOptions& opts) {
  // Pull PR with pre-divided contributions and a tree-reduced residual.
  auto dev = make_device(opts);
  const vid_t n = g.num_vertices();
  if (n == 0) return RunResult{};
  auto row = dev.array(g.row_index());
  auto col = dev.array(g.col_index());
  constexpr double kD = 0.85;
  const float base = static_cast<float>((1.0 - kD) / n);
  std::vector<float> cur_h(n, 1.0f / static_cast<float>(n)), nxt_h(n),
      contrib_h(n);
  std::vector<double> res_h(1, 0.0);
  auto cur = dev.array(std::span<float>(cur_h));
  auto nxt = dev.array(std::span<float>(nxt_h));
  auto contrib = dev.array(std::span<float>(contrib_h));
  auto res = dev.array(std::span<double>(res_h));
  std::uint64_t itr = 0;
  bool converged = false;
  while (itr < kMaxIterations) {
    ++itr;
    res_h[0] = 0.0;
    dev.launch(grid_of(n), kBD, [&](vcuda::Block& blk) {
      blk.for_each_thread([&](vcuda::Thread& t) {
        const vid_t v = t.gidx();
        if (v >= n) return;
        const std::uint32_t deg = row.ld(t, v + 1) - row.ld(t, v);
        contrib.st(t, v,
                   deg > 0 ? cur.ld(t, v) / static_cast<float>(deg) : 0.0f);
      });
    });
    dev.launch(grid_of(n), kBD, [&](vcuda::Block& blk) {
      auto slots = blk.shared_array<double>(kBD);
      blk.for_each_thread([&](vcuda::Thread& t) {
        const vid_t v = t.gidx();
        if (v >= n) return;
        double sum = 0.0;
        const std::uint32_t beg = row.ld(t, v), end = row.ld(t, v + 1);
        for (std::uint32_t e = beg; e < end; ++e) {
          sum += contrib.ld(t, col.ld(t, e));
          t.work(1);
        }
        const auto fresh = static_cast<float>(base + kD * sum);
        slots[t.thread_idx()] =
            std::abs(static_cast<double>(fresh) - cur.ld(t, v));
        nxt.st(t, v, fresh);
      });
      blk.sync();
      const double total = blk.reduce_add(slots);
      blk.for_each_thread([&](vcuda::Thread& t) {
        if (t.thread_idx() == 0 && total != 0.0) res.fetch_add(t, 0, total);
      });
    });
    std::swap(cur, nxt);
    cur_h.swap(nxt_h);
    if (res_h[0] < kPrEpsilon) {
      converged = true;
      break;
    }
  }
  RunResult r;
  r.iterations = itr;
  r.converged = converged;
  r.seconds = dev.elapsed_seconds();
  r.output.ranks = std::move(cur_h);
  return r;
}

RunResult gpu_tc(const Graph& g, const RunOptions& opts) {
  // Degree-ordered orientation (host preprocessing, Gardenia's "redundant
  // edge removal"), then a thread-per-vertex merge intersection.
  auto dev = make_device(opts);
  const vid_t n = g.num_vertices();
  std::vector<vid_t> order(n);
  std::iota(order.begin(), order.end(), vid_t{0});
  std::sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    const vid_t da = g.degree(a), db = g.degree(b);
    return da != db ? da < db : a < b;
  });
  std::vector<vid_t> pos(n);
  for (vid_t i = 0; i < n; ++i) pos[order[i]] = i;
  std::vector<eid_t> orow_h(n + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : g.neighbors(v)) orow_h[v + 1] += pos[u] > pos[v];
  }
  for (vid_t v = 0; v < n; ++v) orow_h[v + 1] += orow_h[v];
  std::vector<vid_t> ocol_h(orow_h[n]);
  for (vid_t v = 0; v < n; ++v) {
    eid_t k = orow_h[v];
    for (vid_t u : g.neighbors(v)) {
      if (pos[u] > pos[v]) ocol_h[k++] = u;
    }
    std::sort(ocol_h.begin() + orow_h[v], ocol_h.begin() + orow_h[v + 1],
              [&](vid_t a, vid_t b) { return pos[a] < pos[b]; });
  }

  auto orow = dev.array(std::span<const eid_t>(orow_h));
  auto ocol = dev.array(std::span<const vid_t>(ocol_h));
  auto posd = dev.array(std::span<const vid_t>(pos));
  std::vector<std::uint64_t> count_h(1, 0);
  auto count = dev.array(std::span<std::uint64_t>(count_h));

  dev.launch(grid_of(n), kBD, [&](vcuda::Block& blk) {
    auto slots = blk.shared_array<double>(kBD);
    blk.for_each_thread([&](vcuda::Thread& t) {
      const vid_t v = t.gidx();
      if (v >= n) return;
      std::uint64_t local = 0;
      const std::uint32_t bv = orow.ld(t, v), ev = orow.ld(t, v + 1);
      for (std::uint32_t e = bv; e < ev; ++e) {
        const vid_t u = ocol.ld(t, e);
        std::uint32_t iv = bv, iu = orow.ld(t, u);
        const std::uint32_t eu = orow.ld(t, u + 1);
        while (iv < ev && iu < eu) {
          const vid_t pv = posd.ld(t, ocol.ld(t, iv));
          const vid_t pu = posd.ld(t, ocol.ld(t, iu));
          t.work(2);
          if (pv < pu) {
            ++iv;
          } else if (pu < pv) {
            ++iu;
          } else {
            ++local;
            ++iv;
            ++iu;
          }
        }
      }
      slots[t.thread_idx()] += static_cast<double>(local);
    });
    blk.sync();
    const double total = blk.reduce_add(slots);
    blk.for_each_thread([&](vcuda::Thread& t) {
      if (t.thread_idx() == 0 && total != 0.0) {
        count.fetch_add(t, 0, static_cast<std::uint64_t>(total));
      }
    });
  });

  RunResult r;
  r.iterations = 1;
  r.seconds = dev.elapsed_seconds();
  r.output.count = count_h[0];
  return r;
}

bool baseline_available(Model m, Algorithm a) {
  return !(m == Model::Cuda && a == Algorithm::MIS);
}

RunResult run_baseline(Model m, Algorithm a, const Graph& g,
                       const RunOptions& opts) {
  if (m == Model::Cuda) {
    switch (a) {
      case Algorithm::BFS: return gpu_bfs(g, opts);
      case Algorithm::SSSP: return gpu_sssp(g, opts);
      case Algorithm::CC: return gpu_cc(g, opts);
      case Algorithm::PR: return gpu_pr(g, opts);
      case Algorithm::TC: return gpu_tc(g, opts);
      case Algorithm::MIS:
        throw std::invalid_argument("no GPU MIS baseline (as in the paper)");
    }
  }
  switch (a) {
    case Algorithm::BFS: return cpu_bfs(g, opts);
    case Algorithm::SSSP: return cpu_sssp(g, opts);
    case Algorithm::CC: return cpu_cc(g, opts);
    case Algorithm::PR: return cpu_pr(g, opts);
    case Algorithm::TC: return cpu_tc(g, opts);
    case Algorithm::MIS: return cpu_mis(g, opts);
  }
  throw std::invalid_argument("unknown algorithm");
}

}  // namespace indigo::baselines
