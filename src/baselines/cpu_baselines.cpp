#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "baselines/baselines.hpp"
#include "graph/prng.hpp"
#include "threading/atomics.hpp"
#include "threading/thread_team.hpp"

namespace indigo::baselines {
namespace {

void set_threads(const RunOptions& opts) {
  omp_set_num_threads(opts.num_threads > 0 ? opts.num_threads
                                           : cpu_threads());
}

}  // namespace

RunResult cpu_bfs(const Graph& g, const RunOptions& opts) {
  set_threads(opts);
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  const eid_t* row = g.row_index().data();
  const vid_t* col = g.col_index().data();

  std::vector<dist_t> dist(n, kInfDist);
  std::vector<vid_t> frontier{opts.source};
  std::vector<std::uint8_t> in_frontier(n, 0);
  dist[opts.source] = 0;
  dist_t level = 0;
  std::uint64_t iterations = 0;

  // GAPBS-style direction optimization: top-down while the frontier is
  // small, bottom-up once its out-edge volume passes a fraction of m.
  while (!frontier.empty()) {
    ++iterations;
    ++level;
    std::uint64_t frontier_edges = 0;
    for (vid_t v : frontier) frontier_edges += g.degree(v);
    std::vector<vid_t> next;
    if (frontier_edges * 20 > m) {
      // Bottom-up: every unvisited vertex scans for a visited parent.
      std::fill(in_frontier.begin(), in_frontier.end(), 0);
      for (vid_t v : frontier) in_frontier[v] = 1;
      std::vector<std::vector<vid_t>> local(
          static_cast<std::size_t>(omp_get_max_threads()));
#pragma omp parallel
      {
        auto& mine = local[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
        for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
          const auto v = static_cast<vid_t>(vi);
          if (dist[v] != kInfDist) continue;
          for (eid_t e = row[v]; e < row[v + 1]; ++e) {
            if (in_frontier[col[e]]) {
              dist[v] = level;
              mine.push_back(v);
              break;
            }
          }
        }
      }
      for (auto& lv : local) next.insert(next.end(), lv.begin(), lv.end());
    } else {
      // Top-down with per-thread buffers.
      std::vector<std::vector<vid_t>> local(
          static_cast<std::size_t>(omp_get_max_threads()));
#pragma omp parallel
      {
        auto& mine = local[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
        for (std::int64_t i = 0;
             i < static_cast<std::int64_t>(frontier.size()); ++i) {
          const vid_t v = frontier[static_cast<std::size_t>(i)];
          for (eid_t e = row[v]; e < row[v + 1]; ++e) {
            const vid_t u = col[e];
            std::uint32_t expected = kInfDist;
            if (std::atomic_ref<std::uint32_t>(dist[u])
                    .compare_exchange_strong(expected, level,
                                             std::memory_order_relaxed)) {
              mine.push_back(u);
            }
          }
        }
      }
      for (auto& lv : local) next.insert(next.end(), lv.begin(), lv.end());
    }
    frontier = std::move(next);
  }

  RunResult r;
  r.iterations = iterations;
  r.output.labels = std::move(dist);
  return r;
}

RunResult cpu_sssp(const Graph& g, const RunOptions& opts) {
  set_threads(opts);
  const vid_t n = g.num_vertices();
  const eid_t* row = g.row_index().data();
  const vid_t* col = g.col_index().data();
  const weight_t* wts = g.weights().data();

  // Delta-stepping (Lonestar-style): buckets of width delta; light edges
  // (w <= delta) are relaxed iteratively inside the bucket, heavy ones once
  // when the bucket settles.
  constexpr dist_t kDelta = 64;
  std::vector<dist_t> dist(n, kInfDist);
  dist[opts.source] = 0;
  std::vector<std::vector<vid_t>> buckets(4);
  auto bucket_of = [&](dist_t d) { return d / kDelta; };
  auto push_bucket = [&](vid_t v, dist_t d) {
    const std::size_t b = bucket_of(d);
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(v);
  };
  push_bucket(opts.source, 0);
  std::uint64_t iterations = 0;

  for (std::size_t bi = 0; bi < buckets.size(); ++bi) {
    std::vector<vid_t> heavy_sources;
    while (!buckets[bi].empty()) {
      ++iterations;
      std::vector<vid_t> current = std::move(buckets[bi]);
      buckets[bi].clear();
      std::vector<std::vector<std::pair<vid_t, dist_t>>> local(
          static_cast<std::size_t>(omp_get_max_threads()));
#pragma omp parallel
      {
        auto& mine = local[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
        for (std::int64_t i = 0;
             i < static_cast<std::int64_t>(current.size()); ++i) {
          const vid_t v = current[static_cast<std::size_t>(i)];
          const dist_t dv =
              std::atomic_ref<const dist_t>(dist[v]).load(
                  std::memory_order_relaxed);
          if (bucket_of(dv) != bi) continue;  // stale entry
          for (eid_t e = row[v]; e < row[v + 1]; ++e) {
            if (wts[e] > kDelta) continue;  // light edges only
            const vid_t u = col[e];
            const dist_t nd = dv + wts[e];
            if (nd < atomic_fetch_min(dist[u], nd)) mine.push_back({u, nd});
          }
        }
      }
      heavy_sources.insert(heavy_sources.end(), current.begin(),
                           current.end());
      for (auto& lv : local) {
        for (auto [u, nd] : lv) push_bucket(u, nd);
      }
    }
    // Heavy edges of everything settled in this bucket.
    std::vector<std::vector<std::pair<vid_t, dist_t>>> local(
        static_cast<std::size_t>(omp_get_max_threads()));
#pragma omp parallel
    {
      auto& mine = local[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
      for (std::int64_t i = 0;
           i < static_cast<std::int64_t>(heavy_sources.size()); ++i) {
        const vid_t v = heavy_sources[static_cast<std::size_t>(i)];
        const dist_t dv = std::atomic_ref<const dist_t>(dist[v]).load(
            std::memory_order_relaxed);
        if (bucket_of(dv) != bi) continue;
        for (eid_t e = row[v]; e < row[v + 1]; ++e) {
          if (wts[e] <= kDelta) continue;
          const vid_t u = col[e];
          const dist_t nd = dv + wts[e];
          if (nd < atomic_fetch_min(dist[u], nd)) mine.push_back({u, nd});
        }
      }
    }
    for (auto& lv : local) {
      for (auto [u, nd] : lv) push_bucket(u, nd);
    }
  }

  RunResult r;
  r.iterations = iterations;
  r.output.labels = std::move(dist);
  return r;
}

RunResult cpu_cc(const Graph& g, const RunOptions& opts) {
  set_threads(opts);
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  const vid_t* col = g.col_index().data();
  const vid_t* src = g.src_list().data();

  // Shiloach-Vishkin: hook lower labels onto roots, then pointer-jump.
  std::vector<vid_t> comp(n);
  std::iota(comp.begin(), comp.end(), vid_t{0});
  std::uint64_t iterations = 0;
  bool changed = true;
  while (changed) {
    ++iterations;
    changed = false;
#pragma omp parallel for schedule(static) reduction(|| : changed)
    for (std::int64_t ei = 0; ei < static_cast<std::int64_t>(m); ++ei) {
      const auto e = static_cast<eid_t>(ei);
      const vid_t u = src[e], v = col[e];
      const vid_t cu = comp[u], cv = comp[v];
      if (cu < cv && cv == comp[cv]) {
        comp[cv] = cu;  // benign write race: any lower hook is progress
        changed = true;
      }
    }
#pragma omp parallel for schedule(static)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<vid_t>(vi);
      while (comp[v] != comp[comp[v]]) comp[v] = comp[comp[v]];
    }
  }
  // SV converges to the minimum id per component already (hooks only go
  // downward), so comp is directly comparable to the reference labels.
  RunResult r;
  r.iterations = iterations;
  r.output.labels = std::move(comp);
  return r;
}

RunResult cpu_mis(const Graph& g, const RunOptions& opts) {
  set_threads(opts);
  const vid_t n = g.num_vertices();
  const eid_t* row = g.row_index().data();
  const vid_t* col = g.col_index().data();

  // Luby's algorithm: fresh random priorities each round; local minima of
  // the remaining graph join, neighbours leave.
  std::vector<std::uint8_t> alive(n, 1), in_set(n, 0);
  std::uint64_t round = 0;
  std::uint64_t remaining = n;
  while (remaining > 0 && round < kMaxIterations) {
    ++round;
    std::uint64_t removed = 0;
#pragma omp parallel for schedule(static) reduction(+ : removed)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<vid_t>(vi);
      if (!alive[v]) continue;
      const std::uint64_t pv = hash64(round * 0x100000001b3ull + v);
      bool local_min = true;
      for (eid_t e = row[v]; e < row[v + 1]; ++e) {
        const vid_t u = col[e];
        if (!alive[u]) continue;
        const std::uint64_t pu = hash64(round * 0x100000001b3ull + u);
        if (pu < pv || (pu == pv && u < v)) {
          local_min = false;
          break;
        }
      }
      if (local_min) {
        in_set[v] = 1;
        ++removed;
      }
    }
#pragma omp parallel for schedule(static) reduction(+ : removed)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<vid_t>(vi);
      if (!alive[v] || in_set[v]) continue;
      for (eid_t e = row[v]; e < row[v + 1]; ++e) {
        if (in_set[col[e]]) {
          alive[v] = 0;
          ++removed;
          break;
        }
      }
    }
#pragma omp parallel for schedule(static)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      if (in_set[vi]) alive[vi] = 0;
    }
    remaining -= removed;
  }

  RunResult r;
  r.iterations = round;
  r.converged = remaining == 0;
  r.output.labels.assign(in_set.begin(), in_set.end());
  return r;
}

RunResult cpu_pr(const Graph& g, const RunOptions& opts) {
  set_threads(opts);
  const vid_t n = g.num_vertices();
  if (n == 0) return RunResult{};
  const eid_t* row = g.row_index().data();
  const vid_t* col = g.col_index().data();
  constexpr double kD = 0.85;
  const float base = static_cast<float>((1.0 - kD) / n);
  std::vector<float> cur(n, 1.0f / static_cast<float>(n)), nxt(n);
  // Pre-divided contributions avoid the division in the inner loop - the
  // kind of program-specific optimization the baselines are known for.
  std::vector<float> contrib(n);
  std::uint64_t itr = 0;
  bool converged = false;
  while (itr < kMaxIterations) {
    ++itr;
    double residual = 0.0;
#pragma omp parallel for schedule(static)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<vid_t>(vi);
      const vid_t deg = static_cast<vid_t>(row[v + 1] - row[v]);
      contrib[v] = deg > 0 ? cur[v] / static_cast<float>(deg) : 0.0f;
    }
#pragma omp parallel for schedule(static) reduction(+ : residual)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<vid_t>(vi);
      double sum = 0.0;
      for (eid_t e = row[v]; e < row[v + 1]; ++e) sum += contrib[col[e]];
      const auto fresh = static_cast<float>(base + kD * sum);
      residual += std::abs(static_cast<double>(fresh) - cur[v]);
      nxt[v] = fresh;
    }
    cur.swap(nxt);
    if (residual < kPrEpsilon) {
      converged = true;
      break;
    }
  }
  RunResult r;
  r.iterations = itr;
  r.converged = converged;
  r.output.ranks = std::move(cur);
  return r;
}

RunResult cpu_tc(const Graph& g, const RunOptions& opts) {
  set_threads(opts);
  const vid_t n = g.num_vertices();

  // Degree-ordered orientation ("redundant edge removal", Section 5.17):
  // keep only arcs toward higher-rank endpoints, shrinking intersections.
  std::vector<vid_t> rank(n);
  std::iota(rank.begin(), rank.end(), vid_t{0});
  std::sort(rank.begin(), rank.end(), [&](vid_t a, vid_t b) {
    const vid_t da = g.degree(a), db = g.degree(b);
    return da != db ? da < db : a < b;
  });
  std::vector<vid_t> pos(n);
  for (vid_t i = 0; i < n; ++i) pos[rank[i]] = i;

  std::vector<eid_t> orow(n + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    for (vid_t u : g.neighbors(v)) orow[v + 1] += pos[u] > pos[v];
  }
  for (vid_t v = 0; v < n; ++v) orow[v + 1] += orow[v];
  std::vector<vid_t> ocol(orow[n]);
  for (vid_t v = 0; v < n; ++v) {
    eid_t k = orow[v];
    for (vid_t u : g.neighbors(v)) {
      if (pos[u] > pos[v]) ocol[k++] = u;
    }
    std::sort(ocol.begin() + orow[v], ocol.begin() + orow[v + 1],
              [&](vid_t a, vid_t b) { return pos[a] < pos[b]; });
  }

  std::uint64_t total = 0;
#pragma omp parallel for schedule(dynamic, 64) reduction(+ : total)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<vid_t>(vi);
    for (eid_t e = orow[v]; e < orow[v + 1]; ++e) {
      const vid_t u = ocol[e];
      // Intersect oriented lists of v and u (sorted by pos).
      eid_t iv = orow[v], ev = orow[v + 1];
      eid_t iu = orow[u], eu = orow[u + 1];
      while (iv < ev && iu < eu) {
        const vid_t pv = pos[ocol[iv]], pu = pos[ocol[iu]];
        if (pv < pu) {
          ++iv;
        } else if (pu < pv) {
          ++iu;
        } else {
          ++total;
          ++iv;
          ++iu;
        }
      }
    }
  }

  RunResult r;
  r.iterations = 1;
  r.output.count = total;
  return r;
}

std::string verify_mis_properties(const Graph& g,
                                  const std::vector<std::uint32_t>& in_set) {
  const vid_t n = g.num_vertices();
  if (in_set.size() != n) return "MIS output has wrong size";
  for (vid_t v = 0; v < n; ++v) {
    bool any_in_neighbor = false;
    for (vid_t u : g.neighbors(v)) {
      if (in_set[u] != 0) {
        any_in_neighbor = true;
        if (in_set[v] != 0) return "MIS not independent";
      }
    }
    if (in_set[v] == 0 && !any_in_neighbor) return "MIS not maximal";
  }
  return {};
}

}  // namespace indigo::baselines
