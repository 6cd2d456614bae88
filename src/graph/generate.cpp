#include "graph/generate.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>

#include "graph/prng.hpp"

namespace indigo {
namespace {

weight_t rand_weight(SplitMix64& rng) {
  return static_cast<weight_t>(1 + rng.next_below(255));
}

/// Disjoint-set forest used to thread a spanning tree through roadnet.
class UnionFind {
 public:
  explicit UnionFind(vid_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), vid_t{0});
  }
  vid_t find(vid_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(vid_t a, vid_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<vid_t> parent_;
};

struct GridDims {
  vid_t x, y;
};

GridDims grid_dims(unsigned scale) {
  const unsigned sx = (scale + 1) / 2;
  const unsigned sy = scale / 2;
  return {vid_t{1} << sx, vid_t{1} << sy};
}

/// Samples one R-MAT edge for a 2^scale-vertex graph.
std::pair<vid_t, vid_t> rmat_edge(unsigned scale, double a, double b, double c,
                                  SplitMix64& rng) {
  vid_t u = 0, v = 0;
  for (unsigned bit = 0; bit < scale; ++bit) {
    const double r = rng.next_double();
    // Mild parameter noise per level (standard Graph500 practice) prevents
    // artificially regular degree staircases.
    const double noise = 0.95 + 0.1 * rng.next_double();
    const double an = a * noise, bn = b * noise, cn = c * noise;
    u <<= 1;
    v <<= 1;
    if (r < an) {
      // top-left quadrant: both bits 0
    } else if (r < an + bn) {
      v |= 1;
    } else if (r < an + bn + cn) {
      u |= 1;
    } else {
      u |= 1;
      v |= 1;
    }
  }
  return {u, v};
}

Graph make_rmat_family(unsigned scale, std::uint64_t seed, double a, double b,
                       double c, unsigned edge_factor, std::string name) {
  const vid_t n = vid_t{1} << scale;
  SplitMix64 rng(seed);
  GraphBuilder builder(n, std::move(name));
  const std::uint64_t m = static_cast<std::uint64_t>(edge_factor) * n;
  for (std::uint64_t i = 0; i < m; ++i) {
    auto [u, v] = rmat_edge(scale, a, b, c, rng);
    if (u != v) builder.add_undirected(u, v, rand_weight(rng));
  }
  return builder.finish();
}

}  // namespace

Graph make_grid2d(unsigned scale, std::uint64_t seed) {
  const auto [X, Y] = grid_dims(scale);
  SplitMix64 rng(seed);
  GraphBuilder builder(X * Y, "grid2d-2e" + std::to_string(scale));
  auto id = [X = X](vid_t x, vid_t y) { return y * X + x; };
  for (vid_t y = 0; y < Y; ++y) {
    for (vid_t x = 0; x < X; ++x) {
      if (x + 1 < X) builder.add_undirected(id(x, y), id(x + 1, y),
                                            rand_weight(rng));
      if (y + 1 < Y) builder.add_undirected(id(x, y), id(x, y + 1),
                                            rand_weight(rng));
    }
  }
  return builder.finish();
}

Graph make_roadnet(unsigned scale, std::uint64_t seed) {
  const auto [X, Y] = grid_dims(scale);
  const vid_t n = X * Y;
  SplitMix64 rng(seed);
  auto id = [X = X](vid_t x, vid_t y) { return y * X + x; };

  // Candidate edges: the 4-connected grid plus one diagonal per cell.
  std::vector<std::pair<vid_t, vid_t>> candidates;
  candidates.reserve(static_cast<std::size_t>(n) * 3);
  for (vid_t y = 0; y < Y; ++y) {
    for (vid_t x = 0; x < X; ++x) {
      if (x + 1 < X) candidates.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < Y) candidates.emplace_back(id(x, y), id(x, y + 1));
      if (x + 1 < X && y + 1 < Y)
        candidates.emplace_back(id(x, y), id(x + 1, y + 1));
    }
  }
  // Fisher-Yates shuffle, then take a spanning tree first so the network is
  // connected like a road map, then top up to the target average degree.
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.next_below(i)]);
  }
  GraphBuilder builder(n, "roadnet-2e" + std::to_string(scale));
  UnionFind uf(n);
  std::vector<std::pair<vid_t, vid_t>> extras;
  for (const auto& [u, v] : candidates) {
    if (uf.unite(u, v)) {
      builder.add_undirected(u, v, rand_weight(rng));
    } else {
      extras.push_back({u, v});
    }
  }
  // USA-road-d.NY has avg degree 2.8 => ~1.4n undirected edges; the spanning
  // tree contributed n-1 of them.
  const std::uint64_t target_extra =
      static_cast<std::uint64_t>(0.4 * static_cast<double>(n));
  for (std::uint64_t i = 0; i < target_extra && i < extras.size(); ++i) {
    builder.add_undirected(extras[i].first, extras[i].second,
                           rand_weight(rng));
  }
  return builder.finish();
}

Graph make_rmat(unsigned scale, std::uint64_t seed) {
  return make_rmat_family(scale, seed, 0.57, 0.19, 0.19, 8,
                          "rmat-2e" + std::to_string(scale));
}

Graph make_social(unsigned scale, std::uint64_t seed) {
  // More skew than Graph500 rmat: a distinctly heavier hub tail, like
  // soc-LiveJournal1's d_max of 20k at d_avg 17.7.
  return make_rmat_family(scale, seed, 0.70, 0.13, 0.13, 10,
                          "social-2e" + std::to_string(scale));
}

Graph make_copaper(unsigned scale, std::uint64_t seed) {
  const vid_t n = vid_t{1} << scale;
  SplitMix64 rng(seed);
  GraphBuilder builder(n, "copaper-2e" + std::to_string(scale));
  // "Papers" are cliques of authors. Sizes follow a truncated power law;
  // members mix preferential attachment (55%) with uniform picks, giving
  // both the high average degree and the multi-thousand d_max of
  // coPapersDBLP.
  std::vector<vid_t> attachment;  // one slot per prior authorship
  attachment.reserve(static_cast<std::size_t>(n) * 4);
  const std::uint64_t papers = (3 * static_cast<std::uint64_t>(n)) / 4;
  std::vector<vid_t> members;
  for (std::uint64_t p = 0; p < papers; ++p) {
    // Pareto-ish author-list size in [3, 48], calibrated so the deduped
    // co-author graph lands near coPapersDBLP's average degree of 56.
    const double u = rng.next_double();
    auto size = static_cast<unsigned>(0.9 / std::max(1e-9, 1.0 - u) + 2.5);
    size = std::min(size, 48u);
    members.clear();
    while (members.size() < size) {
      vid_t a;
      if (!attachment.empty() && rng.next_double() < 0.55) {
        a = attachment[rng.next_below(attachment.size())];
      } else {
        a = static_cast<vid_t>(rng.next_below(n));
      }
      if (std::find(members.begin(), members.end(), a) == members.end()) {
        members.push_back(a);
      }
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      attachment.push_back(members[i]);
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        builder.add_undirected(members[i], members[j], rand_weight(rng));
      }
    }
  }
  return builder.finish();
}

const char* input_class_name(InputClass c) {
  switch (c) {
    case InputClass::Grid2d: return "grid2d";
    case InputClass::RoadNet: return "roadnet";
    case InputClass::Rmat: return "rmat";
    case InputClass::Social: return "social";
    case InputClass::CoPaper: return "copaper";
  }
  return "?";
}

const char* input_class_paper_name(InputClass c) {
  switch (c) {
    case InputClass::Grid2d: return "2d-2e20.sym";
    case InputClass::RoadNet: return "USA-road-d.NY";
    case InputClass::Rmat: return "rmat22.sym";
    case InputClass::Social: return "soc-LiveJournal1";
    case InputClass::CoPaper: return "coPapersDBLP";
  }
  return "?";
}

Graph make_input(InputClass c, unsigned scale, std::uint64_t seed_salt) {
  switch (c) {
    case InputClass::Grid2d: return make_grid2d(scale, 1 + seed_salt);
    case InputClass::RoadNet: return make_roadnet(scale, 2 + seed_salt);
    case InputClass::Rmat: return make_rmat(scale, 3 + seed_salt);
    case InputClass::Social: return make_social(scale, 4 + seed_salt);
    case InputClass::CoPaper: return make_copaper(scale, 5 + seed_salt);
  }
  throw std::invalid_argument("unknown InputClass");
}

int repro_scale_level() {
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr) return 1;
  const std::string v = env;
  if (v == "0" || v == "1" || v == "2") return v[0] - '0';
  throw std::invalid_argument("REPRO_SCALE must be 0, 1 or 2, got '" + v +
                              "'");
}

unsigned default_input_scale(InputClass c) {
  const int level = repro_scale_level();
  // Per-class scales: high-diameter inputs stay smaller because the
  // topology-driven codes are O(diameter * edges).
  switch (c) {
    case InputClass::Grid2d: return level == 0 ? 8u : level == 1 ? 13u : 18u;
    case InputClass::RoadNet: return level == 0 ? 8u : level == 1 ? 12u : 16u;
    case InputClass::Rmat: return level == 0 ? 8u : level == 1 ? 12u : 18u;
    case InputClass::Social: return level == 0 ? 8u : level == 1 ? 12u : 18u;
    case InputClass::CoPaper: return level == 0 ? 7u : level == 1 ? 10u : 15u;
  }
  return 10;
}

std::vector<Graph> make_study_inputs() {
  std::vector<Graph> out;
  out.reserve(std::size(kAllInputs));
  for (InputClass c : kAllInputs) {
    out.push_back(make_input(c, default_input_scale(c)));
  }
  return out;
}

}  // namespace indigo
