// Study digest: every registered cuda variant on the five level-0 study
// inputs and both device presets, pinned against tests/data/sim_digest.txt.
// One line per (program | graph | device): the raw bits of the modeled
// seconds, the iteration count, the converged flag and an FNV-1a hash of
// the output. A refactor of the interpreter or of a kernel cannot move any
// modeled number of the study without this test noticing. Two hand-built
// inputs pin the engine dispatch of the Warp/Block-granularity vertex
// kernels: boundary_input both sides of the one-round rule, and
// hub_pairs_input the replayed edge-less warps of multi-item persistent
// blocks and of the TC Block kernels. A third, tc_arcs_input, pins both
// sides of the same rule for the TC edge-flow Warp/Block kernels.
//
// The digest detects changes; it is not an independent oracle. When a
// change is meant to move modeled numbers, review the diff of the actual
// digest (written next to the test binary on a mismatch) and accept it
// with the printed `cp` command.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/csr.hpp"
#include "graph/generate.hpp"
#include "variants/register_all.hpp"
#include "vcuda/device_spec.hpp"

namespace indigo {
namespace {

/// FNV-1a over the output fields, in a fixed order: labels, count, rank
/// bits (each value little-endian, byte by byte).
class Fnv1a {
 public:
  void add(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t output_hash(const AlgoOutput& out) {
  Fnv1a h;
  for (std::uint32_t l : out.labels) h.add(l, 4);
  h.add(out.count, 8);
  for (float r : out.ranks) h.add(std::bit_cast<std::uint32_t>(r), 4);
  return h.value();
}

std::string digest_line(const Variant& v, const Graph& g,
                        const vcuda::DeviceSpec& dev) {
  const std::string key = v.name + '|' + g.name() + '|' + dev.name;
  RunOptions opts;
  opts.source = 0;
  opts.device = &dev;
  try {
    const RunResult r = v.run(g, opts);
    char buf[96];
    std::snprintf(buf, sizeof buf, " %016" PRIx64 " %" PRIu64 " %d %016" PRIx64,
                  std::bit_cast<std::uint64_t>(r.seconds), r.iterations,
                  r.converged ? 1 : 0, output_hash(r.output));
    return key + buf;
  } catch (const std::exception& e) {
    return key + " error " + e.what();
  }
}

/// Degree-boundary input for the one-round dispatch of Warp/Block-
/// granularity vertex kernels: hubs of degree 31/32/33 (around
/// the warp stride) and 255/256/257 (around the block stride), each in its
/// own warp-granularity block, plus one self-loop (which sends in-place
/// styles down the multi-round path). A ring over the other vertices keeps
/// the graph connected; the level-0 inputs have no vertex above degree 121.
Graph boundary_input() {
  constexpr vid_t kN = 512;
  constexpr vid_t kHubs[] = {8, 16, 24, 32, 40, 48};
  constexpr vid_t kHubDegree[] = {31, 32, 33, 255, 256, 257};
  constexpr vid_t kSelfLoop = 100;
  auto is_hub = [&](vid_t v) {
    return std::find(std::begin(kHubs), std::end(kHubs), v) != std::end(kHubs);
  };
  std::vector<vid_t> leaves;
  for (vid_t v = 0; v < kN; ++v) {
    if (!is_hub(v)) leaves.push_back(v);
  }
  auto weight = [](vid_t u, vid_t v) {
    return static_cast<weight_t>(1 + (u * 7 + v * 13) % 50);
  };
  GraphBuilder b(kN, "boundary-2e9");
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const vid_t u = leaves[i], v = leaves[(i + 1) % leaves.size()];
    b.add_undirected(u, v, weight(std::min(u, v), std::max(u, v)));
  }
  for (std::size_t h = 0; h < std::size(kHubs); ++h) {
    // Distinct leaves, spread over the id range.
    for (vid_t k = 0; k < kHubDegree[h]; ++k) {
      const vid_t v = leaves[(h * 37 + k * 3) % leaves.size()];
      b.add_undirected(kHubs[h], v, weight(kHubs[h], v));
    }
  }
  b.add_arc(kSelfLoop, kSelfLoop, 3);
  return b.finish({.remove_self_loops = false, .remove_duplicates = true});
}

/// Multi-item persistent Block input: 1,024 vertices, so the rtx3090_like
/// grid (492 blocks) gives every block two or three items and the
/// titanv_like grid (640 blocks) gives blocks 0-383 two. Hubs of degree
/// 33 and 64 sit in two-item blocks on both devices and put warp 1, but no
/// later warp, on the edge side of their block; hubs of degree 225 and 256
/// put all eight warps there. Vertices 110 (degree 48) and 602 (degree
/// 240) share rtx3090_like block 110. Leaves form a ring, as in
/// boundary_input.
Graph hub_pairs_input() {
  constexpr vid_t kN = 1024;
  constexpr vid_t kHubs[] = {50, 60, 70, 80, 110, 602};
  constexpr vid_t kHubDegree[] = {33, 64, 225, 256, 48, 240};
  auto is_hub = [&](vid_t v) {
    return std::find(std::begin(kHubs), std::end(kHubs), v) != std::end(kHubs);
  };
  std::vector<vid_t> leaves;
  for (vid_t v = 0; v < kN; ++v) {
    if (!is_hub(v)) leaves.push_back(v);
  }
  auto weight = [](vid_t u, vid_t v) {
    return static_cast<weight_t>(1 + (u * 11 + v * 5) % 50);
  };
  GraphBuilder b(kN, "hubpairs-2e10");
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const vid_t u = leaves[i], v = leaves[(i + 1) % leaves.size()];
    b.add_undirected(u, v, weight(std::min(u, v), std::max(u, v)));
  }
  for (std::size_t h = 0; h < std::size(kHubs); ++h) {
    for (vid_t k = 0; k < kHubDegree[h]; ++k) {
      const vid_t v = leaves[(h * 53 + k * 3) % leaves.size()];
      b.add_undirected(kHubs[h], v, weight(kHubs[h], v));
    }
  }
  return b.finish({.remove_duplicates = true});
}

/// Arc-boundary input for the one-round dispatch of the TC edge-flow
/// Warp/Block kernels, whose arc (u, v) strides N(u) when u < v and has no
/// strided edge otherwise. Hubs of degree 32/33 (around the warp stride)
/// and 256/257 (around the block stride) sit mid-range, so each has arcs on
/// both sides of v. Every two consecutive leaves of a hub are joined by a
/// chord, which closes a triangle through the hub (and, two apart on the
/// leaf ring, one through the ring vertex between them); an arc from a hub
/// to its second-largest leaf has one searching lane, so a hit there is its
/// warp's last search round (GlobalAdd's trailing atomic).
Graph tc_arcs_input() {
  constexpr vid_t kN = 640;
  constexpr vid_t kHubs[] = {200, 280, 360, 440};
  constexpr vid_t kHubDegree[] = {32, 33, 256, 257};
  auto is_hub = [&](vid_t v) {
    return std::find(std::begin(kHubs), std::end(kHubs), v) != std::end(kHubs);
  };
  std::vector<vid_t> leaves;
  for (vid_t v = 0; v < kN; ++v) {
    if (!is_hub(v)) leaves.push_back(v);
  }
  const auto nl = static_cast<vid_t>(leaves.size());
  GraphBuilder b(kN, "tcarcs-2e9");
  for (vid_t i = 0; i < nl; ++i) {
    b.add_undirected(leaves[i], leaves[(i + 1) % nl]);
  }
  for (std::size_t h = 0; h < std::size(kHubs); ++h) {
    // Distinct leaves, `step` apart on the ring, spread over the id range.
    const vid_t step = std::max<vid_t>(2, nl / kHubDegree[h]);
    for (vid_t k = 0; k < kHubDegree[h]; ++k) {
      const vid_t at = (static_cast<vid_t>(h) * 41 + k * step) % nl;
      b.add_undirected(kHubs[h], leaves[at]);
      if (k > 0) b.add_undirected(leaves[(at + nl - step) % nl], leaves[at]);
    }
  }
  return b.finish({});
}

/// The programs whose Warp/Block kernels dispatch on boundary_input's
/// degrees: vertex-flow relaxations and PR push, non-persistent and
/// persistent. Its 512 vertices exceed the rtx3090_like persistent Block
/// grid (492 blocks), so blocks 0-19 (hubs 8 and 16 among them) get two
/// items there; every other persistent group gets at most one.
bool boundary_program(const Variant& v) {
  const StyleConfig& c = v.style;
  if (c.flow != Flow::Vertex || c.gran == Granularity::Thread) return false;
  return v.algo == Algorithm::BFS || v.algo == Algorithm::CC ||
         v.algo == Algorithm::SSSP ||
         (v.algo == Algorithm::PR && c.dir == Direction::Push);
}

/// hub_pairs_input's programs: the Block-granularity subset of the above,
/// and every TC program, whose Block kernels replay the warps the hubs
/// leave edge-less and whose thread lanes walk long, uneven merges.
bool hub_pairs_program(const Variant& v) {
  return (boundary_program(v) && v.style.gran == Granularity::Block) ||
         v.algo == Algorithm::TC;
}

/// tc_arcs_input's programs: the TC edge-flow ones.
bool tc_arcs_program(const Variant& v) {
  return v.algo == Algorithm::TC && v.style.flow == Flow::Edge;
}

/// The digest of the current build, sorted.
std::vector<std::string> actual_digest() {
  variants::register_all_variants();
  // Level-0 study inputs at explicit scales (independent of REPRO_SCALE).
  const std::vector<Graph> graphs = {
      make_input(InputClass::Grid2d, 8), make_input(InputClass::CoPaper, 7),
      make_input(InputClass::Rmat, 8), make_input(InputClass::Social, 8),
      make_input(InputClass::RoadNet, 8)};
  const Graph boundary = boundary_input();
  const Graph hub_pairs = hub_pairs_input();
  const Graph tc_arcs = tc_arcs_input();
  const std::vector<vcuda::DeviceSpec> devices = {vcuda::rtx3090_like(),
                                                  vcuda::titanv_like()};
  const auto cuda = Registry::instance().select(Model::Cuda, std::nullopt);

  struct Cell {
    const Variant* v;
    const Graph* g;
    const vcuda::DeviceSpec* d;
  };
  std::vector<Cell> cells;
  for (const Variant* v : cuda) {
    for (const Graph& g : graphs)
      for (const vcuda::DeviceSpec& d : devices) cells.push_back({v, &g, &d});
    if (boundary_program(*v))
      for (const vcuda::DeviceSpec& d : devices)
        cells.push_back({v, &boundary, &d});
    if (hub_pairs_program(*v))
      for (const vcuda::DeviceSpec& d : devices)
        cells.push_back({v, &hub_pairs, &d});
    if (tc_arcs_program(*v))
      for (const vcuda::DeviceSpec& d : devices)
        cells.push_back({v, &tc_arcs, &d});
  }

  std::vector<std::string> lines(cells.size());
  std::atomic<std::size_t> next{0};
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < cells.size(); i = next++) {
        lines[i] = digest_line(*cells[i].v, *cells[i].g, *cells[i].d);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(SimDigest, TcArcsInputCoversOneRoundBoundaries) {
  const Graph g = tc_arcs_input();
  // Each hub has arcs on both sides of v.
  for (const auto& [hub, degree] : {std::pair<vid_t, vid_t>{200, 32},
                                    {280, 33}, {360, 256}, {440, 257}}) {
    ASSERT_EQ(g.degree(hub), degree);
    const auto nbrs = g.neighbors(hub);
    EXPECT_LT(nbrs.front(), hub);
    EXPECT_GT(nbrs.back(), hub);
  }
  // Some one-round Warp arc (u < v, deg(u) <= 32) closes a triangle on its
  // warp's last search round: the lanes take N(u), and each w > v is
  // binary-searched in N(v) as the kernel does it.
  bool trailing_hit = false;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (g.degree(u) > 32) continue;
    for (const vid_t v : g.neighbors(u)) {
      if (u >= v) continue;
      const auto nv = g.neighbors(v);
      int warp_rounds = 0, last_hit = 0;
      for (const vid_t w : g.neighbors(u)) {
        if (w <= v) continue;
        std::size_t lo = 0, hi = nv.size();
        int rounds = 0;
        while (lo < hi) {
          ++rounds;
          const std::size_t mid = lo + (hi - lo) / 2;
          if (nv[mid] == w) {
            last_hit = std::max(last_hit, rounds);
            break;
          }
          (nv[mid] < w ? lo = mid + 1 : hi = mid);
        }
        warp_rounds = std::max(warp_rounds, rounds);
      }
      trailing_hit |= last_hit > 0 && last_hit == warp_rounds;
    }
  }
  EXPECT_TRUE(trailing_hit);
}

TEST(SimDigest, EveryCudaVariantMatchesCheckedInDigest) {
  const std::string expected_path = INDIGO_SIM_DIGEST_FILE;
  const std::string actual_path = INDIGO_SIM_DIGEST_ACTUAL;
  const std::vector<std::string> actual = actual_digest();
  ASSERT_FALSE(actual.empty());
  const std::vector<std::string> expected = read_lines(expected_path);
  if (actual == expected) return;

  {
    std::ofstream out(actual_path);
    for (const std::string& line : actual) out << line << '\n';
  }
  std::vector<std::string> only_expected, only_actual;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(only_expected));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(only_actual));
  std::cerr << "[digest] " << only_expected.size() << " expected and "
            << only_actual.size() << " actual lines differ (of "
            << expected.size() << " / " << actual.size() << ")\n";
  constexpr std::size_t kShow = 10;
  for (std::size_t i = 0; i < std::min(kShow, only_expected.size()); ++i)
    std::cerr << "  - " << only_expected[i] << '\n';
  for (std::size_t i = 0; i < std::min(kShow, only_actual.size()); ++i)
    std::cerr << "  + " << only_actual[i] << '\n';
  std::cerr << "[digest] full actual digest: " << actual_path << '\n'
            << "[digest] if the change is intended, accept it with:\n"
            << "  cp " << actual_path << ' ' << expected_path << '\n';
  ADD_FAILURE() << "modeled outputs differ from " << expected_path;
}

}  // namespace
}  // namespace indigo
