// Unit tests for the graph substrate: builder invariants, generators'
// structural guarantees (the properties the study depends on), file-format
// round trips, and property computation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/csr.hpp"
#include "graph/generate.hpp"
#include "graph/io.hpp"
#include "graph/prng.hpp"
#include "graph/properties.hpp"

namespace indigo {
namespace {

TEST(GraphBuilder, BuildsSortedDedupedSymmetricCsr) {
  GraphBuilder b(4, "t");
  b.add_undirected(0, 1, 5);
  b.add_undirected(1, 2, 7);
  b.add_undirected(0, 1, 9);  // duplicate, dropped
  b.add_arc(3, 3, 1);         // self loop, dropped
  b.add_arc(3, 0, 2);
  const Graph g = b.finish();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);  // 0-1, 1-0, 1-2, 2-1, 3->0
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.arc_weight(g.begin_edge(0)), 5u);  // first copy kept
  EXPECT_NO_THROW(g.validate());
}

TEST(GraphBuilder, RejectsOutOfRangeVertices) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_arc(0, 2), std::out_of_range);
  EXPECT_THROW(b.add_arc(5, 0), std::out_of_range);
}

TEST(Graph, EmptyGraphIsValid) {
  GraphBuilder b(0);
  const Graph g = b.finish();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, CooViewMatchesCsr) {
  const Graph g = make_rmat(6);
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    const vid_t v = g.arc_src(e);
    EXPECT_GE(e, g.begin_edge(v));
    EXPECT_LT(e, g.end_edge(v));
    EXPECT_EQ(g.arc_dst(e), g.col_index()[e]);
  }
}

TEST(Generators, AreDeterministic) {
  const Graph a = make_social(8);
  const Graph b = make_social(8);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (eid_t e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.arc_dst(e), b.arc_dst(e));
    ASSERT_EQ(a.arc_weight(e), b.arc_weight(e));
  }
}

TEST(Generators, EveryStudyInputIsSymmetricWithValidWeights) {
  for (InputClass c : kAllInputs) {
    const Graph g = make_input(c, 7);
    SCOPED_TRACE(g.name());
    EXPECT_NO_THROW(g.validate());
    for (eid_t e = 0; e < g.num_edges(); ++e) {
      EXPECT_TRUE(g.has_edge(g.arc_dst(e), g.arc_src(e)))
          << "missing reverse arc";
      EXPECT_GE(g.arc_weight(e), 1u);
      EXPECT_LE(g.arc_weight(e), 255u);
    }
  }
}

TEST(Generators, GridHasUniformLowDegreeAndHighDiameter) {
  const Graph g = make_grid2d(10);  // 32 x 32
  const GraphProperties p = compute_properties(g);
  EXPECT_EQ(p.max_degree, 4u);
  EXPECT_EQ(p.num_components, 1u);
  // Grid diameter is (X-1)+(Y-1) = 62.
  EXPECT_EQ(p.diameter, 62u);
  EXPECT_EQ(p.pct_deg_ge_32, 0.0);
}

TEST(Generators, RoadNetIsConnectedSparseHighDiameter) {
  const Graph g = make_roadnet(10);
  const GraphProperties p = compute_properties(g);
  EXPECT_EQ(p.num_components, 1u);  // spanning tree guarantees this
  EXPECT_LT(p.avg_degree, 4.0);     // USA-road-d.NY has d_avg 2.8
  EXPECT_GT(p.avg_degree, 2.0);
  EXPECT_GT(p.diameter, 20u);
  EXPECT_EQ(p.pct_deg_ge_32, 0.0);
}

TEST(Generators, SocialRmatHasPowerLawTail) {
  const Graph g = make_social(12);
  const GraphProperties p = compute_properties(g);
  // Scale-free stand-ins: a few hubs far above the average degree.
  EXPECT_GT(p.max_degree, 40 * p.avg_degree);
  EXPECT_LT(p.diameter, 30u);
}

TEST(Generators, CoPaperIsDenseAndTriangleRich) {
  const Graph g = make_copaper(9);
  const GraphProperties p = compute_properties(g);
  EXPECT_GT(p.avg_degree, 10.0);  // coPapersDBLP has d_avg 56
  EXPECT_GT(p.pct_deg_ge_32, 5.0);
}

TEST(Prng, SplitMixBoundsAndDeterminism) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  SplitMix64 c(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(c.next_below(17), 17u);
    const double d = c.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(GraphIo, DimacsRoundTrip) {
  const Graph g = make_roadnet(7);
  std::stringstream ss;
  write_dimacs_gr(g, ss);
  const Graph h = read_dimacs_gr(ss, "rt");
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (eid_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.arc_dst(e), g.arc_dst(e));
  }
}

TEST(Generators, ReproScaleIsExactlyZeroOneOrTwo) {
  const char* ambient = std::getenv("REPRO_SCALE");
  const std::string saved = ambient != nullptr ? ambient : "";
  unsetenv("REPRO_SCALE");
  EXPECT_EQ(repro_scale_level(), 1);
  EXPECT_EQ(default_input_scale(InputClass::Grid2d), 13u);
  const unsigned grid2d[] = {8, 13, 18};
  for (int level = 0; level <= 2; ++level) {
    setenv("REPRO_SCALE", std::to_string(level).c_str(), 1);
    EXPECT_EQ(repro_scale_level(), level);
    EXPECT_EQ(default_input_scale(InputClass::Grid2d), grid2d[level]);
  }
  for (const char* bad :
       {"0.5", "0.4", "3", "7", "abc", "", "-1", " 1", "01"}) {
    SCOPED_TRACE(std::string("REPRO_SCALE='") + bad + "'");
    setenv("REPRO_SCALE", bad, 1);
    try {
      (void)repro_scale_level();
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find("REPRO_SCALE"), std::string::npos)
          << ex.what();
    }
    EXPECT_THROW((void)default_input_scale(InputClass::Rmat),
                 std::invalid_argument);
  }
  if (ambient != nullptr) {
    setenv("REPRO_SCALE", saved.c_str(), 1);
  } else {
    unsetenv("REPRO_SCALE");
  }
}

TEST(GraphIo, EdgeListRoundTrip) {
  const Graph g = make_rmat(6);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss, "rt");
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(GraphIo, ReadsMatrixMarketPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "3 3 2\n"
      "1 2\n"
      "2 3\n");
  const Graph g = read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // symmetrized
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(GraphIo, RejectsGarbage) {
  std::stringstream ss("not a graph\n");
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
  std::stringstream ss2("a b c\n");
  EXPECT_THROW(read_edge_list(ss2), std::runtime_error);
}

TEST(Properties, CountsComponentsAndDiameterPerComponent) {
  GraphBuilder b(6, "two-paths");
  b.add_undirected(0, 1);
  b.add_undirected(1, 2);  // path of 3: diameter 2
  b.add_undirected(3, 4);  // path of 2 + isolated 5
  const Graph g = b.finish();
  const GraphProperties p = compute_properties(g);
  EXPECT_EQ(p.num_components, 3u);
  EXPECT_EQ(p.largest_component, 3u);
  EXPECT_EQ(p.diameter, 2u);
}

TEST(Properties, MatchesPaperColumnsOnKnownGraph) {
  const Graph g = make_grid2d(8);  // 16x16
  const GraphProperties p = compute_properties(g);
  EXPECT_EQ(p.vertices, 256u);
  EXPECT_EQ(p.edges, 2u * (2u * 16u * 15u));
  EXPECT_NEAR(p.avg_degree, static_cast<double>(p.edges) / p.vertices, 1e-9);
  EXPECT_GT(p.size_mb, 0.0);
}

}  // namespace
}  // namespace indigo
