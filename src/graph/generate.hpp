// Deterministic generators for the five input classes of the study.
//
// The paper downloads its graphs (Table 4) from Dimacs, Galois, SNAP, and
// the SuiteSparse collection. Those files are not available offline, so each
// input is replaced by a seeded generator that reproduces the structural
// property the paper's analysis actually depends on: degree distribution and
// diameter (Section 5.13 shows the other properties do not drive the
// results). See DESIGN.md "Substitutions".
//
//   paper input        stand-in        structure preserved
//   2d-2e20.sym        grid2d          degree<=4, uniform, huge diameter
//   USA-road-d.NY      roadnet         avg deg ~2.8, planar-ish, huge diameter
//   rmat22.sym         rmat            power law, low diameter
//   soc-LiveJournal1   social_rmat     heavier power-law tail, low diameter
//   coPapersDBLP       copaper         overlapping author cliques, avg deg ~56
//
// All generators return symmetric graphs (every undirected edge as two arcs)
// with uniform random weights in [1, 255].
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace indigo {

/// sqrt-of-n by sqrt-of-n four-connected mesh (paper input 2d-2e<k>.sym).
/// `scale` gives 2^scale vertices; the grid is 2^ceil(s/2) x 2^floor(s/2).
Graph make_grid2d(unsigned scale, std::uint64_t seed = 1);

/// Road-network stand-in: a jittered grid whose edge set is a random
/// spanning tree plus a fraction of the remaining grid/diagonal edges,
/// tuned to an average degree of ~2.8 with a large diameter.
Graph make_roadnet(unsigned scale, std::uint64_t seed = 2);

/// Recursive-matrix (R-MAT) graph, Graph500 parameters
/// (a,b,c,d)=(.57,.19,.19,.05), edge factor 8, symmetrized.
Graph make_rmat(unsigned scale, std::uint64_t seed = 3);

/// Social-network stand-in: R-MAT with a more skewed corner
/// (a,b,c,d)=(.65,.15,.15,.05) and edge factor 9, producing a heavier
/// power-law tail (higher d_max) like soc-LiveJournal1.
Graph make_social(unsigned scale, std::uint64_t seed = 4);

/// Co-authorship stand-in: vertices are authors; "papers" are cliques whose
/// sizes follow a truncated power law and whose members are drawn with
/// preferential attachment. Produces a high average degree and a clique-rich
/// triangle structure like coPapersDBLP.
Graph make_copaper(unsigned scale, std::uint64_t seed = 5);

/// Identifier for one of the five study inputs.
enum class InputClass { Grid2d, RoadNet, Rmat, Social, CoPaper };

/// All five classes in the paper's Table 4 row order.
inline constexpr InputClass kAllInputs[] = {
    InputClass::Grid2d, InputClass::CoPaper, InputClass::Rmat,
    InputClass::Social, InputClass::RoadNet};

/// Human-readable name ("grid2d", ...) used in reports.
const char* input_class_name(InputClass c);
/// The paper's original graph this class stands in for.
const char* input_class_paper_name(InputClass c);

/// Builds one study input at the given scale (log2 of the approximate
/// vertex count). Scales are per-class calibrated in default_input_scale().
Graph make_input(InputClass c, unsigned scale, std::uint64_t seed_salt = 0);

/// The input size level the REPRO_SCALE environment variable selects:
/// 0 (tiny, tests), 1 (quick benches; also when unset), 2 (paper-shaped
/// larger runs). The variable's one parser: any value other than exactly
/// "0", "1" or "2" throws std::invalid_argument naming the variable.
int repro_scale_level();

/// Default scale for a class at the repro_scale_level().
unsigned default_input_scale(InputClass c);

/// Convenience: all five study inputs at their default scales.
std::vector<Graph> make_study_inputs();

}  // namespace indigo
