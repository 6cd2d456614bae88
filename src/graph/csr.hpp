// Compressed-sparse-row graph representation plus a coordinate (COO) view.
//
// Vertex-based codes in the suite iterate `row_index` (called `nbr_idx` in
// the paper's listings); edge-based codes iterate the parallel
// `src_list`/`dst_list` arrays of the COO view (paper Listing 1). Every
// undirected edge is stored as two directed arcs in both formats, exactly as
// the paper's Section 4.2 specifies.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace indigo {

/// An immutable directed multigraph in CSR form with an aligned COO view.
///
/// Invariants (checked by CsrBuilder and by validate()):
///  - row_index has num_vertices()+1 entries, is non-decreasing, and
///    row_index.front()==0, row_index.back()==num_edges().
///  - col_index[e] < num_vertices() for every arc e.
///  - src_list[e] is the source vertex of arc e (redundant with row_index,
///    materialized so edge-based styles touch the same memory layout the
///    paper's COO codes do).
///  - Adjacency lists are sorted by destination id (required by the
///    intersection-based TC codes; harmless elsewhere).
class Graph {
 public:
  Graph() = default;
  Graph(std::vector<eid_t> row_index, std::vector<vid_t> col_index,
        std::vector<vid_t> src_list, std::vector<weight_t> weights,
        std::string name);

  [[nodiscard]] vid_t num_vertices() const {
    return static_cast<vid_t>(row_index_.size() - 1);
  }
  [[nodiscard]] eid_t num_edges() const {
    return static_cast<eid_t>(col_index_.size());
  }
  /// Number of undirected edges (each stored as two arcs).
  [[nodiscard]] eid_t num_undirected_edges() const { return num_edges() / 2; }

  [[nodiscard]] std::span<const eid_t> row_index() const { return row_index_; }
  [[nodiscard]] std::span<const vid_t> col_index() const { return col_index_; }
  [[nodiscard]] std::span<const vid_t> src_list() const { return src_list_; }
  [[nodiscard]] std::span<const vid_t> dst_list() const { return col_index_; }
  [[nodiscard]] std::span<const weight_t> weights() const { return weights_; }

  /// First edge index of v's adjacency list.
  [[nodiscard]] eid_t begin_edge(vid_t v) const { return row_index_[v]; }
  /// One past the last edge index of v's adjacency list.
  [[nodiscard]] eid_t end_edge(vid_t v) const { return row_index_[v + 1]; }
  [[nodiscard]] vid_t degree(vid_t v) const {
    return static_cast<vid_t>(row_index_[v + 1] - row_index_[v]);
  }
  /// Neighbours of v (paper's nbr_list slice for v).
  [[nodiscard]] std::span<const vid_t> neighbors(vid_t v) const {
    return std::span<const vid_t>(col_index_).subspan(begin_edge(v),
                                                      degree(v));
  }
  /// Destination of arc e.
  [[nodiscard]] vid_t arc_dst(eid_t e) const { return col_index_[e]; }
  /// Source of arc e (COO view).
  [[nodiscard]] vid_t arc_src(eid_t e) const { return src_list_[e]; }
  [[nodiscard]] weight_t arc_weight(eid_t e) const { return weights_[e]; }

  /// True if u's sorted adjacency list contains w (binary search).
  [[nodiscard]] bool has_edge(vid_t u, vid_t w) const;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// In-memory footprint of the arrays, in bytes (Table 4's Size column).
  [[nodiscard]] std::size_t size_bytes() const;

  /// Check all class invariants; throws std::invalid_argument on violation.
  void validate() const;

 private:
  std::vector<eid_t> row_index_{0};
  std::vector<vid_t> col_index_;
  std::vector<vid_t> src_list_;
  std::vector<weight_t> weights_;
  std::string name_ = "empty";
};

/// Accumulates (u, v, w) arcs and produces a canonical Graph.
///
/// add_undirected() inserts both directions. finish() sorts each adjacency
/// list, optionally removes duplicate arcs and self-loops, and materializes
/// the COO src_list.
class GraphBuilder {
 public:
  explicit GraphBuilder(vid_t num_vertices, std::string name = "graph");

  /// Adds the directed arc u->v with weight w. u and v must be < n.
  void add_arc(vid_t u, vid_t v, weight_t w = 1);
  /// Adds both u->v and v->u.
  void add_undirected(vid_t u, vid_t v, weight_t w = 1);

  [[nodiscard]] vid_t num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size(); }

  struct FinishOptions {
    bool remove_self_loops = true;
    bool remove_duplicates = true;
  };
  /// Builds the Graph. The builder is left empty afterwards.
  [[nodiscard]] Graph finish(FinishOptions opts);
  [[nodiscard]] Graph finish() { return finish(FinishOptions{}); }

 private:
  struct Arc {
    vid_t u, v;
    weight_t w;
  };
  vid_t n_ = 0;
  std::string name_;
  std::vector<Arc> arcs_;
};

}  // namespace indigo
