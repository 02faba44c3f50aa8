#pragma once
// K-colored directed acyclic graph (K-DAG) — the paper's job representation.
//
// A K-DAG has up to K types of vertices; an alpha-vertex is a unit-time
// alpha-task.  Edges are precedence constraints regardless of type.  The
// alpha-work T1(J, alpha) is the number of alpha-vertices; the span T\infty(J)
// is the number of vertices on the longest precedence chain.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "dag/types.hpp"

namespace krad {

/// Immutable-after-seal K-DAG.  Build with add_vertex/add_edge, then call
/// seal() once; successors() and the analysis accessors require a sealed
/// graph.
///
/// Construction appends each edge's target to one flat array in insertion
/// order; seal() turns it into CSR (compressed sparse row) successor lists
/// by a stable counting sort on the source, which it skips when the edges
/// already arrived in non-decreasing source order.  successors(u) therefore
/// lists u's targets in the order their edges were added.
class KDag {
 public:
  KDag() = default;
  explicit KDag(Category num_categories) : num_categories_(num_categories) {}

  /// Append a vertex of the given category; returns its id (dense, 0-based).
  VertexId add_vertex(Category category);

  /// Add precedence edge u -> v (u must run strictly before v).
  void add_edge(VertexId u, VertexId v);

  /// Convenience: add a chain of `length` fresh vertices of `category`,
  /// optionally hanging off `after` (pass kInvalidVertex for none).
  /// Returns {first, last} vertex ids of the chain (first == last for
  /// length 1).  length must be >= 1.
  std::pair<VertexId, VertexId> add_chain(Category category, std::size_t length,
                                          VertexId after = kInvalidVertex);

  /// Build the CSR successor lists, validate acyclicity and compute derived
  /// data (topological order, works, span, critical-path and run lengths),
  /// then release the construction storage.  Throws std::logic_error on a
  /// cycle; the graph then stays frozen (no further add_vertex/add_edge) and
  /// every later seal() throws again.  Idempotent once it succeeds.
  void seal();
  bool sealed() const noexcept { return sealed_; }

  // --- structure ---
  std::size_t num_vertices() const noexcept { return categories_.size(); }
  std::size_t num_edges() const noexcept { return succ_flat_.size(); }
  Category num_categories() const noexcept { return num_categories_; }
  Category category(VertexId v) const { return categories_.at(v); }
  /// Targets of v's out-edges, in the order they were added; requires
  /// sealed().
  std::span<const VertexId> successors(VertexId v) const;
  std::size_t in_degree(VertexId v) const { return in_degree_.at(v); }

  // --- analysis (require sealed()) ---
  /// T1(J, alpha): number of alpha-vertices.
  Work work(Category category) const;
  /// Total vertices, Sum_alpha T1(J, alpha).
  Work total_work() const noexcept { return static_cast<Work>(num_vertices()); }
  /// T\infty(J): vertices on the longest chain (0 for an empty dag).
  Work span() const noexcept { return span_; }
  /// Longest chain starting at v, counting v itself (>= 1).
  Work cp_length(VertexId v) const { return cp_length_.at(v); }
  /// Length of the maximal straight-line run starting at v: successive
  /// vertices with out-degree 1 whose successor has in-degree 1 and the
  /// same category.  While such a run is the only ready work of a job its
  /// desire vector is constant, so the event-driven engine can replay one
  /// allotment for run_length(v) steps (Job::steady_window,
  /// docs/SIMULATOR.md).  >= 1; requires sealed().
  Work run_length(VertexId v) const { return run_len_.at(v); }
  /// Vertices in a valid topological order.
  std::span<const VertexId> topological_order() const;
  /// Source vertices (in-degree 0).
  std::vector<VertexId> sources() const;

  /// True iff u precedes v (path u ~> v).  O(V+E) per query; intended for
  /// tests and the schedule validator, not hot paths.  Requires sealed().
  bool precedes(VertexId u, VertexId v) const;

  /// Human-readable summary, e.g. "KDag{V=12 E=14 K=3 span=5 work=[4,6,2]}".
  std::string summary() const;

 private:
  void require_sealed(const char* what) const;
  void require_unfrozen(const char* what) const;
  void build_csr();

  Category num_categories_ = 1;
  std::vector<Category> categories_;
  std::vector<std::size_t> in_degree_;

  // Successor lists in one flat CSR pair so the engines walk contiguous
  // memory: successors(v) is succ_flat_[succ_offsets_[v] ..
  // succ_offsets_[v + 1]).  Before seal(), succ_flat_ holds edge targets in
  // insertion order and succ_offsets_[v + 1] counts v's out-edges.
  std::vector<std::size_t> succ_offsets_;  // num_vertices() + 1 entries
  std::vector<VertexId> succ_flat_;        // num_edges() entries
  // Construction only: the source of every edge, recorded from the first
  // edge whose source is below its predecessor's (until then the sources
  // follow from the out-degrees).  seal() sorts by it and frees it.
  std::vector<VertexId> edge_sources_;
  VertexId last_source_ = 0;
  bool csr_built_ = false;  // seal() got past build_csr(): no more mutation
  bool sealed_ = false;

  // Derived by seal().
  std::vector<VertexId> topo_;
  std::vector<Work> work_per_category_;
  std::vector<Work> cp_length_;
  std::vector<Work> run_len_;
  Work span_ = 0;
};

}  // namespace krad
