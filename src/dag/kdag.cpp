#include "dag/kdag.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace krad {

namespace {

// First capacity of the construction arrays: most DAGs are small, and one
// allocation per array covers them; larger ones grow by doubling from here.
constexpr std::size_t kInitialCapacity = 16;

}  // namespace

VertexId KDag::add_vertex(Category category) {
  require_unfrozen("add_vertex");
  if (category >= num_categories_)
    throw std::logic_error("KDag::add_vertex: category out of range");
  if (categories_.empty()) {
    categories_.reserve(kInitialCapacity);
    in_degree_.reserve(kInitialCapacity);
    succ_offsets_.reserve(kInitialCapacity + 1);
    succ_offsets_.push_back(0);
  }
  categories_.push_back(category);
  in_degree_.push_back(0);
  succ_offsets_.push_back(0);
  return static_cast<VertexId>(categories_.size() - 1);
}

void KDag::add_edge(VertexId u, VertexId v) {
  require_unfrozen("add_edge");
  if (u >= num_vertices() || v >= num_vertices() || u == v)
    throw std::logic_error("KDag::add_edge: invalid endpoints");
  if (edge_sources_.empty() && u < last_source_) {
    // First edge out of source order.  The edges so far are grouped by
    // ascending source, so the out-degrees spell out their sources.
    edge_sources_.reserve(succ_flat_.capacity());
    for (VertexId w = 0; w <= last_source_; ++w)
      edge_sources_.insert(edge_sources_.end(), succ_offsets_[w + 1], w);
  }
  if (succ_flat_.empty()) succ_flat_.reserve(kInitialCapacity);
  succ_flat_.push_back(v);
  if (!edge_sources_.empty()) edge_sources_.push_back(u);
  last_source_ = u;
  ++succ_offsets_[u + 1];
  ++in_degree_[v];
}

std::pair<VertexId, VertexId> KDag::add_chain(Category category,
                                              std::size_t length,
                                              VertexId after) {
  if (length == 0) throw std::logic_error("KDag::add_chain: empty chain");
  const VertexId first = add_vertex(category);
  if (after != kInvalidVertex) add_edge(after, first);
  VertexId prev = first;
  for (std::size_t i = 1; i < length; ++i) {
    const VertexId next = add_vertex(category);
    add_edge(prev, next);
    prev = next;
  }
  return {first, prev};
}

void KDag::build_csr() {
  const std::size_t n = num_vertices();
  if (succ_offsets_.empty()) succ_offsets_.push_back(0);  // no vertices
  if (edge_sources_.empty()) {
    // Edges arrived in source order: succ_flat_ already is the CSR array,
    // and the offsets are the running sum of the out-degrees.
    for (std::size_t v = 0; v < n; ++v)
      succ_offsets_[v + 1] += succ_offsets_[v];
  } else {
    // Stable counting sort by source.  succ_offsets_[u + 1] starts at the
    // beginning of u's range and advances past each edge placed there, so
    // it ends at the beginning of u + 1's: the CSR offsets in one pass.
    std::size_t start = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t degree = succ_offsets_[v + 1];
      succ_offsets_[v + 1] = start;
      start += degree;
    }
    std::vector<VertexId> sorted(succ_flat_.size());
    for (std::size_t e = 0; e < sorted.size(); ++e)
      sorted[succ_offsets_[edge_sources_[e] + 1]++] = succ_flat_[e];
    succ_flat_.swap(sorted);  // `sorted` now frees the insertion-order buffer
    std::vector<VertexId>().swap(edge_sources_);
  }
  csr_built_ = true;
}

void KDag::seal() {
  if (sealed_) return;
  if (!csr_built_) build_csr();
  const std::size_t n = num_vertices();

  // Kahn topological sort over the CSR (doubles as cycle detection), with
  // topo_ itself as the FIFO queue.  cp_length_ holds the remaining
  // in-degrees until the reverse pass below overwrites it.
  cp_length_.assign(in_degree_.begin(), in_degree_.end());
  topo_.clear();
  topo_.reserve(n);
  for (VertexId v = 0; v < n; ++v)
    if (in_degree_[v] == 0) topo_.push_back(v);
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    const VertexId v = topo_[head];
    for (std::size_t e = succ_offsets_[v]; e < succ_offsets_[v + 1]; ++e)
      if (--cp_length_[succ_flat_[e]] == 0) topo_.push_back(succ_flat_[e]);
  }
  if (topo_.size() != n) throw std::logic_error("KDag::seal: cycle detected");

  // One reverse-topological pass.  cp_length_[v] is the longest chain
  // starting at v, counting v; the span is the largest of them.
  // run_len_[v] counts the successive same-category vertices that form a
  // chain with no fan-in or fan-out starting at v — the window a
  // single-ready-vertex DagJob can execute under one frozen allotment
  // (docs/SIMULATOR.md).
  work_per_category_.assign(num_categories_, 0);
  run_len_.assign(n, 1);
  span_ = 0;
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const VertexId v = *it;
    const std::size_t begin = succ_offsets_[v];
    const std::size_t end = succ_offsets_[v + 1];
    Work longest = 0;
    for (std::size_t e = begin; e < end; ++e)
      longest = std::max(longest, cp_length_[succ_flat_[e]]);
    cp_length_[v] = longest + 1;
    span_ = std::max(span_, cp_length_[v]);
    ++work_per_category_[categories_[v]];
    if (end - begin != 1) continue;
    const VertexId succ = succ_flat_[begin];
    if (in_degree_[succ] == 1 && categories_[succ] == categories_[v])
      run_len_[v] = run_len_[succ] + 1;
  }

  sealed_ = true;
}

std::span<const VertexId> KDag::successors(VertexId v) const {
  require_sealed("successors");
  const std::size_t end = succ_offsets_.at(static_cast<std::size_t>(v) + 1);
  const std::size_t begin = succ_offsets_[v];
  return {succ_flat_.data() + begin, end - begin};
}

Work KDag::work(Category category) const {
  require_sealed("work");
  return work_per_category_.at(category);
}

std::span<const VertexId> KDag::topological_order() const {
  require_sealed("topological_order");
  return topo_;
}

std::vector<VertexId> KDag::sources() const {
  std::vector<VertexId> result;
  for (VertexId v = 0; v < num_vertices(); ++v)
    if (in_degree_[v] == 0) result.push_back(v);
  return result;
}

bool KDag::precedes(VertexId u, VertexId v) const {
  if (u == v) return false;
  std::vector<bool> seen(num_vertices(), false);
  std::vector<VertexId> stack{u};
  seen[u] = true;
  while (!stack.empty()) {
    const VertexId cur = stack.back();
    stack.pop_back();
    for (VertexId succ : successors(cur)) {
      if (succ == v) return true;
      if (!seen[succ]) {
        seen[succ] = true;
        stack.push_back(succ);
      }
    }
  }
  return false;
}

std::string KDag::summary() const {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "KDag{V=%zu E=%zu K=%u span=%lld work=[",
                num_vertices(), num_edges(), num_categories_,
                static_cast<long long>(span_));
  std::string out = buffer;
  for (Category c = 0; c < num_categories_; ++c) {
    if (c != 0) out += ',';
    out += std::to_string(sealed_ ? work_per_category_[c] : -1);
  }
  out += "]}";
  return out;
}

void KDag::require_unfrozen(const char* what) const {
  if (csr_built_)
    throw std::logic_error(std::string("KDag::") + what + ": graph is sealed");
}

void KDag::require_sealed(const char* what) const {
  if (!sealed_)
    throw std::logic_error(std::string("KDag::") + what + ": graph not sealed");
}

}  // namespace krad
