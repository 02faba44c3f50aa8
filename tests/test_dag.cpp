// Unit tests for the K-DAG model and its structural analysis, including
// the CSR build: successor order under any edge order, and a bounded number
// of heap allocations per build (counting allocator).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dag/analysis.hpp"
#include "dag/kdag.hpp"

// --- counting allocator (whole binary) ------------------------------------
// Relaxed counter bumped by every global allocation; the allocation tests
// snapshot it around a build and seal.

namespace {
std::atomic<std::size_t> g_allocations{0};
}

// noinline: if the compiler inlines these, it pairs the underlying
// malloc/free with allocations it attributes to the builtin operator new
// and emits -Wmismatched-new-delete false positives at -O3.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// std::stable_sort's temporary buffer comes from the nothrow form; replace
// it too, so every allocation here is paired with the free() below.
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace krad {
namespace {

KDag diamond() {
  // a -> {b, c} -> d, categories 0,1,1,2.
  KDag dag(3);
  const auto a = dag.add_vertex(0);
  const auto b = dag.add_vertex(1);
  const auto c = dag.add_vertex(1);
  const auto d = dag.add_vertex(2);
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  dag.add_edge(b, d);
  dag.add_edge(c, d);
  dag.seal();
  return dag;
}

TEST(KDag, EmptyGraph) {
  KDag dag(2);
  dag.seal();
  EXPECT_EQ(dag.num_vertices(), 0u);
  EXPECT_EQ(dag.span(), 0);
  EXPECT_EQ(dag.work(0), 0);
  EXPECT_EQ(dag.work(1), 0);
}

TEST(KDag, DiamondStructure) {
  const KDag dag = diamond();
  EXPECT_EQ(dag.num_vertices(), 4u);
  EXPECT_EQ(dag.num_edges(), 4u);
  EXPECT_EQ(dag.span(), 3);
  EXPECT_EQ(dag.work(0), 1);
  EXPECT_EQ(dag.work(1), 2);
  EXPECT_EQ(dag.work(2), 1);
  EXPECT_EQ(dag.total_work(), 4);
}

TEST(KDag, CpLengths) {
  const KDag dag = diamond();
  EXPECT_EQ(dag.cp_length(0), 3);
  EXPECT_EQ(dag.cp_length(1), 2);
  EXPECT_EQ(dag.cp_length(2), 2);
  EXPECT_EQ(dag.cp_length(3), 1);
}

TEST(KDag, TopologicalOrderRespectsEdges) {
  const KDag dag = diamond();
  const auto topo = dag.topological_order();
  std::vector<std::size_t> position(dag.num_vertices());
  for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (VertexId v = 0; v < dag.num_vertices(); ++v)
    for (VertexId succ : dag.successors(v))
      EXPECT_LT(position[v], position[succ]);
}

TEST(KDag, Precedes) {
  const KDag dag = diamond();
  EXPECT_TRUE(dag.precedes(0, 3));
  EXPECT_TRUE(dag.precedes(0, 1));
  EXPECT_FALSE(dag.precedes(1, 2));
  EXPECT_FALSE(dag.precedes(3, 0));
  EXPECT_FALSE(dag.precedes(2, 2));
}

TEST(KDag, Sources) {
  const KDag dag = diamond();
  EXPECT_EQ(dag.sources(), std::vector<VertexId>{0});
}

TEST(KDag, CycleDetection) {
  KDag dag(1);
  const auto a = dag.add_vertex(0);
  const auto b = dag.add_vertex(0);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  EXPECT_THROW(dag.seal(), std::logic_error);
}

TEST(KDag, SelfEdgeRejected) {
  KDag dag(1);
  const auto a = dag.add_vertex(0);
  EXPECT_THROW(dag.add_edge(a, a), std::logic_error);
}

TEST(KDag, CategoryOutOfRangeRejected) {
  KDag dag(2);
  EXPECT_THROW(dag.add_vertex(2), std::logic_error);
}

TEST(KDag, MutationAfterSealRejected) {
  KDag dag = diamond();
  EXPECT_THROW(dag.add_vertex(0), std::logic_error);
  EXPECT_THROW(dag.add_edge(0, 1), std::logic_error);
}

TEST(KDag, AnalysisBeforeSealRejected) {
  KDag dag(1);
  dag.add_vertex(0);
  EXPECT_THROW((void)dag.work(0), std::logic_error);
  EXPECT_THROW((void)dag.topological_order(), std::logic_error);
}

TEST(KDag, AddChainLinksAndCounts) {
  KDag dag(2);
  const auto root = dag.add_vertex(0);
  const auto [first, last] = dag.add_chain(1, 4, root);
  dag.seal();
  EXPECT_EQ(dag.num_vertices(), 5u);
  EXPECT_EQ(dag.span(), 5);
  EXPECT_TRUE(dag.precedes(root, first));
  EXPECT_TRUE(dag.precedes(first, last));
}

TEST(Analysis, EarliestLevelsDiamond) {
  const KDag dag = diamond();
  const auto levels = earliest_levels(dag);
  EXPECT_EQ(levels[0], 1);
  EXPECT_EQ(levels[1], 2);
  EXPECT_EQ(levels[2], 2);
  EXPECT_EQ(levels[3], 3);
}

TEST(Analysis, UnlimitedProfile) {
  const KDag dag = diamond();
  const auto profile = unlimited_parallelism_profile(dag);
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile[0], (std::vector<Work>{1, 0, 0}));
  EXPECT_EQ(profile[1], (std::vector<Work>{0, 2, 0}));
  EXPECT_EQ(profile[2], (std::vector<Work>{0, 0, 1}));
}

TEST(Analysis, MaxParallelism) {
  const KDag dag = diamond();
  EXPECT_EQ(max_parallelism(dag, 0), 1);
  EXPECT_EQ(max_parallelism(dag, 1), 2);
  EXPECT_EQ(max_parallelism(dag, 2), 1);
}

TEST(Analysis, AverageParallelism) {
  const KDag dag = diamond();
  EXPECT_DOUBLE_EQ(average_parallelism(dag), 4.0 / 3.0);
}

TEST(Analysis, DotExportMentionsAllVertices) {
  const KDag dag = diamond();
  const std::string dot = to_dot(dag);
  for (VertexId v = 0; v < dag.num_vertices(); ++v)
    EXPECT_NE(dot.find("v" + std::to_string(v)), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(KDag, SummaryMentionsCounts) {
  const KDag dag = diamond();
  const std::string s = dag.summary();
  EXPECT_NE(s.find("V=4"), std::string::npos);
  EXPECT_NE(s.find("span=3"), std::string::npos);
}

// --- CSR build: successor order, edge-order independence ------------------

using Edge = std::pair<VertexId, VertexId>;

KDag build(const std::vector<Category>& categories,
           const std::vector<Edge>& edges) {
  KDag dag(3);
  for (Category c : categories) dag.add_vertex(c);
  for (const auto& [u, v] : edges) dag.add_edge(u, v);
  dag.seal();
  return dag;
}

/// Four layers of width 3 (edges target-major, as layered_random adds
/// them) feeding a same-category chain of three, so run lengths above 1
/// occur.
std::pair<std::vector<Category>, std::vector<Edge>> layered_shape() {
  std::vector<Category> categories;
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 12; ++v) categories.push_back(v % 3);
  for (VertexId v = 3; v < 12; ++v) {
    const VertexId base = (v / 3 - 1) * 3;
    for (VertexId p = base; p < base + 3; ++p)
      if ((p + v) % 2 == 0 || p == base) edges.emplace_back(p, v);
  }
  for (VertexId v = 12; v < 15; ++v) categories.push_back(1);
  edges.emplace_back(9, 12);
  edges.emplace_back(10, 12);
  edges.emplace_back(12, 13);
  edges.emplace_back(13, 14);
  return {categories, edges};
}

void expect_topological(const KDag& dag) {
  const auto topo = dag.topological_order();
  ASSERT_EQ(topo.size(), dag.num_vertices());
  std::vector<std::size_t> position(dag.num_vertices(), topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (VertexId v = 0; v < dag.num_vertices(); ++v) {
    ASSERT_LT(position[v], topo.size()) << "vertex " << v << " missing";
    for (VertexId succ : dag.successors(v))
      EXPECT_LT(position[v], position[succ]);
  }
}

TEST(KDagCsr, SuccessorsFollowInsertionOrderUnderAnyEdgeOrder) {
  auto [categories, target_major] = layered_shape();
  std::vector<Edge> source_major = target_major;
  std::stable_sort(source_major.begin(), source_major.end(),
                   [](const Edge& a, const Edge& b) { return a.first < b.first; });
  std::vector<Edge> reversed(target_major.rbegin(), target_major.rend());
  std::vector<Edge> interleaved;
  for (std::size_t lo = 0, hi = target_major.size(); lo < hi;) {
    interleaved.push_back(target_major[lo++]);
    if (lo < hi) interleaved.push_back(target_major[--hi]);
  }
  const KDag reference = build(categories, source_major);
  expect_topological(reference);
  EXPECT_EQ(reference.span(), 7);
  EXPECT_EQ(reference.run_length(12), 3);

  for (const auto* order : {&target_major, &reversed, &interleaved}) {
    const KDag dag = build(categories, *order);
    ASSERT_EQ(dag.num_edges(), order->size());
    for (VertexId u = 0; u < dag.num_vertices(); ++u) {
      std::vector<VertexId> expected;
      for (const auto& [from, to] : *order)
        if (from == u) expected.push_back(to);
      const auto succ = dag.successors(u);
      EXPECT_EQ(std::vector<VertexId>(succ.begin(), succ.end()), expected)
          << "source " << u;
      EXPECT_EQ(dag.cp_length(u), reference.cp_length(u));
      EXPECT_EQ(dag.run_length(u), reference.run_length(u));
      EXPECT_EQ(dag.in_degree(u), reference.in_degree(u));
    }
    EXPECT_EQ(dag.span(), reference.span());
    expect_topological(dag);
  }
}

TEST(KDagCsr, SuccessorsBeforeSealRejected) {
  KDag dag(1);
  const auto a = dag.add_vertex(0);
  const auto b = dag.add_vertex(0);
  dag.add_edge(a, b);
  EXPECT_THROW((void)dag.successors(a), std::logic_error);
  dag.seal();
  ASSERT_EQ(dag.successors(a).size(), 1u);
  EXPECT_EQ(dag.successors(a)[0], b);
  EXPECT_THROW((void)dag.successors(2), std::out_of_range);
}

TEST(KDagCsr, SealIsIdempotent) {
  const auto [categories, edges] = layered_shape();
  KDag dag = build(categories, edges);
  const std::vector<VertexId> topo(dag.topological_order().begin(),
                                   dag.topological_order().end());
  const Work span = dag.span();
  dag.seal();
  EXPECT_EQ(std::vector<VertexId>(dag.topological_order().begin(),
                                  dag.topological_order().end()),
            topo);
  EXPECT_EQ(dag.span(), span);
  EXPECT_EQ(dag.num_edges(), edges.size());
  expect_topological(dag);
}

TEST(KDagCsr, CycleStaysDetectedAndGraphFrozen) {
  // a -> b -> c -> a, added out of source order so seal() has to sort.
  KDag dag(1);
  for (int i = 0; i < 4; ++i) dag.add_vertex(0);
  dag.add_edge(2, 0);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  dag.add_edge(3, 0);
  EXPECT_THROW(dag.seal(), std::logic_error);
  EXPECT_FALSE(dag.sealed());
  EXPECT_THROW(dag.seal(), std::logic_error);
  EXPECT_THROW(dag.add_vertex(0), std::logic_error);
  EXPECT_THROW(dag.add_edge(3, 1), std::logic_error);
  EXPECT_THROW((void)dag.successors(0), std::logic_error);
}

// --- allocation bounds ------------------------------------------------------

/// Allocations made by `build_and_seal()`.
template <class Fn>
std::size_t allocations_during(Fn build_and_seal) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  build_and_seal();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Building and sealing grows a fixed set of arrays by doubling, so the
// allocation count is O(log V), not one or more per vertex.
constexpr std::size_t kMaxAllocations = 64;

TEST(KDagAllocations, ChainIsLogarithmic) {
  const std::size_t count = allocations_during([] {
    KDag dag(1);
    dag.add_chain(0, 4096);
    dag.seal();
    ASSERT_EQ(dag.span(), 4096);
  });
  EXPECT_LE(count, kMaxAllocations);
}

TEST(KDagAllocations, TargetMajorLayeredIsLogarithmic) {
  // 64 layers of 64; every vertex past the first layer takes three
  // predecessors, added target-major as layered_random does.
  static constexpr VertexId kWidth = 64;
  const std::size_t count = allocations_during([] {
    KDag dag(2);
    for (VertexId v = 0; v < kWidth * kWidth; ++v) dag.add_vertex(v % 2);
    for (VertexId v = kWidth; v < kWidth * kWidth; ++v) {
      const VertexId base = (v / kWidth - 1) * kWidth;
      for (VertexId i = 0; i < 3; ++i)
        dag.add_edge(base + (v + 21 * i) % kWidth, v);
    }
    dag.seal();
    ASSERT_EQ(dag.span(), kWidth);
  });
  EXPECT_LE(count, kMaxAllocations);
}

TEST(KDagAllocations, TinyDagIsOneAllocationPerArray) {
  // The shape the exact-solver instances use: four vertices, one chain.
  // Four construction arrays plus four derived ones.
  const std::size_t count = allocations_during([] {
    KDag dag(2);
    for (Category c : {0u, 1u, 0u, 1u}) dag.add_vertex(c);
    dag.add_edge(0, 1);
    dag.add_edge(1, 2);
    dag.add_edge(2, 3);
    dag.seal();
  });
  EXPECT_LE(count, 8u);
}

}  // namespace
}  // namespace krad
