// Tests for the exact optimal search: hand-checkable instances, consistency
// with the lower bounds (LB <= OPT), dominance over simulated schedulers
// (OPT <= any scheduler's result), and a differential sweep against a plain
// breadth-first / Dijkstra search kept here as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "bounds/lower_bounds.hpp"
#include "bounds/optimal.hpp"
#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "sched/greedy_cp.hpp"
#include "sim/engine.hpp"
#include "workload/random_jobs.hpp"

namespace krad {
namespace {

// The reference solver: uninformed search over executed-vertex bitmasks,
// without heuristic or symmetry reduction.  Same moves as the real solver
// (per category, every choice of min(P_alpha, ready_alpha) ready tasks), so
// the two must agree exactly.
namespace reference {

using Mask = std::uint64_t;

struct Instance {
  std::size_t num_vertices = 0;
  std::vector<Category> category;  // per global vertex
  std::vector<Mask> predecessors;  // per global vertex
  std::vector<Mask> job_mask;      // per job
  std::vector<int> processors;     // per category
  Mask full = 0;
};

Instance build_instance(const JobSet& set, const MachineConfig& machine) {
  Instance inst;
  inst.processors = machine.processors;
  std::size_t offset = 0;
  for (JobId id = 0; id < set.size(); ++id) {
    const KDag& dag = dynamic_cast<const DagJob&>(set.job(id)).dag();
    inst.job_mask.push_back(0);
    for (VertexId v = 0; v < dag.num_vertices(); ++v) {
      inst.category.push_back(dag.category(v));
      inst.predecessors.push_back(0);
    }
    for (VertexId v = 0; v < dag.num_vertices(); ++v) {
      inst.job_mask.back() |= Mask{1} << (offset + v);
      for (VertexId succ : dag.successors(v))
        inst.predecessors[offset + succ] |= Mask{1} << (offset + v);
    }
    offset += dag.num_vertices();
  }
  inst.num_vertices = offset;
  inst.full = (Mask{1} << offset) - 1;
  return inst;
}

/// Appends m | {every `take`-subset of from[start..]} to `out`.
void subsets(const std::vector<std::size_t>& from, std::size_t take,
             std::size_t start, Mask m, std::vector<Mask>& out) {
  if (take == 0) {
    out.push_back(m);
    return;
  }
  for (std::size_t i = start; i + take <= from.size(); ++i)
    subsets(from, take - 1, i + 1, m | Mask{1} << from[i], out);
}

/// Calls visit(next_mask) for every maximal execution from `mask`.
template <typename Visit>
void enumerate_moves(const Instance& inst, Mask mask, Visit&& visit) {
  const auto k = inst.processors.size();
  std::vector<std::vector<std::size_t>> ready(k);
  for (std::size_t v = 0; v < inst.num_vertices; ++v) {
    const Mask bit = Mask{1} << v;
    if ((mask & bit) == 0 &&
        (inst.predecessors[v] & mask) == inst.predecessors[v])
      ready[inst.category[v]].push_back(v);
  }
  // Per-category subsets of exactly min(P, |ready|) tasks.
  std::vector<std::vector<Mask>> choices(k);
  for (std::size_t a = 0; a < k; ++a)
    subsets(ready[a],
            std::min<std::size_t>(static_cast<std::size_t>(inst.processors[a]),
                                  ready[a].size()),
            0, 0, choices[a]);
  std::vector<std::size_t> pick(k, 0);
  for (;;) {
    Mask next = mask;
    for (std::size_t a = 0; a < k; ++a) next |= choices[a][pick[a]];
    visit(next);
    std::size_t a = 0;
    for (; a < k; ++a) {
      if (++pick[a] < choices[a].size()) break;
      pick[a] = 0;
    }
    if (a == k) break;
  }
}

/// Fewest steps to the full mask, by breadth-first search.
Work makespan(const JobSet& set, const MachineConfig& machine) {
  const Instance inst = build_instance(set, machine);
  std::unordered_map<Mask, Work> dist{{0, 0}};
  std::queue<Mask> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const Mask mask = frontier.front();
    frontier.pop();
    const Work d = dist[mask];
    if (mask == inst.full) return d;
    enumerate_moves(inst, mask, [&](Mask next) {
      if (next != mask && dist.emplace(next, d + 1).second) frontier.push(next);
    });
  }
  return -1;
}

/// Least total response, by Dijkstra: a step out of `mask` costs the number
/// of jobs unfinished in `mask`.
Work total_response(const JobSet& set, const MachineConfig& machine) {
  const Instance inst = build_instance(set, machine);
  auto unfinished = [&](Mask mask) {
    Work count = 0;
    for (const Mask jm : inst.job_mask)
      if ((mask & jm) != jm) ++count;
    return count;
  };
  using Entry = std::pair<Work, Mask>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::unordered_map<Mask, Work> dist{{0, 0}};
  heap.push({0, 0});
  while (!heap.empty()) {
    const auto [d, mask] = heap.top();
    heap.pop();
    if (dist[mask] < d) continue;
    if (mask == inst.full) return d;
    const Work nd = d + unfinished(mask);
    enumerate_moves(inst, mask, [&](Mask next) {
      if (next == mask) return;
      const auto it = dist.find(next);
      if (it == dist.end() || nd < it->second) {
        dist[next] = nd;
        heap.push({nd, next});
      }
    });
  }
  return -1;
}

}  // namespace reference

TEST(OptimalMakespan, SingleChain) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 5, 1)));
  const auto opt = optimal_makespan(set, MachineConfig{{4}});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 5);
}

TEST(OptimalMakespan, ParallelTasksPackPerfectly) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(fork_join({0}, 1, 5, 1)));  // 5 forks + join
  const auto opt = optimal_makespan(set, MachineConfig{{5}});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 2);
  const auto opt2 = optimal_makespan(set, MachineConfig{{2}});
  ASSERT_TRUE(opt2.has_value());
  EXPECT_EQ(*opt2, 4);  // ceil(5/2) + join
}

TEST(OptimalMakespan, TwoCategories) {
  // Chain 0 -> 1 -> 0 plus an independent category-1 task: with one
  // processor each, the category-1 steps can overlap.
  JobSet set(2);
  set.add(std::make_unique<DagJob>(category_chain({0, 1, 0}, 3, 2)));
  set.add(std::make_unique<DagJob>(single_task(1, 2)));
  const auto opt = optimal_makespan(set, MachineConfig{{1, 1}});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 3);
}

TEST(OptimalMakespan, ChoiceOfTasksMatters) {
  // Two jobs on P = 1: a chain of 2 and a single task.  OPT = 3 regardless
  // of order, but the search must consider both interleavings.
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 2, 1)));
  set.add(std::make_unique<DagJob>(single_task(0, 1)));
  const auto opt = optimal_makespan(set, MachineConfig{{1}});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 3);
}

TEST(OptimalMakespan, EmptySet) {
  JobSet set(1);
  const auto opt = optimal_makespan(set, MachineConfig{{1}});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 0);
}

TEST(OptimalMakespan, TooLargeReturnsNullopt) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(fork_join({0}, 10, 10, 1)));
  OptimalLimits limits;
  limits.max_vertices = 20;
  EXPECT_FALSE(optimal_makespan(set, MachineConfig{{2}}, limits).has_value());
}

TEST(OptimalMakespan, CategoryWithoutProcessorsReturnsNullopt) {
  JobSet set(2);
  set.add(std::make_unique<DagJob>(category_chain({0, 1}, 2, 2)));
  const MachineConfig machine{{1, 0}};
  EXPECT_FALSE(optimal_makespan(set, machine).has_value());
  EXPECT_FALSE(optimal_total_response(set, machine).has_value());
}

TEST(OptimalMakespan, RequiresBatchedAndDagJobs) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(single_task(0, 1)), 3);
  EXPECT_THROW(optimal_makespan(set, MachineConfig{{1}}), std::logic_error);
}

TEST(OptimalResponse, ShortestJobFirstWins) {
  // Chain 3 + single task on P = 1: SJF: single at t=1 (R=1), chain at 2..4
  // (R=4): total 5.  Reverse order: 3 + 4 = 7.
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 3, 1)));
  set.add(std::make_unique<DagJob>(single_task(0, 1)));
  const auto opt = optimal_total_response(set, MachineConfig{{1}});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 5);
}

TEST(OptimalResponse, ParallelMachineBothFinishFast) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(single_task(0, 1)));
  set.add(std::make_unique<DagJob>(single_task(0, 1)));
  const auto opt = optimal_total_response(set, MachineConfig{{2}});
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 2);  // both complete at step 1
}

// Property sweep: LB <= OPT <= simulated scheduler, and the theorems' bound
// OPT-relative form T(KRAD) <= (K + 1 - 1/Pmax) * OPT on tiny instances.
class OptimalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalProperty, SandwichAndTheorem3OnTinyInstances) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const Category k = rng.chance(0.5) ? 1 : 2;
    JobSet set(k);
    std::size_t budget = 12;
    while (budget > 2) {
      const auto size = static_cast<std::size_t>(
          rng.uniform_int(1, std::min<std::int64_t>(6, static_cast<std::int64_t>(budget))));
      RandomDagJobParams params;
      params.num_categories = k;
      params.min_size = size;
      params.max_size = size;
      set.add(make_random_dag_job(params, rng, "tiny"));
      budget -= std::min(budget, size + 2);
    }
    if (set.empty()) continue;
    MachineConfig machine;
    machine.processors.assign(k, 0);
    for (auto& p : machine.processors) p = static_cast<int>(rng.uniform_int(1, 3));

    const auto opt = optimal_makespan(set, machine);
    if (!opt.has_value()) continue;  // exceeded limits; skip
    const auto bounds = makespan_bounds(set, machine);
    EXPECT_LE(bounds.lower_bound(), *opt) << "LB must not exceed OPT";

    KRad sched;
    const SimResult result = simulate(set, sched, machine);
    EXPECT_GE(result.makespan, *opt) << "no scheduler beats OPT";
    EXPECT_LE(static_cast<double>(result.makespan),
              machine.makespan_bound() * static_cast<double>(*opt) + 1e-9)
        << "Theorem 3 violated on a tiny instance";

    set.reset_all();
    const auto opt_r = optimal_total_response(set, machine);
    if (opt_r.has_value()) {
      const SimResult r2 = simulate(set, sched, machine);
      EXPECT_GE(r2.total_response, *opt_r);
      const auto rb = response_bounds(set, machine);
      EXPECT_LE(rb.total_lower_bound(),
                static_cast<double>(*opt_r) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(OptimalResponse, GreedyCpNeverBeatsOptimal) {
  Rng rng(777);
  for (int trial = 0; trial < 8; ++trial) {
    JobSet set(1);
    const auto jobs = static_cast<std::size_t>(rng.uniform_int(2, 4));
    for (std::size_t i = 0; i < jobs; ++i)
      set.add(std::make_unique<DagJob>(
          category_chain({0}, static_cast<std::size_t>(rng.uniform_int(1, 3)), 1)));
    const MachineConfig machine{{2}};
    const auto opt = optimal_total_response(set, machine);
    ASSERT_TRUE(opt.has_value());
    GreedyCp sched;
    const SimResult result = simulate(set, sched, machine);
    EXPECT_GE(result.total_response, *opt);
  }
}

/// A batched set of `jobs` four-task jobs on K = 2, alternately a chain and
/// a diamond, each with both categories twice in a seed-shuffled order.
JobSet chains_and_diamonds(std::size_t jobs, Rng& rng) {
  JobSet set(2);
  for (std::size_t j = 0; j < jobs; ++j) {
    std::vector<Category> categories{0, 1, 0, 1};
    rng.shuffle(categories);
    KDag dag(2);
    VertexId v[4];
    for (std::size_t i = 0; i < 4; ++i) v[i] = dag.add_vertex(categories[i]);
    dag.add_edge(v[0], v[1]);
    dag.add_edge(j % 2 == 0 ? v[1] : v[0], v[2]);
    dag.add_edge(j % 2 == 0 ? v[2] : v[1], v[3]);
    if (j % 2 == 1) dag.add_edge(v[2], v[3]);
    dag.seal();
    set.add(std::make_unique<DagJob>(std::move(dag)));
  }
  return set;
}

TEST(OptimalMakespan, SixtyVerticesUnderDefaultLimits) {
  Rng rng(60);
  JobSet set = chains_and_diamonds(15, rng);
  const MachineConfig machine{{2, 2}};
  const auto opt = optimal_makespan(set, machine);
  ASSERT_TRUE(opt.has_value());
  EXPECT_LE(makespan_bounds(set, machine).lower_bound(), *opt);
  KRad sched;
  const SimResult result = simulate(set, sched, machine);
  EXPECT_GE(result.makespan, *opt);
  EXPECT_LE(static_cast<double>(result.makespan),
            machine.makespan_bound() * static_cast<double>(*opt) + 1e-9);
}

JobSet job_set(Category k, const std::vector<KDag>& dags) {
  JobSet set(k);
  for (const KDag& dag : dags) set.add(std::make_unique<DagJob>(dag));
  return set;
}

// Differential sweep: the A* solver against the reference search on random
// instances of at most 20 vertices.  Half the sets repeat one job two to
// four times, placed among the others at random, which exercises the
// symmetry reduction; every set is also solved with its jobs reversed.
TEST(OptimalDifferential, MatchesReferenceSearch) {
  constexpr int kInstances = 2000;
  constexpr std::size_t kMaxVertices = 20;
  Rng rng(1515);
  int mismatches = 0;
  std::ostringstream first;
  for (int trial = 0; trial < kInstances; ++trial) {
    const auto k = static_cast<Category>(rng.uniform_int(1, 3));
    MachineConfig machine;
    machine.processors.assign(k, 0);
    for (auto& p : machine.processors)
      p = static_cast<int>(rng.uniform_int(1, 3));
    RandomDagJobParams params;
    params.num_categories = k;
    params.min_size = 2;
    params.max_size = 6;
    auto draw = [&] {
      const JobPtr job = make_random_dag_job(params, rng, "diff");
      return dynamic_cast<const DagJob&>(*job).dag();
    };
    std::vector<KDag> dags;
    std::size_t vertices = 0;
    auto add = [&](const KDag& dag) {
      if (vertices + dag.num_vertices() > kMaxVertices) return;
      vertices += dag.num_vertices();
      dags.push_back(dag);
    };
    if (trial % 2 == 0) {
      const KDag twin = draw();
      for (auto copies = rng.uniform_int(2, 4); copies > 0; --copies) add(twin);
    }
    for (auto others = rng.uniform_int(trial % 2 == 0 ? 0 : 2, 4); others > 0;
         --others)
      add(draw());
    rng.shuffle(dags);

    const JobSet set = job_set(k, dags);
    std::vector<KDag> reversed(dags.rbegin(), dags.rend());
    const JobSet backwards = job_set(k, reversed);
    const Work want_mk = reference::makespan(set, machine);
    const Work want_resp = reference::total_response(set, machine);
    const Work got[] = {
        optimal_makespan(set, machine).value_or(-1),
        optimal_makespan(backwards, machine).value_or(-1),
        optimal_total_response(set, machine).value_or(-1),
        optimal_total_response(backwards, machine).value_or(-1)};
    if (got[0] == want_mk && got[1] == want_mk && got[2] == want_resp &&
        got[3] == want_resp)
      continue;
    if (mismatches++ == 0)
      first << "trial " << trial << ": K=" << k << " V=" << vertices
            << " makespan " << want_mk << " vs " << got[0] << "/" << got[1]
            << ", response " << want_resp << " vs " << got[2] << "/"
            << got[3];
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first.str();
}

// E11 (EXPERIMENTS.md): the LB <= OPT <= T(K-RAD) <= bound * OPT chain on
// the seed-1101 sweep of tiny instances, and how often the paper's makespan
// lower bound is exactly the optimum.
TEST(OptimalValidation, MakespanChainSeed1101) {
  Rng rng(1101);
  int solved = 0;
  int lb_exact = 0;
  for (int trial = 0; solved < 24 && trial < 200; ++trial) {
    const Category k = rng.chance(0.5) ? 1 : 2;
    JobSet set(k);
    std::size_t vertices = 0;
    const auto njobs = static_cast<std::size_t>(rng.uniform_int(2, 4));
    for (std::size_t i = 0; i < njobs && vertices < 14; ++i) {
      RandomDagJobParams params;
      params.num_categories = k;
      params.min_size = 2;
      params.max_size = 6;
      auto job = make_random_dag_job(params, rng, "tiny");
      vertices += static_cast<std::size_t>(job->total_work());
      set.add(std::move(job));
    }
    MachineConfig machine;
    machine.processors.assign(k, static_cast<int>(rng.uniform_int(1, 3)));

    OptimalLimits limits;
    limits.max_vertices = 18;
    const auto opt = optimal_makespan(set, machine, limits);
    if (!opt.has_value() || *opt == 0) continue;
    ++solved;
    const Work lb = makespan_bounds(set, machine).lower_bound();
    KRad sched;
    const SimResult result = simulate(set, sched, machine);
    EXPECT_LE(lb, *opt) << "trial " << trial;
    EXPECT_GE(result.makespan, *opt) << "trial " << trial;
    EXPECT_LE(static_cast<double>(result.makespan),
              machine.makespan_bound() * static_cast<double>(*opt) + 1e-9)
        << "trial " << trial;
    if (lb == *opt) ++lb_exact;
  }
  EXPECT_EQ(solved, 24);
  EXPECT_EQ(lb_exact, 23);
}

// E11, total response: LB_R <= OPT_R <= R(K-RAD) on the seed-1102 sweep.
TEST(OptimalValidation, ResponseChainSeed1102) {
  Rng rng(1102);
  int solved = 0;
  int lb_exact = 0;
  for (int trial = 0; solved < 16 && trial < 200; ++trial) {
    const Category k = 1;
    JobSet set(k);
    std::size_t vertices = 0;
    const auto njobs = static_cast<std::size_t>(rng.uniform_int(2, 4));
    for (std::size_t i = 0; i < njobs && vertices < 12; ++i) {
      RandomDagJobParams params;
      params.num_categories = k;
      params.min_size = 1;
      params.max_size = 5;
      auto job = make_random_dag_job(params, rng, "tiny");
      vertices += static_cast<std::size_t>(job->total_work());
      set.add(std::move(job));
    }
    MachineConfig machine{{static_cast<int>(rng.uniform_int(1, 2))}};
    OptimalLimits limits;
    limits.max_vertices = 14;
    const auto opt = optimal_total_response(set, machine, limits);
    if (!opt.has_value() || *opt == 0) continue;
    ++solved;
    const double lb = response_bounds(set, machine).total_lower_bound();
    KRad sched;
    const SimResult result = simulate(set, sched, machine);
    EXPECT_LE(lb, static_cast<double>(*opt) + 1e-9) << "trial " << trial;
    EXPECT_GE(result.total_response, *opt) << "trial " << trial;
    if (lb == static_cast<double>(*opt)) ++lb_exact;
  }
  EXPECT_EQ(solved, 16);
  EXPECT_EQ(lb_exact, 6);
}

}  // namespace
}  // namespace krad
