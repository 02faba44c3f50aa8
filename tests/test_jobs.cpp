// Tests for the runtime job abstractions: DagJob selection policies and
// ready-set dynamics, ProfileJob phase mechanics, JobSet aggregates.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dag/builders.hpp"
#include "jobs/dag_job.hpp"
#include "jobs/job_set.hpp"
#include "jobs/profile_job.hpp"

namespace krad {
namespace {

/// Collects executed vertices for assertions.
class CollectSink final : public TaskSink {
 public:
  void on_task(VertexId vertex, Category category) override {
    vertices.push_back(vertex);
    categories.push_back(category);
  }
  std::vector<VertexId> vertices;
  std::vector<Category> categories;
};

/// Drive a job alone with unlimited processors until done; returns steps.
Work run_greedy(Job& job) {
  Work steps = 0;
  while (!job.finished()) {
    for (Category a = 0; a < job.num_categories(); ++a) {
      const Work d = job.desire(a);
      if (d > 0) job.execute(a, d, nullptr);
    }
    job.advance();
    ++steps;
    EXPECT_LT(steps, 100000) << "job did not finish";
    if (steps >= 100000) break;
  }
  return steps;
}

TEST(DagJob, InitialDesiresAreSources) {
  DagJob job(figure1_example());
  EXPECT_EQ(job.desire(0), 1);  // single root of category 0
  EXPECT_EQ(job.desire(1), 0);
  EXPECT_EQ(job.desire(2), 0);
  EXPECT_EQ(job.total_desire(), 1);
}

TEST(DagJob, UnlimitedRunTakesSpanSteps) {
  for (auto policy :
       {SelectionPolicy::kFifo, SelectionPolicy::kLifo,
        SelectionPolicy::kCriticalPathFirst, SelectionPolicy::kCriticalPathLast,
        SelectionPolicy::kRandom}) {
    DagJob job(figure1_example(), policy);
    EXPECT_EQ(run_greedy(job), job.span()) << to_string(policy);
    EXPECT_TRUE(job.finished());
  }
}

TEST(DagJob, ExecuteCapsAtDesire) {
  DagJob job(figure1_example());
  EXPECT_EQ(job.execute(0, 100, nullptr), 1);
  EXPECT_EQ(job.execute(0, 100, nullptr), 0);  // successors not yet ready
  job.advance();
  EXPECT_EQ(job.desire(0), 1);  // vertex c
  EXPECT_EQ(job.desire(1), 1);  // vertex b
}

TEST(DagJob, EnabledTasksNotReadyWithinStep) {
  // chain of 3: executing the head must not make the next task ready until
  // advance() — unit tasks take a full step.
  DagJob job(category_chain({0}, 3, 1));
  EXPECT_EQ(job.execute(0, 3, nullptr), 1);
  EXPECT_EQ(job.desire(0), 0);
  job.advance();
  EXPECT_EQ(job.desire(0), 1);
}

TEST(DagJob, SinkReceivesEveryVertexOnce) {
  DagJob job(figure1_example());
  CollectSink sink;
  while (!job.finished()) {
    for (Category a = 0; a < job.num_categories(); ++a)
      job.execute(a, job.desire(a), &sink);
    job.advance();
  }
  EXPECT_EQ(sink.vertices.size(), 10u);
  std::vector<VertexId> sorted = sink.vertices;
  std::sort(sorted.begin(), sorted.end());
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(sorted[v], v);
}

TEST(DagJob, SinkCategoriesMatchDag) {
  DagJob job(figure1_example());
  const KDag& dag = job.dag();
  CollectSink sink;
  while (!job.finished()) {
    for (Category a = 0; a < job.num_categories(); ++a)
      job.execute(a, job.desire(a), &sink);
    job.advance();
  }
  for (std::size_t i = 0; i < sink.vertices.size(); ++i)
    EXPECT_EQ(dag.category(sink.vertices[i]), sink.categories[i]);
}

TEST(DagJob, CriticalPathFirstPicksDeepestVertex) {
  // Two sources: one heads a chain of 5, the other is a lone task.
  KDag dag(1);
  const auto lone = dag.add_vertex(0);
  dag.add_chain(0, 5);
  dag.seal();
  DagJob job(std::move(dag), SelectionPolicy::kCriticalPathFirst);
  CollectSink sink;
  job.execute(0, 1, &sink);
  ASSERT_EQ(sink.vertices.size(), 1u);
  EXPECT_NE(sink.vertices[0], lone);  // chain head has cp 5 > 1
}

TEST(DagJob, CriticalPathLastPicksShallowestVertex) {
  KDag dag(1);
  const auto lone = dag.add_vertex(0);
  dag.add_chain(0, 5);
  dag.seal();
  DagJob job(std::move(dag), SelectionPolicy::kCriticalPathLast);
  CollectSink sink;
  job.execute(0, 1, &sink);
  ASSERT_EQ(sink.vertices.size(), 1u);
  EXPECT_EQ(sink.vertices[0], lone);
}

TEST(DagJob, FifoExecutesInReadyOrder) {
  KDag dag(1);
  const auto a = dag.add_vertex(0);
  const auto b = dag.add_vertex(0);
  const auto c = dag.add_vertex(0);
  dag.seal();
  DagJob job(std::move(dag), SelectionPolicy::kFifo);
  CollectSink sink;
  job.execute(0, 3, &sink);
  EXPECT_EQ(sink.vertices, (std::vector<VertexId>{a, b, c}));
}

TEST(DagJob, LifoExecutesNewestFirst) {
  KDag dag(1);
  dag.add_vertex(0);
  dag.add_vertex(0);
  const auto c = dag.add_vertex(0);
  dag.seal();
  DagJob job(std::move(dag), SelectionPolicy::kLifo);
  CollectSink sink;
  job.execute(0, 1, &sink);
  EXPECT_EQ(sink.vertices[0], c);
}

TEST(DagJob, RemainingSpanTracksCriticalPath) {
  DagJob job(category_chain({0}, 4, 1));
  EXPECT_EQ(job.remaining_span(), 4);
  job.execute(0, 1, nullptr);
  job.advance();
  EXPECT_EQ(job.remaining_span(), 3);
  job.execute(0, 1, nullptr);
  job.advance();
  EXPECT_EQ(job.remaining_span(), 2);
}

TEST(DagJob, RemainingWorkDecrements) {
  DagJob job(figure1_example());
  EXPECT_EQ(job.remaining_work(0), job.work(0));
  job.execute(0, 1, nullptr);
  EXPECT_EQ(job.remaining_work(0), job.work(0) - 1);
}

TEST(DagJob, ResetRestoresInitialState) {
  DagJob job(figure1_example(), SelectionPolicy::kRandom, "j", 77);
  CollectSink first;
  while (!job.finished()) {
    for (Category a = 0; a < 3; ++a) job.execute(a, job.desire(a), &first);
    job.advance();
  }
  job.reset();
  EXPECT_FALSE(job.finished());
  EXPECT_EQ(job.desire(0), 1);
  EXPECT_EQ(job.remaining_span(), job.span());
  CollectSink second;
  while (!job.finished()) {
    for (Category a = 0; a < 3; ++a) job.execute(a, job.desire(a), &second);
    job.advance();
  }
  // Same seed -> identical random execution order.
  EXPECT_EQ(first.vertices, second.vertices);
}

/// Three sources of critical paths 2, 1 and 3 in one category:
/// 0 -> 3, 1, 2 -> 4 -> 5.
KDag three_chains() {
  KDag dag(1);
  for (int i = 0; i < 6; ++i) dag.add_vertex(0);
  dag.add_edge(0, 3);
  dag.add_edge(2, 4);
  dag.add_edge(4, 5);
  dag.seal();
  return dag;
}

/// Run `job` one task per step to the end; the execution order.
std::vector<VertexId> one_at_a_time(DagJob& job) {
  CollectSink sink;
  while (!job.finished()) {
    job.execute(0, 1, &sink);
    job.advance();
  }
  return sink.vertices;
}

TEST(DagJob, PopOrderOfEveryPolicyIsPinnedAcrossReset) {
  const std::pair<SelectionPolicy, std::vector<VertexId>> cases[] = {
      {SelectionPolicy::kFifo, {0, 1, 2, 3, 4, 5}},
      {SelectionPolicy::kLifo, {2, 4, 5, 1, 0, 3}},
      {SelectionPolicy::kCriticalPathFirst, {2, 0, 4, 1, 3, 5}},
      {SelectionPolicy::kCriticalPathLast, {1, 0, 3, 2, 4, 5}},
      {SelectionPolicy::kRandom, {1, 2, 4, 5, 0, 3}},  // seed 9
  };
  for (const auto& [policy, expected] : cases) {
    DagJob job(three_chains(), policy, "j", 9);
    EXPECT_EQ(one_at_a_time(job), expected) << to_string(policy);
    job.reset();
    EXPECT_EQ(one_at_a_time(job), expected) << to_string(policy);
    // A reset mid-run, with a part-consumed ready set, starts over too.
    job.reset();
    job.execute(0, 2, nullptr);
    job.advance();
    job.reset();
    EXPECT_EQ(one_at_a_time(job), expected) << to_string(policy);
  }
}

TEST(DagJob, FifoQueueDrainsAndRefillsInReleaseOrder) {
  // Sources 0 and 1; 0 enables 2 and 3, 1 enables 4.
  KDag dag(1);
  for (int i = 0; i < 5; ++i) dag.add_vertex(0);
  dag.add_edge(0, 2);
  dag.add_edge(0, 3);
  dag.add_edge(1, 4);
  dag.seal();
  DagJob job(std::move(dag), SelectionPolicy::kFifo);
  CollectSink sink;
  EXPECT_EQ(job.execute(0, 5, &sink), 2);  // drains the queue
  EXPECT_EQ(job.desire(0), 0);
  job.advance();
  EXPECT_EQ(job.desire(0), 3);
  EXPECT_EQ(job.execute(0, 1, &sink), 1);  // part-consumed refill
  job.advance();
  EXPECT_EQ(job.desire(0), 2);
  EXPECT_EQ(job.execute(0, 5, &sink), 2);
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(sink.vertices, (std::vector<VertexId>{0, 1, 2, 3, 4}));
}

TEST(DagJob, RejectsUnsealedDag) {
  KDag dag(1);
  dag.add_vertex(0);
  EXPECT_THROW(DagJob(std::move(dag)), std::logic_error);
}

// --- ProfileJob ---

Phase make_phase(std::initializer_list<PhasePart> parts) {
  Phase phase;
  phase.parts = parts;
  return phase;
}

TEST(ProfileJob, SpanAndWork) {
  std::vector<Phase> phases;
  phases.push_back(make_phase({{0, 10, 2}, {1, 3, 3}}));  // span 5
  phases.push_back(make_phase({{1, 7, 4}}));              // span 2
  ProfileJob job(std::move(phases), 2);
  EXPECT_EQ(job.work(0), 10);
  EXPECT_EQ(job.work(1), 10);
  EXPECT_EQ(job.span(), 7);
  EXPECT_EQ(job.remaining_span(), 7);
}

TEST(ProfileJob, DesireIsMinOfParallelismAndRemaining) {
  std::vector<Phase> phases;
  phases.push_back(make_phase({{0, 5, 3}}));
  ProfileJob job(std::move(phases), 1);
  EXPECT_EQ(job.desire(0), 3);
  job.execute(0, 3, nullptr);
  job.advance();
  EXPECT_EQ(job.desire(0), 2);  // remaining 2 < parallelism 3
}

TEST(ProfileJob, PhaseBarrier) {
  std::vector<Phase> phases;
  phases.push_back(make_phase({{0, 2, 2}, {1, 1, 1}}));
  phases.push_back(make_phase({{1, 1, 1}}));
  ProfileJob job(std::move(phases), 2);
  // Phase 2's work must not be visible while phase 1 is incomplete.
  job.execute(0, 2, nullptr);
  job.advance();
  EXPECT_EQ(job.desire(1), 1);  // still phase 1's category-1 work
  EXPECT_EQ(job.current_phase(), 0u);
  job.execute(1, 1, nullptr);
  job.advance();
  EXPECT_EQ(job.current_phase(), 1u);
  EXPECT_EQ(job.desire(1), 1);
  job.execute(1, 1, nullptr);
  job.advance();
  EXPECT_TRUE(job.finished());
}

TEST(ProfileJob, FullySatisfiedRunTakesSpanSteps) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Phase> phases;
    const auto n_phases = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t p = 0; p < n_phases; ++p) {
      Phase phase;
      for (Category a = 0; a < 2; ++a)
        if (rng.chance(0.7))
          phase.parts.push_back(
              {a, rng.uniform_int(1, 30), rng.uniform_int(1, 6)});
      if (phase.parts.empty()) phase.parts.push_back({0, 1, 1});
      phases.push_back(std::move(phase));
    }
    ProfileJob job(std::move(phases), 2);
    const Work span = job.span();
    EXPECT_EQ(run_greedy(job), span);
  }
}

TEST(ProfileJob, ExecuteCapsAtDesire) {
  std::vector<Phase> phases;
  phases.push_back(make_phase({{0, 4, 2}}));
  ProfileJob job(std::move(phases), 1);
  EXPECT_EQ(job.execute(0, 100, nullptr), 2);
}

TEST(ProfileJob, RemainingSpanMidPhase) {
  std::vector<Phase> phases;
  phases.push_back(make_phase({{0, 6, 2}}));  // span 3
  phases.push_back(make_phase({{0, 4, 4}}));  // span 1
  ProfileJob job(std::move(phases), 1);
  EXPECT_EQ(job.remaining_span(), 4);
  job.execute(0, 2, nullptr);
  job.advance();
  EXPECT_EQ(job.remaining_span(), 3);  // ceil(4/2) + 1
}

TEST(ProfileJob, ValidationRejectsBadPhases) {
  EXPECT_THROW(ProfileJob({make_phase({{0, 0, 1}})}, 1), std::logic_error);
  EXPECT_THROW(ProfileJob({make_phase({{0, 1, 0}})}, 1), std::logic_error);
  EXPECT_THROW(ProfileJob({make_phase({{3, 1, 1}})}, 2), std::logic_error);
  EXPECT_THROW(ProfileJob({make_phase({{0, 1, 1}, {0, 2, 1}})}, 1),
               std::logic_error);
  EXPECT_THROW(ProfileJob({Phase{}}, 1), std::logic_error);
}

TEST(ProfileJob, ResetRestores) {
  std::vector<Phase> phases;
  phases.push_back(make_phase({{0, 4, 2}}));
  ProfileJob job(std::move(phases), 1);
  run_greedy(job);
  EXPECT_TRUE(job.finished());
  job.reset();
  EXPECT_FALSE(job.finished());
  EXPECT_EQ(job.remaining_work(0), 4);
  EXPECT_EQ(job.desire(0), 2);
}

// --- JobSet ---

TEST(JobSet, AggregatesAndReleases) {
  JobSet set(3);
  set.add(std::make_unique<DagJob>(figure1_example()), 0);
  set.add(std::make_unique<DagJob>(figure1_example()), 5);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.batched());
  EXPECT_EQ(set.total_work(0), 2 * 5);
  EXPECT_EQ(set.aggregate_span(), 12);
  EXPECT_EQ(set.max_release_plus_span(), 11);
  EXPECT_EQ(set.works(1), (std::vector<Work>{3, 3}));
}

TEST(JobSet, SetReleaseAndBatchedFlag) {
  JobSet set(3);
  set.add(std::make_unique<DagJob>(figure1_example()), 7);
  EXPECT_FALSE(set.batched());
  set.set_release(0, 0);
  EXPECT_TRUE(set.batched());
  EXPECT_THROW(set.set_release(0, -1), std::logic_error);
}

TEST(JobSet, RejectsMismatchedCategories) {
  JobSet set(2);
  EXPECT_THROW(set.add(std::make_unique<DagJob>(figure1_example())),
               std::logic_error);
  EXPECT_THROW(set.add(nullptr), std::logic_error);
}

TEST(JobSet, ResetAllRestoresJobs) {
  JobSet set(3);
  set.add(std::make_unique<DagJob>(figure1_example()));
  auto& job = set.job(0);
  job.execute(0, 1, nullptr);
  job.advance();
  set.reset_all();
  EXPECT_EQ(set.job(0).desire(0), 1);
  EXPECT_EQ(set.job(0).total_remaining_work(), 10);
}

}  // namespace
}  // namespace krad
