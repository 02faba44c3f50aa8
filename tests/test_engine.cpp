// Tests for the simulation engine: step mechanics, release handling, idle
// fast-forward, completion bookkeeping, capacity enforcement, determinism.

#include <gtest/gtest.h>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "fault/fault_plan.hpp"
#include "jobs/profile_job.hpp"
#include "sched/greedy_cp.hpp"
#include "sim/engine.hpp"
#include "workload/random_jobs.hpp"

namespace krad {
namespace {

JobSet single_chain_set(std::size_t length) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, length, 1)));
  return set;
}

TEST(Engine, EmptyJobSet) {
  JobSet set(1);
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{2}});
  EXPECT_EQ(result.makespan, 0);
  EXPECT_EQ(result.busy_steps, 0);
}

TEST(Engine, SingleChainTakesLengthSteps) {
  JobSet set = single_chain_set(5);
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{2}});
  EXPECT_EQ(result.makespan, 5);
  EXPECT_EQ(result.completion[0], 5);
  EXPECT_EQ(result.response[0], 5);
  EXPECT_EQ(result.executed_work[0], 5);
  EXPECT_EQ(result.busy_steps, 5);
  EXPECT_EQ(result.idle_steps, 0);
}

TEST(Engine, ReleaseDelaysStart) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 3, 1)), 4);
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{1}});
  // Available from step 5; completes at step 7; response = 7 - 4 = 3.
  EXPECT_EQ(result.completion[0], 7);
  EXPECT_EQ(result.response[0], 3);
  EXPECT_EQ(result.idle_steps, 4);
  EXPECT_EQ(result.busy_steps, 3);
}

TEST(Engine, IdleIntervalBetweenJobs) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(single_task(0, 1)), 0);
  set.add(std::make_unique<DagJob>(single_task(0, 1)), 10);
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{4}});
  EXPECT_EQ(result.completion[0], 1);
  EXPECT_EQ(result.completion[1], 11);
  EXPECT_EQ(result.response[1], 1);
  EXPECT_EQ(result.busy_steps, 2);
  EXPECT_EQ(result.idle_steps, 9);  // steps 2..10
  EXPECT_EQ(result.makespan, 11);
}

TEST(Engine, TwoIndependentJobsShareProcessors) {
  // Two 4-wide fork-join jobs on 8 processors: both fully satisfied.
  JobSet set(1);
  set.add(std::make_unique<DagJob>(fork_join({0}, 2, 4, 1)));
  set.add(std::make_unique<DagJob>(fork_join({0}, 2, 4, 1)));
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{8}});
  EXPECT_EQ(result.makespan, 4);  // span of the fork-join
  EXPECT_EQ(result.completion[0], 4);
  EXPECT_EQ(result.completion[1], 4);
}

TEST(Engine, MeanResponseComputation) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 2, 1)));
  set.add(std::make_unique<DagJob>(category_chain({0}, 4, 1)));
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{2}});
  EXPECT_EQ(result.total_response, result.response[0] + result.response[1]);
  EXPECT_DOUBLE_EQ(result.mean_response,
                   static_cast<double>(result.total_response) / 2.0);
}

TEST(Engine, UtilizationFullWhenSaturated) {
  // One job with 8 parallel tasks per step on 2 processors: both processors
  // always busy.
  JobSet set(1);
  set.add(std::make_unique<DagJob>(fork_join({0}, 3, 8, 1)));
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{2}});
  // 3 * (8 + 1) = 27 work units on 2 processors; joins leave odd steps, so
  // utilization is high but below 1; check the accounting identity instead.
  EXPECT_DOUBLE_EQ(result.utilization[0],
                   static_cast<double>(result.executed_work[0]) /
                       (2.0 * static_cast<double>(result.busy_steps)));
}

TEST(Engine, MismatchedCategoriesRejected) {
  JobSet set(2);
  KRad sched;
  EXPECT_THROW(simulate(set, sched, MachineConfig{{1}}), std::logic_error);
}

TEST(Engine, EmptyCategoryRejected) {
  JobSet set = single_chain_set(2);
  KRad sched;
  EXPECT_THROW(simulate(set, sched, MachineConfig{{0}}), std::logic_error);
}

TEST(Engine, MaxStepsGuard) {
  JobSet set = single_chain_set(100);
  KRad sched;
  SimOptions options;
  options.max_steps = 10;
  EXPECT_THROW(simulate(set, sched, MachineConfig{{1}}, options),
               std::runtime_error);
}

/// A scheduler that over-allocates to verify the engine's capacity check.
class OverAllocator final : public KScheduler {
 public:
  void reset(const MachineConfig&, std::size_t) override {}
  void allot(Time, std::span<const JobView> active, const ClairvoyantView*,
             Allotment& out) override {
    for (std::size_t j = 0; j < active.size(); ++j) out[j][0] = 1000;
  }
  std::string name() const override { return "over-allocator"; }
};

TEST(Engine, OverAllocationDetected) {
  JobSet set = single_chain_set(2);
  OverAllocator sched;
  EXPECT_THROW(simulate(set, sched, MachineConfig{{2}}), std::logic_error);
}

/// A scheduler returning a negative allotment.
class NegativeAllocator final : public KScheduler {
 public:
  void reset(const MachineConfig&, std::size_t) override {}
  void allot(Time, std::span<const JobView> active, const ClairvoyantView*,
             Allotment& out) override {
    for (std::size_t j = 0; j < active.size(); ++j) out[j][0] = -1;
  }
  std::string name() const override { return "negative-allocator"; }
};

TEST(Engine, NegativeAllotmentDetected) {
  JobSet set = single_chain_set(2);
  NegativeAllocator sched;
  EXPECT_THROW(simulate(set, sched, MachineConfig{{2}}), std::logic_error);
}

TEST(Engine, DeterministicAcrossRuns) {
  Rng rng(7);
  LayeredParams params;
  params.layers = 6;
  params.max_width = 6;
  params.num_categories = 2;
  JobSet set(2);
  for (int i = 0; i < 5; ++i)
    set.add(std::make_unique<DagJob>(layered_random(params, rng)));
  KRad sched;
  const SimResult first = simulate(set, sched, MachineConfig{{3, 2}});
  set.reset_all();
  const SimResult second = simulate(set, sched, MachineConfig{{3, 2}});
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.completion, second.completion);
  EXPECT_EQ(first.total_response, second.total_response);
}

TEST(Engine, ClairvoyantViewSuppliedToGreedy) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 3, 1)));
  GreedyCp sched;
  const SimResult result = simulate(set, sched, MachineConfig{{2}});
  EXPECT_EQ(result.makespan, 3);  // no throw: engine provided the view
}

TEST(Engine, TraceRecordedOnDemand) {
  JobSet set = single_chain_set(3);
  KRad sched;
  SimOptions options;
  options.record_trace = true;
  const SimResult result = simulate(set, sched, MachineConfig{{1}}, options);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_EQ(result.trace->events().size(), 3u);
  EXPECT_EQ(result.trace->steps().size(), 3u);
  // Without the flag no trace is allocated.
  set.reset_all();
  const SimResult bare = simulate(set, sched, MachineConfig{{1}});
  EXPECT_EQ(bare.trace, nullptr);
}

TEST(Engine, TraceEventsCarryProcessorsWithinRange) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(fork_join({0}, 2, 6, 1)));
  KRad sched;
  SimOptions options;
  options.record_trace = true;
  const SimResult result = simulate(set, sched, MachineConfig{{3}}, options);
  for (const TaskEvent& event : result.trace->events()) {
    EXPECT_GE(event.proc, 0);
    EXPECT_LT(event.proc, 3);
    EXPECT_GE(event.t, 1);
    EXPECT_LE(event.t, result.makespan);
  }
}

TEST(Engine, DecisionPeriodStillCompletesAndValidates) {
  Rng rng(171);
  LayeredParams params;
  params.layers = 6;
  params.max_width = 6;
  params.num_categories = 2;
  for (Time period : {1, 2, 5, 16}) {
    JobSet set(2);
    for (int i = 0; i < 6; ++i)
      set.add(std::make_unique<DagJob>(layered_random(params, rng)));
    KRad sched;
    SimOptions options;
    options.decision_period = period;
    options.record_trace = true;
    const MachineConfig machine{{3, 2}};
    const SimResult result = simulate(set, sched, machine, options);
    EXPECT_GT(result.makespan, 0) << "period " << period;
    // Capacity and desire caps hold on every (held) step too.
    for (const StepRecord& step : result.trace->steps()) {
      for (Category a = 0; a < 2; ++a) {
        Work sum = 0;
        for (std::size_t j = 0; j < step.active.size(); ++j) {
          sum += step.allot[j][a];
          EXPECT_LE(step.allot[j][a], step.desire[j][a]);
        }
        EXPECT_LE(sum, machine.processors[a]);
      }
    }
  }
}

TEST(Engine, DecisionPeriodOneMatchesDefault) {
  Rng rng(172);
  RandomDagJobParams params;
  params.num_categories = 2;
  JobSet set = make_dag_job_set(params, 8, rng);
  KRad a;
  const SimResult base = simulate(set, a, MachineConfig{{3, 2}});
  set.reset_all();
  KRad b;
  SimOptions options;
  options.decision_period = 1;
  const SimResult same = simulate(set, b, MachineConfig{{3, 2}}, options);
  EXPECT_EQ(base.completion, same.completion);
}

TEST(Engine, DecisionForcedOnActiveSetChange) {
  // A job released mid-run must receive processors promptly even with a
  // long decision period (the engine re-decides when the active set
  // changes).
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 30, 1)), 0);
  set.add(std::make_unique<DagJob>(single_task(0, 1)), 5);
  KRad sched;
  SimOptions options;
  options.decision_period = 1000;
  const SimResult result = simulate(set, sched, MachineConfig{{2}}, options);
  EXPECT_EQ(result.completion[1], 6);  // released at 5, runs at step 6
}

TEST(Engine, DecisionPeriodSurvivesCapacityDrop) {
  // Two processors are lost at step 3, inside the first decision period.
  // The held allotment was made for four; replaying it on two would
  // over-allocate, so the capacity change forces a fresh decision.
  FaultPlan plan;
  plan.capacity_events.push_back(CapacityEvent{3, 0, -2});
  const MachineConfig machine{{4}};
  for (Time period : {1, 4}) {
    JobSet set(1);
    for (int i = 0; i < 2; ++i)
      set.add(std::make_unique<DagJob>(map_reduce(8, 8, 0, 0, 1)));
    KRad sched;
    SimOptions options;
    options.decision_period = period;
    options.fault_plan = &plan;
    options.record_trace = true;
    const SimResult result = simulate(set, sched, machine, options);
    if (period == 1) {
      EXPECT_EQ(result.makespan, 15);
    }
    EXPECT_EQ(result.executed_work[0], 2 * set.job(0).total_work());
    for (const StepRecord& step : result.trace->steps()) {
      Work sum = 0;
      for (std::size_t j = 0; j < step.active.size(); ++j)
        sum += step.allot[j][0];
      EXPECT_LE(sum, step.capacity[0])
          << "period " << period << " step " << step.t;
    }
  }
}

TEST(Engine, InvalidDecisionPeriodRejected) {
  JobSet set = single_chain_set(2);
  KRad sched;
  SimOptions options;
  options.decision_period = 0;
  EXPECT_THROW(simulate(set, sched, MachineConfig{{1}}, options),
               std::logic_error);
}

TEST(Metrics, StretchComputation) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 4, 1)));  // span 4
  set.add(std::make_unique<DagJob>(category_chain({0}, 2, 1)));  // span 2
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{2}});
  // Both run fully satisfied (one processor each): response == span.
  const auto values = stretches(result, set);
  EXPECT_DOUBLE_EQ(values[0], 1.0);
  EXPECT_DOUBLE_EQ(values[1], 1.0);
  EXPECT_DOUBLE_EQ(max_stretch(result, set), 1.0);
  EXPECT_DOUBLE_EQ(mean_stretch(result, set), 1.0);
}

TEST(Metrics, StretchDetectsDelayedShortJob) {
  // On one processor the short job is delayed behind round-robin shares.
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 10, 1)));
  set.add(std::make_unique<DagJob>(single_task(0, 1)));  // span 1
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{1}});
  EXPECT_GT(max_stretch(result, set), 1.0);
}

TEST(Metrics, SummarizeMentionsKeyFields) {
  JobSet set = single_chain_set(3);
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{1}});
  const std::string line = summarize(result, "demo");
  EXPECT_NE(line.find("demo"), std::string::npos);
  EXPECT_NE(line.find("makespan=3"), std::string::npos);
  EXPECT_NE(line.find("util=["), std::string::npos);
}

TEST(Engine, ProfileJobsRunToCompletion) {
  JobSet set(2);
  std::vector<Phase> phases;
  Phase p1;
  p1.parts = {{0, 10, 4}, {1, 6, 2}};
  Phase p2;
  p2.parts = {{1, 8, 2}};
  phases.push_back(p1);
  phases.push_back(p2);
  set.add(std::make_unique<ProfileJob>(phases, 2));
  KRad sched;
  const SimResult result = simulate(set, sched, MachineConfig{{4, 2}});
  // Fully satisfied throughout -> completes in span steps.
  EXPECT_EQ(result.makespan, set.job(0).span());
  EXPECT_EQ(result.executed_work[0], 10);
  EXPECT_EQ(result.executed_work[1], 14);
}

}  // namespace
}  // namespace krad
