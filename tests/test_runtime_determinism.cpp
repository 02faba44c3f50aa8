// Determinism cross-check: a virtual-clock runtime executor is the SAME
// machine as the discrete-time simulator — inline and threaded alike.
//
// For identical job sets (same K-DAGs, FIFO selection, same releases), the
// same scheduler and the same machine, the executor's per-quantum desires
// and allotments, its task events (vertex, category, processor, time) and
// its makespan must match sim::simulate bit for bit.  This pins the runtime
// to the paper's model: whatever the simulator proves about a scheduler
// transfers to the live quantum loop.
//
// Every scenario sweeps both modes: inline (single-threaded) and the
// work-stealing StealPool.  The threaded mode stays bit-identical because
// successor release and trace recording happen on the executor thread in
// admission order — worker completion order is invisible (runtime_job.hpp)
// — and this suite is the proof: it runs under TSan in the runtime-stress
// CI job.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_job.hpp"
#include "fault/injector.hpp"
#include "jobs/job_set.hpp"
#include "runtime/executor.hpp"
#include "sched/kdeq_only.hpp"
#include "sched/kequi.hpp"
#include "sched/kround_robin.hpp"
#include "sim/engine.hpp"

namespace krad {
namespace {

struct Workload {
  std::vector<KDag> dags;
  std::vector<Time> releases;
  Category categories = 3;
};

/// Execution modes every determinism scenario sweeps.
enum class ExecMode { kInline, kSteal };
constexpr ExecMode kAllModes[] = {ExecMode::kInline, ExecMode::kSteal};

const char* mode_name(ExecMode mode) {
  return mode == ExecMode::kInline ? "inline" : "steal pool";
}

void apply_mode(ExecutorOptions& options, ExecMode mode) {
  options.inline_execution = mode == ExecMode::kInline;
}

Workload make_workload(std::uint64_t seed, bool staggered) {
  Workload w;
  Rng rng(seed);
  for (int i = 0; i < 6; ++i) {
    LayeredParams params;
    params.layers = 5 + i % 3;
    params.max_width = 6;
    params.num_categories = w.categories;
    w.dags.push_back(layered_random(params, rng));
    w.releases.push_back(staggered ? 3 * i : 0);
  }
  w.dags.push_back(grid_wavefront(4, 6, {0, 1, 2}, w.categories));
  // A long idle gap the executor must fast-forward exactly like the sim.
  w.releases.push_back(staggered ? 500 : 0);
  return w;
}

JobSet as_job_set(const Workload& w) {
  JobSet set(w.categories);
  for (std::size_t i = 0; i < w.dags.size(); ++i)
    set.add(std::make_unique<DagJob>(w.dags[i], SelectionPolicy::kFifo),
            w.releases[i]);
  return set;
}

void expect_equal_traces(const ScheduleTrace& sim_trace,
                         const ScheduleTrace& run_trace) {
  ASSERT_EQ(sim_trace.steps().size(), run_trace.steps().size());
  for (std::size_t s = 0; s < sim_trace.steps().size(); ++s) {
    const StepRecord& a = sim_trace.steps()[s];
    const StepRecord& b = run_trace.steps()[s];
    EXPECT_EQ(a.t, b.t) << "step " << s;
    EXPECT_EQ(a.active, b.active) << "step " << s;
    EXPECT_EQ(a.desire, b.desire) << "step " << s;
    EXPECT_EQ(a.allot, b.allot) << "step " << s;
    EXPECT_EQ(a.capacity, b.capacity) << "step " << s;
  }
  ASSERT_EQ(sim_trace.events().size(), run_trace.events().size());
  for (std::size_t e = 0; e < sim_trace.events().size(); ++e) {
    const TaskEvent& a = sim_trace.events()[e];
    const TaskEvent& b = run_trace.events()[e];
    EXPECT_EQ(a.t, b.t) << "event " << e;
    EXPECT_EQ(a.job, b.job) << "event " << e;
    EXPECT_EQ(a.category, b.category) << "event " << e;
    EXPECT_EQ(a.vertex, b.vertex) << "event " << e;
    EXPECT_EQ(a.proc, b.proc) << "event " << e;
  }
  ASSERT_EQ(sim_trace.faults().size(), run_trace.faults().size());
  for (std::size_t f = 0; f < sim_trace.faults().size(); ++f) {
    const FaultEvent& a = sim_trace.faults()[f];
    const FaultEvent& b = run_trace.faults()[f];
    EXPECT_EQ(a.t, b.t) << "fault " << f;
    EXPECT_EQ(a.job, b.job) << "fault " << f;
    EXPECT_EQ(a.kind, b.kind) << "fault " << f;
    EXPECT_EQ(a.vertex, b.vertex) << "fault " << f;
    EXPECT_EQ(a.category, b.category) << "fault " << f;
    EXPECT_EQ(a.attempt, b.attempt) << "fault " << f;
    EXPECT_EQ(a.proc, b.proc) << "fault " << f;
    EXPECT_EQ(a.retry_delay, b.retry_delay) << "fault " << f;
    EXPECT_EQ(a.capacity, b.capacity) << "fault " << f;
  }
}

template <typename Scheduler>
void run_both(const Workload& w, const MachineConfig& machine) {
  // Simulator side.
  JobSet set = as_job_set(w);
  Scheduler sim_sched;
  SimOptions sim_options;
  sim_options.record_trace = true;
  const SimResult sim = simulate(set, sim_sched, machine, sim_options);

  // Runtime side, once per execution mode, each against the same sim run.
  for (const ExecMode mode : kAllModes) {
    SCOPED_TRACE(mode_name(mode));
    ExecutorOptions options;
    apply_mode(options, mode);
    Executor executor(machine, options);
    for (std::size_t i = 0; i < w.dags.size(); ++i)
      executor.submit(std::make_unique<RuntimeJob>(w.dags[i]), w.releases[i]);
    Scheduler run_sched;
    const RuntimeResult run = executor.run(run_sched);

    EXPECT_EQ(sim.makespan, run.makespan);
    EXPECT_EQ(sim.busy_steps, run.busy_quanta);
    EXPECT_EQ(sim.idle_steps, run.idle_quanta);
    EXPECT_EQ(sim.completion, run.completion);
    EXPECT_EQ(sim.response, run.response);
    EXPECT_EQ(sim.executed_work, run.executed_work);
    EXPECT_EQ(sim.allotted, run.allotted);
    ASSERT_NE(sim.trace, nullptr);
    ASSERT_NE(run.trace, nullptr);
    expect_equal_traces(*sim.trace, *run.trace);
  }
}

// Fault-mode cross-check: same FaultPlan + RetryPolicy on both backends.
// The sim side wraps each DAG in a FaultyDagJob; the executor side gets the
// plan via ExecutorOptions.  Failure decisions hash (seed, job, vertex,
// attempt), so they are independent of execution order and the two backends
// must agree on every step, task event, fault event and outcome.
template <typename Scheduler>
void run_both_faulty(const Workload& w, const MachineConfig& machine,
                     const FaultPlan& plan, const RetryPolicy& policy) {
  // Simulator side.
  const FaultInjector injector(plan, machine);
  JobSet set(w.categories);
  for (std::size_t i = 0; i < w.dags.size(); ++i)
    add_faulty(set, w.dags[i], &injector, policy, w.releases[i]);
  Scheduler sim_sched;
  SimOptions sim_options;
  sim_options.record_trace = true;
  sim_options.fault_plan = &plan;
  const SimResult sim = simulate(set, sim_sched, machine, sim_options);

  // Runtime side, once per execution mode, same plan and policy each time.
  for (const ExecMode mode : kAllModes) {
    SCOPED_TRACE(mode_name(mode));
    ExecutorOptions options;
    apply_mode(options, mode);
    options.fault_plan = &plan;
    options.retry = policy;
    Executor executor(machine, options);
    for (std::size_t i = 0; i < w.dags.size(); ++i)
      executor.submit(std::make_unique<RuntimeJob>(w.dags[i]), w.releases[i]);
    Scheduler run_sched;
    const RuntimeResult run = executor.run(run_sched);

    EXPECT_EQ(sim.makespan, run.makespan);
    EXPECT_EQ(sim.completion, run.completion);
    EXPECT_EQ(sim.response, run.response);
    EXPECT_EQ(sim.executed_work, run.executed_work);
    EXPECT_EQ(sim.allotted, run.allotted);
    EXPECT_EQ(sim.failed_attempts, run.failed_attempts);
    EXPECT_EQ(sim.retries, run.retries);
    ASSERT_EQ(sim.outcome.size(), run.outcome.size());
    for (std::size_t j = 0; j < sim.outcome.size(); ++j)
      EXPECT_EQ(sim.outcome[j], run.outcome[j]) << "job " << j;
    ASSERT_NE(sim.trace, nullptr);
    ASSERT_NE(run.trace, nullptr);
    expect_equal_traces(*sim.trace, *run.trace);
  }
}

TEST(RuntimeDeterminism, KRadBatchedMatchesSimulatorExactly) {
  run_both<KRad>(make_workload(101, /*staggered=*/false),
                 MachineConfig{{3, 2, 2}});
}

TEST(RuntimeDeterminism, KRadStaggeredReleasesAndIdleGapMatch) {
  run_both<KRad>(make_workload(202, /*staggered=*/true),
                 MachineConfig{{3, 2, 2}});
}

TEST(RuntimeDeterminism, KEquiMatchesDespiteDesireBlindAllotments) {
  // K-EQUI allots above desire; engine and executor both execute min(a, d)
  // and both record the raw allotment.
  run_both<KEqui>(make_workload(303, /*staggered=*/false),
                  MachineConfig{{4, 2, 1}});
}

TEST(RuntimeDeterminism, KDeqOnlyMatches) {
  run_both<KDeqOnly>(make_workload(404, /*staggered=*/true),
                     MachineConfig{{2, 2, 2}});
}

TEST(RuntimeDeterminism, KRoundRobinStatefulCyclesMatch) {
  // K-RR carries round-robin pointers across steps; matching traces prove
  // the executor invokes the scheduler in exactly the simulator's sequence.
  run_both<KRoundRobin>(make_workload(505, /*staggered=*/true),
                        MachineConfig{{3, 1, 2}});
}

TEST(RuntimeDeterminism, SeveralSeedsAndMachines) {
  for (std::uint64_t seed : {7u, 19u, 23u}) {
    run_both<KRad>(make_workload(seed, seed % 2 == 0),
                   MachineConfig{{2, 3, 1}});
  }
}

TEST(RuntimeDeterminism, ProbabilityFaultsWithBackoffMatch) {
  FaultPlan plan;
  plan.seed = 4242;
  plan.failure_prob = {0.1, 0.15, 0.1};
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.backoff_base = 1;
  policy.backoff_cap = 4;
  run_both_faulty<KRad>(make_workload(606, /*staggered=*/true),
                        MachineConfig{{3, 2, 2}}, plan, policy);
}

TEST(RuntimeDeterminism, ScriptedFaultsMatch) {
  // Exact (job, vertex, attempt) triples: vertex 0 of job 0 fails twice,
  // vertex 2 of job 1 fails once.
  FaultPlan plan;
  plan.scripted = {{0, 0, 1}, {0, 0, 2}, {1, 2, 1}};
  RetryPolicy policy;
  policy.max_attempts = 5;
  run_both_faulty<KRad>(make_workload(707, /*staggered=*/false),
                        MachineConfig{{3, 2, 2}}, plan, policy);
}

TEST(RuntimeDeterminism, CapacityLossAndRecoveryMatch) {
  // Mid-run outage that keeps at least one processor in every category, plus
  // a sprinkle of task failures; both backends must degrade identically and
  // stamp identical capacity vectors on every step.
  FaultPlan plan;
  plan.seed = 11;
  plan.failure_prob = {0.05, 0.05, 0.05};
  plan.capacity_events = {{8, 0, -2}, {12, 1, -1}, {25, 0, +2}, {30, 1, +1}};
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base = 1;
  run_both_faulty<KRad>(make_workload(808, /*staggered=*/true),
                        MachineConfig{{3, 2, 2}}, plan, policy);
}

TEST(RuntimeDeterminism, FailJobPolicyMatches) {
  // Exhausting vertex 0 of job 0 abandons the job on both backends; the
  // remaining jobs still finish and the outcomes line up.
  FaultPlan plan;
  plan.scripted = {{0, 0, 1}, {0, 0, 2}};
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.on_exhausted = ExhaustionAction::kFailJob;
  run_both_faulty<KRad>(make_workload(909, /*staggered=*/false),
                        MachineConfig{{3, 2, 2}}, plan, policy);
}

TEST(RuntimeDeterminism, DropJobPolicyMatches) {
  FaultPlan plan;
  plan.scripted = {{2, 1, 1}, {2, 1, 2}, {5, 0, 1}};
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.on_exhausted = ExhaustionAction::kDropJob;
  run_both_faulty<KRad>(make_workload(111, /*staggered=*/true),
                        MachineConfig{{3, 2, 2}}, plan, policy);
}

TEST(RuntimeDeterminism, FaultyExecutorRunTwiceIsBitIdentical) {
  // Fresh executors, same plan: byte-for-byte identical traces, within a
  // mode (re-run stability) and across both modes (threading independence).
  const Workload w = make_workload(321, /*staggered=*/false);
  const MachineConfig machine{{3, 2, 2}};
  FaultPlan plan;
  plan.seed = 77;
  plan.failure_prob = {0.1, 0.1, 0.1};
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base = 1;

  auto run_once = [&](ExecMode mode) {
    ExecutorOptions options;
    apply_mode(options, mode);
    options.fault_plan = &plan;
    options.retry = policy;
    Executor executor(machine, options);
    for (std::size_t i = 0; i < w.dags.size(); ++i)
      executor.submit(std::make_unique<RuntimeJob>(w.dags[i]), w.releases[i]);
    KRad sched;
    return executor.run(sched);
  };
  const RuntimeResult base = run_once(ExecMode::kInline);
  ASSERT_NE(base.trace, nullptr);
  for (const ExecMode mode : kAllModes) {
    SCOPED_TRACE(mode_name(mode));
    const RuntimeResult again = run_once(mode);
    EXPECT_EQ(base.makespan, again.makespan);
    EXPECT_EQ(base.failed_attempts, again.failed_attempts);
    EXPECT_EQ(base.retries, again.retries);
    ASSERT_NE(again.trace, nullptr);
    expect_equal_traces(*base.trace, *again.trace);
  }
}

}  // namespace
}  // namespace krad
