// Fault layer unit and integration tests (src/fault/, docs/FAULTS.md):
// deterministic injection, capacity timelines, retry backoff math,
// FaultyDagJob semantics under every exhaustion action, cooperative
// cancellation, and the fault-aware paths of sim::simulate and Executor.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "fault/cancellation.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_job.hpp"
#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "jobs/job_set.hpp"
#include "runtime/executor.hpp"
#include "sim/engine.hpp"
#include "sim/validator.hpp"

namespace krad {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, FailureDecisionsAreCounterBasedAndPure) {
  FaultPlan plan;
  plan.seed = 42;
  plan.failure_prob = {0.3, 0.7};
  const MachineConfig machine{{2, 2}};
  const FaultInjector a(plan, machine);
  const FaultInjector b(plan, machine);
  int failures = 0;
  for (JobId job = 0; job < 4; ++job)
    for (VertexId v = 0; v < 10; ++v)
      for (int attempt = 1; attempt <= 3; ++attempt)
        for (Category cat = 0; cat < 2; ++cat) {
          const bool fa = a.fails(job, v, cat, attempt);
          EXPECT_EQ(fa, b.fails(job, v, cat, attempt));
          // Pure: asking again gives the same verdict.
          EXPECT_EQ(fa, a.fails(job, v, cat, attempt));
          failures += fa ? 1 : 0;
        }
  // With p in {0.3, 0.7} over 240 triples some must fail and some pass.
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 240);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentDecisions) {
  FaultPlan p1, p2;
  p1.seed = 1;
  p2.seed = 2;
  p1.failure_prob = p2.failure_prob = {0.5};
  const MachineConfig machine{{4}};
  const FaultInjector a(p1, machine);
  const FaultInjector b(p2, machine);
  int diff = 0;
  for (VertexId v = 0; v < 64; ++v)
    if (a.fails(0, v, 0, 1) != b.fails(0, v, 0, 1)) ++diff;
  EXPECT_GT(diff, 0);
}

TEST(FaultInjector, ScriptedTriplesFailExactly) {
  FaultPlan plan;
  plan.scripted = {{3, 7, 2}};
  const FaultInjector injector(plan, MachineConfig{{2}});
  EXPECT_TRUE(injector.fails(3, 7, 0, 2));
  EXPECT_FALSE(injector.fails(3, 7, 0, 1));
  EXPECT_FALSE(injector.fails(3, 7, 0, 3));
  EXPECT_FALSE(injector.fails(3, 6, 0, 2));
  EXPECT_FALSE(injector.fails(2, 7, 0, 2));
  EXPECT_TRUE(injector.has_task_faults());
}

TEST(FaultInjector, ValidatesThePlan) {
  const MachineConfig machine{{2, 2}};
  {
    FaultPlan plan;
    plan.failure_prob = {0.5, 0.5, 0.5};  // more probabilities than K
    EXPECT_THROW(FaultInjector(plan, machine), std::logic_error);
  }
  {
    FaultPlan plan;
    plan.failure_prob = {1.5};
    EXPECT_THROW(FaultInjector(plan, machine), std::logic_error);
  }
  {
    FaultPlan plan;
    plan.failure_prob = {-0.1};
    EXPECT_THROW(FaultInjector(plan, machine), std::logic_error);
  }
  {
    FaultPlan plan;
    plan.scripted = {{0, 0, 0}};  // attempts are 1-based
    EXPECT_THROW(FaultInjector(plan, machine), std::logic_error);
  }
  {
    FaultPlan plan;
    plan.capacity_events = {{1, 2, -1}};  // category out of range
    EXPECT_THROW(FaultInjector(plan, machine), std::logic_error);
  }
}

TEST(FaultInjector, ShortProbabilityVectorPadsWithZeros) {
  FaultPlan plan;
  plan.seed = 9;
  plan.failure_prob = {1.0};  // category 1 gets 0.0, not 1.0
  const FaultInjector injector(plan, MachineConfig{{2, 2}});
  EXPECT_TRUE(injector.fails(0, 0, 0, 1));
  EXPECT_FALSE(injector.fails(0, 0, 1, 1));
}

TEST(FaultInjector, CapacityTimelineFoldsAndClamps) {
  FaultPlan plan;
  plan.capacity_events = {{5, 0, -1}, {2, 0, -1}, {8, 1, -10}, {9, 0, +10}};
  FaultInjector injector(plan, MachineConfig{{3, 2}});
  EXPECT_EQ(injector.capacity(1), (std::vector<int>{3, 2}));
  EXPECT_EQ(injector.capacity(2), (std::vector<int>{2, 2}));
  EXPECT_EQ(injector.capacity(5), (std::vector<int>{1, 2}));
  EXPECT_EQ(injector.capacity(8), (std::vector<int>{1, 0}));  // clamp at 0
  EXPECT_EQ(injector.capacity(9), (std::vector<int>{3, 0}));  // clamp nominal
  // The cursor only moves forward.
  EXPECT_THROW(injector.capacity(4), std::logic_error);
  // capacity_at is random access and agrees with the cursor view.
  EXPECT_EQ(injector.capacity_at(1), (std::vector<int>{3, 2}));
  EXPECT_EQ(injector.capacity_at(8), (std::vector<int>{1, 0}));
  EXPECT_EQ(injector.capacity_at(100), (std::vector<int>{3, 0}));
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.backoff_base = 1;
  policy.backoff_cap = 8;
  EXPECT_EQ(retry_backoff(policy, 1), 1);
  EXPECT_EQ(retry_backoff(policy, 2), 2);
  EXPECT_EQ(retry_backoff(policy, 3), 4);
  EXPECT_EQ(retry_backoff(policy, 4), 8);
  EXPECT_EQ(retry_backoff(policy, 5), 8);   // capped
  EXPECT_EQ(retry_backoff(policy, 60), 8);  // shift is bounded, no UB
}

TEST(RetryPolicy, ZeroBaseMeansImmediateRetry) {
  RetryPolicy policy;
  policy.backoff_base = 0;
  EXPECT_EQ(retry_backoff(policy, 1), 0);
  EXPECT_EQ(retry_backoff(policy, 7), 0);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Cancellation, DefaultTokenNeverStops) {
  const CancellationToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(token.cancellable());
}

TEST(Cancellation, SourceFlipsAllTokens) {
  CancellationSource source;
  const CancellationToken token = source.token();
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(token.stop_requested());
  source.cancel();
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(source.token().stop_requested());
}

TEST(Cancellation, WithDeadlineExpires) {
  const CancellationToken token;
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_TRUE(token.with_deadline(past).stop_requested());
  const auto far =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  const CancellationToken relaxed = token.with_deadline(far);
  EXPECT_FALSE(relaxed.stop_requested());
  // The earlier deadline always wins: tightening works, relaxing does not.
  EXPECT_TRUE(relaxed.with_deadline(past).stop_requested());
  EXPECT_TRUE(token.with_deadline(past).with_deadline(far).stop_requested());
}

// ---------------------------------------------------------------------------
// FaultyDagJob through sim::simulate
// ---------------------------------------------------------------------------

JobSet faulty_set(Category k, const FaultInjector* injector,
                  const RetryPolicy& policy, int jobs = 4) {
  JobSet set(k);
  Rng rng(5);
  for (int i = 0; i < jobs; ++i) {
    LayeredParams params;
    params.layers = 6;
    params.max_width = 4;
    params.num_categories = k;
    add_faulty(set, layered_random(params, rng), injector, policy);
  }
  return set;
}

TEST(FaultyDagJob, NullInjectorMatchesPlainFifoDagJob) {
  const MachineConfig machine{{2, 2}};
  Rng rng(3);
  LayeredParams params;
  params.layers = 7;
  params.max_width = 5;
  params.num_categories = 2;
  const KDag dag = layered_random(params, rng);

  JobSet plain(2);
  plain.add(std::make_unique<DagJob>(dag, SelectionPolicy::kFifo));
  JobSet faulty(2);
  add_faulty(faulty, dag, nullptr, RetryPolicy{});

  KRad s1, s2;
  const SimResult a = simulate(plain, s1, machine);
  const SimResult b = simulate(faulty, s2, machine);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.executed_work, b.executed_work);
  EXPECT_EQ(b.failed_attempts, 0);
  EXPECT_EQ(b.retries, 0);
  ASSERT_EQ(b.outcome.size(), 1u);
  EXPECT_EQ(b.outcome[0], JobOutcome::kCompleted);
}

TEST(FaultyDagJob, RetriesInflateMakespanButEveryJobCompletes) {
  const MachineConfig machine{{3, 2}};
  RetryPolicy policy;
  policy.max_attempts = 20;
  policy.backoff_base = 1;
  policy.backoff_cap = 4;

  KRad s1;
  JobSet clean = faulty_set(2, nullptr, policy);
  const SimResult baseline = simulate(clean, s1, machine);

  FaultPlan plan;
  plan.seed = 7;
  plan.failure_prob = {0.25, 0.25};
  const FaultInjector injector(plan, machine);
  KRad s2;
  JobSet set = faulty_set(2, &injector, policy);
  const SimResult r = simulate(set, s2, machine);

  EXPECT_GT(r.failed_attempts, 0);
  EXPECT_EQ(r.failed_attempts, r.retries);  // nothing exhausted
  EXPECT_GE(r.makespan, baseline.makespan);
  for (const JobOutcome outcome : r.outcome)
    EXPECT_EQ(outcome, JobOutcome::kCompleted);
  // Work done = every task once, failed attempts burn extra allotment.
  EXPECT_EQ(r.executed_work, baseline.executed_work);
}

TEST(FaultyDagJob, FailJobAbandonsOnlyTheExhaustedJob) {
  const MachineConfig machine{{2, 2}};
  FaultPlan plan;
  plan.scripted = {{1, 0, 1}, {1, 0, 2}};  // job 1, vertex 0, both attempts
  const FaultInjector injector(plan, machine);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.on_exhausted = ExhaustionAction::kFailJob;
  KRad sched;
  JobSet set = faulty_set(2, &injector, policy);
  const SimResult r = simulate(set, sched, machine);
  ASSERT_EQ(r.outcome.size(), 4u);
  EXPECT_EQ(r.outcome[1], JobOutcome::kFailed);
  EXPECT_EQ(r.outcome[0], JobOutcome::kCompleted);
  EXPECT_EQ(r.outcome[2], JobOutcome::kCompleted);
  EXPECT_EQ(r.outcome[3], JobOutcome::kCompleted);
  EXPECT_EQ(r.failed_attempts, 2);
  EXPECT_EQ(r.retries, 1);  // the first failure retried; the second exhausted
}

TEST(FaultyDagJob, DropJobReportsDropped) {
  const MachineConfig machine{{2, 2}};
  FaultPlan plan;
  plan.scripted = {{0, 0, 1}};
  const FaultInjector injector(plan, machine);
  RetryPolicy policy;
  policy.max_attempts = 1;  // a single failure exhausts the budget
  policy.on_exhausted = ExhaustionAction::kDropJob;
  KRad sched;
  JobSet set = faulty_set(2, &injector, policy);
  const SimResult r = simulate(set, sched, machine);
  EXPECT_EQ(r.outcome[0], JobOutcome::kDropped);
  EXPECT_EQ(r.retries, 0);
}

TEST(FaultyDagJob, FailFastThrowsTaskFailedError) {
  const MachineConfig machine{{2, 2}};
  FaultPlan plan;
  plan.scripted = {{0, 0, 1}, {0, 0, 2}, {0, 0, 3}};
  const FaultInjector injector(plan, machine);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.on_exhausted = ExhaustionAction::kFailFast;
  KRad sched;
  JobSet set = faulty_set(2, &injector, policy);
  try {
    simulate(set, sched, machine);
    FAIL() << "expected TaskFailedError";
  } catch (const TaskFailedError& e) {
    EXPECT_EQ(e.job(), 0);
    EXPECT_EQ(e.vertex(), 0);
    EXPECT_EQ(e.attempts(), 3);
  }
}

TEST(FaultyDagJob, FaultyTracePassesTheValidator) {
  const MachineConfig machine{{2, 2}};
  FaultPlan plan;
  plan.seed = 31;
  plan.failure_prob = {0.2, 0.2};
  const FaultInjector injector(plan, machine);
  RetryPolicy policy;
  policy.max_attempts = 30;
  policy.backoff_base = 1;
  KRad sched;
  JobSet set = faulty_set(2, &injector, policy);
  SimOptions options;
  options.record_trace = true;
  const SimResult r = simulate(set, sched, machine, options);
  ASSERT_GT(r.failed_attempts, 0);
  const auto violations = validate_schedule(set, machine, *r.trace);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

/// Chain a -> b -> c plus a lone d, all of category 0.
KDag chain_plus_lone() {
  KDag dag(1);
  const VertexId a = dag.add_vertex(0);
  const VertexId b = dag.add_vertex(0);
  const VertexId c = dag.add_vertex(0);
  dag.add_vertex(0);
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  dag.seal();
  return dag;
}

TEST(FaultyDagJob, CoolingRetryStaysInTheRemainingSpan) {
  // Vertex a (id 0) fails its first attempt and cools for 4 steps.  The
  // chain a -> b -> c is still 3 long, so both wrappers over the cursor
  // must report a remaining span of 3, not the lone d's 1.
  const MachineConfig machine{{1}};
  FaultPlan plan;
  plan.scripted = {{0, 0, 1}};
  const FaultInjector injector(plan, machine);
  RetryPolicy policy;
  policy.backoff_base = 4;
  FaultyDagJob sim(chain_plus_lone(), 0, &injector, policy);
  EXPECT_EQ(sim.execute(0, 1, nullptr), 0);  // a's attempt burns the slot
  sim.advance();
  EXPECT_EQ(sim.desire(0), 1);  // only d is ready
  EXPECT_EQ(sim.remaining_work(0), 4);
  EXPECT_EQ(sim.remaining_span(), 3);

  RuntimeJob live(chain_plus_lone());
  const VertexId a = live.pop_ready(0);
  ASSERT_EQ(live.register_attempt(a), 1);
  live.requeue(a, retry_backoff(policy, 1));
  live.promote_enabled();
  EXPECT_EQ(live.desire(0), 1);
  EXPECT_EQ(live.remaining_work(0), 4);
  EXPECT_EQ(live.remaining_span(), 3);

  // Once the retry is ready again it is counted once, not twice: running
  // everything to the end drains the span to 0.
  while (!sim.finished()) {
    sim.execute(0, 1, nullptr);
    sim.advance();
  }
  EXPECT_EQ(sim.remaining_span(), 0);
  while (!live.finished()) {
    if (live.desire(0) > 0) live.run_task(live.pop_ready(0));
    live.promote_enabled();
  }
  EXPECT_EQ(live.remaining_span(), 0);
}

// ---------------------------------------------------------------------------
// Capacity degradation in the simulator
// ---------------------------------------------------------------------------

TEST(SimCapacityLoss, SchedulerSeesDegradedMachineAndTraceValidates) {
  const MachineConfig machine{{3, 2}};
  FaultPlan plan;
  plan.capacity_events = {{4, 0, -2}, {12, 0, +2}};

  KRad s1;
  JobSet clean = faulty_set(2, nullptr, RetryPolicy{});
  const SimResult baseline = simulate(clean, s1, machine);

  KRad s2;
  JobSet set = faulty_set(2, nullptr, RetryPolicy{});
  SimOptions options;
  options.record_trace = true;
  options.fault_plan = &plan;
  const SimResult r = simulate(set, s2, machine, options);

  EXPECT_GE(r.makespan, baseline.makespan);
  for (const JobOutcome outcome : r.outcome)
    EXPECT_EQ(outcome, JobOutcome::kCompleted);

  // Steps carry the effective capacity; the outage window respects it.
  bool saw_degraded = false;
  for (const StepRecord& step : r.trace->steps()) {
    ASSERT_EQ(step.capacity.size(), 2u) << "step " << step.t;
    if (step.t >= 4 && step.t < 12) {
      EXPECT_EQ(step.capacity[0], 1) << "step " << step.t;
      saw_degraded = true;
      Work sum = 0;
      for (const auto& per_job : step.allot) sum += per_job[0];
      EXPECT_LE(sum, 1) << "step " << step.t;
    }
  }
  EXPECT_TRUE(saw_degraded);

  // Capacity changes land in the fault stream, and the independent
  // validator accepts the degraded trace.
  int changes = 0;
  for (const FaultEvent& fault : r.trace->faults())
    if (fault.kind == FaultKind::kCapacityChange) ++changes;
  EXPECT_EQ(changes, 2);
  const auto violations = validate_schedule(set, machine, *r.trace);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

// ---------------------------------------------------------------------------
// Executor fault paths
// ---------------------------------------------------------------------------

std::unique_ptr<RuntimeJob> runtime_job(std::uint64_t seed, Category k) {
  Rng rng(seed);
  LayeredParams params;
  params.layers = 5;
  params.max_width = 4;
  params.num_categories = k;
  auto job = std::make_unique<RuntimeJob>(layered_random(params, rng));
  job->set_all_tasks([] {});
  return job;
}

TEST(ExecutorFaults, ThreadedRunWithInjectionCompletesAndValidates) {
  const MachineConfig machine{{2, 2}};
  FaultPlan plan;
  plan.seed = 17;
  plan.failure_prob = {0.15, 0.15};
  ExecutorOptions options;
  options.fault_plan = &plan;
  options.retry.max_attempts = 30;
  options.retry.backoff_base = 1;
  Executor executor(machine, options);
  for (std::uint64_t seed = 0; seed < 4; ++seed)
    executor.submit(runtime_job(seed, 2));
  KRad sched;
  const RuntimeResult r = executor.run(sched);
  EXPECT_GT(r.failed_attempts, 0);
  EXPECT_EQ(r.failed_attempts, r.retries);
  for (const JobOutcome outcome : r.outcome)
    EXPECT_EQ(outcome, JobOutcome::kCompleted);
  const auto violations =
      validate_schedule(executor.validation_inputs(), machine, *r.trace);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(ExecutorFaults, ThrowingClosureIsRetriedInFaultMode) {
  const MachineConfig machine{{2}};
  FaultPlan plan;  // empty plan: fault mode on, no injected failures
  ExecutorOptions options;
  options.inline_execution = true;
  options.fault_plan = &plan;
  options.retry.max_attempts = 5;
  Executor executor(machine, options);

  std::atomic<int> calls{0};
  auto job = std::make_unique<RuntimeJob>(
      fork_join({0}, /*phases=*/1, /*width=*/2, /*num_categories=*/1));
  job->set_all_tasks([] {});
  job->set_task(0, [&calls] {
    if (calls.fetch_add(1) < 2) throw std::runtime_error("transient");
  });
  executor.submit(std::move(job));
  KRad sched;
  const RuntimeResult r = executor.run(sched);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(r.failed_attempts, 2);
  EXPECT_EQ(r.retries, 2);
  EXPECT_EQ(r.outcome[0], JobOutcome::kCompleted);
}

TEST(ExecutorFaults, ExhaustedClosureFailuresFollowThePolicy) {
  const MachineConfig machine{{2}};
  FaultPlan plan;
  ExecutorOptions options;
  options.inline_execution = true;
  options.fault_plan = &plan;
  options.retry.max_attempts = 2;
  options.retry.on_exhausted = ExhaustionAction::kFailJob;
  Executor executor(machine, options);

  auto broken = std::make_unique<RuntimeJob>(
      fork_join({0}, 1, 2, 1), "broken");
  broken->set_all_tasks([] {});
  broken->set_task(0, [] { throw std::runtime_error("permanent"); });
  executor.submit(std::move(broken));
  executor.submit(runtime_job(1, 1));
  KRad sched;
  const RuntimeResult r = executor.run(sched);
  EXPECT_EQ(r.outcome[0], JobOutcome::kFailed);
  EXPECT_EQ(r.outcome[1], JobOutcome::kCompleted);
  // The abandoned job never completes, so its completion time stays 0 and
  // the validator skips only its coverage check.
  const auto violations =
      validate_schedule(executor.validation_inputs(), machine, *r.trace);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(ExecutorFaults, FailFastPropagatesTaskFailedError) {
  const MachineConfig machine{{2}};
  FaultPlan plan;
  ExecutorOptions options;
  options.inline_execution = true;
  options.fault_plan = &plan;
  options.retry.max_attempts = 2;  // default kFailFast
  Executor executor(machine, options);
  auto job = std::make_unique<RuntimeJob>(fork_join({0}, 1, 2, 1));
  job->set_all_tasks([] {});
  job->set_task(0, [] { throw std::runtime_error("permanent"); });
  executor.submit(std::move(job));
  KRad sched;
  EXPECT_THROW(executor.run(sched), TaskFailedError);
}

TEST(ExecutorFaults, DeadlineTimesOutSlowAttemptAndRetries) {
  const MachineConfig machine{{2}};
  ExecutorOptions options;
  options.inline_execution = true;
  options.task_deadline = std::chrono::microseconds(1000);
  options.retry.max_attempts = 5;
  Executor executor(machine, options);

  std::atomic<int> calls{0};
  std::atomic<bool> token_expired{false};
  auto job = std::make_unique<RuntimeJob>(fork_join({0}, 1, 2, 1));
  job->set_all_tasks([] {});
  // First attempt overruns its 1ms budget; the cancellation token handed to
  // the closure expires at the deadline.  Later attempts return in time.
  job->set_task(0, [&](const CancellationToken& token) {
    if (calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      token_expired = token.stop_requested();
    }
  });
  executor.submit(std::move(job));
  KRad sched;
  const RuntimeResult r = executor.run(sched);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(r.timeouts, 1);
  EXPECT_EQ(r.failed_attempts, 1);
  EXPECT_EQ(r.retries, 1);
  EXPECT_TRUE(token_expired.load());
  EXPECT_EQ(r.outcome[0], JobOutcome::kCompleted);
}

TEST(ExecutorFaults, CancelBeforeRunReturnsEmptyAbortedResult) {
  CancellationSource source;
  source.cancel();
  ExecutorOptions options;
  options.inline_execution = true;
  options.cancellation = source.token();
  Executor executor(MachineConfig{{2}}, options);
  executor.submit(runtime_job(2, 1));
  KRad sched;
  const RuntimeResult r = executor.run(sched);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.busy_quanta, 0);
  ASSERT_EQ(r.outcome.size(), 1u);
  EXPECT_EQ(r.outcome[0], JobOutcome::kCancelled);
  EXPECT_EQ(r.completion[0], 0);
}

TEST(ExecutorFaults, MidRunCancellationKeepsPartialResult) {
  // A task closure cancels the run; the executor stops at the next quantum
  // boundary and the partial trace still validates.
  CancellationSource source;
  ExecutorOptions options;
  options.inline_execution = true;
  options.cancellation = source.token();
  Executor executor(MachineConfig{{2}}, options);

  auto trigger = std::make_unique<RuntimeJob>(
      fork_join({0}, /*phases=*/3, /*width=*/2, /*num_categories=*/1));
  trigger->set_all_tasks([] {});
  trigger->set_task(0, [&source] { source.cancel(); });
  executor.submit(std::move(trigger));
  executor.submit(runtime_job(3, 1));
  KRad sched;
  const RuntimeResult r = executor.run(sched);
  EXPECT_TRUE(r.aborted);
  EXPECT_GE(r.busy_quanta, 1);
  bool any_cancelled = false;
  for (const JobOutcome outcome : r.outcome)
    any_cancelled |= outcome == JobOutcome::kCancelled;
  EXPECT_TRUE(any_cancelled);
  const auto violations = validate_schedule(executor.validation_inputs(),
                                            executor.machine(), *r.trace);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(ExecutorFaults, UnrecoveredZeroCapacityOutageTripsQuantaLimit) {
  // All processors of the only category go down and never come back: quanta
  // tick without progress until max_quanta aborts the run with a progress
  // snapshot (docs/RUNTIME.md).
  const MachineConfig machine{{2}};
  FaultPlan plan;
  plan.capacity_events = {{2, 0, -2}};
  ExecutorOptions options;
  options.inline_execution = true;
  options.fault_plan = &plan;
  options.max_quanta = 40;
  Executor executor(machine, options);
  executor.submit(runtime_job(4, 1));
  KRad sched;
  try {
    executor.run(sched);
    FAIL() << "expected QuantaLimitError";
  } catch (const QuantaLimitError& e) {
    EXPECT_EQ(e.quanta(), 41);
    ASSERT_EQ(e.progress().size(), 1u);
    EXPECT_FALSE(e.progress()[0].finished);
    EXPECT_LT(e.progress()[0].admitted, e.progress()[0].total);
  }
}

TEST(ExecutorFaults, RetryPolicyIsValidatedUpFront) {
  ExecutorOptions options;
  options.retry.max_attempts = 0;
  EXPECT_THROW(Executor(MachineConfig{{2}}, options), std::logic_error);
}

}  // namespace
}  // namespace krad
