// Differential campaign: the sparse (event-driven) engine against the dense
// unit-step oracle (docs/SIMULATOR.md).  512 seeded instances span the
// category count, machine size, all four job families (DAG, profile,
// light-load profile, faulty DAG), batched and Poisson arrivals, every
// scheduler, and fault plans with task failures and capacity events.  Each
// instance is built twice from the same seed (DAG jobs are consumed by a
// run), simulated once per engine with trace recording on, and compared
// field by field: results, task events, fault events, and per-step records
// must all be bit-identical.  Further suites cover the no-trace bulk path,
// K-RAD's DEQ/RR step accounting, and decision periods.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "fault/faulty_job.hpp"
#include "fault/injector.hpp"
#include "sched/fcfs.hpp"
#include "sched/greedy_cp.hpp"
#include "sched/kdeq_only.hpp"
#include "sched/kequi.hpp"
#include "sched/kround_robin.hpp"
#include "sched/random_allot.hpp"
#include "sched/srpt.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/arrivals.hpp"
#include "workload/random_jobs.hpp"

namespace krad {
namespace {

struct Instance {
  MachineConfig machine{{2}};
  FaultPlan plan;
  bool use_plan = false;
  std::optional<FaultInjector> injector;  // outlives the faulty jobs
  std::unique_ptr<KScheduler> sched;
  JobSet set{1};
};

std::unique_ptr<KScheduler> make_sched(std::int64_t which,
                                       std::uint64_t seed) {
  switch (which) {
    case 0: return std::make_unique<KRad>();
    case 1: return std::make_unique<KDeqOnly>();
    case 2: return std::make_unique<KEqui>();
    case 3: return std::make_unique<KRoundRobin>();
    case 4: return std::make_unique<RandomAllot>(seed);
    case 5: return std::make_unique<Fcfs>();
    case 6: return std::make_unique<Srpt>();
    default: return std::make_unique<GreedyCp>();
  }
}

SelectionPolicy pick_policy(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return SelectionPolicy::kFifo;
    case 1: return SelectionPolicy::kLifo;
    case 2: return SelectionPolicy::kCriticalPathFirst;
    case 3: return SelectionPolicy::kCriticalPathLast;
    default: return SelectionPolicy::kRandom;
  }
}

/// Deterministic function of `seed` alone — called twice per instance so
/// both engines consume an identical job set.
Instance build_instance(std::uint64_t seed) {
  Instance inst;
  Rng rng(0x9E3779B97F4A7C15ULL ^ (seed * 0xBF58476D1CE4E5B9ULL + 11));

  const auto k = static_cast<Category>(rng.uniform_int(1, 3));
  std::vector<int> procs;
  for (Category a = 0; a < k; ++a)
    procs.push_back(static_cast<int>(rng.uniform_int(2, 5)));
  inst.machine = MachineConfig{procs};

  const std::int64_t family = rng.uniform_int(0, 3);
  const auto count = static_cast<std::size_t>(rng.uniform_int(2, 6));
  inst.set = JobSet(k);

  switch (family) {
    case 0: {  // explicit K-DAGs, mixed shapes and selection policies
      RandomDagJobParams params;
      params.num_categories = k;
      params.min_size = 8;
      params.max_size = 24;
      params.policy = pick_policy(rng);
      inst.set = make_dag_job_set(params, count, rng);
      break;
    }
    case 1: {  // profile jobs; sometimes heavy, to exercise long windows
      RandomProfileJobParams params;
      params.num_categories = k;
      params.max_phases = 4;
      params.max_phase_work = rng.uniform_int(0, 3) == 0 ? 5000 : 200;
      params.max_parallelism = 8;
      inst.set = make_profile_job_set(params, count, rng);
      break;
    }
    case 2: {  // Theorem 5 light-load regime: maximal steady coalescing
      int pmin = procs[0];
      for (int p : procs) pmin = std::min(pmin, p);
      const auto light = std::min<std::size_t>(
          count, static_cast<std::size_t>(pmin));
      const Work top = rng.uniform_int(0, 2) == 0 ? 3000 : 150;
      inst.set = make_light_load_set(inst.machine, light, 20, top, 4, rng);
      break;
    }
    default: {  // faulty DAG jobs: probabilistic failures + retry backoff
      inst.plan.seed = seed * 31 + 7;
      inst.plan.failure_prob.assign(k, 0.0);
      for (Category a = 0; a < k; ++a)
        inst.plan.failure_prob[a] = rng.uniform_int(0, 1) ? 0.2 : 0.05;
      inst.use_plan = true;
      inst.injector.emplace(inst.plan, inst.machine);
      RetryPolicy policy;
      policy.max_attempts = 10;
      policy.backoff_base = rng.uniform_int(0, 2);
      policy.backoff_cap = 4;
      for (std::size_t i = 0; i < count; ++i) {
        LayeredParams params;
        params.layers = static_cast<std::size_t>(rng.uniform_int(3, 6));
        params.max_width = 4;
        params.num_categories = k;
        add_faulty(inst.set, layered_random(params, rng), &*inst.injector,
                   policy);
      }
      break;
    }
  }

  if (rng.uniform_int(0, 1) == 1) {  // Poisson arrivals on half
    const double gap = static_cast<double>(rng.uniform_int(1, 25));
    const std::vector<Time> releases =
        poisson_releases(inst.set.size(), gap, rng);
    for (JobId i = 0; i < inst.set.size(); ++i)
      inst.set.set_release(i, releases[i]);
  }

  if (rng.uniform_int(0, 2) == 0) {  // capacity timeline on a third
    inst.use_plan = true;
    // Track the cumulative delta per category so the effective capacity
    // never reaches zero — a starved category would livelock both engines
    // identically, which proves nothing.
    std::vector<int> cum(k, 0);
    const std::int64_t events = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < events; ++e) {
      CapacityEvent event;
      event.t = rng.uniform_int(2, 60);
      event.category = static_cast<Category>(rng.uniform_int(0, k - 1));
      const int nominal = inst.machine.processors[event.category];
      const int floor_delta = -(nominal - 1) - cum[event.category];
      event.delta = static_cast<int>(rng.uniform_int(floor_delta, nominal));
      cum[event.category] =
          std::min(0, cum[event.category] + event.delta);  // clamped upward
      inst.plan.capacity_events.push_back(event);
    }
  }

  inst.sched = make_sched(rng.uniform_int(0, 7), seed ^ 0xC0FFEE);
  return inst;
}

SimResult run(Instance& inst, EngineKind engine) {
  SimOptions options;
  options.engine = engine;
  options.record_trace = true;
  options.max_steps = 2'000'000;
  if (inst.use_plan) options.fault_plan = &inst.plan;
  return simulate(inst.set, *inst.sched, inst.machine, options);
}

void expect_traces_equal(const ScheduleTrace& dense,
                         const ScheduleTrace& sparse) {
  ASSERT_EQ(dense.events().size(), sparse.events().size());
  for (std::size_t i = 0; i < dense.events().size(); ++i) {
    const TaskEvent& a = dense.events()[i];
    const TaskEvent& b = sparse.events()[i];
    ASSERT_EQ(a.t, b.t) << "task event " << i;
    ASSERT_EQ(a.job, b.job) << "task event " << i;
    ASSERT_EQ(a.category, b.category) << "task event " << i;
    ASSERT_EQ(a.vertex, b.vertex) << "task event " << i;
    ASSERT_EQ(a.proc, b.proc) << "task event " << i;
  }
  ASSERT_EQ(dense.faults().size(), sparse.faults().size());
  for (std::size_t i = 0; i < dense.faults().size(); ++i) {
    const FaultEvent& a = dense.faults()[i];
    const FaultEvent& b = sparse.faults()[i];
    ASSERT_EQ(a.t, b.t) << "fault event " << i;
    ASSERT_EQ(a.job, b.job) << "fault event " << i;
    ASSERT_EQ(a.kind, b.kind) << "fault event " << i;
    ASSERT_EQ(a.vertex, b.vertex) << "fault event " << i;
    ASSERT_EQ(a.category, b.category) << "fault event " << i;
    ASSERT_EQ(a.attempt, b.attempt) << "fault event " << i;
    ASSERT_EQ(a.proc, b.proc) << "fault event " << i;
    ASSERT_EQ(a.retry_delay, b.retry_delay) << "fault event " << i;
    ASSERT_EQ(a.capacity, b.capacity) << "fault event " << i;
  }
  ASSERT_EQ(dense.steps().size(), sparse.steps().size());
  for (std::size_t i = 0; i < dense.steps().size(); ++i) {
    const StepRecord& a = dense.steps()[i];
    const StepRecord& b = sparse.steps()[i];
    ASSERT_EQ(a.t, b.t) << "step " << i;
    ASSERT_EQ(a.active, b.active) << "step " << i;
    ASSERT_EQ(a.desire, b.desire) << "step " << i;
    ASSERT_EQ(a.allot, b.allot) << "step " << i;
    ASSERT_EQ(a.capacity, b.capacity) << "step " << i;
  }
}

void expect_results_equal(const SimResult& dense, const SimResult& sparse) {
  EXPECT_EQ(dense.makespan, sparse.makespan);
  EXPECT_EQ(dense.busy_steps, sparse.busy_steps);
  EXPECT_EQ(dense.idle_steps, sparse.idle_steps);
  EXPECT_EQ(dense.completion, sparse.completion);
  EXPECT_EQ(dense.response, sparse.response);
  EXPECT_EQ(dense.executed_work, sparse.executed_work);
  EXPECT_EQ(dense.allotted, sparse.allotted);
  EXPECT_EQ(dense.total_response, sparse.total_response);
  EXPECT_EQ(dense.mean_response, sparse.mean_response);  // bit-equal double
  EXPECT_EQ(dense.utilization, sparse.utilization);
  EXPECT_EQ(dense.outcome, sparse.outcome);
  EXPECT_EQ(dense.failed_attempts, sparse.failed_attempts);
  EXPECT_EQ(dense.retries, sparse.retries);
  ASSERT_TRUE(dense.trace != nullptr);
  ASSERT_TRUE(sparse.trace != nullptr);
  expect_traces_equal(*dense.trace, *sparse.trace);
}

TEST(SparseDifferential, FiveHundredTwelveSeededInstancesMatchDense) {
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    SCOPED_TRACE("instance seed " + std::to_string(seed));
    Instance for_dense = build_instance(seed);
    Instance for_sparse = build_instance(seed);
    const SimResult dense = run(for_dense, EngineKind::kDense);
    const SimResult sparse = run(for_sparse, EngineKind::kSparse);
    expect_results_equal(dense, sparse);
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
}

// The bulk (no-trace) path skips per-step bookkeeping entirely; check it
// separately against dense scalar results on the same instance space.
TEST(SparseDifferential, BulkPathScalarsMatchDense) {
  for (std::uint64_t seed = 0; seed < 128; ++seed) {
    SCOPED_TRACE("instance seed " + std::to_string(seed));
    Instance for_dense = build_instance(seed);
    Instance for_sparse = build_instance(seed);
    SimOptions dense_opts;
    dense_opts.engine = EngineKind::kDense;
    dense_opts.max_steps = 2'000'000;
    SimOptions sparse_opts = dense_opts;
    sparse_opts.engine = EngineKind::kSparse;
    if (for_dense.use_plan) {
      dense_opts.fault_plan = &for_dense.plan;
      sparse_opts.fault_plan = &for_sparse.plan;
    }
    const SimResult dense =
        simulate(for_dense.set, *for_dense.sched, for_dense.machine,
                 dense_opts);
    const SimResult sparse =
        simulate(for_sparse.set, *for_sparse.sched, for_sparse.machine,
                 sparse_opts);
    EXPECT_EQ(dense.makespan, sparse.makespan);
    EXPECT_EQ(dense.busy_steps, sparse.busy_steps);
    EXPECT_EQ(dense.completion, sparse.completion);
    EXPECT_EQ(dense.executed_work, sparse.executed_work);
    EXPECT_EQ(dense.allotted, sparse.allotted);
    EXPECT_EQ(dense.outcome, sparse.outcome);
    EXPECT_EQ(dense.failed_attempts, sparse.failed_attempts);
    EXPECT_EQ(dense.retries, sparse.retries);
    if (::testing::Test::HasFailure()) break;
  }
}

// K-RAD's per-category DEQ/RR step accounting is folded in by
// note_steady_steps() when the sparse mode skips decisions; the totals must
// still match the dense mode, which calls allot() every step.
TEST(SparseDifferential, KRadStepAccountingMatchesDense) {
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    SCOPED_TRACE("instance seed " + std::to_string(seed));
    Instance for_dense = build_instance(seed);
    Instance for_sparse = build_instance(seed);
    KRad dense_sched;
    KRad sparse_sched;
    SimOptions dense_opts;
    dense_opts.engine = EngineKind::kDense;
    dense_opts.max_steps = 2'000'000;
    SimOptions sparse_opts = dense_opts;
    sparse_opts.engine = EngineKind::kSparse;
    if (for_dense.use_plan) {
      dense_opts.fault_plan = &for_dense.plan;
      sparse_opts.fault_plan = &for_sparse.plan;
    }
    simulate(for_dense.set, dense_sched, for_dense.machine, dense_opts);
    simulate(for_sparse.set, sparse_sched, for_sparse.machine, sparse_opts);
    for (Category a = 0; a < for_dense.machine.categories(); ++a) {
      const Rad& d = dense_sched.rad(a);
      const Rad& s = sparse_sched.rad(a);
      EXPECT_EQ(d.deq_steps(), s.deq_steps()) << "category " << a;
      EXPECT_EQ(d.rr_steps(), s.rr_steps()) << "category " << a;
      EXPECT_EQ(d.deq_satisfied(), s.deq_satisfied()) << "category " << a;
      EXPECT_EQ(d.deq_deprived(), s.deq_deprived()) << "category " << a;
    }
    if (::testing::Test::HasFailure()) break;
  }
}

// Decision periods wrap the scheduler in a held-allotment decorator, which
// never promises a horizon; both modes must still agree bit for bit,
// including runs whose capacity changes inside a period (a forced
// decision).
TEST(SparseDifferential, DecisionPeriodsMatchDense) {
  int with_capacity = 0;
  int without_capacity = 0;
  for (Time period : {2, 5}) {
    for (std::uint64_t seed = 0; seed < 96; ++seed) {
      SCOPED_TRACE("period " + std::to_string(period) + " seed " +
                   std::to_string(seed));
      Instance for_dense = build_instance(seed);
      Instance for_sparse = build_instance(seed);
      if (for_dense.plan.capacity_events.empty())
        ++without_capacity;
      else
        ++with_capacity;
      SimOptions options;
      options.record_trace = true;
      options.max_steps = 2'000'000;
      options.decision_period = period;
      SimOptions dense_opts = options;
      dense_opts.engine = EngineKind::kDense;
      SimOptions sparse_opts = options;
      sparse_opts.engine = EngineKind::kSparse;
      if (for_dense.use_plan) {
        dense_opts.fault_plan = &for_dense.plan;
        sparse_opts.fault_plan = &for_sparse.plan;
      }
      const SimResult dense = simulate(for_dense.set, *for_dense.sched,
                                       for_dense.machine, dense_opts);
      const SimResult sparse = simulate(for_sparse.set, *for_sparse.sched,
                                        for_sparse.machine, sparse_opts);
      expect_results_equal(dense, sparse);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(with_capacity, 0);
  EXPECT_GT(without_capacity, 0);
}

}  // namespace
}  // namespace krad
