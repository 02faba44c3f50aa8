#pragma once
// Simulation engine — executes a job set under a scheduler on a K-resource
// machine, exactly per the paper's model:
//
//   each step t = 1, 2, ...:
//     1. jobs with r(Ji) < t and not finished are active;
//     2. the scheduler maps desires d(Ji, alpha, t) to allotments
//        a(Ji, alpha, t) with Sum_i a(Ji, alpha, t) <= P_alpha;
//     3. each job executes min(a, d) ready alpha-tasks (its selection policy
//        chooses which); tasks enabled this step become ready at t + 1.
//
// One loop (sim/engine.cpp, docs/SIMULATOR.md) realises these semantics in
// two modes behind simulate():
//   * kSparse (default) — event-driven: jumps directly from one
//     allotment-changing instant to the next (release, subjob completion,
//     RR re-quantum, fault/recovery, capacity change) and replays the
//     frozen allotment across each steady window in bulk;
//   * kDense — every window is one step: the literal step-per-unit-time
//     mode, retained as the differential-testing oracle
//     (tests/test_sparse_differential.cpp).
// Both produce bit-identical results and traces; idle intervals are
// skipped in O(1) by either.

#include "core/scheduler.hpp"
#include "fault/fault_plan.hpp"
#include "jobs/job_set.hpp"
#include "obs/obs.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace krad {

/// How the loop realises the model's semantics for this run.
enum class EngineKind {
  /// Event-driven: coalesces steady windows, the production default.
  kSparse,
  /// One step per window: the differential-testing oracle.
  kDense,
};

inline const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSparse: return "sparse";
    case EngineKind::kDense: return "dense";
  }
  return "?";
}

struct SimOptions {
  /// Engine mode.  Both modes are bit-identical in results and traces
  /// (per-step work/desire/satisfied metric totals too); only the
  /// decision-rate instruments differ, because the sparse mode honestly
  /// invokes the scheduler fewer times (docs/OBSERVABILITY.md).  kDense is
  /// kept as the oracle for differential testing and costs O(makespan)
  /// even when nothing changes step to step.
  EngineKind engine = EngineKind::kSparse;
  /// Record the full schedule chi and per-step matrices (memory-heavy).
  bool record_trace = false;
  /// Abort (throw std::runtime_error) if the run exceeds this many busy
  /// steps — catches livelocked schedulers in tests.
  Time max_steps = 50'000'000;
  /// Invoke the scheduler only every `decision_period` busy steps (>= 1) and
  /// reuse the previous allotment in between, clamped to current desires —
  /// the real-system trade-off of amortising scheduling overhead against
  /// allocation staleness.  A decision is also forced whenever the active
  /// set changes (release or completion) or the capacity changes (fault
  /// plan).  Period 1 = the paper's model.  Periods > 1 never coalesce
  /// steps: the held allotment is re-clamped against fresh desires each
  /// step.
  Time decision_period = 1;
  /// Optional fault plan (must outlive the run).  Capacity events degrade
  /// the machine mid-run: the scheduler is notified via set_capacity and
  /// the capacity invariant is checked against the effective vector.  Task
  /// faults take effect only through FaultyDagJob instances built against a
  /// FaultInjector over the same plan (see src/fault/faulty_job.hpp).
  const FaultPlan* fault_plan = nullptr;
  /// Optional observability sinks (must outlive the run).  With a metrics
  /// registry attached the engine publishes the catalog in
  /// docs/OBSERVABILITY.md (per-step scheduler latency, per-category
  /// desire/allotment/executed counters, deprived/satisfied step counts,
  /// utilization gauges, the running Lemma-2 bound); with a trace session
  /// it emits Chrome trace_event spans and counter tracks.  Null (default)
  /// keeps the hot path observation-free.
  const obs::Observability* obs = nullptr;
};

/// Run to completion.  The jobs in `set` are consumed (mutated); call
/// JobSet::reset_all() to rerun the same set.  Throws std::logic_error if a
/// scheduler over-allocates a category.
SimResult simulate(JobSet& set, KScheduler& scheduler,
                   const MachineConfig& machine, const SimOptions& options = {});

}  // namespace krad
