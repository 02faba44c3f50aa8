#pragma once
// Runtime job interface used by the simulation engine.
//
// A job exposes exactly what the paper's model allows a non-clairvoyant
// scheduler to observe (through the engine): its instantaneous alpha-desire
// d(Ji, alpha, t) = number of ready alpha-tasks.  The offline accessors
// (work/span/remaining_*) exist for lower-bound computation and clairvoyant
// baselines; the scheduler interface never sees them.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "dag/types.hpp"

namespace krad {

/// Terminal state of a job after a run (see docs/FAULTS.md).
enum class JobOutcome {
  kCompleted,  ///< every task executed successfully
  kFailed,     ///< retries exhausted under ExhaustionAction::kFailJob
  kDropped,    ///< retries exhausted under ExhaustionAction::kDropJob
  kCancelled,  ///< run aborted (runtime CancellationSource) before completion
};

inline const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kFailed: return "failed";
    case JobOutcome::kDropped: return "dropped";
    case JobOutcome::kCancelled: return "cancelled";
  }
  return "?";
}

/// Kinds of fault-layer events a job or driver can report (mirrored into the
/// trace as FaultEvent records; see sim/trace.hpp).
enum class FaultKind {
  kTaskFailure,     ///< one attempt of a task failed (injected or thrown)
  kTaskTimeout,     ///< attempt exceeded its wall deadline (runtime only)
  kRetryScheduled,  ///< failed task re-queued after a backoff
  kJobFailed,       ///< retries exhausted, job terminally failed
  kJobDropped,      ///< retries exhausted, job dropped from the run
  kCapacityChange,  ///< effective P_alpha changed (processor loss/recovery)
};

inline const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTaskFailure: return "task-failure";
    case FaultKind::kTaskTimeout: return "task-timeout";
    case FaultKind::kRetryScheduled: return "retry";
    case FaultKind::kJobFailed: return "job-failed";
    case FaultKind::kJobDropped: return "job-dropped";
    case FaultKind::kCapacityChange: return "capacity-change";
  }
  return "?";
}

/// One fault-layer incident reported by a job to its sink; the engine stamps
/// time and job id when recording it into the trace.
struct FaultNotice {
  FaultKind kind = FaultKind::kTaskFailure;
  VertexId vertex = kInvalidVertex;
  Category category = 0;
  int attempt = 0;          ///< 1-based attempt number that failed
  Time retry_delay = 0;     ///< backoff in steps (kRetryScheduled only)
};

/// Receiver for per-task execution events (used for trace recording and
/// schedule validation).  `vertex` is meaningful for DAG-backed jobs; profile
/// jobs report synthetic monotone ids.
class TaskSink {
 public:
  virtual ~TaskSink() = default;
  virtual void on_task(VertexId vertex, Category category) = 0;
  /// Fault-layer incident (failed attempt, retry, job abandonment).  A failed
  /// attempt still occupies a processor for the step, so recording sinks
  /// should account for it when assigning processor indices.
  virtual void on_fault(const FaultNotice& /*notice*/) {}
};

class Job {
 public:
  virtual ~Job() = default;

  /// Instantaneous alpha-parallelism: number of ready alpha-tasks now.
  virtual Work desire(Category alpha) const = 0;

  /// Execute up to `count` ready alpha-tasks during the current step.
  /// Returns the number actually executed (= min(count, desire(alpha))).
  /// Tasks enabled by these executions become ready only after advance().
  virtual Work execute(Category alpha, Work count, TaskSink* sink) = 0;

  /// End-of-step hook: promote newly enabled tasks to ready.
  virtual void advance() = 0;

  virtual bool finished() const = 0;

  /// Terminal state once finished(); kCompleted unless a fault layer
  /// abandoned the job (FaultyDagJob, runtime executor).
  virtual JobOutcome outcome() const { return JobOutcome::kCompleted; }

  /// Restore the job to its initial state for a rerun.
  virtual void reset() = 0;

  // --- steady-state contract (event-driven engine, docs/SIMULATOR.md) ---
  //
  // The sparse engine replays one allotment row for a window of steps
  // instead of rebuilding views and re-invoking the scheduler every step.
  // A window of m is only valid if repeating
  //   { execute(a, allot[a]) for every category; advance(); }
  // m times (a) leaves the desire vector bit-identical at the first m - 1
  // step boundaries, (b) executes exactly min(allot[a], desire(a)) tasks
  // per category on every step of the window, and (c) does not finish the
  // job before the final step.  The default of 1 is always correct: jobs
  // that do not opt in are stepped exactly like the dense engine.

  /// Largest valid window under `allot` (one entry per category, the row
  /// this job was just allotted).  Return kForeverSteady when the job's
  /// state cannot change under this allotment (e.g. nothing executes).
  virtual Time steady_window(std::span<const Work> allot) const {
    (void)allot;
    return 1;
  }

  /// Apply `steps` repetitions of { execute all categories; advance() }
  /// with no sink.  Called by the sparse engine only with
  /// steps <= steady_window(allot) and only on untraced runs; overrides may
  /// replace the loop with closed-form bulk updates but must land in the
  /// exact state the loop would produce.
  virtual void run_steady(std::span<const Work> allot, Time steps) {
    for (Time s = 0; s < steps; ++s) {
      for (Category a = 0; a < num_categories(); ++a)
        if (allot[a] > 0) execute(a, allot[a], nullptr);
      advance();
    }
  }

  // --- offline accessors (bounds, clairvoyant baselines, reporting) ---

  /// T1(Ji, alpha): total alpha-work of the job.
  virtual Work work(Category alpha) const = 0;

  /// T\infty(Ji): span (critical-path length in vertices).
  virtual Work span() const = 0;

  /// Span of the not-yet-executed portion (used by clairvoyant GreedyCp).
  virtual Work remaining_span() const = 0;

  /// Remaining alpha-work.
  virtual Work remaining_work(Category alpha) const = 0;

  virtual Category num_categories() const = 0;

  virtual std::string name() const = 0;

  /// Total work across categories.
  Work total_work() const {
    Work sum = 0;
    for (Category a = 0; a < num_categories(); ++a) sum += work(a);
    return sum;
  }

  /// Total remaining work across categories.
  Work total_remaining_work() const {
    Work sum = 0;
    for (Category a = 0; a < num_categories(); ++a) sum += remaining_work(a);
    return sum;
  }

  /// Total desire across categories; an uncompleted job always has >= 1
  /// (paper, Section 3) once all enabled tasks are promoted.
  Work total_desire() const {
    Work sum = 0;
    for (Category a = 0; a < num_categories(); ++a) sum += desire(a);
    return sum;
  }
};

using JobPtr = std::unique_ptr<Job>;

}  // namespace krad
