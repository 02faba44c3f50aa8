#pragma once
// A job the live executor can run: a K-DAG whose vertices carry real task
// closures, plus the ready-set bookkeeping the quantum loop needs.
//
// Division of labour mirrors Job/engine in the simulator: the scheduler
// decides HOW MANY ready alpha-tasks of the job run in a quantum (its
// allotment), the job decides WHICH ready tasks those are — here always FIFO
// order, matching DagJob's SelectionPolicy::kFifo so that a single-threaded
// virtual-clock run is bit-identical to sim::simulate (the determinism
// cross-check in tests/test_runtime_determinism.cpp).
//
// Fault support (driven by the executor, see docs/FAULTS.md): each admission
// registers an attempt; a failed attempt is requeued with a backoff measured
// in quanta (promote_enabled re-readies it once the backoff expires, after
// this quantum's newly enabled tasks — the same promotion order as
// FaultyDagJob::advance), or the whole job is abandoned with a terminal
// outcome.  Closures may be cancellation-aware: the executor passes a token
// carrying the run-abort flag and the per-attempt deadline.
//
// Thread-safety contract: worker threads call ONLY run_closure(), which
// touches nothing but the vertex's immutable closure.  Everything else —
// ready queues, desires, admission, retry, abandonment, and successor
// release — belongs to the executor thread.  The executor releases each
// admitted vertex's successors itself, in admission order, right after
// dispatching the closure: successors only become ready at the quantum
// barrier (promote_enabled), after every dispatched closure completed, so
// the early release is invisible — and because the release order no longer
// depends on worker completion order, threaded virtual-clock runs are
// bit-identical to sim::simulate, like inline ones
// (tests/test_runtime_determinism.cpp).

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "dag/kdag.hpp"
#include "fault/cancellation.hpp"
#include "jobs/job.hpp"

namespace krad {

/// A task body run on a worker thread.  Must not call back into the executor
/// or the job's executor-side interface.
using TaskFn = std::function<void()>;

/// Cancellation-aware task body: long-running closures should poll
/// token.stop_requested() and return early when it flips (run aborted or
/// per-attempt deadline passed).
using CancellableTaskFn = std::function<void(const CancellationToken&)>;

class RuntimeJob {
 public:
  /// The dag must be sealed.  Vertices default to a no-op closure.
  explicit RuntimeJob(KDag dag, std::string name = "runtime-job");

  /// Attach the closure run when vertex v executes.
  void set_task(VertexId v, TaskFn fn);
  /// Cancellation-aware variant.
  void set_task(VertexId v, CancellableTaskFn fn);
  /// Attach one shared closure to every vertex (e.g. a calibrated spin).
  void set_all_tasks(const TaskFn& fn);

  // --- executor-thread interface -------------------------------------

  /// d(J, alpha): number of ready alpha-tasks.
  Work desire(Category alpha) const;
  /// Admit the FIFO-first ready alpha-vertex (desire(alpha) must be > 0).
  VertexId pop_ready(Category alpha);
  /// Promote vertices enabled since the last call, then retries whose
  /// backoff expired (quantum barrier; all admitted tasks of the quantum
  /// must have completed).
  void promote_enabled();
  /// All vertices admitted (== completed once the quantum barrier passed),
  /// or the job was abandoned by the fault layer.
  bool finished() const noexcept;
  Work admitted() const noexcept { return admitted_; }

  // --- fault layer (executor thread; see docs/FAULTS.md) ---------------

  /// Count a new attempt of v; returns the 1-based attempt number.
  int register_attempt(VertexId v) { return ++attempts_.at(v); }
  /// Undo the admission of v after a failed attempt; it re-enters the
  /// ready set `backoff` promote calls after the upcoming one.
  void requeue(VertexId v, Time backoff);
  /// Terminally fail or drop the job: clears all pending work, finished()
  /// becomes true, outcome() reports the reason.
  void abandon(JobOutcome outcome);
  JobOutcome outcome() const noexcept { return outcome_; }

  // Clairvoyant accessors (same definitions as DagJob).
  Work remaining_work(Category alpha) const;
  Work remaining_span() const;

  // --- worker-thread interface ---------------------------------------

  /// Run vertex v's closure with the given cancellation token.  Does NOT
  /// release successors; safe to call concurrently for distinct vertices.
  /// The ONLY method worker threads may call.
  void run_closure(VertexId v, const CancellationToken& token);

  // --- executor-thread dispatch helpers --------------------------------

  /// Decrement v's successors' in-degrees, buffering those that hit zero
  /// for the next promote_enabled().  Executor thread only, exactly once
  /// per admitted vertex, in admission order (the determinism contract in
  /// the header comment).  No-op after abandon().
  void release_successors(VertexId v);
  /// run_closure + release_successors — the inline-execution fast path.
  void run_task(VertexId v);

  const KDag& dag() const noexcept { return dag_; }
  const std::string& name() const noexcept { return name_; }

 private:
  struct PendingRetry {
    Time due_promotes;  ///< ready again once promotes_ reaches this
    VertexId vertex;
  };

  void make_ready(VertexId v);

  KDag dag_;
  std::string name_;
  std::vector<CancellableTaskFn> tasks_;

  // Executor-side state.
  std::vector<std::deque<VertexId>> ready_;  // per category, FIFO
  std::vector<PendingRetry> cooling_;        // in failure order
  std::vector<int> attempts_;
  std::vector<Work> remaining_work_;
  std::vector<Work> ready_cp_count_;  // histogram of cp_length among ready
  Work remaining_span_cache_ = 0;
  Work admitted_ = 0;
  Time promotes_ = 0;
  JobOutcome outcome_ = JobOutcome::kCompleted;
  bool abandoned_ = false;
  std::vector<std::uint32_t> pending_in_degree_;
  std::vector<VertexId> newly_enabled_;  // in release order, per quantum
};

}  // namespace krad
