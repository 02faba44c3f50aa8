#pragma once
// A job the live executor can run: a FIFO DagCursor, the one DagJob and
// FaultyDagJob run on, plus a task closure per vertex.  The scheduler picks
// HOW MANY ready alpha-tasks run in a quantum and the cursor picks WHICH,
// so a virtual-clock run is bit-identical to sim::simulate
// (tests/test_runtime_determinism.cpp).  The executor settles failed
// attempts with settle_failure(), as FaultyDagJob does in the simulator
// (docs/FAULTS.md), and hands closures a CancellationToken carrying the
// run-abort flag and the per-attempt deadline.
//
// Thread-safety contract: worker threads call ONLY run_closure(), which
// touches nothing but the vertex's immutable closure; the cursor belongs to
// the executor thread.  The executor releases each admitted vertex's
// successors itself, in admission order, right after dispatching its
// closure.  Successors become ready only at the quantum barrier
// (promote_enabled), after every dispatched closure completed, so the early
// release is invisible and the order is independent of the workers.

#include <functional>
#include <string>
#include <vector>

#include "fault/cancellation.hpp"
#include "jobs/dag_cursor.hpp"

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

  // --- executor thread (see DagCursor for the semantics) --------------

  Work desire(Category alpha) const { return cursor_.ready(alpha); }
  /// Admit the FIFO-first ready alpha-vertex (desire(alpha) must be > 0).
  VertexId pop_ready(Category alpha) { return cursor_.pop(alpha); }
  /// Quantum barrier: every admitted task of the quantum has completed.
  void promote_enabled() { cursor_.advance(); }
  bool finished() const noexcept { return cursor_.finished(); }
  /// Vertices completed; at a quantum barrier, all that were admitted.
  Work admitted() const noexcept { return cursor_.completed(); }
  int register_attempt(VertexId v) { return cursor_.attempt(v); }
  /// Undo the admission of v after a failed attempt.
  void requeue(VertexId v, Time backoff) { cursor_.requeue(v, backoff); }
  void abandon(JobOutcome outcome) { cursor_.abandon(outcome); }
  JobOutcome outcome() const noexcept { return cursor_.outcome(); }
  Work remaining_work(Category alpha) const {
    return cursor_.remaining_work(alpha);
  }
  Work remaining_span() const { return cursor_.remaining_span(); }
  /// Buffer v's newly enabled successors: exactly once per admitted
  /// vertex, in admission order (the contract above).
  void release_successors(VertexId v) { cursor_.complete(v); }
  /// run_closure + release_successors: the inline-execution fast path.
  void run_task(VertexId v) {
    run_closure(v, CancellationToken{});
    release_successors(v);
  }

  // --- worker threads -------------------------------------------------

  /// Run vertex v's closure.  Does NOT release successors; safe to call
  /// concurrently for distinct vertices.
  void run_closure(VertexId v, const CancellationToken& token) {
    if (const CancellableTaskFn& task = tasks_[v]) task(token);
  }

  const KDag& dag() const noexcept { return cursor_.dag(); }
  const std::string& name() const noexcept { return name_; }

 private:
  // Workers read tasks_, so it sits a whole KDag away from the cursor
  // counters the executor thread writes: no cache line holds both.
  std::vector<CancellableTaskFn> tasks_;
  DagCursor cursor_;
  std::string name_;
};

}  // namespace krad
