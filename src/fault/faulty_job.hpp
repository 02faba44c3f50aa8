#pragma once
// DAG-backed simulator job with fault injection and retries: the
// discrete-time twin of the fault-aware executor loop, on the same FIFO
// DagCursor as RuntimeJob.  Each execution slot consumes one attempt, and
// the injector decides pass/fail from the (job, vertex, attempt) triple
// alone.  A failed attempt still occupies its processor for the step (the
// sink hears of it through on_fault), releases no successors, and is
// settled by settle_failure(): requeued for retry_backoff() steps, or the
// job is abandoned (kFailJob / kDropJob), or TaskFailedError is thrown out
// of sim::simulate (kFailFast).  With a null injector the job behaves
// exactly like DagJob with SelectionPolicy::kFifo.

#include <string>

#include "fault/injector.hpp"
#include "fault/retry.hpp"
#include "jobs/dag_cursor.hpp"
#include "jobs/job_set.hpp"

namespace krad {

class FaultyDagJob final : public Job {
 public:
  /// `id` must be the job's position in its JobSet (the injector keys
  /// failures by JobId).  `injector` may be null (no task faults) and must
  /// outlive the job.
  FaultyDagJob(KDag dag, JobId id, const FaultInjector* injector,
               RetryPolicy policy, std::string name = "faulty-job");

  Work desire(Category alpha) const override { return cursor_.ready(alpha); }
  Work execute(Category alpha, Work count, TaskSink* sink) override;
  void advance() override { cursor_.advance(); }
  bool finished() const override { return cursor_.finished(); }
  /// Any step that executes work may fail and fork the state, so the
  /// window is 1 unless the cursor is frozen.
  Time steady_window(std::span<const Work> allot) const override {
    return cursor_.frozen(allot) ? kForeverSteady : 1;
  }
  void run_steady(std::span<const Work> allot, Time steps) override {
    if (!cursor_.frozen(allot)) Job::run_steady(allot, steps);
  }
  JobOutcome outcome() const override { return cursor_.outcome(); }
  void reset() override {
    cursor_.reset();
    failed_attempts_ = retries_ = 0;
  }

  Work work(Category alpha) const override { return dag().work(alpha); }
  Work span() const override { return dag().span(); }
  Work remaining_span() const override { return cursor_.remaining_span(); }
  Work remaining_work(Category alpha) const override {
    return cursor_.remaining_work(alpha);
  }
  Category num_categories() const override { return dag().num_categories(); }
  std::string name() const override { return name_; }

  const KDag& dag() const noexcept { return cursor_.dag(); }
  /// Per-job tallies that SimResult aggregates.
  Work failed_attempts() const noexcept { return failed_attempts_; }
  Work retries() const noexcept { return retries_; }

 private:
  DagCursor cursor_;
  JobId id_;
  const FaultInjector* injector_;
  RetryPolicy policy_;
  std::string name_;
  Work failed_attempts_ = 0;
  Work retries_ = 0;
};

/// Append a FaultyDagJob to `set`, deriving the injector JobId from the
/// set's current size so the ids always line up.
JobId add_faulty(JobSet& set, KDag dag, const FaultInjector* injector,
                 const RetryPolicy& policy, Time release = 0);

}  // namespace krad
