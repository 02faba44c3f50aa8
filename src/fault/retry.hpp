#pragma once
// Retry policy applied identically by sim::simulate (through FaultyDagJob)
// and the runtime Executor: a failed unit task returns to its job's ready
// set after a backoff measured in quanta, so re-execution cost shows up
// honestly in makespan and response metrics.  When a task exhausts its
// attempt budget the policy decides the blast radius: abort the whole run,
// terminally fail the job, or drop the job and let the rest of the run
// continue.

#include <optional>
#include <stdexcept>
#include <string>

#include "dag/types.hpp"
#include "jobs/job.hpp"

namespace krad {

/// What happens when a task fails its last allowed attempt.
enum class ExhaustionAction {
  kFailFast,  ///< throw TaskFailedError out of the run (default)
  kFailJob,   ///< mark the job failed; the run continues without it
  kDropJob,   ///< drop the job silently (outcome kDropped); run continues
};

inline const char* to_string(ExhaustionAction action) {
  switch (action) {
    case ExhaustionAction::kFailFast: return "fail-fast";
    case ExhaustionAction::kFailJob: return "fail-job";
    case ExhaustionAction::kDropJob: return "drop-job";
  }
  return "?";
}

/// How failed task attempts are retried, applied identically by both
/// backends: attempt budget, exponential backoff in steps/quanta, and the
/// blast radius once the budget is exhausted.
struct RetryPolicy {
  /// Total attempts per task (>= 1); attempt numbers are 1-based.
  int max_attempts = 3;
  /// Backoff before re-queuing attempt n+1 after attempt n fails, in
  /// quanta: 0 = ready again next quantum; otherwise
  /// min(backoff_cap, backoff_base << (n - 1)) — exponential in quanta.
  Time backoff_base = 0;
  Time backoff_cap = 64;
  ExhaustionAction on_exhausted = ExhaustionAction::kFailFast;
};

/// Quanta to wait before the failed vertex becomes ready again, given the
/// 1-based attempt number that just failed.
inline Time retry_backoff(const RetryPolicy& policy, int attempt) noexcept {
  if (policy.backoff_base <= 0) return 0;
  const int shift = attempt > 1 ? (attempt - 1 < 40 ? attempt - 1 : 40) : 0;
  const Time backoff = policy.backoff_base << shift;
  return backoff < policy.backoff_cap ? backoff : policy.backoff_cap;
}

/// Settle a failed `attempt` of vertex v: the one retry decision both
/// backends share.  Below the attempt budget v is requeued after its
/// backoff; at the budget kFailJob / kDropJob abandon the job.  `job` is
/// anything with requeue(v, backoff) and abandon(outcome): a DagCursor or a
/// RuntimeJob.  Returns the notice to report (kRetryScheduled, kJobFailed or
/// kJobDropped), or nothing under kFailFast, where the caller throws
/// TaskFailedError once it is safe to unwind.
template <class DagJobState>
std::optional<FaultNotice> settle_failure(DagJobState& job,
                                          const RetryPolicy& policy,
                                          VertexId v, Category alpha,
                                          int attempt) {
  if (attempt < policy.max_attempts) {
    const Time delay = retry_backoff(policy, attempt);
    job.requeue(v, delay);
    return FaultNotice{FaultKind::kRetryScheduled, v, alpha, attempt, delay};
  }
  if (policy.on_exhausted == ExhaustionAction::kFailFast) return std::nullopt;
  const bool fail = policy.on_exhausted == ExhaustionAction::kFailJob;
  job.abandon(fail ? JobOutcome::kFailed : JobOutcome::kDropped);
  return FaultNotice{fail ? FaultKind::kJobFailed : FaultKind::kJobDropped, v,
                     alpha, attempt, 0};
}

/// Thrown (by both backends) when a task exhausts its attempts under
/// ExhaustionAction::kFailFast.
class TaskFailedError : public std::runtime_error {
 public:
  TaskFailedError(JobId job, VertexId vertex, Category category, int attempt)
      : std::runtime_error("task failed permanently: job " +
                           std::to_string(job) + " vertex " +
                           std::to_string(vertex) + " category " +
                           std::to_string(category) + " after " +
                           std::to_string(attempt) + " attempt(s)"),
        job_(job),
        vertex_(vertex),
        category_(category),
        attempt_(attempt) {}

  JobId job() const noexcept { return job_; }
  VertexId vertex() const noexcept { return vertex_; }
  Category category() const noexcept { return category_; }
  int attempts() const noexcept { return attempt_; }

 private:
  JobId job_;
  VertexId vertex_;
  Category category_;
  int attempt_;
};

}  // namespace krad
