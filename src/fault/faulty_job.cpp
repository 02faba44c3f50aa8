#include "fault/faulty_job.hpp"

#include <stdexcept>
#include <utility>

namespace krad {

FaultyDagJob::FaultyDagJob(KDag dag, JobId id, const FaultInjector* injector,
                           RetryPolicy policy, std::string name)
    : cursor_(std::move(dag)),
      id_(id),
      injector_(injector),
      policy_(policy),
      name_(std::move(name)) {
  if (policy_.max_attempts < 1)
    throw std::logic_error("FaultyDagJob: max_attempts must be >= 1");
}

Work FaultyDagJob::execute(Category alpha, Work count, TaskSink* sink) {
  if (count < 0) throw std::logic_error("FaultyDagJob::execute: negative count");
  Work done = 0;
  for (Work slots = 0; slots < count && cursor_.ready(alpha) > 0; ++slots) {
    const VertexId v = cursor_.pop(alpha);
    const int attempt = cursor_.attempt(v);
    if (injector_ == nullptr || !injector_->fails(id_, v, alpha, attempt)) {
      cursor_.complete(v);
      if (sink != nullptr) sink->on_task(v, alpha);
      ++done;
      continue;
    }
    ++failed_attempts_;
    if (sink != nullptr)
      sink->on_fault({FaultKind::kTaskFailure, v, alpha, attempt, 0});
    const auto notice = settle_failure(cursor_, policy_, v, alpha, attempt);
    if (!notice) throw TaskFailedError(id_, v, alpha, attempt);
    if (sink != nullptr) sink->on_fault(*notice);
    if (notice->kind != FaultKind::kRetryScheduled) break;  // abandoned
    ++retries_;
  }
  return done;
}

JobId add_faulty(JobSet& set, KDag dag, const FaultInjector* injector,
                 const RetryPolicy& policy, Time release) {
  const auto id = static_cast<JobId>(set.size());
  return set.add(std::make_unique<FaultyDagJob>(
                     std::move(dag), id, injector, policy,
                     "faulty-job-" + std::to_string(id)),
                 release);
}

}  // namespace krad
