#pragma once
// A collection of jobs plus their release times — the paper's job set J.

#include <memory>
#include <vector>

#include "jobs/dag_job.hpp"
#include "jobs/job.hpp"

namespace krad {

class JobSet {
 public:
  JobSet() = default;
  explicit JobSet(Category num_categories) : num_categories_(num_categories) {}

  /// Add a job released at time r (r = 0 means available from step 1;
  /// the paper's batched setting is r = 0 for every job).
  JobId add(JobPtr job, Time release = 0);

  std::size_t size() const noexcept { return jobs_.size(); }
  bool empty() const noexcept { return jobs_.empty(); }
  Category num_categories() const noexcept { return num_categories_; }

  Job& job(JobId id) { return *jobs_.at(id); }
  const Job& job(JobId id) const { return *jobs_.at(id); }
  Time release(JobId id) const { return releases_.at(id); }

  /// Re-stamp a job's release time (workload generators build batched sets
  /// first, then apply an arrival process).
  void set_release(JobId id, Time release);

  /// True iff every job has release time 0.
  bool batched() const noexcept;

  // --- aggregates used by the lower bounds (Sections 4 and 6) ---

  /// T1(J, alpha) = Sum_i T1(Ji, alpha)   (Definition 3).
  Work total_work(Category alpha) const;

  /// T\infty(J) = Sum_i T\infty(Ji)  (aggregate span, Definition 5).
  Work aggregate_span() const;

  /// max_i (r(Ji) + T\infty(Ji))  (first makespan lower bound, Section 4).
  Work max_release_plus_span() const;

  /// Per-job alpha-works, in job order (input to squashed-area bounds).
  std::vector<Work> works(Category alpha) const;

  /// Reset every job to rerun the set under another scheduler.
  void reset_all();

 private:
  Category num_categories_ = 1;
  std::vector<JobPtr> jobs_;
  std::vector<Time> releases_;
};

}  // namespace krad
