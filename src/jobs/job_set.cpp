#include "jobs/job_set.hpp"

#include <algorithm>
#include <stdexcept>

namespace krad {

JobId JobSet::add(JobPtr job, Time release) {
  if (job == nullptr) throw std::logic_error("JobSet::add: null job");
  if (job->num_categories() != num_categories_)
    throw std::logic_error("JobSet::add: job category count mismatch");
  if (release < 0) throw std::logic_error("JobSet::add: negative release time");
  jobs_.push_back(std::move(job));
  releases_.push_back(release);
  return static_cast<JobId>(jobs_.size() - 1);
}

void JobSet::set_release(JobId id, Time release) {
  if (release < 0)
    throw std::logic_error("JobSet::set_release: negative release time");
  releases_.at(id) = release;
}

bool JobSet::batched() const noexcept {
  return std::all_of(releases_.begin(), releases_.end(),
                     [](Time r) { return r == 0; });
}

Work JobSet::total_work(Category alpha) const {
  Work sum = 0;
  for (const auto& job : jobs_) sum += job->work(alpha);
  return sum;
}

Work JobSet::aggregate_span() const {
  Work sum = 0;
  for (const auto& job : jobs_) sum += job->span();
  return sum;
}

Work JobSet::max_release_plus_span() const {
  Work best = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i)
    best = std::max(best, releases_[i] + jobs_[i]->span());
  return best;
}

std::vector<Work> JobSet::works(Category alpha) const {
  std::vector<Work> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(job->work(alpha));
  return out;
}

void JobSet::reset_all() {
  for (auto& job : jobs_) job->reset();
}

}  // namespace krad
