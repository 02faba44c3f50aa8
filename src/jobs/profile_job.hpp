#pragma once
// Phase-structured synthetic job.
//
// A ProfileJob is a sequence of phases; phase p carries, per category alpha,
// an amount of work w(p, alpha) and a parallelism cap h(p, alpha).  All work
// of a phase (across all categories) must finish before the next phase
// starts.  The corresponding K-DAG is, per category, h independent chains of
// total length w (plus the inter-phase barrier), so:
//
//   T1(J, alpha)  = Sum_p w(p, alpha)
//   T\infty(J)    = Sum_p max_alpha ceil(w(p, alpha) / h(p, alpha))
//
// The instantaneous alpha-desire during phase p is min(h, remaining w): on a
// fully-satisfied step every category's remaining ceil(w/h) drops by one, so
// a \forall-satisfied step shortens the span by exactly one — the property
// Lemma 2 and Theorem 5 rely on.  This representation scales to millions of
// task units without materialising vertices.

#include <string>
#include <vector>

#include "jobs/job.hpp"

namespace krad {

struct PhasePart {
  Category category = 0;
  Work work = 0;         ///< > 0
  Work parallelism = 1;  ///< cap h >= 1
};

struct Phase {
  std::vector<PhasePart> parts;  ///< at most one part per category

  /// Critical-path contribution: max over parts of ceil(work / parallelism).
  Work span() const noexcept;
};

class ProfileJob final : public Job {
 public:
  ProfileJob(std::vector<Phase> phases, Category num_categories,
             std::string name = "profile-job");

  Work desire(Category alpha) const override;
  Work execute(Category alpha, Work count, TaskSink* sink) override;
  void advance() override;
  bool finished() const override;

  /// Steady windows are closed-form here: executing x = min(allot, desire)
  /// tasks per step keeps desire(alpha) = min(remaining, h) constant while
  /// remaining - s * x >= h, so a whole phase prefix collapses into
  /// 1 + (remaining - h) / x steps of pure arithmetic — the reason
  /// million-task profile runs cost the sparse engine microseconds.
  Time steady_window(std::span<const Work> allot) const override;
  void run_steady(std::span<const Work> allot, Time steps) override;

  Work work(Category alpha) const override { return work_.at(alpha); }
  Work span() const override { return span_; }
  Work remaining_span() const override;
  Work remaining_work(Category alpha) const override;
  Category num_categories() const override {
    return static_cast<Category>(work_.size());
  }
  std::string name() const override { return name_; }

  std::size_t num_phases() const noexcept { return phases_.size(); }
  std::size_t current_phase() const noexcept { return phase_; }

  /// Render the phase structure in the workload-spec text format
  /// ("phase cat:work:par ...\n" per phase); see workload/spec.hpp.
  std::string describe_phases() const;

  void reset() override;

 private:
  bool phase_done() const noexcept;
  void enter_phase(std::size_t p);

  std::vector<Phase> phases_;
  std::string name_;
  std::vector<Work> work_;   // per category totals
  Work span_ = 0;

  std::size_t phase_ = 0;
  std::vector<Work> phase_remaining_;    // per category, current phase
  std::vector<Work> phase_parallelism_;  // per category, current phase
  std::vector<Work> remaining_;          // per category, whole job
  std::vector<Work> suffix_span_;        // span of phases p..end
  std::uint64_t task_counter_ = 0;       // synthetic vertex ids for sinks
};

}  // namespace krad
