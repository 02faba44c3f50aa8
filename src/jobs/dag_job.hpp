#pragma once
// Job backed by an explicit K-DAG: a DagCursor (ready sets under a
// SelectionPolicy, successor release, remaining work and span) behind the
// simulator's Job interface, plus steady windows for the sparse engine.

#include <cstdint>
#include <string>

#include "jobs/dag_cursor.hpp"
#include "jobs/job.hpp"

namespace krad {

class DagJob final : public Job {
 public:
  /// The dag must be sealed.  `seed` is only used by kRandom.
  DagJob(KDag dag, SelectionPolicy policy = SelectionPolicy::kFifo,
         std::string name = "dag-job", std::uint64_t seed = 1);

  Work desire(Category alpha) const override { return cursor_.ready(alpha); }
  Work execute(Category alpha, Work count, TaskSink* sink) override;
  void advance() override { cursor_.advance(); }
  bool finished() const override { return cursor_.finished(); }
  void reset() override { cursor_.reset(); }

  /// Steady windows for the sparse engine: kForeverSteady when the
  /// allotment executes nothing (the cursor is frozen), dag().run_length(v)
  /// when the single ready vertex v heads a same-category chain, else 1.
  Time steady_window(std::span<const Work> allot) const override;
  /// Chain windows replay the per-step loop, so the policy's state (arrival
  /// order, kRandom draws) matches the dense engine bit for bit; the engine
  /// already saved the view rebuilds and allot calls.
  void run_steady(std::span<const Work> allot, Time steps) override {
    if (!cursor_.frozen(allot)) Job::run_steady(allot, steps);
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
  SelectionPolicy policy() const noexcept { return cursor_.policy(); }
  Work executed_count() const noexcept { return cursor_.completed(); }

 private:
  DagCursor cursor_;
  std::string name_;
};

}  // namespace krad
