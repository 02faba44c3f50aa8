#pragma once
// Dynamically unfolding jobs — the paper's job model taken literally: "the
// execution of a multi-threaded job [is] a dynamically unfolding dag".  An
// UnfoldingJob's structure is not materialised up front; executing a task
// invokes a user Spawner that decides the task's children (a spawn tree, as
// in multithreaded computation models).  Even the job itself does not know
// its future shape, which makes these jobs the strictest exercise of
// non-clairvoyant scheduling.
//
// Determinism across schedulers: every task carries a structural seed; a
// child's seed is a pure function of its parent's seed and its sibling
// index.  The unfolded tree is therefore identical for any scheduler and
// any execution order, so different schedulers can be compared on "the same"
// dynamically unfolding workload (tests rely on this).
//
// Offline accessors report the *currently known* quantities: work(alpha) and
// span() are exact once the job has finished (the spawn tree's per-category
// task counts and maximum depth); remaining_span() is the depth budget still
// open below the deepest ready task — an upper-bound estimate, which is all
// a clairvoyant baseline can be given for a job whose future is undecided.

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "jobs/job.hpp"
#include "util/rng.hpp"

namespace krad {

/// Caveat: if the max_tasks cap actually binds, WHICH tasks get clipped
/// depends on execution order, so cross-scheduler structural determinism
/// only holds for runs that stay under the cap (use a damped spawner).
///
/// Decides the categories of the children a task spawns on execution.
/// `rng` is the task's private deterministic stream.  Depth is 1-based
/// (root = 1).  The job clamps children at max_depth/max_tasks.
using Spawner =
    std::function<std::vector<Category>(Category category, Work depth, Rng& rng)>;

class UnfoldingJob final : public Job {
 public:
  UnfoldingJob(Category num_categories, Category root_category, Spawner spawner,
               Work max_depth, Work max_tasks, std::string name = "unfolding",
               std::uint64_t seed = 1);

  Work desire(Category alpha) const override;
  Work execute(Category alpha, Work count, TaskSink* sink) override;
  void advance() override;
  bool finished() const override;

  /// Exact at completion; while running, the count spawned so far.
  Work work(Category alpha) const override { return spawned_.at(alpha); }
  /// Exact at completion (spawn-tree depth); while running, deepest spawned.
  Work span() const override { return max_depth_seen_; }
  Work remaining_span() const override;
  Work remaining_work(Category alpha) const override;
  Category num_categories() const override {
    return static_cast<Category>(spawned_.size());
  }
  std::string name() const override { return name_; }

  Work total_spawned() const noexcept { return total_spawned_; }
  Work depth_limit() const noexcept { return max_depth_; }

  void reset() override;

 private:
  struct Task {
    std::uint64_t seed;
    Work depth;
    Category category;
  };

  void spawn_root();
  void enqueue(Task task);

  Category root_category_;
  Spawner spawner_;
  Work max_depth_;
  Work max_tasks_;
  std::string name_;
  std::uint64_t seed_;

  std::vector<std::deque<Task>> ready_;  // FIFO per category
  std::vector<Task> enabled_;            // children awaiting advance()
  std::vector<Work> spawned_;            // per category
  std::vector<Work> executed_;           // per category
  Work total_spawned_ = 0;
  Work total_executed_ = 0;
  Work max_depth_seen_ = 0;
  VertexId next_vertex_ = 0;  // synthetic ids for TaskSink
};

/// A ready-made random Spawner: each executed task spawns between
/// `min_children` and `max_children` children (subject to the job's depth
/// and size caps) with categories uniform over [0, k).  `continue_prob`
/// scales down as depth grows so trees stay finite even with a deep cap.
Spawner random_spawner(Category k, int min_children, int max_children,
                       double continue_prob);

}  // namespace krad
