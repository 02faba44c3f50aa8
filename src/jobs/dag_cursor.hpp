#pragma once
// Per-job execution cursor over a sealed K-DAG: the job-side state machine
// under DagJob (simulator), FaultyDagJob (its fault twin) and RuntimeJob
// (live executor).  Schedulers only choose *how many* alpha-tasks of a job
// run in a step; the cursor decides *which*, through a SelectionPolicy: the
// lever the paper's adversary pulls (Theorem 1: "tasks on the critical path
// are always executed last among the ready tasks") and the clairvoyant
// optimum pulls the other way.
//
// A step: pop() ready vertices, report each one complete() or requeue() it
// after a failed attempt, then advance(): vertices enabled this step become
// ready first, in release order, then retries whose backoff expired, in
// failure order.  Sources start ready in vertex-id order.  The DAG is never
// modified, so reset() restores the initial state.

#include <cstdint>
#include <span>
#include <vector>

#include "dag/kdag.hpp"
#include "jobs/job.hpp"
#include "util/rng.hpp"

namespace krad {

enum class SelectionPolicy {
  kFifo,               ///< ready order (arrival into the ready set)
  kLifo,               ///< newest ready first
  kCriticalPathFirst,  ///< largest remaining critical path first (OPT-friendly)
  kCriticalPathLast,   ///< smallest remaining critical path first (adversary)
  kRandom,             ///< uniformly random among ready (seeded)
};

const char* to_string(SelectionPolicy policy);

class DagCursor {
 public:
  /// The dag must be sealed.  `seed` is only used by kRandom.
  explicit DagCursor(KDag dag, SelectionPolicy policy = SelectionPolicy::kFifo,
                     std::uint64_t seed = 1);

  /// Back to the initial state: nothing executed, sources ready.
  void reset();

  /// Ready alpha-vertices: the job's alpha-desire.
  Work ready(Category alpha) const {
    const ReadySet& set = ready_.at(alpha);
    return static_cast<Work>(set.order.size() - set.head + set.ranked.size());
  }
  /// The vertex pop(alpha) returns next (ready(alpha) > 0).
  VertexId front(Category alpha) const;
  /// Remove the policy-first ready alpha-vertex; throws if there is none.
  VertexId pop(Category alpha);
  /// `allot` executes nothing and no retry cools, so advance() would
  /// change nothing observable.
  bool frozen(std::span<const Work> allot) const;

  /// A popped vertex succeeded: buffer the successors it enabled.
  void complete(VertexId v);
  /// Count a new attempt of v; returns the 1-based attempt number.  The
  /// counters are allocated on first use, so fault-free jobs carry none.
  int attempt(VertexId v);
  /// A popped vertex failed: ready again `backoff` advances after the next
  /// one, and counted in remaining_span() while it cools.
  void requeue(VertexId v, Time backoff);
  /// Drop all pending work: finished() holds, outcome() says why, and
  /// complete() and requeue() become no-ops.
  void abandon(JobOutcome outcome);
  void advance();

  /// Every vertex completed, or the job was abandoned.
  bool finished() const noexcept {
    return outcome_ != JobOutcome::kCompleted ||
           completed_ == static_cast<Work>(dag_.num_vertices());
  }
  JobOutcome outcome() const noexcept { return outcome_; }
  Work completed() const noexcept { return completed_; }
  Work remaining_work(Category alpha) const {
    return remaining_work_.at(alpha);
  }
  /// Largest static cp_length over ready and cooling vertices: every
  /// unexecuted vertex is one of those or descends from one.
  Work remaining_span() const;

  const KDag& dag() const noexcept { return dag_; }
  SelectionPolicy policy() const noexcept { return policy_; }

 private:
  struct Ranked {  // heap entry of the kCriticalPath* and kRandom policies
    std::int64_t priority;  // higher runs first, then earlier arrival
    std::uint64_t arrival;
    VertexId vertex;
    bool operator<(const Ranked& other) const noexcept {
      if (priority != other.priority) return priority < other.priority;
      return arrival > other.arrival;
    }
  };
  struct ReadySet {
    std::vector<VertexId> order;  // kFifo pops at `head`, kLifo at the back
    std::size_t head = 0;
    std::vector<Ranked> ranked;   // max-heap for the other policies
  };
  struct Retry {
    Time due;  // ready again once advances_ reaches this
    VertexId vertex;
  };

  void count_span(VertexId v);
  void push(VertexId v);

  KDag dag_;
  SelectionPolicy policy_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<ReadySet> ready_;  // per category
  std::vector<std::uint32_t> pending_in_degree_;
  std::vector<VertexId> enabled_;  // released this step, in release order
  std::vector<Retry> cooling_;     // in failure order
  std::vector<int> attempts_;      // empty until the first attempt()
  std::vector<Work> remaining_work_;
  std::vector<Work> span_count_;  // cp_length histogram, ready + cooling
  mutable Work span_ = 0;         // no histogram entry above this
  std::uint64_t arrivals_ = 0;
  Time advances_ = 0;
  Work completed_ = 0;
  JobOutcome outcome_ = JobOutcome::kCompleted;
};

}  // namespace krad
