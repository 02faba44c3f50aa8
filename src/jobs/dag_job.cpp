#include "jobs/dag_job.hpp"

#include <stdexcept>
#include <utility>

namespace krad {

DagJob::DagJob(KDag dag, SelectionPolicy policy, std::string name,
               std::uint64_t seed)
    : cursor_(std::move(dag), policy, seed), name_(std::move(name)) {}

Work DagJob::execute(Category alpha, Work count, TaskSink* sink) {
  if (count < 0) throw std::logic_error("DagJob::execute: negative count");
  Work done = 0;
  for (; done < count && cursor_.ready(alpha) > 0; ++done) {
    const VertexId v = cursor_.pop(alpha);
    cursor_.complete(v);
    if (sink != nullptr) sink->on_task(v, alpha);
  }
  return done;
}

Time DagJob::steady_window(std::span<const Work> allot) const {
  // Nothing executes: the state is frozen until the allotment changes.
  if (cursor_.frozen(allot)) return kForeverSteady;
  // One ready vertex in the whole job, and it gets a processor: each step
  // retires the head of a straight-line run and readies the next link, so
  // the desire vector is constant for the run's length.
  if (total_desire() != 1) return 1;
  Category alpha = 0;
  while (cursor_.ready(alpha) == 0) ++alpha;
  return dag().run_length(cursor_.front(alpha));
}

}  // namespace krad
