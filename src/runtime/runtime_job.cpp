#include "runtime/runtime_job.hpp"

#include <utility>

namespace krad {

RuntimeJob::RuntimeJob(KDag dag, std::string name)
    : tasks_(dag.num_vertices()),
      cursor_(std::move(dag)),
      name_(std::move(name)) {}

void RuntimeJob::set_task(VertexId v, TaskFn fn) {
  if (fn) {
    tasks_.at(v) = [body = std::move(fn)](const CancellationToken&) { body(); };
  } else {
    tasks_.at(v) = nullptr;
  }
}

void RuntimeJob::set_task(VertexId v, CancellableTaskFn fn) {
  tasks_.at(v) = std::move(fn);
}

void RuntimeJob::set_all_tasks(const TaskFn& fn) {
  for (VertexId v = 0; v < dag().num_vertices(); ++v) set_task(v, fn);
}

}  // namespace krad
