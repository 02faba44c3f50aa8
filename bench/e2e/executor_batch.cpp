// Workload executor_batch: the live Executor on a virtual clock with its
// default threaded backend, one worker thread per category.
//
// Why: 128 layered DAGs of ~3,300 tiny tasks each keep dispatch, the
// quantum barrier and per-quantum bookkeeping on the critical path, so work
// on the runtime's step loop and pools shows here.
//
// Each rep rebuilds the same DAGs from the seed (the executor consumes its
// jobs), attaches a ~100-operation closure to every vertex, and runs them
// under K-RAD.  Checks: every closure ran exactly where it should, and the
// makespan equals simulate() on the same DAGs — a virtual-clock run is
// bit-identical to the simulator.  Reps repeat for --seconds; a traced run
// traces every other rep.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "runtime/executor.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace krad::e2e {
namespace {

struct BatchShape {
  int jobs;
  std::size_t layers;
  std::size_t max_width;
};

constexpr BatchShape kFull{128, 100, 64};
constexpr BatchShape kSmoke{4, 8, 8};

const MachineConfig kMachine{{32, 32}};

std::vector<KDag> make_dags(std::uint64_t seed, const BatchShape& shape) {
  Rng rng(seed);
  LayeredParams params;
  params.layers = shape.layers;
  params.max_width = shape.max_width;
  params.num_categories = 2;
  std::vector<KDag> dags;
  dags.reserve(static_cast<std::size_t>(shape.jobs));
  for (int i = 0; i < shape.jobs; ++i)
    dags.push_back(layered_random(params, rng));
  return dags;
}

/// ~100 integer operations; never returns 0, so a zero slot is a task that
/// did not run.
std::uint64_t task_body(std::uint64_t x) {
  for (int i = 0; i < 32; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x | 1;
}

/// One rep's executor with its jobs submitted; out[j][v] is written by
/// vertex v of job j.
std::unique_ptr<Executor> build(std::vector<KDag> dags,
                                std::vector<std::vector<std::uint64_t>>& out) {
  ExecutorOptions options;
  options.record_trace = false;
  options.threads_per_category = 1;
  auto executor = std::make_unique<Executor>(kMachine, options);
  out.assign(dags.size(), {});
  for (std::size_t j = 0; j < dags.size(); ++j) {
    out[j].assign(dags[j].num_vertices(), 0);
    auto job = std::make_unique<RuntimeJob>(std::move(dags[j]),
                                            "batch-" + std::to_string(j));
    std::uint64_t* slots = out[j].data();
    for (VertexId v = 0; v < out[j].size(); ++v) {
      job->set_task(v, [slot = slots + v, v] { *slot = task_body(v + 1); });
    }
    executor->submit(std::move(job), /*release=*/0);
  }
  return executor;
}

/// Wall milliseconds from the start of the run to the end of each job's
/// completion quantum.
std::vector<double> job_latency_ms(const RuntimeResult& result) {
  std::vector<Time> quantum;
  std::vector<double> end_ms;
  double elapsed = 0.0;
  for (const QuantumStats& q : result.quanta) {
    elapsed += static_cast<double>(q.total_ns) * 1e-6;
    quantum.push_back(q.quantum);
    end_ms.push_back(elapsed);
  }
  std::vector<double> latency;
  for (const Time done : result.completion) {
    const auto it = std::lower_bound(quantum.begin(), quantum.end(), done);
    latency.push_back(it == quantum.end()
                          ? elapsed
                          : end_ms[static_cast<std::size_t>(
                                it - quantum.begin())]);
  }
  return latency;
}

}  // namespace

void run_executor_batch(const Options& options, Report& report) {
  const BatchShape& shape = options.smoke ? kSmoke : kFull;
  std::unique_ptr<obs::TraceSession> session;
  if (options.traced()) session = std::make_unique<obs::TraceSession>();
  const std::uint64_t seed = mix_seed(options.seed, 0);

  // The reference schedule: simulate() on the same DAGs under K-RAD.
  double reference_bounds_s = 0.0;
  double reference_sim_s = 0.0;
  JobSet reference(2);
  for (KDag& dag : make_dags(seed, shape))
    reference.add(std::make_unique<DagJob>(std::move(dag)));
  std::size_t tasks = 0;
  for (JobId j = 0; j < reference.size(); ++j)
    tasks += static_cast<std::size_t>(reference.job(j).total_work());
  Work lower_bound = 0;
  {
    Span span(session.get(), "makespan_bounds", "reference",
              &reference_bounds_s);
    lower_bound = makespan_bounds(reference, kMachine).lower_bound();
  }
  Time expected_makespan = 0;
  {
    Span span(session.get(), "simulate", "reference", &reference_sim_s);
    KRad krad;
    expected_makespan = simulate(reference, krad, kMachine).makespan;
  }

  // Each job keeps its best completion time over the reps, and throughput
  // comes from the best rep: the host's speed drifts and noise only ever
  // adds time.
  std::vector<double> best_ms;
  double best_wall = 0.0;
  double last_wall = 0.0;
  int untraced_reps = 0;
  std::vector<std::vector<std::uint64_t>> out;
  LayerTotals traced;
  std::vector<double> quantum_us;
  std::vector<double> barrier_us;
  const auto phase_start = Clock::now();
  const int min_reps = options.smoke ? 2 : 3;
  for (int rep = 0;
       rep < min_reps ||
       (!options.smoke && seconds_since(phase_start) < options.seconds);
       ++rep) {
    const bool trace_rep = options.traced() && rep % 2 == 1;
    const std::string id = "rep=" + std::to_string(rep);
    obs::TraceSession* rep_session = trace_rep ? session.get() : nullptr;

    const auto setup_start = Clock::now();
    std::unique_ptr<Executor> executor;
    {
      Span span(rep_session, "build", id);
      executor = build(make_dags(seed, shape), out);
    }
    const double setup = seconds_since(setup_start);
    report.setup_s.push_back(setup);

    ++report.attempted;
    KRad krad;
    const auto run_start = Clock::now();
    RuntimeResult result;
    {
      Span span(rep_session, "Executor::run", id);
      result = executor->run(krad);
    }
    const double wall = seconds_since(run_start);

    const auto check_start = Clock::now();
    std::size_t ran = 0;
    for (const auto& job : out)
      ran += static_cast<std::size_t>(
          std::count_if(job.begin(), job.end(),
                        [](std::uint64_t slot) { return slot != 0; }));
    Work executed = 0;
    for (const Work w : result.executed_work) executed += w;
    const bool ok = ran == tasks &&
                    static_cast<std::size_t>(executed) == tasks &&
                    result.makespan == expected_makespan &&
                    result.makespan >= lower_bound;
    if (!ok) {
      report.fail(id + ": ran " + std::to_string(ran) + "/" +
                  std::to_string(tasks) + " tasks, makespan " +
                  std::to_string(result.makespan) + " vs simulate() " +
                  std::to_string(expected_makespan));
    }
    const double check = seconds_since(check_start);

    if (!trace_rep) {
      const std::vector<double> latency = job_latency_ms(result);
      best_ms.resize(latency.size(), 0.0);
      for (std::size_t j = 0; j < latency.size(); ++j)
        best_ms[j] = untraced_reps == 0 ? latency[j]
                                        : std::min(best_ms[j], latency[j]);
      best_wall = untraced_reps == 0 ? wall : std::min(best_wall, wall);
      last_wall = wall;
      ++untraced_reps;
      continue;
    }
    report.overhead.push_back(wall / last_wall - 1.0);
    traced.ops += static_cast<double>(tasks);
    traced.gen_s += setup;
    traced.engine_s += wall;
    traced.check_s += check;
    traced.capacity_s += wall;
    traced.steps += result.busy_quanta;
    for (const QuantumStats& q : result.quanta) {
      traced.sched_s += static_cast<double>(q.schedule_ns) * 1e-9;
      traced.busy_s += static_cast<double>(q.schedule_ns + q.barrier_ns) * 1e-9;
      ++traced.sched_calls;
      quantum_us.push_back(static_cast<double>(q.total_ns) * 1e-3);
      barrier_us.push_back(static_cast<double>(q.barrier_ns) * 1e-3);
    }
  }

  report.throughput = static_cast<double>(tasks) / best_wall;
  report.latency_ms = std::move(best_ms);
  report.detail("executor.tasks_per_rep", static_cast<double>(tasks), "count");
  report.detail("executor.reps", untraced_reps, "count");
  if (!options.traced()) return;

  // The reference simulate() and bounds ran once; spread them over the
  // traced reps' ops so every layer is per task.
  const double reps = std::max(1.0, traced.ops / static_cast<double>(tasks));
  traced.bounds_s += reference_bounds_s * reps;
  traced.check_s += reference_sim_s * reps;
  report.layers = traced;
  report.detail("runtime.quantum_us_p50", percentile(quantum_us, 0.5), "us");
  report.detail("runtime.quantum_us_p99", percentile(quantum_us, 0.99), "us");
  report.detail("runtime.barrier_us_p50", percentile(barrier_us, 0.5), "us");
  report.detail("runtime.tasks_per_quantum",
                traced.ops / static_cast<double>(traced.steps), "count");
  if (!write_trace(*session, options))
    report.fail("cannot write the trace file");
}

}  // namespace krad::e2e
