// Scheduling overhead vs quantum length on the live executor.
//
// The simulator charges the scheduler nothing; a live system pays
// KScheduler::allot once per quantum.  Short quanta track desire changes
// tightly but pay the overhead often; long quanta amortise it at the cost of
// allocation staleness.  This bench runs one fixed heterogeneous workload in
// wall-clock mode across a quantum-length sweep and reports the measured
// curve: quanta used, mean in-scheduler time per quantum, the overhead
// fraction of the quantum budget, and end-to-end wall time.
//
// A virtual-clock run (quantum = 0) anchors the curve: it is the fastest the
// executor can go, bounded only by task execution and barrier cost.
//
// The second half is the dispatch faceoff (docs/RUNTIME.md "The steal
// backend"): the same high-fan-out workload with empty closures, run once
// through the threaded steal pool and once inline on the executor thread.
// Both pay the scheduler and the per-quantum bookkeeping; only the steal run
// pays dispatch (packing, injection, wakeups, the barrier), so the ns/task
// difference is the dispatch cost per task.  Rows land in
// BENCH_runtime.json; the committed baseline floors inline_over_steal (the
// inline/steal wall ratio) on the largest configuration
// (min_inline_over_steal, tools/bench_compare.py), which is how CI catches
// a steal-path regression without flaking on host jitter.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "common.hpp"
#include "dag/builders.hpp"
#include "runtime/executor.hpp"

namespace {

using namespace krad;

std::atomic<std::uint64_t> g_sink{0};

// ~2-3 us of real work per task at typical clock rates.
void spin_task() {
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 1200; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
  }
  g_sink.fetch_add(h, std::memory_order_relaxed);
}

/// One faceoff configuration: `jobs` DAGs of `layers` x `width` vertices
/// with empty closures, so every measured nanosecond is backend overhead.
struct FaceoffConfig {
  const char* label;
  int jobs;
  std::size_t layers;
  std::size_t width;
  std::size_t tasks() const {
    return static_cast<std::size_t>(jobs) * layers * width;
  }
};

Executor build_faceoff(const FaceoffConfig& config, bool inline_execution) {
  ExecutorOptions options;
  options.record_trace = false;
  options.inline_execution = inline_execution;
  Executor executor(MachineConfig{{16, 16}}, options);
  Rng rng(7);  // same seed per mode: identical DAGs, identical schedule
  for (int i = 0; i < config.jobs; ++i) {
    LayeredParams params;
    params.layers = config.layers;
    params.min_width = config.width;
    params.max_width = config.width;
    params.num_categories = 2;
    auto job = std::make_unique<RuntimeJob>(layered_random(params, rng),
                                            "faceoff-" + std::to_string(i));
    job->set_all_tasks([] {});
    executor.submit(std::move(job), /*release=*/0);
  }
  return executor;
}

/// Best-of-`reps` wall seconds for one mode (fresh executor per rep — a
/// run is single-shot).  Returns {min wall seconds, makespan}.
std::pair<double, Time> run_faceoff(const FaceoffConfig& config,
                                    bool inline_execution, int reps) {
  using krad::bench::check;
  double best = 0.0;
  Time makespan = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Executor executor = build_faceoff(config, inline_execution);
    KRad scheduler;
    const RuntimeResult r = executor.run(scheduler);
    Work executed = 0;
    for (const Work w : r.executed_work) executed += w;
    check(static_cast<std::size_t>(executed) == config.tasks(),
          std::string(config.label) + ": all tasks executed");
    if (rep == 0 || r.wall_seconds < best) best = r.wall_seconds;
    makespan = r.makespan;
  }
  return {best, makespan};
}

Executor build_workload(ExecutorOptions options) {
  Executor executor(MachineConfig{{4, 2, 2}}, options);
  Rng rng(42);
  for (int i = 0; i < 8; ++i) {
    LayeredParams params;
    params.layers = 10;
    params.max_width = 6;
    params.num_categories = 3;
    auto job = std::make_unique<RuntimeJob>(layered_random(params, rng),
                                            "job-" + std::to_string(i));
    job->set_all_tasks(spin_task);
    executor.submit(std::move(job), /*release=*/i / 2);
  }
  return executor;
}

}  // namespace

int main() {
  using namespace krad;
  using krad::bench::check;

  print_banner(std::cout, "runtime executor: scheduling overhead vs quantum length");

  Table table({"quantum_us", "busy_q", "sched_us/q", "overhead_%", "barrier_us/q",
               "wall_ms"});

  // Virtual-clock anchor.
  double virtual_wall_ms = 0.0;
  {
    ExecutorOptions options;
    options.record_trace = false;
    Executor executor = build_workload(options);
    KRad scheduler;
    const RuntimeResult r = executor.run(scheduler);
    virtual_wall_ms = r.wall_seconds * 1e3;
    double barrier_us = 0.0;
    for (const QuantumStats& q : r.quanta)
      barrier_us += static_cast<double>(q.barrier_ns) / 1e3;
    barrier_us /= static_cast<double>(r.quanta.size());
    table.row()
        .cell("0 (virtual)")
        .cell(r.busy_quanta)
        .cell(r.mean_schedule_overhead_ns / 1e3, 2)
        .cell(100.0 * r.mean_schedule_overhead_ns / r.mean_quantum_ns, 2)
        .cell(barrier_us, 2)
        .cell(r.wall_seconds * 1e3, 1);
    check(r.busy_quanta > 0, "virtual run executed quanta");
  }

  Time reference_quanta = 0;
  for (const long quantum_us : {50L, 200L, 500L, 2000L}) {
    ExecutorOptions options;
    options.clock = ClockMode::kWall;
    options.quantum_length = std::chrono::microseconds{quantum_us};
    options.record_trace = false;
    Executor executor = build_workload(options);
    KRad scheduler;
    const RuntimeResult r = executor.run(scheduler);
    double barrier_us = 0.0;
    for (const QuantumStats& q : r.quanta)
      barrier_us += static_cast<double>(q.barrier_ns) / 1e3;
    barrier_us /= static_cast<double>(r.quanta.size());
    table.row()
        .cell(static_cast<std::int64_t>(quantum_us))
        .cell(r.busy_quanta)
        .cell(r.mean_schedule_overhead_ns / 1e3, 2)
        .cell(100.0 * r.mean_schedule_overhead_ns /
                  static_cast<double>(quantum_us * 1000),
              2)
        .cell(barrier_us, 2)
        .cell(r.wall_seconds * 1e3, 1);

    if (reference_quanta == 0) reference_quanta = r.busy_quanta;
    // Allotment counts are clock-independent (every quantum is a full
    // barrier); only the racy promote order of concurrently finishing tasks
    // can nudge later desires, so quanta may drift slightly but not scale
    // with the quantum length.
    const double drift =
        static_cast<double>(r.busy_quanta > reference_quanta
                                ? r.busy_quanta - reference_quanta
                                : reference_quanta - r.busy_quanta) /
        static_cast<double>(reference_quanta);
    check(drift <= 0.25,
          "busy quanta roughly stable across quantum lengths (got " +
              std::to_string(r.busy_quanta) + ", reference " +
              std::to_string(reference_quanta) + ")");
    check(r.wall_seconds * 1e3 >= virtual_wall_ms * 0.5,
          "wall pacing not faster than the virtual anchor");
  }

  table.print(std::cout);
  std::cout << "\nreading the curve: overhead_% = mean allot() time / quantum "
               "budget; pick the\nshortest quantum whose overhead share is "
               "acceptable — longer only adds staleness.\n";

  // ---- dispatch faceoff: steal pool vs inline, empty closures ----
  const bool smoke = krad::bench::smoke_mode();
  print_banner(std::cout, "dispatch faceoff: steal pool vs inline execution");
  Table faceoff({"config", "tasks", "steal_ns/task", "inline_ns/task",
                 "dispatch_ns/task", "inline/steal"});
  krad::bench::JsonReport report("bench_runtime");
  const std::vector<FaceoffConfig> configs =
      smoke ? std::vector<FaceoffConfig>{{"faceoff_large", 1, 10, 128}}
            : std::vector<FaceoffConfig>{{"faceoff_small", 2, 25, 160},
                                         {"faceoff_large", 4, 100, 320}};
  const int reps = smoke ? 1 : 3;
  for (const FaceoffConfig& config : configs) {
    // Interleaving would not help here: each mode's best-of-reps already
    // discards one-off noise, and a fresh executor per rep resets all state.
    const auto [steal_wall, steal_makespan] =
        run_faceoff(config, /*inline_execution=*/false, reps);
    const auto [inline_wall, inline_makespan] =
        run_faceoff(config, /*inline_execution=*/true, reps);
    check(steal_makespan == inline_makespan,
          std::string(config.label) +
              ": virtual-clock makespan identical across modes (steal " +
              std::to_string(steal_makespan) + ", inline " +
              std::to_string(inline_makespan) + ")");
    const double tasks = static_cast<double>(config.tasks());
    const double steal_ns = steal_wall * 1e9 / tasks;
    const double inline_ns = inline_wall * 1e9 / tasks;
    const double ratio = steal_wall > 0.0 ? inline_wall / steal_wall : 0.0;
    faceoff.row()
        .cell(config.label)
        .cell(static_cast<std::int64_t>(config.tasks()))
        .cell(steal_ns, 1)
        .cell(inline_ns, 1)
        .cell(steal_ns - inline_ns, 1)
        .cell(ratio, 3);
    report.begin_row(config.label);
    report.add("tasks", static_cast<long long>(config.tasks()));
    report.add("steal_ns_per_task", steal_ns);
    report.add("inline_ns_per_task", inline_ns);
    report.add("dispatch_ns_per_task", steal_ns - inline_ns);
    report.add("inline_over_steal", ratio);
    report.add("makespan", static_cast<long long>(steal_makespan));
  }
  faceoff.print(std::cout);
  std::cout << "\nthe committed floor lives in bench/baselines/"
               "BENCH_runtime.json (min_inline_over_steal):\nthe gate "
               "catches a steal-path regression, not host jitter — the "
               "measured\nvalues above are informational.\n";
  report.write("BENCH_runtime.json");
  return krad::bench::finish("bench_runtime");
}
