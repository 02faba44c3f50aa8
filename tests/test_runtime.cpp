// Live executor subsystem: runtime jobs and the quantum loop.
//
// The multithreaded tests here are the ones CI additionally runs under
// ThreadSanitizer (see .github/workflows/ci.yml): they exercise the
// steal-pool barrier and executor-side dispatch under real concurrency.
// The StealPool itself is covered in test_steal.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "runtime/executor.hpp"
#include "runtime/steal_pool.hpp"
#include "sched/greedy_cp.hpp"
#include "sched/kequi.hpp"

namespace krad {
namespace {

// --- WorkerPool -----------------------------------------------------------
//
// The worker-pool contract the executor's quantum barrier relies on, held
// by its threaded backend (StealPool): every submitted task runs, wait_idle
// is the barrier and rethrows the first error exactly once, and shutdown is
// final.

TEST(WorkerPool, RunsEverySubmittedTask) {
  StealPool pool({4}, "test");
  std::atomic<int> count{0};
  pool.set_runner([&count](const TaskTag&) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  for (VertexId v = 0; v < 200; ++v) pool.submit(TaskTag{0, v, 0, 0});
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.completed(), 200u);
  EXPECT_EQ(pool.threads(), 4u);
  EXPECT_EQ(pool.name(), "test");
}

TEST(WorkerPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  StealPool pool({2});
  pool.wait_idle();  // no tasks: must not block
  EXPECT_EQ(pool.completed(), 0u);
}

TEST(WorkerPool, RethrowsFirstTaskExceptionAndStaysUsable) {
  StealPool pool({3});
  std::atomic<int> count{0};
  pool.set_runner([&count](const TaskTag& tag) {
    if (tag.vertex == 10) throw std::runtime_error("task failed");
    count.fetch_add(1, std::memory_order_relaxed);
  });
  for (VertexId v = 0; v < 50; ++v) pool.submit(TaskTag{0, v, 0, 0});
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(count.load(), 49);  // the barrier drained everything else
  // The error is cleared; the pool keeps working.
  pool.submit(TaskTag{0, 50, 0, 0});
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(WorkerPool, RejectsZeroThreads) {
  EXPECT_THROW(StealPool({0}), std::logic_error);
  EXPECT_THROW(StealPool({}), std::logic_error);
}

TEST(WorkerPool, ManyConcurrentFailuresRethrowExactlyOne) {
  StealPool pool({4});
  std::atomic<int> started{0};
  std::atomic<bool> fail{true};
  pool.set_runner([&started, &fail](const TaskTag& tag) {
    started.fetch_add(1, std::memory_order_relaxed);
    if (fail.load(std::memory_order_relaxed))
      throw std::runtime_error("task " + std::to_string(tag.vertex));
  });
  std::vector<std::uint64_t> batch;
  for (VertexId v = 0; v < 32; ++v)
    batch.push_back(TaskTag{0, v, 0, 0}.encode());
  pool.submit_batch(0, batch.data(), batch.size());
  int rethrown = 0;
  try {
    pool.wait_idle();
  } catch (const std::runtime_error&) {
    ++rethrown;
  }
  EXPECT_EQ(rethrown, 1);         // first captured error only, not 32
  EXPECT_EQ(started.load(), 32);  // the barrier still drained every task
  // The error slot is cleared: a clean batch afterwards does not throw.
  fail.store(false, std::memory_order_relaxed);
  pool.submit_batch(0, batch.data(), 8);
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(started.load(), 40);
}

TEST(WorkerPool, ShutdownIsIdempotentAndRejectsLateSubmits) {
  StealPool pool({2});
  std::atomic<int> count{0};
  pool.set_runner([&count](const TaskTag&) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  for (VertexId v = 0; v < 10; ++v) pool.submit(TaskTag{0, v, 0, 0});
  // Shutdown abandons queued work, so the executor only shuts down after a
  // barrier; mirror that.
  pool.wait_idle();
  pool.shutdown();
  EXPECT_EQ(count.load(), 10);
  pool.shutdown();  // second call is a no-op
  EXPECT_THROW(pool.submit(TaskTag{0, 0, 0, 0}), std::logic_error);
  pool.wait_idle();  // idle pool: still safe to call
  EXPECT_EQ(pool.completed(), 10u);
}

// --- RuntimeJob -----------------------------------------------------------

TEST(RuntimeJob, InitialDesiresCountReadySources) {
  // map_reduce: all mappers are sources of category 0.
  RuntimeJob job(map_reduce(5, 2, 0, 1, 2));
  EXPECT_EQ(job.desire(0), 5);
  EXPECT_EQ(job.desire(1), 0);
  EXPECT_FALSE(job.finished());
  EXPECT_EQ(job.remaining_work(0), 5);
  EXPECT_EQ(job.remaining_work(1), 3);  // 2 reducers + sink
}

TEST(RuntimeJob, PopRunPromoteCycleMirrorsUnitSteps) {
  // chain 0 -> 1 -> 0.
  RuntimeJob job(category_chain({0, 1}, 3, 2));
  ASSERT_EQ(job.desire(0), 1);
  const VertexId first = job.pop_ready(0);
  job.run_task(first);
  // Enabled successor is not ready until the quantum barrier promotes it.
  EXPECT_EQ(job.desire(1), 0);
  job.promote_enabled();
  EXPECT_EQ(job.desire(1), 1);
  job.run_task(job.pop_ready(1));
  job.promote_enabled();
  job.run_task(job.pop_ready(0));
  job.promote_enabled();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.remaining_span(), 0);
}

TEST(RuntimeJob, RequiresSealedDag) {
  KDag dag(2);
  dag.add_vertex(0);
  EXPECT_THROW(RuntimeJob job(std::move(dag)), std::logic_error);
}

TEST(RuntimeJob, ClosuresRunExactlyOnceEachOnWorkers) {
  KDag dag = fork_join({0, 1}, 3, 8, 2);
  const std::size_t vertices = dag.num_vertices();
  auto job = std::make_unique<RuntimeJob>(std::move(dag));
  std::vector<std::atomic<int>> hits(vertices);
  for (VertexId v = 0; v < vertices; ++v)
    job->set_task(v, [&hits, v] { hits[v].fetch_add(1); });

  Executor executor(MachineConfig{{4, 4}});
  executor.submit(std::move(job));
  KRad scheduler;
  executor.run(scheduler);
  for (std::size_t v = 0; v < vertices; ++v) EXPECT_EQ(hits[v].load(), 1);
}

// --- Executor -------------------------------------------------------------

Executor heterogeneous_workload(ExecutorOptions options,
                                std::atomic<std::int64_t>* counter = nullptr) {
  Executor executor(MachineConfig{{3, 2, 1}}, options);
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    LayeredParams params;
    params.layers = 6;
    params.max_width = 5;
    params.num_categories = 3;
    auto job = std::make_unique<RuntimeJob>(layered_random(params, rng),
                                            "job-" + std::to_string(i));
    if (counter != nullptr)
      job->set_all_tasks([counter] { counter->fetch_add(1); });
    executor.submit(std::move(job), /*release=*/i);
  }
  return executor;
}

TEST(Executor, LiveTracePassesSectionTwoValidator) {
  std::atomic<std::int64_t> tasks{0};
  Executor executor = heterogeneous_workload({}, &tasks);
  Work total = 0;
  for (JobId id = 0; id < executor.size(); ++id)
    total += executor.job(id).dag().total_work();

  KRad scheduler;
  const RuntimeResult result = executor.run(scheduler);

  EXPECT_EQ(tasks.load(), total);
  ASSERT_NE(result.trace, nullptr);
  const auto infos = executor.validation_inputs();
  const auto violations =
      validate_schedule(std::span<const TraceJobInfo>(infos),
                        executor.machine(), *result.trace);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
}

TEST(Executor, KRadNeverAllotsBeyondDesireOrCapacity) {
  Executor executor = heterogeneous_workload({});
  const MachineConfig machine = executor.machine();
  KRad scheduler;
  const RuntimeResult result = executor.run(scheduler);
  ASSERT_NE(result.trace, nullptr);
  for (const StepRecord& step : result.trace->steps()) {
    for (Category a = 0; a < machine.categories(); ++a) {
      Work sum = 0;
      for (std::size_t j = 0; j < step.allot.size(); ++j) {
        EXPECT_LE(step.allot[j][a], step.desire[j][a]);
        sum += step.allot[j][a];
      }
      EXPECT_LE(sum, machine.processors[a]);
    }
  }
}

TEST(Executor, ResponsesRespectReleaseAndSpan) {
  Executor executor = heterogeneous_workload({});
  std::vector<Work> spans;
  for (JobId id = 0; id < executor.size(); ++id)
    spans.push_back(executor.job(id).dag().span());
  std::vector<Time> releases;
  for (JobId id = 0; id < executor.size(); ++id)
    releases.push_back(executor.release(id));

  KRad scheduler;
  const RuntimeResult result = executor.run(scheduler);
  for (JobId id = 0; id < result.completion.size(); ++id) {
    EXPECT_EQ(result.response[id], result.completion[id] - releases[id]);
    // Unit tasks: a job needs at least span() quanta after release.
    EXPECT_GE(result.response[id], spans[id]);
    EXPECT_LE(result.completion[id], result.makespan);
  }
  EXPECT_EQ(result.makespan, result.busy_quanta + result.idle_quanta);
}

TEST(Executor, ExecutedWorkMatchesAcrossThreadingModes) {
  ExecutorOptions inline_options;
  inline_options.inline_execution = true;
  Executor inline_exec = heterogeneous_workload(inline_options);
  Executor pooled_exec = heterogeneous_workload({});

  KRad s1, s2;
  const RuntimeResult a = inline_exec.run(s1);
  const RuntimeResult b = pooled_exec.run(s2);
  EXPECT_EQ(a.executed_work, b.executed_work);
  Work total_a = 0, total_b = 0;
  for (Work w : a.executed_work) total_a += w;
  for (Work w : b.executed_work) total_b += w;
  EXPECT_EQ(total_a, total_b);
}

TEST(Executor, WallClockModePacesQuanta) {
  ExecutorOptions options;
  options.clock = ClockMode::kWall;
  options.quantum_length = std::chrono::microseconds{1000};
  options.record_trace = false;
  Executor executor(MachineConfig{{2, 2, 2}}, options);
  auto job = std::make_unique<RuntimeJob>(category_chain({0, 1, 2}, 9, 3));
  executor.submit(std::move(job));

  KRad scheduler;
  const RuntimeResult result = executor.run(scheduler);
  EXPECT_EQ(result.busy_quanta, 9);  // a 9-chain takes 9 quanta
  // Every busy quantum sleeps out its remainder.
  EXPECT_GE(result.wall_seconds, 0.001 * static_cast<double>(
                                             result.busy_quanta - 1));
}

TEST(Executor, TaskExceptionPropagatesOutOfRun) {
  Executor executor(MachineConfig{{2}});
  auto job = std::make_unique<RuntimeJob>(fork_join({0}, 2, 4, 1));
  job->set_task(3, [] { throw std::runtime_error("closure exploded"); });
  executor.submit(std::move(job));
  KRad scheduler;
  EXPECT_THROW(executor.run(scheduler), std::runtime_error);
}

TEST(Executor, FeedbackWrappedRunCompletesAndRespectsCapacity) {
  ExecutorOptions options;
  options.feedback = FeedbackParams{};
  Executor executor = heterogeneous_workload(options);
  const MachineConfig machine = executor.machine();
  KRad scheduler;
  const RuntimeResult result = executor.run(scheduler);
  EXPECT_GT(result.makespan, 0);
  ASSERT_NE(result.trace, nullptr);
  // Feedback may grant above the true desire (it sees requests), but never
  // above capacity.
  for (const StepRecord& step : result.trace->steps()) {
    for (Category a = 0; a < machine.categories(); ++a) {
      Work sum = 0;
      for (std::size_t j = 0; j < step.allot.size(); ++j)
        sum += step.allot[j][a];
      EXPECT_LE(sum, machine.processors[a]);
    }
  }
}

TEST(Executor, ClairvoyantSchedulerReceivesRemainingState) {
  Executor executor = heterogeneous_workload({});
  GreedyCp scheduler;
  ASSERT_TRUE(scheduler.clairvoyant());
  const RuntimeResult result = executor.run(scheduler);
  const auto infos = executor.validation_inputs();
  const auto violations =
      validate_schedule(std::span<const TraceJobInfo>(infos),
                        executor.machine(), *result.trace);
  EXPECT_TRUE(violations.empty());
}

TEST(Executor, IdleGapsAreSkippedNotSlept) {
  Executor executor(MachineConfig{{2, 1}});
  executor.submit(std::make_unique<RuntimeJob>(category_chain({0, 1}, 4, 2)),
                  /*release=*/0);
  executor.submit(std::make_unique<RuntimeJob>(category_chain({1, 0}, 4, 2)),
                  /*release=*/1000);
  KRad scheduler;
  const RuntimeResult result = executor.run(scheduler);
  EXPECT_GT(result.idle_quanta, 900);
  EXPECT_LT(result.busy_quanta, 20);
  EXPECT_EQ(result.makespan, result.busy_quanta + result.idle_quanta);
}

TEST(Executor, EmptyRunReturnsZeroedResult) {
  // A scheduler that counts its invocations: with nothing submitted the
  // executor must not consult it at all.
  class Counting final : public KScheduler {
   public:
    void reset(const MachineConfig&, std::size_t) override { ++resets; }
    void allot(Time, std::span<const JobView>, const ClairvoyantView*,
               Allotment&) override {
      ++allots;
    }
    std::string name() const override { return "counting"; }
    int resets = 0;
    int allots = 0;
  };

  Executor executor(MachineConfig{{2, 2}});
  Counting scheduler;
  const RuntimeResult result = executor.run(scheduler);
  EXPECT_EQ(scheduler.resets, 0);
  EXPECT_EQ(scheduler.allots, 0);
  EXPECT_EQ(result.makespan, 0);
  EXPECT_EQ(result.busy_quanta, 0);
  EXPECT_EQ(result.idle_quanta, 0);
  EXPECT_TRUE(result.completion.empty());
  EXPECT_TRUE(result.outcome.empty());
  EXPECT_FALSE(result.aborted);
  ASSERT_EQ(result.utilization.size(), 2u);
  for (const double u : result.utilization) {
    EXPECT_FALSE(std::isnan(u));
    EXPECT_EQ(u, 0.0);
  }
  // Still single-shot: the empty run consumed the executor.
  EXPECT_THROW(executor.run(scheduler), std::logic_error);
}

TEST(Executor, QuantaLimitCarriesProgressSnapshot) {
  // A 30-deep chain cannot finish in 5 quanta; the abort must say how far
  // each job got (docs/RUNTIME.md).
  ExecutorOptions options;
  options.inline_execution = true;
  options.max_quanta = 5;
  Executor executor(MachineConfig{{2, 2}}, options);
  executor.submit(
      std::make_unique<RuntimeJob>(category_chain({0, 1}, 30, 2)));
  executor.submit(std::make_unique<RuntimeJob>(single_task(0, 2)));
  KRad scheduler;
  try {
    executor.run(scheduler);
    FAIL() << "expected QuantaLimitError";
  } catch (const QuantaLimitError& e) {
    EXPECT_EQ(e.quanta(), 6);
    ASSERT_EQ(e.progress().size(), 2u);
    EXPECT_EQ(e.progress()[0].job, 0);
    EXPECT_FALSE(e.progress()[0].finished);
    EXPECT_EQ(e.progress()[0].admitted, 6);  // one chain vertex per quantum
    EXPECT_EQ(e.progress()[0].total, 30);
    EXPECT_TRUE(e.progress()[1].finished);
    EXPECT_EQ(e.progress()[1].admitted, 1);
    EXPECT_NE(std::string(e.what()).find("max_quanta"), std::string::npos);
  }
}

TEST(Executor, GuardsAgainstMisuse) {
  Executor executor(MachineConfig{{2, 2}});
  executor.submit(std::make_unique<RuntimeJob>(single_task(0, 2)));
  // Category mismatch.
  EXPECT_THROW(executor.submit(std::make_unique<RuntimeJob>(single_task(0, 3))),
               std::logic_error);
  EXPECT_THROW(executor.submit(nullptr), std::logic_error);
  KRad scheduler;
  executor.run(scheduler);
  // Jobs are consumed: neither rerun nor late submission is allowed.
  EXPECT_THROW(executor.run(scheduler), std::logic_error);
  EXPECT_THROW(executor.submit(std::make_unique<RuntimeJob>(single_task(0, 2))),
               std::logic_error);
}

TEST(Executor, ThreadedRunRejectsTaskTagOverflowUpFront) {
  // K = 17 overflows TaskTag's 4-bit category field: a threaded run must
  // refuse before any task runs, naming the limit; inline has no tags.
  const MachineConfig wide{std::vector<int>(17, 1)};
  const auto run_wide = [&](bool inline_execution, std::atomic<int>& ran) {
    ExecutorOptions options;
    options.inline_execution = inline_execution;
    Executor executor(wide, options);
    auto job = std::make_unique<RuntimeJob>(category_chain({0, 16}, 4, 17));
    job->set_all_tasks([&ran] { ran.fetch_add(1); });
    executor.submit(std::move(job));
    KRad scheduler;
    return executor.run(scheduler);
  };
  std::atomic<int> threaded_ran{0};
  try {
    run_wide(/*inline_execution=*/false, threaded_ran);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("16 categories"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(threaded_ran.load(), 0);

  std::atomic<int> inline_ran{0};
  const RuntimeResult result = run_wide(/*inline_execution=*/true, inline_ran);
  EXPECT_EQ(inline_ran.load(), 4);
  EXPECT_EQ(result.makespan, 4);

  // Fault mode tags attempts with a 16-bit per-quantum index, bounded by
  // Sum_alpha P_alpha.  threads_per_category keeps a missing check cheap.
  ExecutorOptions faulty;
  faulty.task_deadline = std::chrono::seconds{1};
  faulty.threads_per_category = 1;
  Executor big(MachineConfig{{40000, 30000}}, faulty);
  big.submit(std::make_unique<RuntimeJob>(single_task(0, 2)));
  KRad scheduler;
  EXPECT_THROW(big.run(scheduler), std::logic_error);
}

TEST(Executor, OverAllocatingSchedulerIsRejected) {
  // K-EQUI splits capacity evenly regardless of desire; it never exceeds
  // P_alpha, so use a deliberately broken scheduler instead.
  class Greedy final : public KScheduler {
   public:
    void reset(const MachineConfig& machine, std::size_t) override {
      machine_ = machine;
    }
    void allot(Time, std::span<const JobView> active, const ClairvoyantView*,
               Allotment& out) override {
      for (std::size_t j = 0; j < active.size(); ++j)
        for (Category a = 0; a < machine_.categories(); ++a)
          out[j][a] = machine_.processors[a] + 1;
    }
    std::string name() const override { return "over-allocator"; }

   private:
    MachineConfig machine_;
  };

  Executor executor(MachineConfig{{2}});
  executor.submit(std::make_unique<RuntimeJob>(single_task(0, 1)));
  Greedy scheduler;
  EXPECT_THROW(executor.run(scheduler), std::logic_error);
}

}  // namespace
}  // namespace krad
