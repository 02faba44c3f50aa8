// Focused coverage for util/parallel.cpp — the fork-join helper the bench
// sweeps (and now the runtime's calibration loops) lean on.  Complements the
// smoke tests in test_util.cpp with the edge cases of the contract:
// exception capture/rethrow fidelity, empty and reversed ranges, explicit
// threads = 1, and oversubscription (threads > range size).
//
// Also home of the worker-pool wake-discipline regressions (this suite runs
// in the runtime-stress TSan CI job): submit() must wake at most one parked
// worker per task, and only when one is actually parked.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/steal_pool.hpp"
#include "util/parallel.hpp"

namespace krad {
namespace {

TEST(ParallelForEdge, ExplicitSingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(
      10, 20, [&](std::size_t i) { order.push_back(i); }, /*threads=*/1);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t j = 0; j < order.size(); ++j) EXPECT_EQ(order[j], 10 + j);
}

TEST(ParallelForEdge, OversubscribedThreadsStillCoverRangeOnce) {
  // Far more threads than indices: the pool must clamp to the range size and
  // still invoke each index exactly once.
  std::vector<std::atomic<int>> hits(4);
  parallel_for(
      0, 4, [&](std::size_t i) { hits[i].fetch_add(1); }, /*threads=*/64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForEdge, EmptyRangeNeverInvokesClosure) {
  int calls = 0;
  parallel_for(0, 0, [&](std::size_t) { ++calls; }, /*threads=*/8);
  parallel_for(100, 100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForEdge, ReversedRangeIsTreatedAsEmpty) {
  int calls = 0;
  parallel_for(10, 3, [&](std::size_t) { ++calls; }, /*threads=*/4);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForEdge, RethrowPreservesExceptionTypeAndMessage) {
  try {
    parallel_for(
        0, 8,
        [](std::size_t i) {
          if (i == 3) throw std::out_of_range("index 3 rejected");
        },
        /*threads=*/4);
    FAIL() << "expected an exception";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()), "index 3 rejected");
  }
}

TEST(ParallelForEdge, SequentialPathPropagatesExceptionDirectly) {
  // threads = 1 takes the no-pool path; the exception must still escape.
  EXPECT_THROW(parallel_for(
                   0, 5,
                   [](std::size_t i) {
                     if (i == 2) throw std::runtime_error("serial boom");
                   },
                   /*threads=*/1),
               std::runtime_error);
}

TEST(ParallelForEdge, ManyConcurrentThrowersYieldExactlyOneException) {
  // Every index throws; exactly one exception must surface (the first
  // captured) and the call must not terminate or deadlock.
  std::atomic<int> attempts{0};
  int caught = 0;
  try {
    parallel_for(
        0, 64,
        [&](std::size_t i) {
          attempts.fetch_add(1);
          throw std::runtime_error("worker " + std::to_string(i));
        },
        /*threads=*/8);
  } catch (const std::runtime_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
  EXPECT_GE(attempts.load(), 1);
}

TEST(ParallelForEdge, FailureStopsHandingOutNewIndices) {
  // After a throw the pool sets its failed flag; workers drain quickly
  // instead of chewing through the whole range.  With a huge range this
  // completing at all (and fast) is the observable guarantee.
  std::atomic<std::size_t> done{0};
  EXPECT_THROW(parallel_for(
                   0, 1u << 20,
                   [&](std::size_t i) {
                     if (i == 0) throw std::runtime_error("early");
                     done.fetch_add(1);
                   },
                   /*threads=*/4),
               std::runtime_error);
  EXPECT_LT(done.load(), 1u << 20);
}

// --- Worker-pool wake discipline (krad_rt_steal_wakes_total) ---------------

TEST(WorkerPoolWake, ParkedWorkersGetExactlyOneWakePerTask) {
  StealPool pool({3}, "wake-test");
  pool.set_runner([](const TaskTag&) {});

  // Let every worker park.  Nothing is queued and nothing notifies, so a
  // worker that registered as a waiter stays parked (parks() counts each
  // entry into the wait, not spurious wakeups inside it).
  while (pool.parks() < pool.threads())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(pool.parks(), pool.threads());
  ASSERT_EQ(pool.wakes(), 0u);

  // One task against a fully parked pool: exactly one notify, not a
  // thundering herd.
  pool.submit(TaskTag{0, 0, 0, 0});
  pool.wait_idle();
  EXPECT_EQ(pool.wakes(), 1u);

  // A burst never issues more wakes than tasks (submits skip notifies for
  // workers that are already awake, never add extras).
  std::vector<std::uint64_t> batch;
  for (VertexId v = 1; v <= 100; ++v)
    batch.push_back(TaskTag{0, v, 0, 0}.encode());
  pool.submit_batch(0, batch.data(), batch.size());
  pool.wait_idle();
  EXPECT_EQ(pool.completed(), 101u);
  EXPECT_LE(pool.wakes(), 101u);
  EXPECT_GE(pool.wakes(), 1u);
}

TEST(WorkerPoolWake, ExecutorRunKeepsWakesBoundedByTasks) {
  // End-to-end regression on the krad_rt_* metrics: across a multi-quantum
  // threaded run, every wake corresponds to a submitted task, so
  // krad_rt_steal_wakes_total <= sum(krad_rt_executed_total); and the
  // wall clock sleeps out each 1 ms quantum after its barrier, long past a
  // worker's short idle spin, so workers are parked when the next quantum's
  // batch lands and at least one wake must have been issued.
  obs::MetricsRegistry registry;
  obs::Observability sinks;
  sinks.metrics = &registry;

  const Category categories = 2;
  ExecutorOptions options;
  options.clock = ClockMode::kWall;
  options.quantum_length = std::chrono::microseconds{1000};
  options.obs = &sinks;
  const MachineConfig machine{{2, 2}};
  Executor executor(machine, options);
  Rng rng(99);
  for (int i = 0; i < 3; ++i) {
    LayeredParams params;
    params.layers = 6;
    params.max_width = 4;
    params.num_categories = categories;
    executor.submit(std::make_unique<RuntimeJob>(layered_random(params, rng)));
  }
  KRad scheduler;
  const RuntimeResult result = executor.run(scheduler);
  ASSERT_GT(result.busy_quanta, 1);

  std::int64_t total_tasks = 0;
  for (Category a = 0; a < categories; ++a)
    total_tasks += registry
                       .counter("krad_rt_executed_total",
                                {{"cat", std::to_string(a)}})
                       .value();
  const std::int64_t total_wakes =
      registry.counter("krad_rt_steal_wakes_total").value();
  EXPECT_EQ(total_tasks, result.executed_work[0] + result.executed_work[1]);
  EXPECT_GT(total_tasks, 0);
  EXPECT_GE(total_wakes, 1);
  EXPECT_LE(total_wakes, total_tasks);
}

}  // namespace
}  // namespace krad
