// Coverage for the threaded executor backend's building blocks: TaskTag
// packing, the Chase-Lev StealQueue (owner LIFO / thief FIFO, growth,
// concurrent claiming), and the StealPool (exactly-once execution, the
// category-serve invariant, forced steal-half migration, park/wake
// discipline and liveness, error capture).  Runs in the runtime-stress TSan
// CI job; the determinism sweep against sim::simulate lives in
// test_runtime_determinism.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/steal_pool.hpp"
#include "runtime/steal_queue.hpp"
#include "util/mutex.hpp"

namespace krad {
namespace {

// --- TaskTag ---------------------------------------------------------------

TEST(TaskTag, RoundTripsEveryField) {
  const TaskTag tag{7, 123456, 999, 3};
  const TaskTag back = TaskTag::decode(tag.encode());
  EXPECT_EQ(back.job, tag.job);
  EXPECT_EQ(back.vertex, tag.vertex);
  EXPECT_EQ(back.seq, tag.seq);
  EXPECT_EQ(back.category, tag.category);
}

TEST(TaskTag, RoundTripsAtFieldMaxima) {
  const TaskTag tag{static_cast<JobId>(TaskTag::kMaxJob),
                    static_cast<VertexId>(TaskTag::kMaxVertex),
                    static_cast<std::uint32_t>(TaskTag::kMaxSeq),
                    static_cast<Category>(TaskTag::kMaxCategory)};
  const TaskTag back = TaskTag::decode(tag.encode());
  EXPECT_EQ(back.job, tag.job);
  EXPECT_EQ(back.vertex, tag.vertex);
  EXPECT_EQ(back.seq, tag.seq);
  EXPECT_EQ(back.category, tag.category);
}

TEST(TaskTag, OverflowingAnyFieldThrows) {
  EXPECT_THROW(
      (TaskTag{static_cast<JobId>(TaskTag::kMaxJob + 1), 0, 0, 0}).encode(),
      std::logic_error);
  EXPECT_THROW(
      (TaskTag{0, static_cast<VertexId>(TaskTag::kMaxVertex + 1), 0, 0})
          .encode(),
      std::logic_error);
  EXPECT_THROW(
      (TaskTag{0, 0, static_cast<std::uint32_t>(TaskTag::kMaxSeq + 1), 0})
          .encode(),
      std::logic_error);
  EXPECT_THROW(
      (TaskTag{0, 0, 0, static_cast<Category>(TaskTag::kMaxCategory + 1)})
          .encode(),
      std::logic_error);
}

// --- StealQueue ------------------------------------------------------------

TEST(StealQueue, OwnerPopsLifo) {
  StealQueue q;
  q.push_bottom(1);
  q.push_bottom(2);
  q.push_bottom(3);
  EXPECT_EQ(q.pop_bottom(), std::optional<std::uint64_t>(3));
  EXPECT_EQ(q.pop_bottom(), std::optional<std::uint64_t>(2));
  EXPECT_EQ(q.pop_bottom(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(q.pop_bottom(), std::nullopt);
}

TEST(StealQueue, ThievesStealFifo) {
  StealQueue q;
  q.push_bottom(10);
  q.push_bottom(20);
  q.push_bottom(30);
  std::uint64_t out = 0;
  ASSERT_EQ(q.steal_top(out), StealQueue::StealResult::kStolen);
  EXPECT_EQ(out, 10u);
  ASSERT_EQ(q.steal_top(out), StealQueue::StealResult::kStolen);
  EXPECT_EQ(out, 20u);
  ASSERT_EQ(q.steal_top(out), StealQueue::StealResult::kStolen);
  EXPECT_EQ(out, 30u);
  EXPECT_EQ(q.steal_top(out), StealQueue::StealResult::kEmpty);
}

TEST(StealQueue, LastElementGoesToExactlyOneSide) {
  StealQueue q;
  q.push_bottom(42);
  std::uint64_t out = 0;
  ASSERT_EQ(q.steal_top(out), StealQueue::StealResult::kStolen);
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(q.pop_bottom(), std::nullopt);
}

TEST(StealQueue, GrowsPastInitialCapacityWithoutLosingElements) {
  StealQueue q(2);
  EXPECT_EQ(q.capacity(), 2u);
  for (std::uint64_t i = 0; i < 1000; ++i) q.push_bottom(i);
  EXPECT_GE(q.capacity(), 1000u);
  EXPECT_EQ(q.size_estimate(), 1000u);
  for (std::uint64_t i = 1000; i-- > 0;)
    EXPECT_EQ(q.pop_bottom(), std::optional<std::uint64_t>(i));
  EXPECT_EQ(q.pop_bottom(), std::nullopt);
}

TEST(StealQueue, ConcurrentOwnerAndThievesConsumeEachValueOnce) {
  // Owner pushes (with interleaved pops), three thieves steal concurrently;
  // growth triggers mid-stress.  Every value must be consumed exactly once.
  constexpr std::uint64_t kValues = 20000;
  StealQueue q(4);
  std::vector<std::vector<std::uint64_t>> stolen(3);
  std::vector<std::uint64_t> popped;
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&, t] {
      std::uint64_t out = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (q.steal_top(out) == StealQueue::StealResult::kStolen)
          stolen[static_cast<std::size_t>(t)].push_back(out);
        else
          std::this_thread::yield();
      }
      // Final drain so nothing is stranded between done and empty.
      while (q.steal_top(out) == StealQueue::StealResult::kStolen)
        stolen[static_cast<std::size_t>(t)].push_back(out);
    });
  }
  for (std::uint64_t i = 0; i < kValues; ++i) {
    q.push_bottom(i + 1);  // 0 is the slot default; keep values distinct
    if (i % 3 == 0) {
      if (const auto v = q.pop_bottom()) popped.push_back(*v);
    }
  }
  while (const auto v = q.pop_bottom()) popped.push_back(*v);
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  std::vector<std::uint64_t> all = popped;
  for (const auto& s : stolen) all.insert(all.end(), s.begin(), s.end());
  ASSERT_EQ(all.size(), kValues);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < kValues; ++i) EXPECT_EQ(all[i], i + 1);
}

// --- StealPool -------------------------------------------------------------

TEST(StealPool, RunsEveryTaskExactlyOnceAcrossCategories) {
  constexpr std::size_t kPerCategory = 500;
  StealPool pool({2, 3});
  std::vector<std::atomic<int>> hits(2 * kPerCategory);
  pool.set_runner([&](const TaskTag& tag) {
    hits[tag.category * kPerCategory + tag.vertex].fetch_add(
        1, std::memory_order_relaxed);
  });
  std::vector<std::uint64_t> batch;
  for (Category a = 0; a < 2; ++a) {
    batch.clear();
    for (VertexId v = 0; v < kPerCategory; ++v)
      batch.push_back(TaskTag{0, v, 0, a}.encode());
    pool.submit_batch(a, batch.data(), batch.size());
  }
  pool.wait_idle();
  EXPECT_EQ(pool.completed(), 2 * kPerCategory);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(StealPool, WorkersOnlyServeTheirCategory) {
  StealPool pool({2, 2, 1});
  std::atomic<int> mismatches{0};
  pool.set_runner([&](const TaskTag& tag) {
    if (StealPool::current_worker_category() != tag.category)
      mismatches.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::uint64_t> batch;
  for (int round = 0; round < 20; ++round) {
    for (Category a = 0; a < 3; ++a) {
      batch.clear();
      for (VertexId v = 0; v < 40; ++v)
        batch.push_back(TaskTag{0, v, 0, a}.encode());
      pool.submit_batch(a, batch.data(), batch.size());
    }
    pool.wait_idle();
  }
  EXPECT_EQ(mismatches.load(), 0);
  // The calling thread is not a worker.
  EXPECT_EQ(StealPool::current_worker_category(), kNotAStealWorker);
}

TEST(StealPool, BlockedGrabberForcesStealHalfMigration) {
  // One category, four workers, one 32-task batch.  The worker that grabs
  // first keeps the oldest task (vertex 0) and banks 15 more in its deque,
  // then vertex 0 blocks until the other 31 tasks finished — so those 15
  // banked tasks CAN ONLY complete by being stolen.  If stealing is broken
  // this test hangs (ctest timeout) instead of passing vacuously.
  StealPool pool({4});
  Mutex mu;
  CondVar cv;
  int done = 0;  // guarded by mu

  pool.set_runner([&](const TaskTag& tag) {
    if (tag.vertex == 0) {
      MutexLock lock(mu);
      while (done < 31) cv.wait(lock);
    } else {
      {
        MutexLock lock(mu);
        ++done;
      }
      cv.notify_all();
    }
  });
  std::vector<std::uint64_t> batch;
  for (VertexId v = 0; v < 32; ++v)
    batch.push_back(TaskTag{0, v, 0, 0}.encode());
  pool.submit_batch(0, batch.data(), batch.size());
  pool.wait_idle();
  EXPECT_EQ(pool.completed(), 32u);
  // The blocked worker's 15 banked tasks must all have migrated.
  EXPECT_GE(pool.steals(), 15u);
}

TEST(StealPool, IdleWorkersParkAndSubmitWakesThem) {
  StealPool pool({2});
  std::atomic<int> ran{0};
  pool.set_runner(
      [&](const TaskTag&) { ran.fetch_add(1, std::memory_order_relaxed); });

  // Drain one task, then give the workers time to spin out and park.
  pool.submit(TaskTag{0, 0, 0, 0});
  pool.wait_idle();
  while (pool.parks() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Keep submitting until a submit catches a worker inside the parked
  // window (waiter registered): wakes() must then move.  Progress of
  // wait_idle() across rounds is itself the liveness proof.
  bool woke = false;
  for (int round = 0; round < 500 && !woke; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.submit(TaskTag{0, static_cast<VertexId>(round + 1), 0, 0});
    pool.wait_idle();
    woke = pool.wakes() > 0;
  }
  EXPECT_TRUE(woke);
  EXPECT_GT(pool.parks(), 0u);
  EXPECT_EQ(ran.load(), static_cast<int>(pool.completed()));
}

TEST(StealPool, TaskExceptionSurfacesAtBarrierAndPoolStaysUsable) {
  StealPool pool({2});
  pool.set_runner([](const TaskTag& tag) {
    if (tag.vertex == 13) throw std::runtime_error("vertex 13 boom");
  });
  std::vector<std::uint64_t> batch;
  for (VertexId v = 0; v < 20; ++v)
    batch.push_back(TaskTag{0, v, 0, 0}.encode());
  pool.submit_batch(0, batch.data(), batch.size());
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Error cleared; the pool keeps serving.
  pool.submit(TaskTag{0, 1, 0, 0});
  pool.wait_idle();
  EXPECT_EQ(pool.completed(), 21u);
}

TEST(StealPool, ConstructorAndSubmitValidation) {
  EXPECT_THROW(StealPool({}), std::invalid_argument);
  EXPECT_THROW(StealPool({2, 0}), std::invalid_argument);

  StealPool pool({1});
  const std::uint64_t tag = TaskTag{0, 0, 0, 0}.encode();
  // No runner installed yet.
  EXPECT_THROW(pool.submit_batch(0, &tag, 1), std::logic_error);
  pool.set_runner([](const TaskTag&) {});
  // Unknown category.
  EXPECT_THROW(pool.submit_batch(7, &tag, 1), std::out_of_range);
  pool.submit_batch(0, &tag, 1);
  pool.wait_idle();
  // Runner is frozen after the first submit.
  EXPECT_THROW(pool.set_runner([](const TaskTag&) {}), std::logic_error);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_THROW(pool.submit_batch(0, &tag, 1), std::logic_error);
}

TEST(StealPool, OneWorkerPerCategoryNeverSleepsOnQueuedWork) {
  // Liveness regression: many tiny quanta on a single worker per category,
  // so every quantum ends with the worker spinning out and parking just as
  // the next batch lands.  A park/submit handshake that can miss the other
  // side leaves the worker asleep on a non-empty FIFO, and nothing else
  // drains it.  The old atomic handshake lost that race only rarely, so
  // this bounds the damage rather than proving the protocol (steal_pool.hpp
  // carries the ordering argument): polling completed() against a deadline
  // before each wait_idle() turns a lost wakeup into a failure, not a hang.
  constexpr int kQuanta = 100000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  StealPool pool({1, 1});
  std::atomic<std::uint64_t> ran{0};
  pool.set_runner(
      [&](const TaskTag&) { ran.fetch_add(1, std::memory_order_relaxed); });
  std::uint64_t submitted = 0;
  std::uint64_t batch[4];
  for (int q = 0; q < kQuanta; ++q) {
    for (Category a = 0; a < 2; ++a) {
      const auto count = static_cast<std::size_t>(1 + (q + 3 * a) % 4);
      for (std::size_t i = 0; i < count; ++i)
        batch[i] = TaskTag{0, static_cast<VertexId>(i), 0, a}.encode();
      pool.submit_batch(a, batch, count);
      submitted += count;
    }
    while (pool.completed() != submitted) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "quantum " << q << ": " << submitted - pool.completed()
          << " task(s) still pending at the deadline";
      std::this_thread::yield();
    }
    pool.wait_idle();
  }
  EXPECT_EQ(ran.load(), submitted);
}

}  // namespace
}  // namespace krad
