#pragma once
// The quantum executor's threaded backend (docs/RUNTIME.md "The steal
// backend").
//
// One StealPool serves ALL categories: each worker thread is tagged with
// the single category it serves (the live analogue of a functionally
// heterogeneous alpha-processor) and owns a Chase-Lev deque of packed
// TaskTags.  The executor submits batches into one injection FIFO per
// category; a worker looks for work in cost order:
//
//   1. its own deque (LIFO pop — cache-warm, uncontended);
//   2. the category injection FIFO (grabs half, keeps the first, banks the
//      rest in its deque);
//   3. same-category siblings' deques (steal-half: up to half the victim's
//      visible backlog, one claiming CAS per task — a single CAS advancing
//      top by n races the owner's pop_bottom, so batch-steals are a loop);
//   4. bounded spin with yields, then park on the category's condvar.
//
// The category-serve invariant — a worker never pops, steals or executes a
// task whose tag category differs from its own — holds structurally
// (injection FIFOs are per category, steal victims are same-category
// siblings) and is re-checked before every task body; a violation is
// reported through the same first-error channel as a throwing task.
//
// Parking (no lost wakeups): a worker parks on the injection FIFO itself —
// under the category mutex it waits while the FIFO is empty, and
// submit_batch() pushes and notifies under that same mutex.  The mutex
// totally orders "worker saw an empty FIFO and slept" against "submitter
// pushed and notified", so a push either lands before the predicate check
// (the worker does not sleep) or after the worker is inside cv.wait (the
// notify reaches it).  An atomic handshake — worker stores "I am waiting"
// then loads "work available", submitter stores the reverse then loads —
// is a store->load (Dekker) pattern: without seq_cst on BOTH sides each
// side may read the other's stale value, and a worker sleeps with tasks in
// its FIFO; with one worker per category wait_idle() then never returns.
// Work banked in a sibling's deque needs no wakeup: a worker only parks
// after its own deque ran dry, so every banked task has an awake owner.
//
// Quiescence: the executor's submit counter is published (release) before
// each batch is enqueued; workers bump a global completion counter
// (acq_rel) per task and ring the idle condvar when it reaches the
// published count, so wait_idle() is the quantum barrier, including
// first-exception capture and rethrow.
//
// Determinism note: the executor records trace events and releases DAG
// successors on ITS OWN thread in admission order (runtime_job.hpp);
// workers only run closures.  Scrambled completion order inside a quantum
// is therefore invisible, and virtual-clock runs stay bit-identical to
// sim::simulate (tests/test_runtime_determinism.cpp sweeps this backend).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/steal_queue.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace krad {

/// Sentinel for "calling thread is not a StealPool worker".
inline constexpr Category kNotAStealWorker = static_cast<Category>(~0u);

/// The per-task body every worker invokes.  Set once, before the first
/// submit; the executor captures its per-run context (jobs, fault plan,
/// trace session) here so tasks stay 64-bit tags.
using StealRunner = std::function<void(const TaskTag&)>;

class StealPool {
 public:
  /// `workers_per_category[a]` threads serve category a (each >= 1).
  explicit StealPool(const std::vector<int>& workers_per_category,
                     std::string name = "steal");
  ~StealPool();

  StealPool(const StealPool&) = delete;
  StealPool& operator=(const StealPool&) = delete;

  /// Install the task body.  Must be called before the first submit.
  void set_runner(StealRunner runner);

  /// Enqueue a batch of same-category tasks.  Executor thread only.
  void submit_batch(Category category, const std::uint64_t* tags,
                    std::size_t count);
  /// Single-task convenience (tests).
  void submit(const TaskTag& tag);

  /// Quantum barrier: block until every submitted task completed, then
  /// rethrow the first captured error (task exception or a category-serve
  /// violation), clearing it.  Executor thread only.
  void wait_idle();

  /// Stop workers and join.  Queued-but-unstarted tasks are abandoned
  /// (the executor only destroys the pool after a barrier, or while
  /// unwinding — when the quantum's results are moot anyway).  Idempotent;
  /// the destructor calls it.  After shutdown, submits throw.
  void shutdown();

  /// Category served by the calling worker thread, or kNotAStealWorker.
  /// The category-serve test hook (tests/test_steal.cpp).
  static Category current_worker_category() noexcept;

  std::size_t threads() const noexcept { return workers_.size(); }
  const std::string& name() const noexcept { return name_; }

  // Lifetime counters (any thread; relaxed reads of monotonic atomics).
  std::uint64_t completed() const noexcept;
  std::uint64_t steals() const noexcept;        ///< tasks taken from a sibling
  std::uint64_t failed_steals() const noexcept; ///< steal attempts that lost the race
  std::uint64_t parks() const noexcept;         ///< spin timeouts that slept
  std::uint64_t wakes() const noexcept;         ///< notifies issued to parked workers

 private:
  /// Injection FIFO + park lot for one category (parking protocol in the
  /// header comment).
  struct CategoryQueue {
    Mutex mu;
    CondVar cv;
    std::deque<std::uint64_t> fifo KRAD_GUARDED_BY(mu);
    std::size_t waiters KRAD_GUARDED_BY(mu) = 0;
  };

  struct Worker {
    StealQueue deque;
    Category served = 0;
    std::size_t index_in_category = 0;
    std::thread thread;
  };

  void worker_loop(std::size_t index);
  bool run_one(Worker& self);
  bool grab_batch(Worker& self);
  bool try_steal(Worker& self);
  void execute(const Worker& self, std::uint64_t packed);
  void record_error(std::exception_ptr error);
  void park(CategoryQueue& queue);

  std::string name_;
  std::vector<std::unique_ptr<CategoryQueue>> queues_;  // per category
  std::vector<std::unique_ptr<Worker>> workers_;        // grouped by category
  std::vector<std::pair<std::size_t, std::size_t>> category_span_;

  // Monotonic counters; ordering documented at each use site.  submitted_
  // is executor-local (single submitter); its release-published mirror is
  // what workers compare completions against for the idle ring.
  std::uint64_t submitted_ = 0;
  std::atomic<std::uint64_t> submitted_published_{0};  // NOLINT(krad-mutex-raw)
  std::atomic<std::uint64_t> completed_{0};            // NOLINT(krad-mutex-raw)
  std::atomic<bool> stop_{false};                      // NOLINT(krad-mutex-raw)
  std::atomic<std::uint64_t> steals_{0};               // NOLINT(krad-mutex-raw)
  std::atomic<std::uint64_t> failed_steals_{0};        // NOLINT(krad-mutex-raw)
  std::atomic<std::uint64_t> parks_{0};                // NOLINT(krad-mutex-raw)
  std::atomic<std::uint64_t> wakes_{0};                // NOLINT(krad-mutex-raw)

  Mutex idle_mu_;
  CondVar idle_cv_;
  Mutex err_mu_;
  std::exception_ptr first_error_ KRAD_GUARDED_BY(err_mu_);
  StealRunner runner_;
  bool runner_locked_ = false;  ///< first submit happened; runner_ is frozen
};

}  // namespace krad
