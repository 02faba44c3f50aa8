#include "runtime/steal_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace krad {

namespace {

// Scan rounds a worker burns (with a yield each) before it takes the park
// path.  Small on purpose: the container and CI runners are core-starved,
// so long spins just steal cycles from the thread that has the work.
constexpr int kIdleScansBeforePark = 8;
// Upper bound on tasks moved per injection grab / per steal round, keeping
// any single worker from hoarding a whole quantum's backlog.
constexpr std::size_t kBatchCap = 32;

thread_local Category tl_worker_category = kNotAStealWorker;

}  // namespace

Category StealPool::current_worker_category() noexcept {
  return tl_worker_category;
}

StealPool::StealPool(const std::vector<int>& workers_per_category,
                     std::string name)
    : name_(std::move(name)) {
  if (workers_per_category.empty())
    throw std::invalid_argument("StealPool: no categories");
  queues_.reserve(workers_per_category.size());
  category_span_.reserve(workers_per_category.size());
  std::size_t total = 0;
  for (std::size_t cat = 0; cat < workers_per_category.size(); ++cat) {
    if (workers_per_category[cat] < 1)
      throw std::invalid_argument("StealPool: category " +
                                  std::to_string(cat) + " has no workers");
    queues_.push_back(std::make_unique<CategoryQueue>());
    const std::size_t begin = total;
    total += static_cast<std::size_t>(workers_per_category[cat]);
    category_span_.emplace_back(begin, total);
  }
  workers_.reserve(total);
  for (std::size_t cat = 0; cat < workers_per_category.size(); ++cat) {
    const auto [begin, end] = category_span_[cat];
    for (std::size_t i = begin; i < end; ++i) {
      auto w = std::make_unique<Worker>();
      w->served = static_cast<Category>(cat);
      w->index_in_category = i - begin;
      workers_.push_back(std::move(w));
    }
  }
  // Spawn only after the worker table is fully built: threads index into
  // workers_ and category_span_ freely.
  for (std::size_t i = 0; i < workers_.size(); ++i)
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
}

StealPool::~StealPool() { shutdown(); }

void StealPool::set_runner(StealRunner runner) {
  if (runner_locked_)
    throw std::logic_error("StealPool: set_runner after first submit");
  runner_ = std::move(runner);
}

void StealPool::submit_batch(Category category, const std::uint64_t* tags,
                             std::size_t count) {
  if (stop_.load(std::memory_order_acquire))
    throw std::logic_error("StealPool: submit after shutdown");
  if (category >= queues_.size())
    throw std::out_of_range("StealPool: unknown category " +
                            std::to_string(category));
  if (!runner_) throw std::logic_error("StealPool: submit without a runner");
  if (count == 0) return;
  runner_locked_ = true;
  // Publish the new total BEFORE the tasks become runnable: a worker that
  // completes the batch's last task must observe a target >= the count it
  // reaches, or wait_idle() could be rung early (protocol in the header).
  submitted_ += count;
  submitted_published_.store(submitted_, std::memory_order_release);
  CategoryQueue& q = *queues_[category];
  std::size_t to_wake = 0;
  {
    // Push and notify under one lock: the park predicate (FIFO empty) is
    // checked under it too, so a parking worker cannot miss this batch.
    MutexLock lock(q.mu);
    for (std::size_t i = 0; i < count; ++i) q.fifo.push_back(tags[i]);
    to_wake = std::min(q.waiters, count);
    for (std::size_t i = 0; i < to_wake; ++i) q.cv.notify_one();
  }
  if (to_wake > 0) wakes_.fetch_add(to_wake, std::memory_order_relaxed);
}

void StealPool::submit(const TaskTag& tag) {
  const std::uint64_t packed = tag.encode();
  submit_batch(tag.category, &packed, 1);
}

void StealPool::wait_idle() {
  if (completed_.load(std::memory_order_acquire) != submitted_) {
    MutexLock lock(idle_mu_);
    while (completed_.load(std::memory_order_acquire) != submitted_)
      idle_cv_.wait(lock);
  }
  std::exception_ptr error;
  {
    MutexLock lock(err_mu_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void StealPool::shutdown() {
  if (stop_.exchange(true, std::memory_order_seq_cst)) return;
  for (auto& q : queues_) {
    {
      // Empty critical section: any worker past its predicate check is
      // inside cv.wait before we can acquire mu, so the notify lands.
      MutexLock lock(q->mu);
    }
    q->cv.notify_all();
  }
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

std::uint64_t StealPool::completed() const noexcept {
  return completed_.load(std::memory_order_relaxed);
}
std::uint64_t StealPool::steals() const noexcept {
  return steals_.load(std::memory_order_relaxed);
}
std::uint64_t StealPool::failed_steals() const noexcept {
  return failed_steals_.load(std::memory_order_relaxed);
}
std::uint64_t StealPool::parks() const noexcept {
  return parks_.load(std::memory_order_relaxed);
}
std::uint64_t StealPool::wakes() const noexcept {
  return wakes_.load(std::memory_order_relaxed);
}

void StealPool::worker_loop(std::size_t index) {
  Worker& self = *workers_[index];
  tl_worker_category = self.served;
  CategoryQueue& q = *queues_[self.served];
  int idle_scans = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (run_one(self)) {
      idle_scans = 0;
      continue;
    }
    if (++idle_scans < kIdleScansBeforePark) {
      std::this_thread::yield();
      continue;
    }
    park(q);
    idle_scans = 0;
  }
}

bool StealPool::run_one(Worker& self) {
  if (auto tag = self.deque.pop_bottom()) {
    execute(self, *tag);
    return true;
  }
  if (grab_batch(self)) return true;
  return try_steal(self);
}

bool StealPool::grab_batch(Worker& self) {
  CategoryQueue& q = *queues_[self.served];
  std::uint64_t batch[kBatchCap];
  std::size_t got = 0;
  {
    MutexLock lock(q.mu);
    const std::size_t n = q.fifo.size();
    if (n == 0) return false;
    // Take half (round up) so one grab leaves surplus visible to siblings
    // arriving a moment later, instead of serialising the whole FIFO
    // through whichever worker got there first.
    const std::size_t take = std::min((n + 1) / 2, kBatchCap);
    for (; got < take; ++got) {
      batch[got] = q.fifo.front();
      q.fifo.pop_front();
    }
  }
  // Run the oldest now; bank the rest bottom-up so pop order stays FIFO-ish
  // for this batch while still being stealable from the top.
  for (std::size_t i = got; i > 1; --i) self.deque.push_bottom(batch[i - 1]);
  execute(self, batch[0]);
  return true;
}

bool StealPool::try_steal(Worker& self) {
  const auto [begin, end] = category_span_[self.served];
  const std::size_t siblings = end - begin;
  if (siblings <= 1) return false;
  for (std::size_t offset = 1; offset < siblings; ++offset) {
    Worker& victim =
        *workers_[begin + (self.index_in_category + offset) % siblings];
    const std::size_t visible = victim.deque.size_estimate();
    if (visible == 0) continue;
    // Steal-half, one claiming CAS per task: a single CAS advancing top by
    // k would race the owner's pop_bottom on the last element.
    const std::size_t want = std::min((visible + 1) / 2, kBatchCap);
    std::uint64_t first = 0;
    std::size_t got = 0;
    while (got < want) {
      std::uint64_t tag = 0;
      const StealQueue::StealResult r = victim.deque.steal_top(tag);
      if (r != StealQueue::StealResult::kStolen) break;
      if (got == 0)
        first = tag;
      else
        self.deque.push_bottom(tag);
      ++got;
    }
    if (got > 0) {
      steals_.fetch_add(got, std::memory_order_relaxed);
      execute(self, first);
      return true;
    }
    // Saw backlog but claimed nothing: lost the race to the owner or
    // another thief.
    failed_steals_.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void StealPool::execute(const Worker& self, std::uint64_t packed) {
  const TaskTag tag = TaskTag::decode(packed);
  if (tag.category != self.served) {
    // Category-serve invariant (header): structurally unreachable; treated
    // as a first-class error rather than silently running on the wrong
    // functional unit.
    record_error(std::make_exception_ptr(std::logic_error(
        "StealPool '" + name_ + "': worker serving category " +
        std::to_string(self.served) + " drew a category " +
        std::to_string(tag.category) + " task")));
  } else {
    try {
      runner_(tag);
    } catch (...) {
      record_error(std::current_exception());
    }
  }
  const std::uint64_t done =
      completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done == submitted_published_.load(std::memory_order_acquire)) {
    {
      // Empty critical section: wait_idle() between its counter check and
      // its cv wait holds idle_mu_, so the notify cannot fall in between.
      MutexLock lock(idle_mu_);
    }
    idle_cv_.notify_all();
  }
}

void StealPool::record_error(std::exception_ptr error) {
  MutexLock lock(err_mu_);
  if (!first_error_) first_error_ = std::move(error);
}

void StealPool::park(CategoryQueue& q) {
  MutexLock lock(q.mu);
  // Predicate under mu, the lock submit_batch pushes under (header comment).
  if (stop_.load(std::memory_order_acquire) || !q.fifo.empty()) return;
  parks_.fetch_add(1, std::memory_order_relaxed);
  ++q.waiters;
  while (!stop_.load(std::memory_order_acquire) && q.fifo.empty())
    q.cv.wait(lock);
  --q.waiters;
}

}  // namespace krad
