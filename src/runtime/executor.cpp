#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "fault/injector.hpp"
#include "runtime/steal_pool.hpp"

namespace krad {

namespace {

std::int64_t ns_between(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Resolved observability handles for one Executor::run (see
/// docs/OBSERVABILITY.md).  Default-constructed = everything off.
struct RtObs {
  obs::TraceSession* trace = nullptr;
  obs::Counter* quanta = nullptr;
  obs::Histogram* quantum_ns = nullptr;       // wall ns per busy quantum
  obs::Histogram* sched_latency_ns = nullptr; // wall ns in KScheduler::allot
  obs::Histogram* barrier_ns = nullptr;       // dispatch + quantum barrier
  obs::Counter* failed_attempts = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* timeouts = nullptr;
  // Steal-pool counters (zero under inline execution).
  obs::Counter* steal_tasks = nullptr;
  obs::Counter* steal_failed = nullptr;
  obs::Counter* steal_parks = nullptr;
  obs::Counter* steal_wakes = nullptr;
  std::vector<obs::Counter*> allotted;   // per category
  std::vector<obs::Counter*> executed;   // per category
  std::vector<obs::Gauge*> queue_depth;  // per category, this quantum
  std::vector<obs::Gauge*> capacity;     // per category, effective

  bool metrics_on = false;
  bool on = false;

  RtObs() = default;
  RtObs(const obs::Observability* sinks, const MachineConfig& machine) {
    if (sinks == nullptr) return;
    trace = obs::kTracingEnabled ? sinks->trace : nullptr;
    obs::MetricsRegistry* reg = sinks->metrics;
    metrics_on = reg != nullptr;
    on = metrics_on || trace != nullptr;
    if (!metrics_on) return;
    quanta = &reg->counter("krad_rt_quanta_total", {}, "busy quanta executed");
    quantum_ns = &reg->histogram("krad_rt_quantum_ns",
                                 obs::exponential_buckets(1000, 4, 12), {},
                                 "wall ns per busy quantum");
    sched_latency_ns = &reg->histogram("krad_rt_sched_latency_ns",
                                       obs::exponential_buckets(250, 4, 10),
                                       {}, "wall ns per scheduler decision");
    barrier_ns = &reg->histogram("krad_rt_barrier_ns",
                                 obs::exponential_buckets(1000, 4, 12), {},
                                 "wall ns from first dispatch to barrier");
    failed_attempts = &reg->counter("krad_rt_failed_attempts_total", {},
                                    "task attempts that failed (any cause)");
    retries = &reg->counter("krad_rt_retries_total", {},
                            "failed attempts re-queued under the policy");
    timeouts = &reg->counter("krad_rt_timeouts_total", {},
                             "failed attempts caused by the task deadline");
    steal_tasks = &reg->counter("krad_rt_steal_tasks_total", {},
                                "tasks stolen from sibling worker deques");
    steal_failed = &reg->counter("krad_rt_steal_failed_total", {},
                                 "steal attempts that lost the claiming race");
    steal_parks = &reg->counter("krad_rt_steal_parks_total", {},
                                "steal workers that parked after spinning");
    steal_wakes = &reg->counter("krad_rt_steal_wakes_total", {},
                                "notifies issued to parked steal workers");
    const auto k = static_cast<Category>(machine.categories());
    for (Category a = 0; a < k; ++a) {
      const obs::Labels labels{{"cat", std::to_string(a)}};
      allotted.push_back(&reg->counter("krad_rt_allotted_total", labels,
                                       "allotted processor-quanta"));
      executed.push_back(&reg->counter("krad_rt_executed_total", labels,
                                       "task attempts that succeeded"));
      queue_depth.push_back(&reg->gauge(
          "krad_rt_queue_depth", labels,
          "tasks dispatched to the category this quantum, 0 after the "
          "barrier"));
      capacity.push_back(&reg->gauge("krad_rt_capacity", labels,
                                     "effective processors"));
      capacity.back()->set(machine.processors[a]);
    }
  }
};

/// One dispatched (not injected-failed) attempt of the current quantum,
/// in admission order.  `proc` was reserved at admission; whether the
/// attempt succeeded is known only after the quantum barrier.
struct PendingAttempt {
  JobId id = kInvalidJob;
  RuntimeJob* job = nullptr;
  VertexId vertex = kInvalidVertex;
  Category category = 0;
  int attempt = 0;
  int proc = -1;
};

/// Worker-side failure report: index into the pending-attempt vector plus
/// the failure kind (closure threw, or overran the deadline).
struct AttemptFailure {
  std::size_t seq = 0;
  FaultKind kind = FaultKind::kTaskFailure;
};

/// Threaded runs ship every attempt to the steal pool as a 64-bit TaskTag;
/// throw if `value` overflows the tag field `what` (at most `max`).
void check_tag_limit(const char* what, std::uint64_t value,
                     std::uint64_t max) {
  if (value > max)
    throw std::logic_error("Executor: threaded execution supports at most " +
                           std::to_string(max) + " " + what + ", got " +
                           std::to_string(value) +
                           " (inline_execution has no such limit)");
}

void check_vertex_limit(const RuntimeJob& job) {
  check_tag_limit("vertices per DAG", job.dag().num_vertices(),
                  TaskTag::kMaxVertex + 1);
}

std::string limit_message(Time quanta, const std::string& scheduler,
                          const std::vector<JobProgress>& progress) {
  std::size_t unfinished = 0;
  for (const JobProgress& p : progress)
    if (!p.finished) ++unfinished;
  return "Executor: exceeded max_quanta (" + std::to_string(quanta) +
         " busy quanta) with scheduler " + scheduler + "; " +
         std::to_string(unfinished) + " of " +
         std::to_string(progress.size()) + " job(s) unfinished";
}

}  // namespace

QuantaLimitError::QuantaLimitError(Time quanta,
                                   std::vector<JobProgress> progress,
                                   const std::string& scheduler)
    : std::runtime_error(limit_message(quanta, scheduler, progress)),
      quanta_(quanta),
      progress_(std::move(progress)) {}

Executor::Executor(MachineConfig machine, ExecutorOptions options)
    : machine_(std::move(machine)), options_(options) {
  if (machine_.categories() == 0)
    throw std::logic_error("Executor: machine with no categories");
  for (int p : machine_.processors)
    if (p < 1) throw std::logic_error("Executor: category with no processors");
  if (options_.retry.max_attempts < 1)
    throw std::logic_error("Executor: retry.max_attempts must be >= 1");
  if (options_.live) live_ = std::make_unique<LiveState>();
}

JobId Executor::submit(std::unique_ptr<RuntimeJob> job, Time release) {
  if (ran_) throw std::logic_error("Executor: submit after run");
  if (job == nullptr) throw std::logic_error("Executor: null job");
  if (job->dag().num_categories() != machine_.categories())
    throw std::logic_error("Executor: job / machine category mismatch");
  if (release < 0) throw std::logic_error("Executor: negative release");
  jobs_.push_back(std::move(job));
  releases_.push_back(release);
  return static_cast<JobId>(jobs_.size() - 1);
}

bool Executor::submit_live(std::unique_ptr<RuntimeJob> job,
                           std::uint64_t ticket) {
  if (!options_.live)
    throw std::logic_error("Executor::submit_live: not a live executor");
  if (job == nullptr) throw std::logic_error("Executor: null job");
  if (job->dag().num_categories() != machine_.categories())
    throw std::logic_error("Executor: job / machine category mismatch");
  if (!options_.inline_execution) check_vertex_limit(*job);
  {
    MutexLock lock(live_->mu);
    if (live_->drain) return false;
    live_->inbox.push_back(LiveSubmission{std::move(job), ticket});
  }
  live_->cv.notify_one();
  return true;
}

void Executor::cancel_live(std::uint64_t ticket) {
  if (!options_.live)
    throw std::logic_error("Executor::cancel_live: not a live executor");
  {
    MutexLock lock(live_->mu);
    live_->cancel_requests.push_back(ticket);
  }
  live_->cv.notify_one();
}

void Executor::drain() {
  if (!options_.live)
    throw std::logic_error("Executor::drain: not a live executor");
  {
    MutexLock lock(live_->mu);
    live_->drain = true;
  }
  live_->cv.notify_one();
}

bool Executor::draining() const {
  if (!options_.live) return false;
  MutexLock lock(live_->mu);
  return live_->drain;
}

std::size_t Executor::live_load() const {
  if (!options_.live) return 0;
  MutexLock lock(live_->mu);
  return live_->inbox.size() + live_->resident;
}

std::vector<TraceJobInfo> Executor::validation_inputs() const {
  if (options_.live)
    throw std::logic_error(
        "Executor::validation_inputs: batch mode only (live slots are "
        "reused across jobs)");
  std::vector<TraceJobInfo> infos;
  infos.reserve(jobs_.size());
  for (JobId id = 0; id < jobs_.size(); ++id) {
    TraceJobInfo info;
    info.dag = &jobs_[id]->dag();
    info.release = releases_[id];
    // After a faulted/cancelled run, abandoned jobs have not executed all
    // vertices; skip only the coverage check for them.
    info.expect_complete =
        !ran_ || (jobs_[id]->finished() &&
                  jobs_[id]->outcome() == JobOutcome::kCompleted);
    infos.push_back(info);
  }
  return infos;
}

RuntimeResult Executor::run(KScheduler& scheduler) {
  using SteadyClock = std::chrono::steady_clock;
  if (ran_)
    throw std::logic_error("Executor::run: jobs already consumed by a run");
  ran_ = true;

  const bool live = options_.live;
  if (live) {
    if (!jobs_.empty())
      throw std::logic_error(
          "Executor: live mode takes jobs via submit_live, not submit");
    if (options_.live_slots < 1)
      throw std::logic_error("Executor: live_slots must be >= 1");
    if (options_.fault_plan != nullptr || options_.task_deadline.has_value())
      throw std::logic_error(
          "Executor: live mode is incompatible with fault_plan/task_deadline");
    jobs_.resize(options_.live_slots);
    releases_.assign(options_.live_slots, 0);
  }
  const bool record_trace = options_.record_trace && !live;

  const auto k = static_cast<Category>(machine_.categories());
  const std::size_t n = jobs_.size();
  RuntimeResult result;
  result.completion.assign(n, 0);
  result.response.assign(n, 0);
  result.executed_work.assign(k, 0);
  result.allotted.assign(k, 0);
  result.utilization.assign(k, 0.0);
  // Nothing submitted: a zeroed result, without touching the scheduler.
  if (n == 0) return result;

  // Optional A-GREEDY desire estimation layered over the caller's scheduler.
  KScheduler* sched = &scheduler;
  std::unique_ptr<FeedbackScheduler> feedback;
  if (options_.feedback) {
    feedback = std::make_unique<FeedbackScheduler>(&scheduler,
                                                   *options_.feedback);
    sched = feedback.get();
  }

  sched->reset(machine_, n);
  RuntimeObserver observer(machine_, record_trace);

  // Observability: pre-resolve handles; null sinks keep every guard false.
  const RtObs ro(options_.obs, machine_);
  if (ro.trace != nullptr) ro.trace->name_thread("executor");
  Work prev_failed = 0, prev_retries = 0, prev_timeouts = 0;

  // Fault layer (docs/FAULTS.md).  Fault mode reroutes admission through
  // attempt tracking; without it the fast path below is untouched.
  const bool fault_mode =
      options_.fault_plan != nullptr || options_.task_deadline.has_value();
  std::optional<FaultInjector> injector;
  if (options_.fault_plan != nullptr)
    injector.emplace(*options_.fault_plan, machine_);
  const bool degrading = injector && injector->has_capacity_events();
  std::vector<int> effective = machine_.processors;
  if (degrading) observer.init_capacity(effective);
  const RetryPolicy& retry = options_.retry;

  // Jobs not yet released, by release time (ascending, stable by id) —
  // the same admission order as the simulator.  Live mode has no pre-known
  // releases: submissions stream through the inbox instead.
  std::vector<JobId> pending;
  std::size_t next_pending = 0;
  if (!live) {
    pending.resize(n);
    for (JobId i = 0; i < n; ++i) pending[i] = i;
    std::stable_sort(pending.begin(), pending.end(), [&](JobId a, JobId b) {
      return releases_[a] < releases_[b];
    });
  }

  // Live-mode slot bookkeeping: free slots kept as a min-heap so the
  // lowest slot is assigned first (deterministic under a scripted pump).
  std::vector<JobId> free_slots;
  std::vector<std::uint64_t> tickets(live ? n : 0, 0);
  std::vector<std::uint64_t> cancels;
  std::vector<std::pair<std::uint64_t, JobId>> accepted;
  std::vector<LiveCompletion> dropped;  // inbox jobs cancelled before a slot
  if (live) {
    free_slots.reserve(n);
    for (JobId i = 0; i < n; ++i) free_slots.push_back(i);
    std::make_heap(free_slots.begin(), free_slots.end(),
                   std::greater<JobId>{});
  }
  const auto notify_complete = [&](const LiveCompletion& done) {
    if (options_.on_complete) options_.on_complete(done);
  };

  std::vector<JobId> active;
  std::vector<JobView> views;
  Allotment allot;
  ClairvoyantView clair;
  const bool wants_clair = sched->clairvoyant();

  // Per-quantum fault bookkeeping (reused across quanta).
  std::vector<PendingAttempt> attempts;
  std::vector<AttemptFailure> failures;
  Mutex failures_mu;
  std::optional<TaskFailedError> fatal;

  // The one attempt body, run on this thread (inline execution) or by a
  // steal worker.  current_vt carries the virtual quantum into task spans:
  // the executor's store is sequenced before the batch enqueue, whose
  // mutex/atomic chain synchronizes-with the worker's take, so relaxed
  // suffices and TSan agrees.
  std::atomic<std::int64_t> current_vt{0};  // NOLINT(krad-mutex-raw)
  const auto run_attempt = [this, &failures, &failures_mu, &current_vt,
                            fault_mode, tr = ro.trace,
                            deadline = options_.task_deadline,
                            run_token = options_.cancellation](
                               const TaskTag& tag) {
    RuntimeJob* job = jobs_[tag.job].get();
    const double span_start = tr != nullptr ? tr->now_us() : 0.0;
    bool failed = false;
    FaultKind kind = FaultKind::kTaskFailure;
    if (!fault_mode) {
      // A throwing closure unwinds run() directly (inline) or is captured
      // and rethrown at the barrier (steal).
      job->run_closure(tag.vertex, CancellationToken{});
    } else {
      // tag.seq indexes the quantum's pending-attempt vector; outcomes are
      // resolved on the executor thread after the barrier.
      const auto start = SteadyClock::now();
      CancellationToken token = run_token;
      if (deadline) token = token.with_deadline(start + *deadline);
      try {
        job->run_closure(tag.vertex, token);
        if (deadline && SteadyClock::now() - start > *deadline) {
          failed = true;
          kind = FaultKind::kTaskTimeout;
        }
      } catch (...) {
        failed = true;
      }
    }
    if (tr != nullptr) {
      obs::NumArgs args{
          {"vt", static_cast<double>(
                     current_vt.load(std::memory_order_relaxed))},
          {"job", static_cast<double>(tag.job)},
          {"vertex", static_cast<double>(tag.vertex)}};
      if (fault_mode) args.emplace_back("failed", failed ? 1.0 : 0.0);
      tr->complete("task", "rt", span_start, tr->now_us() - span_start,
                   std::move(args));
    }
    if (failed) {
      MutexLock lock(failures_mu);
      failures.emplace_back(static_cast<std::size_t>(tag.seq), kind);
    }
  };

  // Threaded runs: one StealPool, P_alpha workers (or threads_per_category)
  // serving category alpha.  Declared after everything run_attempt touches,
  // so an unwinding run joins the workers before that state is destroyed.
  std::unique_ptr<StealPool> steal;
  if (!options_.inline_execution) {
    // Fail fast on the TaskTag bit budget, before any worker starts.  Fault
    // mode tags each attempt with its admission index in the quantum, and
    // a quantum admits at most Sum_alpha P_alpha attempts.
    check_tag_limit("categories", k, TaskTag::kMaxCategory + 1);
    check_tag_limit("jobs or live slots", n, TaskTag::kMaxJob + 1);
    for (const auto& job : jobs_)
      if (job != nullptr) check_vertex_limit(*job);
    if (fault_mode) {
      std::uint64_t processors = 0;
      for (const int p : machine_.processors)
        processors += static_cast<std::uint64_t>(p);
      check_tag_limit("attempts per quantum (sum of P_alpha) in fault mode",
                      processors, TaskTag::kMaxSeq + 1);
    }
    std::vector<int> workers_per_category(k);
    for (Category a = 0; a < k; ++a)
      workers_per_category[a] =
          options_.threads_per_category != 0
              ? static_cast<int>(options_.threads_per_category)
              : machine_.processors[a];
    steal = std::make_unique<StealPool>(workers_per_category);
    steal->set_runner(run_attempt);
  }

  // Dispatch one (job, category) batch of admitted attempts: inline, in
  // admission order, or as one injection-FIFO push of packed tags.  The
  // depth gauge is raised first, so a running task always sees its batch.
  std::vector<TaskTag> batch;
  std::vector<std::uint64_t> packed;
  const auto dispatch = [&](Category a) {
    if (batch.empty()) return;
    if (ro.metrics_on)
      ro.queue_depth[a]->add(static_cast<double>(batch.size()));
    if (steal == nullptr) {
      for (const TaskTag& tag : batch) run_attempt(tag);
      return;
    }
    packed.clear();
    for (const TaskTag& tag : batch) packed.push_back(tag.encode());
    steal->submit_batch(a, packed.data(), packed.size());
  };
  // Previous flush points for the per-quantum steal-counter deltas.
  std::uint64_t prev_steals = 0, prev_steal_failed = 0, prev_steal_parks = 0,
                prev_steal_wakes = 0;

  QuantumClock clock(options_.clock, options_.quantum_length);
  clock.start();

  std::size_t finished_count = 0;
  while (live || finished_count < n) {
    const Time t = clock.now();
    // Cooperative run abort: stop between quanta, return a partial result.
    if (options_.cancellation.stop_requested()) {
      result.aborted = true;
      break;
    }
    if (!live) {
      while (next_pending < n && releases_[pending[next_pending]] < t) {
        active.push_back(pending[next_pending]);
        ++next_pending;
      }
      if (active.empty()) {
        if (next_pending >= n)
          throw std::logic_error("Executor: no active or pending jobs left");
        const Time next_t = releases_[pending[next_pending]] + 1;
        result.idle_quanta += next_t - t;
        clock.skip_to(next_t);
        continue;
      }
    } else {
      // Pacing/pump hook first: a scripted loadgen submits this quantum's
      // arrivals here, on the executor thread, so the run is reproducible.
      if (options_.on_quantum_begin) options_.on_quantum_begin(t);

      // Admission: slot inbox jobs (lowest free slot first) and snapshot
      // cancellation requests.  A job accepted at quantum t is released at
      // t - 1, mirroring the simulator's "release r, first allotments at
      // r + 1" convention, so response >= 1.
      cancels.clear();
      accepted.clear();
      bool drain_now = false;
      {
        MutexLock lock(live_->mu);
        std::swap(cancels, live_->cancel_requests);
        while (!live_->inbox.empty() && !free_slots.empty()) {
          std::pop_heap(free_slots.begin(), free_slots.end(),
                        std::greater<JobId>{});
          const JobId slot = free_slots.back();
          free_slots.pop_back();
          jobs_[slot] = std::move(live_->inbox.front().job);
          tickets[slot] = live_->inbox.front().ticket;
          live_->inbox.pop_front();
          releases_[slot] = t - 1;
          active.push_back(slot);
          accepted.emplace_back(tickets[slot], slot);
          ++live_->resident;
        }
        // Cancel inbox jobs that never reached a slot (callbacks fire
        // after the lock is released).
        for (const std::uint64_t ticket : cancels) {
          for (auto it = live_->inbox.begin(); it != live_->inbox.end();
               ++it) {
            if (it->ticket != ticket) continue;
            dropped.push_back(
                LiveCompletion{ticket, JobOutcome::kCancelled, 0, 0, 0});
            live_->inbox.erase(it);
            break;
          }
        }
        drain_now = live_->drain && live_->inbox.empty();
      }
      if (options_.on_accept)
        for (const auto& [ticket, slot] : accepted)
          options_.on_accept(ticket, slot);
      for (const LiveCompletion& done : dropped) notify_complete(done);
      dropped.clear();
      // Cancel resident jobs at the quantum boundary: abandon() empties
      // the ready queues, so the completion scan below reports kCancelled
      // this quantum without running another task.
      for (const std::uint64_t ticket : cancels)
        for (const JobId slot : active)
          if (jobs_[slot] != nullptr && tickets[slot] == ticket &&
              !jobs_[slot]->finished()) {
            jobs_[slot]->abandon(JobOutcome::kCancelled);
            break;
          }
      if (active.empty()) {
        if (drain_now) break;
        if (options_.on_quantum_begin) {
          // Hook-paced idle tick: future arrivals are the hook's business.
          ++result.idle_quanta;
          clock.advance();
        } else {
          MutexLock lock(live_->mu);
          if (live_->inbox.empty() && !live_->drain &&
              live_->cancel_requests.empty())
            live_->cv.wait_for(lock, std::chrono::milliseconds(20));
        }
        continue;
      }
    }
    std::sort(active.begin(), active.end());
    current_vt.store(t, std::memory_order_relaxed);
    const auto quantum_begin = SteadyClock::now();
    observer.begin_quantum(t);

    // Apply capacity events before the scheduler decides: it must see the
    // degraded (or recovered) machine this quantum.
    if (degrading) {
      const std::vector<int>& cap = injector->capacity(t);
      if (cap != effective) {
        effective = cap;
        sched->set_capacity(MachineConfig{effective});
        observer.set_capacity(effective);
        if (ro.metrics_on)
          for (Category a = 0; a < k; ++a)
            ro.capacity[a]->set(effective[a]);
        if (ro.trace != nullptr) {
          obs::NumArgs args{{"vt", static_cast<double>(t)}};
          for (Category a = 0; a < k; ++a)
            args.emplace_back("cap" + std::to_string(a),
                              static_cast<double>(effective[a]));
          ro.trace->instant("capacity_change", "fault", std::move(args));
        }
      }
    }

    // Fault events flow through here so the trace sees them as instants.
    const auto record_fault = [&](FaultEvent event) {
      if (ro.trace != nullptr)
        ro.trace->instant(
            to_string(event.kind), "fault",
            {{"vt", static_cast<double>(t)},
             {"job", static_cast<double>(event.job)},
             {"vertex", static_cast<double>(event.vertex)},
             {"attempt", static_cast<double>(event.attempt)},
             {"retry_delay", static_cast<double>(event.retry_delay)}});
      observer.record_fault(std::move(event));
    };
    // Report what settle_failure() decided for a failed attempt.
    const auto report = [&](JobId id, const FaultNotice& notice) {
      record_fault(FaultEvent{0, id, notice.kind, notice.vertex,
                              notice.category, notice.attempt, -1,
                              notice.retry_delay, {}});
      if (notice.kind == FaultKind::kRetryScheduled) ++result.retries;
    };

    // Observable state: true instantaneous desires.  Built in place so each
    // JobView's desire buffer is reused across quanta, not re-allocated.
    views.resize(active.size());
    for (std::size_t j = 0; j < active.size(); ++j) {
      JobView& view = views[j];
      const JobId id = active[j];
      view.id = id;
      view.desire.resize(k);
      for (Category a = 0; a < k; ++a) view.desire[a] = jobs_[id]->desire(a);
    }
    const ClairvoyantView* clair_ptr = nullptr;
    if (wants_clair) {
      clair.remaining_span.clear();
      clair.remaining_work.clear();
      clair.release.clear();
      for (JobId id : active) {
        clair.remaining_span.push_back(jobs_[id]->remaining_span());
        std::vector<Work> rem(k);
        for (Category a = 0; a < k; ++a) rem[a] = jobs_[id]->remaining_work(a);
        clair.remaining_work.push_back(std::move(rem));
        clair.release.push_back(releases_[id]);
      }
      clair_ptr = &clair;
    }

    // Scheduling decision (timed: this is the overhead a real system pays
    // every quantum).
    allot.assign(active.size(), std::vector<Work>(k, 0));
    const auto sched_begin = SteadyClock::now();
    sched->allot(t, views, clair_ptr, allot);
    const auto sched_end = SteadyClock::now();
    if (ro.trace != nullptr) {
      const double us =
          static_cast<double>(ns_between(sched_begin, sched_end)) / 1000.0;
      ro.trace->complete("allot", "rt", ro.trace->now_us() - us, us,
                         {{"vt", static_cast<double>(t)},
                          {"active", static_cast<double>(active.size())}},
                         {{"scheduler", sched->name()}});
    }

    // Capacity invariant before anything is enqueued, against the
    // effective (possibly degraded) machine.
    for (Category a = 0; a < k; ++a) {
      Work sum = 0;
      for (std::size_t j = 0; j < active.size(); ++j) {
        if (allot[j][a] < 0)
          throw std::logic_error("Executor: negative allotment from " +
                                 sched->name());
        sum += allot[j][a];
      }
      if (sum > effective[a])
        throw std::logic_error("Executor: category over-allocated by " +
                               sched->name());
      result.allotted[a] += sum;
      if (ro.metrics_on) ro.allotted[a]->inc(sum);
    }

    // Admission + dispatch: at most min(a, d) ready alpha-tasks per job.
    const auto barrier_begin = SteadyClock::now();
    if (!fault_mode) {
      for (std::size_t j = 0; j < active.size(); ++j) {
        const JobId id = active[j];
        RuntimeJob* job = jobs_[id].get();
        for (Category a = 0; a < k; ++a) {
          const Work admit = std::min(allot[j][a], views[j].desire[a]);
          batch.clear();
          for (Work i = 0; i < admit; ++i) {
            const VertexId v = job->pop_ready(a);
            observer.record_admission(id, a, v);
            batch.push_back(TaskTag{id, v, 0, a});
          }
          dispatch(a);
          // Successor release stays on this thread, in admission order (the
          // determinism contract in runtime_job.hpp).
          for (const TaskTag& tag : batch) job->release_successors(tag.vertex);
          result.executed_work[a] += admit;
          if (ro.metrics_on) ro.executed[a]->inc(admit);
        }
      }
    } else {
      // Fault mode: every admission is an attempt.  Injected failures are
      // decided and handled inline (the slot is burned, the vertex retries
      // or the job is abandoned — mirroring FaultyDagJob::execute, so the
      // sim twin replays identically); closure outcomes are resolved after
      // the barrier.  TaskEvents are deferred until success is known.
      attempts.clear();
      failures.clear();
      for (std::size_t j = 0; j < active.size() && !fatal; ++j) {
        const JobId id = active[j];
        RuntimeJob* job = jobs_[id].get();
        for (Category a = 0; a < k && !fatal; ++a) {
          // Live desire, not the view: an abandon earlier this quantum
          // empties the queues (the simulator's execute() likewise finds
          // nothing to pop after an abandon).
          const Work admit = std::min(allot[j][a], job->desire(a));
          batch.clear();
          for (Work i = 0; i < admit; ++i) {
            const VertexId v = job->pop_ready(a);
            const int attempt = job->register_attempt(v);
            const int proc = observer.reserve_proc(a);
            if (injector && injector->fails(id, v, a, attempt)) {
              ++result.failed_attempts;
              record_fault(FaultEvent{0, id, FaultKind::kTaskFailure, v, a,
                                      attempt, proc, 0, {}});
              const auto notice = settle_failure(*job, retry, v, a, attempt);
              if (!notice) {
                // Unwind only after the barrier: dispatched closures still
                // reference the jobs.
                fatal.emplace(id, v, a, attempt);
                break;
              }
              report(id, *notice);
              if (notice->kind != FaultKind::kRetryScheduled)
                break;  // job abandoned: stop admitting it
              continue;
            }
            // tag.seq routes the attempt's outcome back to this entry.
            batch.push_back(TaskTag{
                id, v, static_cast<std::uint32_t>(attempts.size()), a});
            attempts.emplace_back(id, job, v, a, attempt, proc);
          }
          dispatch(a);
        }
      }
    }
    // Quantum barrier: every admitted task completes before desires are
    // recomputed, so a quantum behaves like one synchronous unit step.
    if (steal != nullptr) steal->wait_idle();
    const auto barrier_end = SteadyClock::now();
    if (ro.metrics_on)
      for (Category a = 0; a < k; ++a) ro.queue_depth[a]->set(0);
    if (fatal) throw *fatal;

    if (fault_mode) {
      // Resolve dispatched attempts in admission order: successes release
      // their successors (executor-side, deterministic) and become
      // TaskEvents on their reserved slots, failures go through the retry
      // policy exactly like injected ones.  If an injected failure abandoned
      // the job earlier this quantum, its failures are recorded but settle
      // nothing, and its successes still count as executed work: their
      // closures ran on reserved slots (docs/FAULTS.md).
      std::sort(failures.begin(), failures.end(),
                [](const AttemptFailure& a, const AttemptFailure& b) {
                  return a.seq < b.seq;
                });
      std::size_t next_failure = 0;
      for (std::size_t seq = 0; seq < attempts.size(); ++seq) {
        const PendingAttempt& pa = attempts[seq];
        const bool failed = next_failure < failures.size() &&
                            failures[next_failure].seq == seq;
        if (!failed) {
          pa.job->release_successors(pa.vertex);
          observer.record_task(pa.id, pa.category, pa.vertex, pa.proc);
          ++result.executed_work[pa.category];
          if (ro.metrics_on) ro.executed[pa.category]->inc();
          continue;
        }
        const FaultKind kind = failures[next_failure++].kind;
        ++result.failed_attempts;
        if (kind == FaultKind::kTaskTimeout) ++result.timeouts;
        record_fault(FaultEvent{0, pa.id, kind, pa.vertex, pa.category,
                                pa.attempt, pa.proc, 0, {}});
        if (pa.job->finished()) continue;  // abandoned: nothing to retry
        const auto notice = settle_failure(*pa.job, retry, pa.vertex,
                                           pa.category, pa.attempt);
        if (!notice)
          throw TaskFailedError(pa.id, pa.vertex, pa.category, pa.attempt);
        report(pa.id, *notice);
      }
    }

    {
      std::vector<std::vector<Work>> desires;
      desires.reserve(views.size());
      for (const JobView& view : views) desires.push_back(view.desire);
      observer.record_step(active, std::move(desires), allot);
    }

    // End of quantum: promote enabled tasks, collect completions.
    for (std::size_t j = 0; j < active.size();) {
      const JobId id = active[j];
      jobs_[id]->promote_enabled();
      if (jobs_[id]->finished()) {
        result.completion[id] = t;
        result.response[id] = t - releases_[id];
        result.makespan = std::max(result.makespan, t);
        ++finished_count;
        if (ro.trace != nullptr)
          ro.trace->instant("complete", "rt",
                            {{"vt", static_cast<double>(t)},
                             {"job", static_cast<double>(id)},
                             {"response",
                              static_cast<double>(t - releases_[id])}});
        if (live) {
          notify_complete(LiveCompletion{tickets[id], jobs_[id]->outcome(),
                                         releases_[id], t,
                                         t - releases_[id]});
          jobs_[id].reset();
          {
            MutexLock lock(live_->mu);
            --live_->resident;
          }
          free_slots.push_back(id);
          std::push_heap(free_slots.begin(), free_slots.end(),
                         std::greater<JobId>{});
        }
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(j));
      } else {
        ++j;
      }
    }

    ++result.busy_quanta;
    if (!live && result.busy_quanta > options_.max_quanta) {
      std::vector<JobProgress> progress;
      progress.reserve(n);
      for (JobId i = 0; i < n; ++i)
        progress.push_back(
            JobProgress{i, jobs_[i]->admitted(),
                        static_cast<Work>(jobs_[i]->dag().num_vertices()),
                        jobs_[i]->finished()});
      throw QuantaLimitError(result.busy_quanta, std::move(progress),
                             sched->name());
    }
    clock.advance();
    const std::int64_t sched_ns = ns_between(sched_begin, sched_end);
    const std::int64_t barrier_ns = ns_between(barrier_begin, barrier_end);
    const std::int64_t quantum_ns =
        ns_between(quantum_begin, SteadyClock::now());
    observer.end_quantum(sched_ns, barrier_ns, quantum_ns);
    if (ro.metrics_on) {
      ro.quanta->inc();
      ro.quantum_ns->observe(static_cast<double>(quantum_ns));
      ro.sched_latency_ns->observe(static_cast<double>(sched_ns));
      ro.barrier_ns->observe(static_cast<double>(barrier_ns));
      ro.failed_attempts->inc(result.failed_attempts - prev_failed);
      ro.retries->inc(result.retries - prev_retries);
      ro.timeouts->inc(result.timeouts - prev_timeouts);
      prev_failed = result.failed_attempts;
      prev_retries = result.retries;
      prev_timeouts = result.timeouts;
      if (steal != nullptr) {
        // Flush the pool's lifetime counters as per-quantum deltas, on the
        // executor thread (the counters themselves are relaxed atomics).
        const std::uint64_t s = steal->steals();
        const std::uint64_t f = steal->failed_steals();
        const std::uint64_t p = steal->parks();
        const std::uint64_t w = steal->wakes();
        ro.steal_tasks->inc(static_cast<std::int64_t>(s - prev_steals));
        ro.steal_failed->inc(static_cast<std::int64_t>(f - prev_steal_failed));
        ro.steal_parks->inc(static_cast<std::int64_t>(p - prev_steal_parks));
        ro.steal_wakes->inc(static_cast<std::int64_t>(w - prev_steal_wakes));
        prev_steals = s;
        prev_steal_failed = f;
        prev_steal_parks = p;
        prev_steal_wakes = w;
      }
    }
    if (ro.trace != nullptr) {
      const double dur_us = static_cast<double>(quantum_ns) / 1000.0;
      ro.trace->complete("quantum", "rt", ro.trace->now_us() - dur_us,
                         dur_us,
                         {{"vt", static_cast<double>(t)},
                          {"active", static_cast<double>(active.size())}});
    }
  }

  result.outcome.assign(n, JobOutcome::kCompleted);
  if (live) {
    // Terminal flush: anything still resident or in the inbox when the
    // loop exits (cancelled run) is reported as cancelled so no ticket is
    // left dangling.
    std::deque<LiveSubmission> leftovers;
    {
      MutexLock lock(live_->mu);
      live_->drain = true;  // no further submissions can land
      leftovers.swap(live_->inbox);
    }
    for (const LiveSubmission& sub : leftovers)
      notify_complete(LiveCompletion{sub.ticket, JobOutcome::kCancelled, 0,
                                     0, 0});
    for (JobId i = 0; i < n; ++i) {
      if (jobs_[i] == nullptr) continue;
      notify_complete(LiveCompletion{tickets[i], JobOutcome::kCancelled,
                                     releases_[i], 0, 0});
      jobs_[i].reset();
      MutexLock lock(live_->mu);
      --live_->resident;
    }
  } else {
    for (JobId i = 0; i < n; ++i)
      result.outcome[i] =
          jobs_[i]->finished() ? jobs_[i]->outcome() : JobOutcome::kCancelled;
  }

  for (Category a = 0; a < k; ++a) {
    const double denom =
        static_cast<double>(machine_.processors[a]) *
        static_cast<double>(std::max<Time>(1, result.busy_quanta));
    result.utilization[a] =
        static_cast<double>(result.executed_work[a]) / denom;
  }
  result.wall_seconds =
      static_cast<double>(clock.elapsed().count()) / 1e9;
  result.mean_schedule_overhead_ns = observer.mean_schedule_ns();
  result.mean_quantum_ns = observer.mean_quantum_ns();
  result.quanta = observer.quanta();
  result.trace = observer.trace();
  return result;
}

}  // namespace krad
