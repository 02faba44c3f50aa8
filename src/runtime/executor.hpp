#pragma once
// Quantum-based live executor — runs RuntimeJobs (K-DAGs of real task
// closures) on one work-stealing pool whose workers each serve a single
// resource category (P_alpha workers for category alpha), driven by any
// unmodified KScheduler (K-RAD, K-DEQ, K-EQUI, clairvoyant baselines, ...).
//
// Each quantum — the runtime analogue of the paper's unit step:
//   1. jobs released before the current quantum are active;
//   2. per-job per-category desires (ready alpha-task counts, or the
//      feedback wrapper's A-GREEDY requests) go to the scheduler, which
//      returns allotments with Sum_i a(Ji, alpha) <= P_alpha;
//   3. admission control dispatches min(a(Ji, alpha), d(Ji, alpha)) ready
//      alpha-tasks per job to the alpha workers; the quantum barrier waits
//      for all of them;
//   4. newly enabled tasks are promoted, completions recorded, the clock
//      advances (sleeping out the quantum remainder in wall mode).
//
// The observer records the run in the simulator's trace shape, so
// validate_schedule checks the same Section-2 invariants (capacity,
// precedence, no double-booking, release times) on live runs.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/scheduler.hpp"
#include "fault/cancellation.hpp"
#include "obs/obs.hpp"
#include "fault/fault_plan.hpp"
#include "fault/retry.hpp"
#include "feedback/feedback.hpp"
#include "runtime/clock.hpp"
#include "runtime/observer.hpp"
#include "runtime/runtime_job.hpp"
#include "sim/validator.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace krad {

/// Terminal report for one live-mode job, delivered on the executor thread
/// via ExecutorOptions::on_complete.
struct LiveCompletion {
  std::uint64_t ticket = 0;  ///< caller's correlation id from submit_live()
  JobOutcome outcome = JobOutcome::kCompleted;
  Time release = 0;     ///< virtual release quantum (acceptance - 1)
  Time completion = 0;  ///< quantum of the terminal state (0 if never run)
  Time response = 0;    ///< completion - release, in quanta (0 if never run)
};

struct ExecutorOptions {
  ClockMode clock = ClockMode::kVirtual;
  /// Minimum quantum duration in wall mode (ignored in virtual mode).
  std::chrono::microseconds quantum_length{1000};
  /// Record the full schedule trace (events + per-quantum matrices).
  bool record_trace = true;
  /// Run task closures inline on the executor thread, in admission order,
  /// instead of dispatching to the work-stealing pool (docs/RUNTIME.md
  /// "The steal backend").  Both modes reproduce sim::simulate step for
  /// step under a virtual clock: successor release and trace recording
  /// happen on the executor thread in admission order, so worker
  /// completion order is invisible.  Threaded runs ship tasks as 64-bit
  /// TaskTags, so run() rejects up front (std::logic_error) more than 16
  /// categories, 2^20 jobs or live slots, 2^24 vertices per DAG, or — in
  /// fault mode — a machine with Sum_alpha P_alpha > 2^16.
  bool inline_execution = false;
  /// Worker threads per category; 0 = P_alpha (one thread per modelled
  /// processor, the faithful configuration).
  unsigned threads_per_category = 0;
  /// When set, wrap the scheduler in FeedbackScheduler: desires presented
  /// to it are A-GREEDY-style requests instead of true ready counts.
  std::optional<FeedbackParams> feedback;
  /// Abort (throw QuantaLimitError) past this many busy quanta.
  Time max_quanta = 50'000'000;

  // --- fault tolerance (docs/FAULTS.md) --------------------------------
  // Fault mode is active when a fault plan or a task deadline is set; the
  // fault-free path is bit-identical to an executor without these options.

  /// Deterministic fault plan (must outlive the run): seeded task-failure
  /// injection plus processor loss/recovery events.  With a virtual clock
  /// and inline execution the run replays bit-identically, and matches
  /// sim::simulate over FaultyDagJobs built on the same plan.
  const FaultPlan* fault_plan = nullptr;
  /// Applied to every failed attempt — injected, thrown by the closure, or
  /// timed out — while fault mode is active.
  RetryPolicy retry;
  /// Per-attempt wall deadline for task closures.  An attempt whose closure
  /// runs longer counts as failed (kTaskTimeout) and is retried under the
  /// policy; cancellation-aware closures receive a token that expires at
  /// the deadline so they can stop early.  Side effects of a timed-out
  /// attempt are NOT rolled back (at-least-once semantics).
  std::optional<std::chrono::microseconds> task_deadline;
  /// Run-level cooperative cancellation, checked between quanta: once the
  /// source is cancelled, run() returns a partial RuntimeResult with
  /// aborted = true and unfinished jobs marked kCancelled.  The token is
  /// also forwarded to cancellation-aware closures.
  CancellationToken cancellation;

  // --- live serving mode (docs/SERVICE.md) -----------------------------
  // Live mode turns run() into a long-lived serve loop: jobs stream in
  // through submit_live() (thread-safe), each occupying one of live_slots
  // reusable JobId slots, and leave through the on_complete callback.  The
  // scheduler is reset once with live_slots jobs, so any unmodified
  // KScheduler keeps working — its per-job state is per-slot.  A job
  // accepted at the top of quantum t behaves like a sim job released at
  // t - 1 (first allotments at quantum t, response >= 1).

  /// Serve streaming submissions until drain().  Incompatible with pre-run
  /// submit(), fault_plan and task_deadline (run() throws); record_trace
  /// is forced off — slot reuse would conflate successive jobs in a trace.
  bool live = false;
  /// Slot count: max concurrently resident live jobs (>= 1).  Submissions
  /// beyond it wait in the inbox; bounded admission lives in src/svc/.
  std::size_t live_slots = 256;
  /// Called at the top of every quantum on the executor thread, before the
  /// inbox is drained — a deterministic pacing/pump hook.  When set, an
  /// idle serve loop keeps ticking quanta through the hook instead of
  /// blocking, so a virtual-clock serving run is reproducible.
  std::function<void(Time)> on_quantum_begin;
  /// Called on the executor thread when a live submission takes a slot,
  /// before that quantum's scheduling decision — lets a composite
  /// scheduler (svc::FairShareScheduler) learn the ticket -> slot binding.
  std::function<void(std::uint64_t ticket, JobId slot)> on_accept;
  /// Terminal-state callback (completed / cancelled), executor thread.
  std::function<void(const LiveCompletion&)> on_complete;

  /// Optional observability sinks (must outlive the run).  A metrics
  /// registry receives the krad_rt_* catalog in docs/OBSERVABILITY.md
  /// (quantum / scheduler-latency / barrier wall histograms, per-category
  /// allotted/executed counters, per-category queue depths, fault and
  /// steal counters); a trace session records quantum and task-attempt
  /// spans plus fault instants.  Null (default) keeps the quantum loop
  /// observation-free.
  const obs::Observability* obs = nullptr;
};

/// Outcome of one executor run; quantum-counted fields are directly
/// comparable to the simulator's SimResult step counts.
struct RuntimeResult {
  Time makespan = 0;             ///< last busy quantum index
  std::vector<Time> completion;  ///< per job, quantum of completion
  std::vector<Time> response;    ///< completion - release, in quanta
  std::vector<Work> executed_work;  ///< tasks run per category
  std::vector<Work> allotted;       ///< allotted processor-quanta per category
  Time busy_quanta = 0;
  Time idle_quanta = 0;
  std::vector<double> utilization;  ///< executed / (P_alpha * busy_quanta)
  double wall_seconds = 0.0;
  double mean_schedule_overhead_ns = 0.0;  ///< mean time in KScheduler::allot
  double mean_quantum_ns = 0.0;
  std::vector<QuantumStats> quanta;  ///< per busy quantum, in order
  std::shared_ptr<const ScheduleTrace> trace;  ///< iff record_trace

  /// True when the run was cancelled between quanta (partial result:
  /// completion/response of unfinished jobs stay 0).
  bool aborted = false;
  /// Terminal outcome per job: kCompleted, kFailed / kDropped (retry
  /// exhaustion under the matching policy), or kCancelled (aborted run).
  std::vector<JobOutcome> outcome;
  /// Fault-layer counters (all zero in fault-free runs).
  Work failed_attempts = 0;  ///< attempts that failed (any cause)
  Work retries = 0;          ///< failed attempts that were re-queued
  Work timeouts = 0;         ///< failed attempts caused by task_deadline
};

/// Snapshot of one job's progress, carried by QuantaLimitError.
struct JobProgress {
  JobId job = kInvalidJob;
  Work admitted = 0;   ///< vertices admitted so far
  Work total = 0;      ///< vertices in the job's dag
  bool finished = false;
};

/// Thrown by Executor::run when busy quanta exceed ExecutorOptions::
/// max_quanta — a livelocked scheduler, or an unrecovered capacity outage
/// (zero effective processors make quanta tick without progress).
class QuantaLimitError : public std::runtime_error {
 public:
  QuantaLimitError(Time quanta, std::vector<JobProgress> progress,
                   const std::string& scheduler);

  /// Busy quanta executed when the limit tripped.
  Time quanta() const noexcept { return quanta_; }
  /// Per-job progress at abort time, indexed by JobId.
  const std::vector<JobProgress>& progress() const noexcept {
    return progress_;
  }

 private:
  Time quanta_;
  std::vector<JobProgress> progress_;
};

class Executor {
 public:
  explicit Executor(MachineConfig machine, ExecutorOptions options = {});

  /// Register a job released at quantum r (r = 0: active from quantum 1).
  /// Must be called before run().
  JobId submit(std::unique_ptr<RuntimeJob> job, Time release = 0);

  std::size_t size() const noexcept { return jobs_.size(); }
  const RuntimeJob& job(JobId id) const { return *jobs_.at(id); }
  Time release(JobId id) const { return releases_.at(id); }
  const MachineConfig& machine() const noexcept { return machine_; }

  /// Run every submitted job to completion.  Single-shot: the jobs are
  /// consumed; a second call throws.  Without fault mode, task closure
  /// exceptions propagate (first one wins) after the in-flight quantum
  /// drains; with a fault plan or task deadline set they count as failed
  /// attempts and go through the retry policy instead.
  RuntimeResult run(KScheduler& scheduler);

  /// Per-job validation facts for validate_schedule on a recorded trace.
  /// Batch mode only (live mode reuses JobId slots, so a trace would
  /// conflate successive residents of a slot).
  std::vector<TraceJobInfo> validation_inputs() const;

  // --- live serving interface (thread-safe; requires options.live) ------

  /// Hand a job to the running serve loop.  Returns false — and destroys
  /// the job without running it — once drain() was called.  `ticket` is an
  /// opaque caller correlation id echoed in the LiveCompletion.
  bool submit_live(std::unique_ptr<RuntimeJob> job, std::uint64_t ticket);

  /// Request cancellation of a live ticket, whether still in the inbox or
  /// already resident.  Takes effect at the next quantum boundary (the
  /// LiveCompletion reports kCancelled); unknown/finished tickets are
  /// ignored.  Safe from any thread, including on_quantum_begin.
  void cancel_live(std::uint64_t ticket);

  /// Stop accepting submissions; the serve loop exits once every accepted
  /// job reached a terminal state.  Idempotent, safe from any thread.
  void drain();
  bool draining() const;

  /// Live jobs currently resident in slots plus waiting in the inbox.
  std::size_t live_load() const;

 private:
  struct LiveSubmission {
    std::unique_ptr<RuntimeJob> job;
    std::uint64_t ticket = 0;
  };

  /// Live-mode shared state: sessions/pumps push under mu, the executor
  /// thread drains at quantum boundaries and waits on cv while idle.
  /// resident counts occupied slots (executor thread writes, under mu, so
  /// live_load() is consistent).  Heap-allocated so Executor stays movable.
  struct LiveState {
    mutable Mutex mu;
    CondVar cv;
    std::deque<LiveSubmission> inbox KRAD_GUARDED_BY(mu);
    std::vector<std::uint64_t> cancel_requests KRAD_GUARDED_BY(mu);
    std::size_t resident KRAD_GUARDED_BY(mu) = 0;
    bool drain KRAD_GUARDED_BY(mu) = false;
  };

  MachineConfig machine_;
  ExecutorOptions options_;
  std::vector<std::unique_ptr<RuntimeJob>> jobs_;
  std::vector<Time> releases_;
  bool ran_ = false;
  std::unique_ptr<LiveState> live_;  ///< non-null iff options_.live
};

}  // namespace krad
