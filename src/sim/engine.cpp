// simulate(): the paper's discrete-time model, executed by one loop
// (docs/SIMULATOR.md).  Each iteration is an *epoch* — an instant where the
// allotment can change — and the frozen allotment is replayed across the
// steady window in between.  The window is the minimum of
//   * the scheduler's steady horizon (+1 for the step just decided),
//   * every active job's steady window under its allotted row,
//   * the next job release,
//   * the next capacity event,
//   * the max_steps budget,
// so every discrete event lands on an epoch boundary and the per-step
// semantics are preserved exactly.
//
// EngineKind::kDense is this loop with every window one step: it never asks
// for a horizon or a window and never takes the bulk path, so it is the
// literal step-per-unit-time oracle.  tests/test_sparse_differential.cpp
// holds the windows, the horizons and the bulk accounting to it bit for
// bit.  SimOptions::decision_period > 1 is a scheduler decorator
// (HeldAllotment below), not a second loop.
//
// The epoch body is allocation-free in steady state: all matrices (views,
// allotment, clairvoyant snapshots) are arena-style buffers resized in
// place, never rebuilt.  krad_lint's krad-hotloop-alloc rule checks the
// marked region below.

#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/faulty_job.hpp"
#include "fault/injector.hpp"

namespace krad {
namespace {

/// Resolved observability handles for one simulate() run.  Everything is
/// registered up front so the per-step work is pure atomic updates; a
/// default-constructed SimObs (null sinks) disables all of it.
struct SimObs {
  obs::TraceSession* trace = nullptr;
  obs::Counter* steps = nullptr;
  obs::Counter* decisions = nullptr;
  obs::Histogram* sched_latency = nullptr;  // ns per scheduler.allot call
  obs::Histogram* active_jobs = nullptr;    // active-set size per step
  obs::Histogram* ready_tasks = nullptr;    // total desire per step
  obs::Gauge* lemma2_bound = nullptr;
  obs::Gauge* virtual_time = nullptr;
  std::vector<obs::Counter*> desire;     // per category
  std::vector<obs::Counter*> allotted;   // per category
  std::vector<obs::Counter*> executed;   // per category
  std::vector<obs::Counter*> deprived;   // per category, steps
  std::vector<obs::Counter*> satisfied;  // per category, steps
  std::vector<obs::Gauge*> utilization;  // per category
  std::vector<obs::Gauge*> capacity;     // per category, effective

  bool metrics_on = false;
  bool on = false;  // metrics or tracing

  SimObs() = default;
  SimObs(const obs::Observability* sinks, const MachineConfig& machine) {
    if (sinks == nullptr) return;
    trace = obs::kTracingEnabled ? sinks->trace : nullptr;
    obs::MetricsRegistry* reg = sinks->metrics;
    metrics_on = reg != nullptr;
    on = metrics_on || trace != nullptr;
    if (!metrics_on) return;
    steps = &reg->counter("krad_sim_steps_total", {}, "busy steps executed");
    decisions = &reg->counter("krad_sim_decisions_total", {},
                              "scheduler allot() invocations");
    sched_latency = &reg->histogram(
        "krad_sim_sched_latency_ns", obs::exponential_buckets(250, 4, 10), {},
        "wall ns per scheduler decision (sampled 1 in 8)");
    active_jobs = &reg->histogram("krad_sim_active_jobs",
                                  obs::exponential_buckets(1, 2, 12), {},
                                  "active jobs per busy step");
    ready_tasks = &reg->histogram("krad_sim_ready_tasks",
                                  obs::exponential_buckets(1, 4, 12), {},
                                  "total ready tasks (desire) per busy step");
    lemma2_bound = &reg->gauge(
        "krad_sim_lemma2_bound", {},
        "running Lemma 2 makespan bound over released jobs");
    virtual_time = &reg->gauge("krad_sim_virtual_time", {},
                               "virtual time when the run finished");
    const auto k = static_cast<Category>(machine.categories());
    for (Category a = 0; a < k; ++a) {
      const obs::Labels labels{{"cat", std::to_string(a)}};
      desire.push_back(&reg->counter("krad_sim_desire_total", labels,
                                     "summed per-step desires"));
      allotted.push_back(&reg->counter("krad_sim_allotted_total", labels,
                                       "allotted processor-steps"));
      executed.push_back(&reg->counter("krad_sim_executed_total", labels,
                                       "executed task units"));
      deprived.push_back(&reg->counter(
          "krad_sim_deprived_steps_total", labels,
          "steps with at least one deprived job in this category"));
      satisfied.push_back(&reg->counter(
          "krad_sim_satisfied_steps_total", labels,
          "steps with every job satisfied in this category"));
      utilization.push_back(&reg->gauge(
          "krad_sim_utilization", labels,
          "executed / (P_alpha * busy steps) at end of run"));
      capacity.push_back(&reg->gauge("krad_sim_capacity", labels,
                                     "effective processors"));
      capacity.back()->set(machine.processors[a]);
    }
  }
};

/// TaskSink that stamps engine context (time, job, processor) onto events.
class RecordingSink final : public TaskSink {
 public:
  explicit RecordingSink(ScheduleTrace& trace) : trace_(&trace) {}

  void begin_step(Time t, std::size_t categories) {
    t_ = t;
    next_proc_.assign(categories, 0);
  }
  void set_job(JobId job) { job_ = job; }

  void on_task(VertexId vertex, Category category) override {
    trace_->add_event(TaskEvent{t_, job_, category, vertex,
                                next_proc_[category]++});
  }

  void on_fault(const FaultNotice& notice) override {
    FaultEvent event;
    event.t = t_;
    event.job = job_;
    event.kind = notice.kind;
    event.vertex = notice.vertex;
    event.category = notice.category;
    event.attempt = notice.attempt;
    event.retry_delay = notice.retry_delay;
    // A failed attempt still burns a processor slot for the step.
    if (notice.kind == FaultKind::kTaskFailure ||
        notice.kind == FaultKind::kTaskTimeout)
      event.proc = next_proc_[notice.category]++;
    trace_->add_fault(std::move(event));
  }

 private:
  ScheduleTrace* trace_;
  Time t_ = 0;
  JobId job_ = kInvalidJob;
  std::vector<int> next_proc_;
};

/// SimOptions::decision_period > 1: asks the wrapped scheduler only every
/// `period` busy steps and replays the held allotment in between, clamped
/// to current desires (which only shrinks it, so capacity stays respected).
/// A decision is also forced when the active set changes (release or
/// completion) and when the capacity changes, because a held row may not
/// fit the new machine.  steady_horizon() stays 0: the clamp reads fresh
/// desires every step.
class HeldAllotment final : public KScheduler {
 public:
  HeldAllotment(KScheduler& inner, Time period)
      : inner_(&inner), period_(period) {}

  void reset(const MachineConfig& machine, std::size_t num_jobs) override {
    inner_->reset(machine, num_jobs);
    held_ids_.clear();
    since_decision_ = 0;
  }
  void set_capacity(const MachineConfig& effective) override {
    inner_->set_capacity(effective);
    since_decision_ = 0;
  }
  bool clairvoyant() const override { return inner_->clairvoyant(); }
  std::string name() const override { return inner_->name(); }

  void allot(Time now, std::span<const JobView> active,
             const ClairvoyantView* clair, Allotment& out) override {
    if (since_decision_ == 0 || since_decision_ >= period_ ||
        !holds_for(active)) {
      inner_->allot(now, active, clair, out);
      held_ = out;
      held_ids_.resize(active.size());
      for (std::size_t j = 0; j < active.size(); ++j)
        held_ids_[j] = active[j].id;
      since_decision_ = 1;
      return;
    }
    for (std::size_t j = 0; j < active.size(); ++j)
      for (std::size_t a = 0; a < out[j].size(); ++a)
        out[j][a] = std::min(held_[j][a], active[j].desire[a]);
    ++since_decision_;
  }

 private:
  bool holds_for(std::span<const JobView> active) const {
    if (active.size() != held_ids_.size()) return false;
    for (std::size_t j = 0; j < active.size(); ++j)
      if (active[j].id != held_ids_[j]) return false;
    return true;
  }

  KScheduler* inner_;
  Time period_;
  Allotment held_;              // allotment reused between decisions
  std::vector<JobId> held_ids_;  // active set it was made for
  Time since_decision_ = 0;
};

SimResult run(JobSet& set, KScheduler& scheduler, const MachineConfig& machine,
              const SimOptions& options) {
  const auto k = static_cast<Category>(machine.categories());
  if (set.num_categories() != k)
    throw std::logic_error("simulate: job set / machine category mismatch");
  for (int p : machine.processors)
    if (p < 1) throw std::logic_error("simulate: category with no processors");

  const std::size_t n = set.size();
  SimResult result;
  result.completion.assign(n, 0);
  result.response.assign(n, 0);
  result.executed_work.assign(k, 0);
  result.allotted.assign(k, 0);
  result.utilization.assign(k, 0.0);
  if (n == 0) return result;

  scheduler.reset(machine, n);

  // Observability: pre-resolve handles; null sinks keep every guard false.
  const SimObs so(options.obs, machine);
  int pmax = 1;
  for (int p : machine.processors) pmax = std::max(pmax, p);
  std::vector<double> released_work(k, 0.0);  // Sum T1(J, alpha) over released
  double lemma2_tail = 0.0;                   // max_i (T_inf + r)
  std::vector<Work> step_exec;
  std::vector<Work> step_desire;
  // Counter updates are batched into these run-local accumulators and
  // flushed to the registry once after the main loop; steady windows fold
  // in with one multiply instead of one update per step.
  std::vector<Work> acc_desire;
  std::vector<std::int64_t> acc_satisfied;
  std::vector<std::int64_t> acc_deprived;
  Time acc_decisions = 0;
  if (so.on) {
    step_exec.assign(k, 0);
    step_desire.assign(k, 0);
  }
  if (so.metrics_on) {
    acc_desire.assign(k, 0);
    acc_satisfied.assign(k, 0);
    acc_deprived.assign(k, 0);
  }
  obs::LocalHistogram lh_sched(so.sched_latency);
  obs::LocalHistogram lh_active(so.active_jobs);
  obs::LocalHistogram lh_ready(so.ready_tasks);
  if (so.trace) so.trace->name_thread("sim");

  std::shared_ptr<ScheduleTrace> trace;
  std::unique_ptr<RecordingSink> sink;
  if (options.record_trace) {
    trace = std::make_shared<ScheduleTrace>();
    sink = std::make_unique<RecordingSink>(*trace);
  }

  // Fault layer: capacity events shrink/restore the effective machine.
  std::optional<FaultInjector> injector;
  if (options.fault_plan != nullptr)
    injector.emplace(*options.fault_plan, machine);
  const bool degrading = injector && injector->has_capacity_events();
  std::vector<int> effective = machine.processors;

  // Jobs not yet released, ordered by release time (ascending, stable by id).
  std::vector<JobId> pending(n);
  for (JobId i = 0; i < n; ++i) pending[i] = i;
  std::stable_sort(pending.begin(), pending.end(), [&](JobId a, JobId b) {
    return set.release(a) < set.release(b);
  });
  std::size_t next_pending = 0;

  // Arena-style buffers: sized in place each epoch, never reallocated once
  // the run reaches its high-water active-set size.
  std::vector<JobId> active;
  active.reserve(n);
  std::vector<JobView> views;
  Allotment allot;
  ClairvoyantView clair;
  std::vector<Work> bulk_exec(k, 0);  // per-step executed units, bulk path
  const bool wants_clair = scheduler.clairvoyant();
  const bool per_step = options.engine == EngineKind::kDense;

  Time t = 1;
  std::size_t finished_count = 0;
  // krad-lint: hot-loop-begin
  while (finished_count < n) {
    // Admit releases: job available from step r + 1, i.e. active iff r < t.
    while (next_pending < n && set.release(pending[next_pending]) < t) {
      const JobId id = pending[next_pending];
      active.push_back(id);
      ++next_pending;
      if (so.on) {
        // Maintain the running Lemma 2 bound over the released prefix:
        //   Sum_alpha T1(J, alpha) / P_alpha + (1 - 1/Pmax) * max_i(T_inf + r).
        // At admission nothing has executed, so remaining == total.
        const Job& job = set.job(id);
        for (Category a = 0; a < k; ++a)
          released_work[a] += static_cast<double>(job.remaining_work(a));
        lemma2_tail = std::max(
            lemma2_tail, static_cast<double>(job.remaining_span() +
                                             set.release(id)));
        double bound = 0.0;
        for (Category a = 0; a < k; ++a)
          bound += released_work[a] /
                   static_cast<double>(machine.processors[a]);
        bound += (1.0 - 1.0 / static_cast<double>(pmax)) * lemma2_tail;
        if (so.lemma2_bound != nullptr) so.lemma2_bound->set(bound);
        if (so.trace != nullptr)
          so.trace->instant("release", "sim",
                            {{"vt", static_cast<double>(t)},
                             {"job", static_cast<double>(id)},
                             {"lemma2_bound", bound}});
      }
    }
    if (active.empty()) {
      // Idle interval: fast-forward to the next release.
      if (next_pending >= n)
        throw std::logic_error("simulate: no active or pending jobs left");
      const Time next_t = set.release(pending[next_pending]) + 1;
      result.idle_steps += next_t - t;
      t = next_t;
      continue;
    }
    std::sort(active.begin(), active.end());

    // Apply capacity events before the scheduler decides: it must see the
    // degraded (or recovered) machine this step.
    if (degrading) {
      const std::vector<int>& cap = injector->capacity(t);
      if (cap != effective) {
        effective = cap;
        scheduler.set_capacity(MachineConfig{effective});
        if (so.metrics_on)
          for (Category a = 0; a < k; ++a)
            so.capacity[a]->set(effective[a]);
        if (so.trace != nullptr) {
          obs::NumArgs args;
          args.reserve(static_cast<std::size_t>(k) + 1);
          args.emplace_back("vt", static_cast<double>(t));
          for (Category a = 0; a < k; ++a)
            args.emplace_back("cap" + std::to_string(a),
                              static_cast<double>(effective[a]));
          so.trace->instant("capacity_change", "fault", std::move(args));
        }
        if (trace) {
          FaultEvent event;
          event.t = t;
          event.kind = FaultKind::kCapacityChange;
          event.capacity = effective;
          trace->add_fault(std::move(event));
        }
      }
    }

    // Build views in place: resize + overwrite reuses each JobView's desire
    // buffer across epochs instead of re-allocating one per job per epoch.
    views.resize(active.size());
    for (std::size_t j = 0; j < active.size(); ++j) {
      JobView& view = views[j];
      view.id = active[j];
      view.desire.resize(k);
      const Job& job = set.job(active[j]);
      for (Category a = 0; a < k; ++a) view.desire[a] = job.desire(a);
    }
    if (so.metrics_on) {
      // Per-step desire totals feed krad_sim_desire_total, the satisfied /
      // deprived split, and the ready-tasks histogram.  The pass runs while
      // the freshly written desires are cache-hot; register accumulators
      // (k <= 4 in practice) avoid read-modify-write chains through memory.
      if (k >= 1 && k <= 4) {
        Work s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (const JobView& v : views) {
          const Work* vd = v.desire.data();
          s0 += vd[0];
          if (k > 1) s1 += vd[1];
          if (k > 2) s2 += vd[2];
          if (k > 3) s3 += vd[3];
        }
        step_desire[0] = s0;
        if (k > 1) step_desire[1] = s1;
        if (k > 2) step_desire[2] = s2;
        if (k > 3) step_desire[3] = s3;
      } else {
        std::fill(step_desire.begin(), step_desire.end(), 0);
        for (const JobView& v : views)
          for (Category a = 0; a < k; ++a) step_desire[a] += v.desire[a];
      }
    }
    const ClairvoyantView* clair_ptr = nullptr;
    if (wants_clair) {
      clair.remaining_span.resize(active.size());
      clair.remaining_work.resize(active.size());
      clair.release.resize(active.size());
      for (std::size_t j = 0; j < active.size(); ++j) {
        const Job& job = set.job(active[j]);
        clair.remaining_span[j] = job.remaining_span();
        std::vector<Work>& rem = clair.remaining_work[j];
        rem.resize(k);
        for (Category a = 0; a < k; ++a) rem[a] = job.remaining_work(a);
        clair.release[j] = set.release(active[j]);
      }
      clair_ptr = &clair;
    }

    // Allot: the scheduler decides once per epoch.  Rows are reused in
    // place; assign() rewrites within existing capacity.
    allot.resize(active.size());
    for (std::vector<Work>& row : allot) row.assign(k, 0);
    {
      // Timing every decision costs two clock reads per epoch; sample
      // 1-in-8 for the latency histogram (and always when tracing, where
      // the allot span needs real timestamps anyway).
      const bool timed =
          so.on && (so.trace != nullptr || (acc_decisions & 7) == 0);
      ++acc_decisions;
      if (timed) {
        const double span_start =
            so.trace != nullptr ? so.trace->now_us() : 0.0;
        const auto t0 = std::chrono::steady_clock::now();
        scheduler.allot(t, views, clair_ptr, allot);
        const auto elapsed = std::chrono::steady_clock::now() - t0;
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count());
        lh_sched.observe(ns);
        if (so.trace != nullptr)
          so.trace->complete("allot", "sim", span_start, ns / 1000.0,
                             {{"vt", static_cast<double>(t)},
                              {"active", static_cast<double>(active.size())}},
                             {{"scheduler", scheduler.name()}});
      } else {
        scheduler.allot(t, views, clair_ptr, allot);
      }
    }

    // Enforce the machine capacity invariant (per-step sums; scaled by the
    // window below, once its length is known).
    for (Category a = 0; a < k; ++a) {
      Work sum = 0;
      for (std::size_t j = 0; j < active.size(); ++j) {
        if (allot[j][a] < 0)
          throw std::logic_error("simulate: negative allotment from " +
                                 scheduler.name());
        sum += allot[j][a];
      }
      if (sum > effective[a])
        throw std::logic_error("simulate: category over-allocated by " +
                               scheduler.name());
      bulk_exec[a] = sum;  // reused below; overwritten per path
    }

    // Steady window: how many steps [t, t + m) can replay this allotment
    // verbatim before anything observable changes.  The per-step oracle
    // never asks: each of its windows is one step.
    Time m = 1;
    if (!per_step) {
      Time horizon = scheduler.steady_horizon();
      if (horizon < 0) horizon = 0;
      m = horizon >= kForeverSteady ? kForeverSteady : horizon + 1;
      for (std::size_t j = 0; j < active.size() && m > 1; ++j) {
        const Time w = set.job(active[j]).steady_window(
            std::span<const Work>(allot[j]));
        m = std::min(m, w < 1 ? Time{1} : w);
      }
      if (next_pending < n)
        m = std::min(m, set.release(pending[next_pending]) + 1 - t);
      if (degrading)
        m = std::min(m, injector->next_capacity_change_after(t) - t);
      m = std::min(m, options.max_steps + 1 - result.busy_steps);
      if (m < 1) m = 1;
      if (m > 1) scheduler.note_steady_steps(m - 1);
    }
    for (Category a = 0; a < k; ++a) result.allotted[a] += bulk_exec[a] * m;

    if (sink || m == 1) {
      // Per-step path: replay the frozen allotment one step at a time so
      // the trace records every task placement.  The window contract
      // guarantees no job finishes before the final step, so the active set
      // is stable throughout.
      for (Time s = 0; s < m; ++s) {
        const Time now = t + s;
        if (sink) sink->begin_step(now, k);
        if (so.on) step_exec.assign(k, 0);
        for (std::size_t j = 0; j < active.size(); ++j) {
          Job& job = set.job(active[j]);
          if (sink) sink->set_job(active[j]);
          for (Category a = 0; a < k; ++a) {
            if (allot[j][a] <= 0) continue;
            const Work done = job.execute(a, allot[j][a], sink.get());
            result.executed_work[a] += done;
            if (so.on) step_exec[a] += done;
          }
        }
        if (trace) {
          StepRecord record;
          record.t = now;
          record.active = active;
          record.desire.reserve(views.size());
          for (const JobView& view : views)
            record.desire.push_back(view.desire);
          record.allot = allot;
          if (degrading) record.capacity = effective;
          trace->add_step(std::move(record));
        }
        for (std::size_t j = 0; j < active.size(); ++j)
          set.job(active[j]).advance();
        ++result.busy_steps;
        if (so.metrics_on) {
          Work total_desire = 0;
          for (Category a = 0; a < k; ++a) {
            total_desire += step_desire[a];
            acc_desire[a] += step_desire[a];
            if (step_exec[a] == step_desire[a])
              ++acc_satisfied[a];
            else
              ++acc_deprived[a];
          }
          lh_active.observe(static_cast<double>(views.size()));
          lh_ready.observe(static_cast<double>(total_desire));
        }
      }
    } else {
      // Bulk path: each job folds the whole window into its state in one
      // call; the engine does the executed-work arithmetic.  Within a
      // steady window each job executes exactly min(allot, desire) per
      // category per step (window contract, jobs/job.hpp).
      for (Category a = 0; a < k; ++a) bulk_exec[a] = 0;
      for (std::size_t j = 0; j < active.size(); ++j) {
        for (Category a = 0; a < k; ++a)
          bulk_exec[a] += std::min(allot[j][a], views[j].desire[a]);
        set.job(active[j]).run_steady(std::span<const Work>(allot[j]), m);
      }
      for (Category a = 0; a < k; ++a)
        result.executed_work[a] += bulk_exec[a] * m;
      result.busy_steps += m;
      if (so.on) step_exec = bulk_exec;
      if (so.metrics_on) {
        // Desires are constant across the window, so the per-step
        // satisfied/deprived classification is too: fold in m at once.
        Work total_desire = 0;
        for (Category a = 0; a < k; ++a) {
          total_desire += step_desire[a];
          acc_desire[a] += step_desire[a] * m;
          if (bulk_exec[a] == step_desire[a])
            acc_satisfied[a] += m;
          else
            acc_deprived[a] += m;
        }
        lh_active.observe_n(static_cast<double>(views.size()), m);
        lh_ready.observe_n(static_cast<double>(total_desire), m);
      }
    }

    // Collect completions at the final step of the window.  The window
    // contract forbids earlier finishes; the differential suite holds the
    // job implementations to it.
    const Time t_final = t + m - 1;
    for (std::size_t j = 0; j < active.size();) {
      const Job& job = set.job(active[j]);
      if (job.finished()) {
        const JobId id = active[j];
        result.completion[id] = t_final;
        result.response[id] = t_final - set.release(id);
        result.makespan = std::max(result.makespan, t_final);
        ++finished_count;
        if (so.trace != nullptr)
          so.trace->instant("complete", "sim",
                            {{"vt", static_cast<double>(t_final)},
                             {"job", static_cast<double>(id)},
                             {"response",
                              static_cast<double>(t_final -
                                                  set.release(id))}});
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(j));
      } else {
        ++j;
      }
    }
    if (so.trace != nullptr) {
      // One counter sample per epoch, so one per step under kDense
      // (docs/OBSERVABILITY.md documents the divergence).
      obs::NumArgs series;
      series.reserve(static_cast<std::size_t>(k) + 1);
      series.emplace_back("active_jobs", static_cast<double>(active.size()));
      for (Category a = 0; a < k; ++a)
        series.emplace_back("exec" + std::to_string(a),
                            static_cast<double>(step_exec[a]));
      so.trace->counter("sim_step", std::move(series));
    }
    if (result.busy_steps > options.max_steps)
      throw std::runtime_error("simulate: exceeded max_steps with scheduler " +
                               scheduler.name());
    t += m;
  }
  // krad-lint: hot-loop-end

  result.outcome.assign(n, JobOutcome::kCompleted);
  for (JobId i = 0; i < n; ++i) {
    const Job& job = set.job(i);
    result.outcome[i] = job.outcome();
    if (const auto* faulty = dynamic_cast<const FaultyDagJob*>(&job)) {
      result.failed_attempts += faulty->failed_attempts();
      result.retries += faulty->retries();
    }
  }

  for (const Time r : result.response) result.total_response += r;
  result.mean_response =
      static_cast<double>(result.total_response) / static_cast<double>(n);
  for (Category a = 0; a < k; ++a) {
    const double denom = static_cast<double>(machine.processors[a]) *
                         static_cast<double>(std::max<Time>(1, result.busy_steps));
    result.utilization[a] =
        static_cast<double>(result.executed_work[a]) / denom;
  }

  // Flush the batched counters: one atomic update per metric per run.
  if (so.metrics_on) {
    lh_sched.flush();
    lh_active.flush();
    lh_ready.flush();
    so.steps->inc(result.busy_steps);
    so.decisions->inc(acc_decisions);
    so.virtual_time->set(static_cast<double>(result.makespan));
    for (Category a = 0; a < k; ++a) {
      so.desire[a]->inc(acc_desire[a]);
      so.allotted[a]->inc(result.allotted[a]);
      so.executed[a]->inc(result.executed_work[a]);
      so.satisfied[a]->inc(acc_satisfied[a]);
      so.deprived[a]->inc(acc_deprived[a]);
      so.utilization[a]->set(result.utilization[a]);
    }
  }
  result.trace = std::move(trace);
  return result;
}

}  // namespace

SimResult simulate(JobSet& set, KScheduler& scheduler,
                   const MachineConfig& machine, const SimOptions& options) {
  if (options.decision_period < 1)
    throw std::logic_error("simulate: decision_period must be >= 1");
  if (options.decision_period == 1)
    return run(set, scheduler, machine, options);
  HeldAllotment held(scheduler, options.decision_period);
  return run(set, held, machine, options);
}

}  // namespace krad
