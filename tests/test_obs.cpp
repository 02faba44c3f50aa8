// Observability layer tests: metric aggregation math, export
// well-formedness (JSON schema-checked by tests/json_check.hpp, Prometheus
// text by string structure), trace-event JSON, the per-category utilization
// identities published by sim::simulate and runtime::Executor, and the
// zero-overhead guarantee of the null-sink path (counting allocator).

#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "fault/fault_plan.hpp"
#include "jobs/job_set.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/runtime_job.hpp"
#include "sim/engine.hpp"
#include "workload/scenarios.hpp"
#include "json_check.hpp"

// --- counting allocator (whole binary) ------------------------------------
// Relaxed counter bumped by every global allocation; tests snapshot it
// around simulate() calls to prove the null-sink path allocates nothing
// beyond the baseline.

namespace {
std::atomic<std::size_t> g_allocations{0};
}

// noinline: if the compiler inlines these, it pairs the underlying
// malloc/free with allocations it attributes to the builtin operator new
// and emits -Wmismatched-new-delete false positives at -O3.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace krad {
namespace {

using testjson::JsonValue;

// --- metric aggregation math ----------------------------------------------

TEST(Metrics, CounterAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, HistogramBucketsCountAndSum) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5.0);
  // Inclusive upper bounds: 1.0 lands in the first bucket.
  EXPECT_EQ(h.bucket_count(0), 2);  // 0.5, 1.0
  EXPECT_EQ(h.bucket_count(1), 1);  // 1.5
  EXPECT_EQ(h.bucket_count(2), 1);  // 3.0
  EXPECT_EQ(h.bucket_count(3), 1);  // 100.0 -> +Inf bucket
}

TEST(Metrics, HistogramQuantiles) {
  obs::Histogram h({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket [0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // bucket (10, 20]
  // Median sits exactly at the first bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  // p75 interpolates halfway into the second bucket.
  EXPECT_NEAR(h.quantile(0.75), 15.0, 1e-9);
  h.observe(1e9);  // +Inf bucket: quantile clamps to the largest bound
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 30.0);
}

TEST(Metrics, LocalHistogramMatchesDirectObservation) {
  obs::Histogram direct({10.0, 20.0, 30.0});
  obs::Histogram batched({10.0, 20.0, 30.0});
  {
    obs::LocalHistogram local(&batched);
    for (double v : {5.0, 10.0, 25.0, 99.0, 15.0}) {
      direct.observe(v);
      local.observe(v);
    }
    EXPECT_EQ(batched.count(), 0);  // nothing published before flush
    local.flush();
    EXPECT_EQ(batched.count(), direct.count());
    EXPECT_DOUBLE_EQ(batched.sum(), direct.sum());
    for (std::size_t i = 0; i <= 3; ++i)
      EXPECT_EQ(batched.bucket_count(i), direct.bucket_count(i));
    local.flush();  // empty flush publishes nothing twice
    EXPECT_EQ(batched.count(), direct.count());
    local.observe(40.0);
  }  // destructor flushes the remainder
  direct.observe(40.0);
  EXPECT_EQ(batched.count(), direct.count());
  EXPECT_DOUBLE_EQ(batched.sum(), direct.sum());
  obs::LocalHistogram inert;  // null target: every call is a no-op
  inert.observe(1.0);
  inert.flush();
}

TEST(Metrics, BucketLayoutHelpers) {
  EXPECT_EQ(obs::linear_buckets(1.0, 2.0, 3),
            (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_EQ(obs::exponential_buckets(1.0, 10.0, 3),
            (std::vector<double>{1.0, 10.0, 100.0}));
}

TEST(Metrics, RegistryIsIdempotentPerNameAndLabels) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x_total", {{"cat", "0"}});
  obs::Counter& b = reg.counter("x_total", {{"cat", "0"}});
  obs::Counter& other = reg.counter("x_total", {{"cat", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_THROW(reg.gauge("x_total", {{"cat", "0"}}), std::logic_error);
}

TEST(Metrics, FormatDoubleAndEscape) {
  EXPECT_EQ(obs::format_double(0.5), "0.5");
  EXPECT_EQ(obs::format_double(-3.0), "-3");
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escape(std::string("x\x01y")), "x\\u0001y");
}

// --- exports ---------------------------------------------------------------

TEST(Metrics, JsonExportIsWellFormedAndComplete) {
  obs::MetricsRegistry reg;
  reg.counter("events_total", {{"kind", "a\"b"}}, "help text").inc(7);
  reg.gauge("depth").set(1.25);
  reg.gauge("broken").set(std::numeric_limits<double>::quiet_NaN());
  obs::Histogram& h = reg.histogram("lat_ns", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);

  const JsonValue doc = testjson::parse(reg.to_json());
  const auto& metrics = doc.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 4u);
  EXPECT_EQ(metrics[0].at("name").string, "events_total");
  EXPECT_EQ(metrics[0].at("type").string, "counter");
  EXPECT_EQ(metrics[0].at("labels").at("kind").string, "a\"b");
  EXPECT_DOUBLE_EQ(metrics[0].at("value").number, 7.0);
  EXPECT_DOUBLE_EQ(metrics[1].at("value").number, 1.25);
  EXPECT_TRUE(metrics[2].at("value").is_null());  // NaN -> null
  EXPECT_EQ(metrics[3].at("type").string, "histogram");
  EXPECT_DOUBLE_EQ(metrics[3].at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(metrics[3].at("sum").number, 5.5);
  EXPECT_EQ(metrics[3].at("buckets").as_array().size(), 3u);
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

TEST(Metrics, PrometheusExportStructure) {
  obs::MetricsRegistry reg;
  reg.counter("jobs_total", {{"cat", "0"}}, "jobs").inc(3);
  reg.counter("jobs_total", {{"cat", "1"}}, "jobs").inc(4);
  obs::Histogram& h = reg.histogram("lat", {1.0, 2.0}, {}, "latency");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string text = reg.to_prometheus();
  // One HELP/TYPE pair per family even with two label sets.
  EXPECT_EQ(count_occurrences(text, "# HELP jobs_total"), 1u);
  EXPECT_EQ(count_occurrences(text, "# TYPE jobs_total counter"), 1u);
  EXPECT_NE(text.find("jobs_total{cat=\"0\"} 3"), std::string::npos);
  EXPECT_NE(text.find("jobs_total{cat=\"1\"} 4"), std::string::npos);
  // Histogram: cumulative buckets, +Inf equals _count.
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 11"), std::string::npos);
}

// --- trace events ----------------------------------------------------------

TEST(Trace, EmitsWellFormedChromeTraceJson) {
  obs::TraceSession session;
  session.name_thread("main");
  session.complete("span", "sim", 10.0, 5.0, {{"vt", 3.0}},
                   {{"scheduler", "K-RAD"}});
  session.instant("blip", "sim", {{"vt", 4.0}});
  session.counter("track", {{"jobs", 2.0}});

  const JsonValue doc = testjson::parse(session.to_json());
  const auto& events = doc.at("traceEvents").as_array();
  if (!obs::kTracingEnabled) {
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(session.size(), 0u);
    return;
  }
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(session.size(), 4u);
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  // Metadata event names the thread.
  EXPECT_EQ(events[0].at("ph").string, "M");
  EXPECT_EQ(events[0].at("args").at("name").string, "main");
  // Complete span with duration and both arg kinds.
  EXPECT_EQ(events[1].at("ph").string, "X");
  EXPECT_DOUBLE_EQ(events[1].at("ts").number, 10.0);
  EXPECT_DOUBLE_EQ(events[1].at("dur").number, 5.0);
  EXPECT_DOUBLE_EQ(events[1].at("args").at("vt").number, 3.0);
  EXPECT_EQ(events[1].at("args").at("scheduler").string, "K-RAD");
  // Instant with scope, counter with series.
  EXPECT_EQ(events[2].at("ph").string, "i");
  EXPECT_EQ(events[2].at("s").string, "t");
  EXPECT_EQ(events[3].at("ph").string, "C");
  EXPECT_DOUBLE_EQ(events[3].at("args").at("jobs").number, 2.0);
}

// --- sim integration: the published identities -----------------------------

TEST(SimObservability, MetricsMatchSimResultIdentities) {
  Scenario scenario = scenario_cpu_io(8, 42);
  const auto k = static_cast<Category>(scenario.machine.categories());

  // Independent Lemma 2 inputs, captured before the run consumes the jobs.
  std::vector<double> total_work(k, 0.0);
  double tail = 0.0;
  int pmax = 1;
  for (int p : scenario.machine.processors) pmax = std::max(pmax, p);
  for (JobId i = 0; i < scenario.jobs.size(); ++i) {
    const Job& job = scenario.jobs.job(i);
    for (Category a = 0; a < k; ++a)
      total_work[a] += static_cast<double>(job.remaining_work(a));
    tail = std::max(tail, static_cast<double>(job.remaining_span() +
                                              scenario.jobs.release(i)));
  }
  double expected_bound = 0.0;
  for (Category a = 0; a < k; ++a)
    expected_bound +=
        total_work[a] / static_cast<double>(scenario.machine.processors[a]);
  expected_bound += (1.0 - 1.0 / static_cast<double>(pmax)) * tail;

  obs::MetricsRegistry reg;
  obs::TraceSession trace;
  obs::Observability sinks;
  sinks.metrics = &reg;
  sinks.trace = &trace;
  SimOptions options;
  options.obs = &sinks;

  KRad scheduler;
  scheduler.bind_metrics(&reg);
  const SimResult result =
      simulate(scenario.jobs, scheduler, scenario.machine, options);

  EXPECT_EQ(reg.counter("krad_sim_steps_total").value(), result.busy_steps);
  const std::int64_t decisions =
      reg.counter("krad_sim_decisions_total").value();
  EXPECT_GE(decisions, 1);
  for (Category a = 0; a < k; ++a) {
    const obs::Labels labels{{"cat", std::to_string(a)}};
    const std::int64_t executed =
        reg.counter("krad_sim_executed_total", labels).value();
    const std::int64_t allotted =
        reg.counter("krad_sim_allotted_total", labels).value();
    const std::int64_t desire =
        reg.counter("krad_sim_desire_total", labels).value();
    // Work conservation against the engine's own accounting.
    EXPECT_EQ(executed, result.executed_work[a]);
    EXPECT_EQ(allotted, result.allotted[a]);
    // Capacity: never more than P_alpha per busy step; admission: never
    // more executed than desired.
    EXPECT_LE(allotted,
              static_cast<std::int64_t>(scenario.machine.processors[a]) *
                  result.busy_steps);
    EXPECT_LE(executed, desire);
    // Every busy step is either satisfied or deprived for each category.
    const std::int64_t deprived =
        reg.counter("krad_sim_deprived_steps_total", labels).value();
    const std::int64_t satisfied =
        reg.counter("krad_sim_satisfied_steps_total", labels).value();
    EXPECT_EQ(deprived + satisfied, result.busy_steps);
    // The utilization gauge converges to the result's final utilization.
    EXPECT_NEAR(reg.gauge("krad_sim_utilization", labels).value(),
                result.utilization[a], 1e-12);
    // K-RAD's per-category DEQ accounting: every decision completes or
    // continues a round-robin cycle.
    const std::int64_t deq =
        reg.counter("krad_deq_steps_total", labels).value();
    const std::int64_t rr = reg.counter("krad_rr_steps_total", labels).value();
    EXPECT_EQ(deq + rr, decisions);
    EXPECT_EQ(deq, scheduler.rad(a).deq_steps());
    EXPECT_EQ(rr, scheduler.rad(a).rr_steps());
    EXPECT_EQ(reg.counter("krad_deq_satisfied_total", labels).value(),
              scheduler.rad(a).deq_satisfied());
    EXPECT_EQ(reg.counter("krad_deq_deprived_total", labels).value(),
              scheduler.rad(a).deq_deprived());
  }

  // Running Lemma 2 bound: after all jobs are released it equals the
  // closed-form over the whole set, and (Lemma 2) caps K-RAD's makespan.
  const double bound = reg.gauge("krad_sim_lemma2_bound").value();
  EXPECT_NEAR(bound, expected_bound, 1e-9);
  EXPECT_GE(bound, 0.0);

  // The trace is loadable and contains one allot span per decision.
  const JsonValue doc = testjson::parse(trace.to_json());
  const auto& events = doc.at("traceEvents").as_array();
  if (obs::kTracingEnabled) {
    std::int64_t allot_spans = 0;
    for (const JsonValue& event : events)
      if (event.at("ph").string == "X" && event.at("name").string == "allot")
        ++allot_spans;
    EXPECT_EQ(allot_spans, decisions);
  } else {
    EXPECT_TRUE(events.empty());
  }
}

TEST(SimObservability, RegistrySurvivesSchedulerReuse) {
  // Two runs into the same registry accumulate (get-or-register handles).
  Scenario scenario = scenario_cpu_io(4, 7);
  obs::MetricsRegistry reg;
  obs::Observability sinks;
  sinks.metrics = &reg;
  SimOptions options;
  options.obs = &sinks;

  KRad scheduler;
  const SimResult first =
      simulate(scenario.jobs, scheduler, scenario.machine, options);
  scenario.jobs.reset_all();
  const SimResult second =
      simulate(scenario.jobs, scheduler, scenario.machine, options);
  EXPECT_EQ(first.busy_steps, second.busy_steps);
  EXPECT_EQ(reg.counter("krad_sim_steps_total").value(),
            first.busy_steps + second.busy_steps);
}

// --- runtime integration ---------------------------------------------------

/// `on_task` (if set) runs inside every task closure with the vertex's
/// category.
RuntimeResult run_runtime_workload(
    obs::Observability* sinks, const FaultPlan* plan = nullptr,
    const std::function<void(Category)>& on_task = nullptr) {
  ExecutorOptions options;
  options.clock = ClockMode::kVirtual;
  options.obs = sinks;
  options.fault_plan = plan;
  options.retry.on_exhausted = ExhaustionAction::kFailJob;
  Executor executor(MachineConfig{{2, 2}}, options);
  for (int i = 0; i < 4; ++i) {
    auto job =
        std::make_unique<RuntimeJob>(fork_join({0, 1}, 2, 4, 2),
                                     "job-" + std::to_string(i));
    for (VertexId v = 0; v < job->dag().num_vertices(); ++v)
      job->set_task(v, [&on_task, a = job->dag().category(v)] {
        if (on_task) on_task(a);
      });
    executor.submit(std::move(job), /*release=*/i);
  }
  KRad scheduler;
  return executor.run(scheduler);
}

TEST(RuntimeObservability, MetricsMatchRuntimeResultAndCapacityInvariant) {
  obs::MetricsRegistry reg;
  obs::TraceSession trace;
  obs::Observability sinks;
  sinks.metrics = &reg;
  sinks.trace = &trace;

  // The depth gauge is raised at dispatch, before the batch is handed to
  // the workers, so every running task sees at least itself queued.
  const std::vector<obs::Gauge*> depth{
      &reg.gauge("krad_rt_queue_depth", {{"cat", "0"}}),
      &reg.gauge("krad_rt_queue_depth", {{"cat", "1"}})};
  std::atomic<int> tasks_seen{0}, tasks_unseen{0};
  const RuntimeResult result =
      run_runtime_workload(&sinks, nullptr, [&](Category a) {
        tasks_seen.fetch_add(1);
        if (depth[a]->value() < 1.0) tasks_unseen.fetch_add(1);
      });
  EXPECT_EQ(tasks_seen.load(),
            result.executed_work[0] + result.executed_work[1]);
  EXPECT_EQ(tasks_unseen.load(), 0);

  EXPECT_EQ(reg.counter("krad_rt_quanta_total").value(), result.busy_quanta);
  for (Category a = 0; a < 2; ++a) {
    const obs::Labels labels{{"cat", std::to_string(a)}};
    const std::int64_t executed =
        reg.counter("krad_rt_executed_total", labels).value();
    const std::int64_t allotted =
        reg.counter("krad_rt_allotted_total", labels).value();
    EXPECT_EQ(executed, result.executed_work[a]);
    EXPECT_EQ(allotted, result.allotted[a]);
    // Capacity invariant, from the metrics alone: per category, work
    // admitted never exceeds allotment, which never exceeds P_alpha per
    // busy quantum.
    EXPECT_LE(executed, allotted);
    EXPECT_LE(allotted, 2 * result.busy_quanta);
    // Reset at every barrier: the depth gauge reads 0 after the run.
    EXPECT_DOUBLE_EQ(depth[a]->value(), 0.0);
  }
  // Latency histograms saw one sample per busy quantum.
  EXPECT_EQ(reg.counter("krad_rt_quanta_total").value(), result.busy_quanta);

  const JsonValue doc = testjson::parse(trace.to_json());
  const auto& events = doc.at("traceEvents").as_array();
  if (obs::kTracingEnabled) {
    std::int64_t quantum_spans = 0, task_spans = 0;
    for (const JsonValue& event : events) {
      if (event.at("ph").string != "X") continue;
      if (event.at("name").string == "quantum") ++quantum_spans;
      if (event.at("name").string == "task") ++task_spans;
    }
    EXPECT_EQ(quantum_spans, result.busy_quanta);
    EXPECT_EQ(task_spans, result.executed_work[0] + result.executed_work[1]);
  } else {
    EXPECT_TRUE(events.empty());
  }
}

TEST(RuntimeObservability, FaultCountersMatchResult) {
  FaultPlan plan;
  plan.seed = 11;
  plan.failure_prob = {0.3, 0.2};

  obs::MetricsRegistry reg;
  obs::Observability sinks;
  sinks.metrics = &reg;
  const RuntimeResult result = run_runtime_workload(&sinks, &plan);

  EXPECT_EQ(reg.counter("krad_rt_failed_attempts_total").value(),
            result.failed_attempts);
  EXPECT_EQ(reg.counter("krad_rt_retries_total").value(), result.retries);
  EXPECT_EQ(reg.counter("krad_rt_timeouts_total").value(), result.timeouts);
  EXPECT_GT(result.failed_attempts, 0);  // the plan actually fired
}

// --- zero-overhead null-sink path ------------------------------------------

TEST(ObsOverhead, NullSinksAddNoAllocations) {
  // Identical runs: no sinks vs. an Observability struct with both sinks
  // null.  The engine must not allocate (or do anything) extra for the
  // latter — SimObs resolves to all-null handles up front.
  Scenario warm = scenario_cpu_io(6, 3);
  KRad scheduler;
  simulate(warm.jobs, scheduler, warm.machine);  // warm allocator pools

  Scenario base = scenario_cpu_io(6, 3);
  const std::size_t before_base = g_allocations.load();
  simulate(base.jobs, scheduler, base.machine);
  const std::size_t base_allocs = g_allocations.load() - before_base;

  Scenario nulled = scenario_cpu_io(6, 3);
  obs::Observability sinks;  // both pointers null
  SimOptions options;
  options.obs = &sinks;
  const std::size_t before_nulled = g_allocations.load();
  simulate(nulled.jobs, scheduler, nulled.machine, options);
  const std::size_t nulled_allocs = g_allocations.load() - before_nulled;

  EXPECT_EQ(nulled_allocs, base_allocs);
}

}  // namespace
}  // namespace krad
