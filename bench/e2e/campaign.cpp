// Workloads campaign_dag and campaign_profile: exp::run_campaign over the
// scheduler x K x P x arrival grid, once with the default DAG family and
// once with the profile family.
//
// Why both: in a DAG campaign most of a run's time goes to instance
// generation and lower bounds, and DAG jobs keep the sparse engine near one
// decision per busy step; in a profile campaign generation is negligible and
// K-RAD's simulate() calls dominate.  A change to generation, bounds or the
// engine's DAG handling should move the first and leave the second alone.
//
// A run draws one instance set from its seed (the grid times `trials`
// trials) and runs it in reps until the measured phase has lasted
// --seconds; every rep must reproduce rep 0's records byte for byte.  A
// traced run follows each rep with a traced pass whose run hook makes
// standard_run's public calls itself, with a span and a timer around each,
// and must reproduce the untraced records exactly.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "bounds/lower_bounds.hpp"
#include "exp/runner.hpp"
#include "exp/standard_run.hpp"
#include "sim/engine.hpp"
#include "workload/arrivals.hpp"
#include "workload/random_jobs.hpp"
#include "workload/scenarios.hpp"

namespace krad::e2e {
namespace {

exp::SweepSpec make_spec(exp::JobFamily family, int trials,
                         std::uint64_t base_seed, bool smoke) {
  exp::SweepSpec spec;
  spec.name = family == exp::JobFamily::kDag ? "campaign_dag"
                                             : "campaign_profile";
  spec.schedulers = {"krad", "kequi", "kdeq"};
  spec.k_values = {2, 3};
  spec.procs_per_cat = {4, 16};
  spec.job_counts = {smoke ? std::size_t{4} : std::size_t{32}};
  spec.arrivals = {exp::ArrivalPattern::kBatched,
                   exp::ArrivalPattern::kPoisson};
  spec.family = family;
  spec.trials = trials;
  spec.base_seed = base_seed;
  spec.dag_params.min_size = smoke ? 8 : 64;
  spec.dag_params.max_size = smoke ? 32 : 512;
  // Phase work of 500-5000 keeps one K-RAD profile run near 40 ms, so a rep
  // holds about a hundred of them and no single run sets its wall time.
  spec.profile_params.min_phases = 2;
  spec.profile_params.max_phases = 6;
  spec.profile_params.min_phase_work = smoke ? 20 : 500;
  spec.profile_params.max_phase_work = smoke ? 200 : 5000;
  spec.profile_params.max_parallelism = 32;
  return spec;
}

/// Per-scheduler simulate() time of the traced passes.
struct SimCalls {
  double seconds = 0.0;
  int calls = 0;
};

/// State shared by the worker threads of one traced pass.
struct TracedPass {
  obs::TraceSession* session = nullptr;
  std::mutex mu;
  LayerTotals totals;
  std::map<std::string, SimCalls> per_scheduler;
};

/// standard_run's public calls, made one by one with a span and a timer
/// around each.  The grid only uses batched and Poisson arrivals.
exp::RunRecord traced_run(const exp::RunPoint& point, TracedPass& pass) {
  const auto start = Clock::now();
  const std::string key = point.key();
  LayerTotals local;
  local.ops = 1.0;
  Span whole(pass.session, "run", key);

  const MachineConfig machine = point.machine();
  Rng rng(point.seed);
  JobSet set;
  {
    Span span(pass.session, "make_job_set", key, &local.gen_s);
    if (point.family == exp::JobFamily::kDag) {
      set = make_dag_job_set(point.dag_params, point.jobs, rng);
    } else {
      RandomProfileJobParams params = point.profile_params;
      if (point.profile_parallelism_factor > 0)
        params.max_parallelism =
            static_cast<Work>(point.profile_parallelism_factor) * point.procs;
      set = make_profile_job_set(params, point.jobs, rng);
    }
    if (point.arrival == exp::ArrivalPattern::kPoisson)
      apply_releases(set, poisson_releases(point.jobs, point.poisson_mean_gap,
                                           rng));
  }
  MakespanBounds bounds;
  {
    Span span(pass.session, "makespan_bounds", key, &local.bounds_s);
    bounds = makespan_bounds(set, machine);
  }
  const std::unique_ptr<KScheduler> inner =
      exp::make_scheduler(point.scheduler);
  TimedScheduler scheduler(*inner);
  SimResult result;
  {
    Span span(pass.session, "simulate", key, &local.engine_s);
    result = simulate(set, scheduler, machine);
  }
  local.sched_s = scheduler.seconds();
  local.sched_calls = scheduler.calls();
  local.steps = result.busy_steps;

  exp::RunRecord record;
  record.key = key;
  record.scheduler = point.scheduler;
  record.makespan = result.makespan;
  record.ratio = makespan_ratio(result, bounds);
  record.bound = machine.makespan_bound();
  local.busy_s = seconds_since(start);

  std::lock_guard<std::mutex> lock(pass.mu);
  pass.totals.add(local);
  SimCalls& calls = pass.per_scheduler[point.scheduler];
  calls.seconds += local.engine_s;
  ++calls.calls;
  return record;
}

/// Theorem-3 sanity on one record: the ratio is measured against a lower
/// bound on OPT, so it is >= 1 for every scheduler, and K-RAD's stays
/// within K + 1 - 1/Pmax.
bool record_ok(const exp::RunRecord& record) {
  if (!(record.ratio >= 1.0 - 1e-9)) return false;
  if (record.scheduler == "krad" && record.ratio > record.bound + 1e-9)
    return false;
  return record.makespan > 0;
}

/// Records of one pass as JSONL, the campaign engine's stable format.
std::string serialize(const std::vector<exp::RunRecord>& records) {
  std::string lines;
  for (const exp::RunRecord& record : records)
    lines += record.to_jsonl() + "\n";
  return lines;
}

void run_campaign(const Options& options, Report& report,
                  exp::JobFamily family, int trials) {
  std::unique_ptr<obs::TraceSession> session;
  if (options.traced()) session = std::make_unique<obs::TraceSession>();
  TracedPass pass;
  pass.session = session.get();

  // Set-up: expand the grid and warm the runner, the allocator and the
  // caches with one trial per cell of a fixed instance set, the same for
  // every seed so that set-up time does not depend on it.  Five times;
  // setup_s is their median.
  exp::SweepSpec spec;
  std::vector<exp::RunPoint> points;
  for (int i = 0; i < (options.smoke ? 1 : 5); ++i) {
    const auto setup_start = Clock::now();
    const exp::SweepSpec warm = make_spec(family, 1, 1, options.smoke);
    exp::CampaignOptions warm_options;
    warm_options.threads = options.nproc;
    const exp::CampaignResult warmed = exp::run_campaign(warm, warm_options);
    spec = make_spec(family, options.smoke ? 1 : trials,
                     mix_seed(options.seed, 0), options.smoke);
    points = spec.expand();
    report.setup_s.push_back(seconds_since(setup_start));
    report.attempted += static_cast<std::int64_t>(warm.size());
    for (const exp::RunRecord& record : warmed.records)
      if (!record_ok(record)) report.fail("warm-up run out of range");
  }
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < points.size(); ++i) index[points[i].key()] = i;

  // Reps of the same instance set.  The host's speed drifts by several
  // percent within seconds and noise only ever adds time, so each run keeps
  // its best time over the reps, and throughput is what the worker threads
  // complete at those times.  busy_share (traced) is the runner's own
  // efficiency.
  std::vector<double> best_ms(points.size(), 0.0);
  std::vector<double> rep_ms(points.size(), 0.0);
  std::string reference;
  const auto phase_start = Clock::now();
  int reps = 0;
  for (; reps < 3 || (!options.smoke &&
                      seconds_since(phase_start) < options.seconds);
       ++reps) {
    exp::CampaignOptions campaign;
    campaign.threads = options.nproc;
    campaign.run = [&](const exp::RunPoint& point) {
      const auto start = Clock::now();
      exp::RunRecord record = exp::standard_run(point);
      rep_ms[index.at(record.key)] = seconds_since(start) * 1e3;
      return record;
    };
    const exp::CampaignResult result = exp::run_campaign(spec, campaign);
    report.attempted += static_cast<std::int64_t>(points.size());
    if (result.executed != points.size())
      report.fail("rep " + std::to_string(reps) + " executed " +
                  std::to_string(result.executed) + " of " +
                  std::to_string(points.size()) + " runs");
    for (std::size_t i = 0; i < points.size(); ++i)
      best_ms[i] = reps == 0 ? rep_ms[i] : std::min(best_ms[i], rep_ms[i]);
    if (reps == 0) {
      reference = serialize(result.records);
      for (const exp::RunRecord& record : result.records)
        if (!record_ok(record))
          report.fail("ratio out of range in " + record.key + ": " +
                      std::to_string(record.ratio));
    } else if (serialize(result.records) != reference) {
      report.fail("rep " + std::to_string(reps) +
                  " records differ from rep 0 on the same instances");
    }

    if (!options.traced()) continue;
    exp::CampaignOptions traced;
    traced.threads = options.nproc;
    traced.run = [&pass](const exp::RunPoint& point) {
      return traced_run(point, pass);
    };
    const exp::CampaignResult replay = [&] {
      Span span(pass.session, "run_campaign", "rep=" + std::to_string(reps));
      return exp::run_campaign(spec, traced);
    }();
    pass.totals.capacity_s += replay.wall_seconds * options.nproc;
    report.overhead.push_back(replay.wall_seconds / result.wall_seconds - 1.0);
    report.attempted += static_cast<std::int64_t>(replay.records.size());
    const auto check_start = Clock::now();
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      const exp::RunRecord& mine = replay.records[i];
      const bool same = i < result.records.size() &&
                        mine.key == result.records[i].key &&
                        mine.makespan == result.records[i].makespan &&
                        mine.ratio == result.records[i].ratio;
      if (!same || !record_ok(mine))
        report.fail("traced run differs from standard_run: " + mine.key);
    }
    pass.totals.check_s += seconds_since(check_start);
  }

  double best_s = 0.0;
  for (const double ms : best_ms) best_s += ms * 1e-3;
  report.throughput =
      best_s > 0.0 ? static_cast<double>(points.size() * options.nproc) / best_s
                   : 0.0;
  report.latency_ms = std::move(best_ms);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(exp::fnv1a64(reference)));
  report.digest = hex;
  report.detail("campaign.runs_per_rep", static_cast<double>(points.size()),
                "count");
  report.detail("campaign.reps", static_cast<double>(reps), "count");
  if (!options.traced()) return;

  report.layers = pass.totals;
  for (const auto& [name, calls] : pass.per_scheduler) {
    report.detail("sim.call_us." + name,
                  calls.calls > 0 ? calls.seconds * 1e6 / calls.calls : 0.0,
                  "us");
  }
  if (!write_trace(*session, options))
    report.fail("cannot write the trace file");
}

}  // namespace

void run_campaign_dag(const Options& options, Report& report) {
  run_campaign(options, report, exp::JobFamily::kDag, 36);
}

void run_campaign_profile(const Options& options, Report& report) {
  run_campaign(options, report, exp::JobFamily::kProfile, 12);
}

}  // namespace krad::e2e
