// Workload opt_exact: exact optimal schedules (bounds/optimal) on a seeded
// instance set, single-threaded.
//
// Why: only the exact search does real work here, so a faster optimal
// solver (branch and bound, say) shows on this workload and on no other.
// Each solve is checked against the paper's chain of inequalities, with
// K-RAD's schedule from simulate() as the upper end:
//   LB <= OPT <= T(K-RAD) <= (K + 1 - 1/Pmax) OPT     (makespan)
//   LB_R <= OPT_R <= R(K-RAD)                         (total response)
// A solve that gives up (nullopt) is a failed op.
//
// A run draws one instance set from its seed, a fixed mix of sizes, and
// solves it in reps for --seconds.  A traced run follows each rep with a
// traced one: spans, per-layer timers and a timed K-RAD.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bounds/lower_bounds.hpp"
#include "bounds/optimal.hpp"
#include "core/krad.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace krad::e2e {
namespace {

struct OptCase {
  const char* name;  ///< detail-line suffix
  bool response;     ///< total response time instead of makespan
  std::size_t vertices;
  int per_block;
  std::size_t smoke_vertices;
};

// Makespan on K = 2, P = {2, 2}; total response on K = 1, P = {2}.  Solve
// time grows about eightfold per four vertices.  Sixteen v32 instances in
// 96 put the tail percentile (ten samples beyond it) inside the v32 band
// rather than on the edge between two sizes, where it would jump.
constexpr OptCase kCases[] = {
    {"mk_ms_p50.v24", false, 24, 4, 8},
    {"mk_ms_p50.v28", false, 28, 2, 8},
    {"mk_ms_p50.v32", false, 32, 2, 12},
    {"resp_ms_p50.v20", true, 20, 3, 8},
    {"resp_ms_p50.v24", true, 24, 1, 8},
};
constexpr int kBlocks = 8;

MachineConfig machine_for(const OptCase& c) {
  return c.response ? MachineConfig{{2}} : MachineConfig{{2, 2}};
}

/// A batched set of vertices / 4 four-task jobs, alternately a chain and a
/// diamond (one task forking to two that join in a fourth), each with every
/// category equally often in a seed-shuffled order.  Fixed shapes and
/// balanced categories keep the exact search's state space, and so the
/// solve time, in a narrow band for each size; random DAG shapes spread it
/// over two orders of magnitude, which made solves/s mostly a function of
/// the seed.
JobSet make_instance(Category k, std::size_t vertices, Rng& rng) {
  JobSet set(k);
  for (std::size_t j = 0; j < vertices / 4; ++j) {
    std::vector<Category> categories;
    for (Category i = 0; i < 4; ++i) categories.push_back(i % k);
    rng.shuffle(categories);
    KDag dag(k);
    VertexId v[4];
    for (std::size_t i = 0; i < 4; ++i) v[i] = dag.add_vertex(categories[i]);
    dag.add_edge(v[0], v[1]);
    dag.add_edge(j % 2 == 0 ? v[1] : v[0], v[2]);
    dag.add_edge(j % 2 == 0 ? v[2] : v[1], v[3]);
    if (j % 2 == 1) dag.add_edge(v[2], v[3]);
    dag.seal();
    set.add(std::make_unique<DagJob>(std::move(dag)));
  }
  return set;
}

struct Instance {
  const OptCase* kind = nullptr;
  JobSet set;
};

/// A run's instance set: `blocks` copies of the kCases mix, each drawn
/// afresh from the seed's stream.
std::vector<Instance> make_instances(std::uint64_t seed, bool smoke) {
  Rng rng(seed);
  std::vector<Instance> instances;
  for (int block = 0; block < (smoke ? 1 : kBlocks); ++block) {
    for (const OptCase& c : kCases) {
      for (int i = 0; i < (smoke ? 1 : c.per_block); ++i) {
        Instance instance;
        instance.kind = &c;
        instance.set = make_instance(
            c.response ? 1 : 2, smoke ? c.smoke_vertices : c.vertices, rng);
        instances.push_back(std::move(instance));
      }
    }
  }
  return instances;
}

struct Solve {
  double solve_ms = 0.0;
  double lb_over_opt = 0.0;
};

/// Bounds, exact solve and K-RAD for one instance; nullopt on a failed op.
/// With `layers` set (traced pass) each call is timed and spanned.
std::optional<Solve> solve(Instance& instance, const std::string& id,
                           Report& report, obs::TraceSession* session,
                           LayerTotals* layers) {
  const OptCase& c = *instance.kind;
  const MachineConfig machine = machine_for(c);
  OptimalLimits limits;
  limits.max_vertices = 32;
  LayerTotals local;
  double* bounds_s = layers != nullptr ? &local.bounds_s : nullptr;
  double* engine_s = layers != nullptr ? &local.engine_s : nullptr;
  double* check_s = layers != nullptr ? &local.check_s : nullptr;

  double lb = 0.0;
  {
    Span span(session, "bounds", id, bounds_s);
    lb = c.response
             ? response_bounds(instance.set, machine).total_lower_bound()
             : static_cast<double>(
                   makespan_bounds(instance.set, machine).lower_bound());
  }
  const auto start = Clock::now();
  std::optional<Work> opt;
  {
    Span span(session, c.response ? "optimal_total_response"
                                  : "optimal_makespan",
              id);
    opt = c.response ? optimal_total_response(instance.set, machine, limits)
                     : optimal_makespan(instance.set, machine, limits);
  }
  Solve out;
  out.solve_ms = seconds_since(start) * 1e3;

  KRad krad;
  TimedScheduler timed(krad);
  KScheduler& scheduler =
      layers != nullptr ? static_cast<KScheduler&>(timed) : krad;
  SimResult result;
  {
    Span span(session, "simulate", id, engine_s);
    result = simulate(instance.set, scheduler, machine);
  }

  bool ok = opt.has_value();
  {
    Span span(session, "check", id, check_s);
    const double best = ok ? static_cast<double>(*opt) : 0.0;
    ok = ok && lb <= best + 1e-9;
    if (c.response) {
      ok = ok && result.total_response >= *opt;
    } else {
      ok = ok && result.makespan >= *opt &&
           static_cast<double>(result.makespan) <=
               machine.makespan_bound() * best + 1e-9;
    }
    if (ok) out.lb_over_opt = best > 0.0 ? lb / best : 1.0;
  }
  if (!ok) {
    report.fail(opt.has_value()
                    ? "LB <= OPT <= K-RAD <= bound*OPT violated on " + id
                    : "optimal search gave up on " + id);
    return std::nullopt;
  }
  if (layers != nullptr) {
    local.ops = 1.0;
    local.sched_s = timed.seconds();
    local.sched_calls = timed.calls();
    local.steps = result.busy_steps;
    layers->add(local);
  }
  return out;
}

}  // namespace

void run_opt_exact(const Options& options, Report& report) {
  std::unique_ptr<obs::TraceSession> session;
  if (options.traced()) session = std::make_unique<obs::TraceSession>();
  const std::uint64_t seed = mix_seed(options.seed, 0);

  // Reps solve the same instances (regenerated: simulate() consumes them),
  // and each instance keeps its best solve time, because the host's speed
  // drifts and noise only ever adds time.  Throughput is solves per second
  // of exact search at those times.
  std::vector<double> best_ms;
  std::vector<double> lb_over_opt;
  std::vector<std::size_t> case_of;  // index into kCases, per instance
  const auto phase_start = Clock::now();
  int reps = 0;
  for (; reps < 3 || (!options.smoke &&
                      seconds_since(phase_start) < options.seconds);
       ++reps) {
    const auto setup_start = Clock::now();
    std::vector<Instance> instances = make_instances(seed, options.smoke);
    report.setup_s.push_back(seconds_since(setup_start));
    if (reps == 0) {
      best_ms.assign(instances.size(), 0.0);
      lb_over_opt.assign(instances.size(), 1.0);
      for (const Instance& instance : instances)
        case_of.push_back(static_cast<std::size_t>(instance.kind - kCases));
    }

    const auto rep_start = Clock::now();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      ++report.attempted;
      const std::optional<Solve> s =
          solve(instances[i], "instance=" + std::to_string(i), report,
                nullptr, nullptr);
      if (!s.has_value()) continue;
      best_ms[i] = reps == 0 ? s->solve_ms : std::min(best_ms[i], s->solve_ms);
      lb_over_opt[i] = s->lb_over_opt;
    }
    const double wall = seconds_since(rep_start);
    if (!options.traced()) continue;

    // The same instances again, traced.
    const auto gen_start = Clock::now();
    std::vector<Instance> again = make_instances(seed, options.smoke);
    LayerTotals layers;
    layers.gen_s = seconds_since(gen_start);
    const auto traced_start = Clock::now();
    for (std::size_t i = 0; i < again.size(); ++i) {
      ++report.attempted;
      const auto op_start = Clock::now();
      solve(again[i],
            "rep=" + std::to_string(reps) + "/instance=" + std::to_string(i),
            report, session.get(), &layers);
      layers.busy_s += seconds_since(op_start);
    }
    const double traced = seconds_since(traced_start);
    layers.capacity_s = traced;
    report.layers.add(layers);
    report.overhead.push_back(traced / wall - 1.0);
  }

  double best_s = 0.0;
  for (const double ms : best_ms) best_s += ms * 1e-3;
  report.throughput =
      best_s > 0.0 ? static_cast<double>(best_ms.size()) / best_s : 0.0;
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    std::vector<double> of_case;
    for (std::size_t i = 0; i < best_ms.size(); ++i)
      if (case_of[i] == c) of_case.push_back(best_ms[i]);
    report.detail(std::string("opt.") + kCases[c].name,
                  percentile(of_case, 0.5), "ms");
  }
  double lb_sum = 0.0;
  for (const double r : lb_over_opt) lb_sum += r;
  report.detail("opt.lb_over_opt",
                lb_over_opt.empty()
                    ? 0.0
                    : lb_sum / static_cast<double>(lb_over_opt.size()),
                "ratio");
  report.detail("opt.reps", reps, "count");
  report.latency_ms = std::move(best_ms);
  if (session != nullptr && !write_trace(*session, options))
    report.fail("cannot write the trace file");
}

}  // namespace krad::e2e
