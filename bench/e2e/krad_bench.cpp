// krad_bench — one benchmark for the simulator, the live executor and the
// service (README.md in this directory has the workloads and metrics).
//
//   krad_bench --workload <name> --seed <n> [--seconds <s>] [--trace <dir>]
//              [--work-dir <dir>] [--git <describe>]
//   krad_bench --smoke [--trace <dir>] [--work-dir <dir>]
//
// Runs one workload in this process and checks its outputs.  Prints every
// metric as a `name value unit` line, then the host fingerprint as one JSON
// line, then, as the last line, one JSON object holding `correct`,
// `attempted`, `failed` and the metrics: the end-to-end ones for an
// untraced run, the per-layer ones for a traced run (--trace).
//
// --smoke runs all five workloads at tiny sizes with every correctness
// check and no claim about the numbers; it is the krad_bench_smoke test.
//
// A watchdog ends a run that outlives ten times its planned length: it
// prints a failed result and exits with status 3, so a hang in the system
// under test shows as a failure instead of a stalled pipeline.
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments, 3 from the watchdog.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

#ifndef KRAD_BENCH_COMPILER
#define KRAD_BENCH_COMPILER "unknown"
#endif
#ifndef KRAD_BENCH_BUILD_TYPE
#define KRAD_BENCH_BUILD_TYPE "unknown"
#endif

namespace krad::e2e {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"campaign_dag", run_campaign_dag},
    {"campaign_profile", run_campaign_profile},
    {"opt_exact", run_opt_exact},
    {"executor_batch", run_executor_batch},
    {"service_open", run_service_open},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1U, std::thread::hardware_concurrency());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99: a tail figure that means the same at every sample count.
double tail_quantile(std::size_t samples) {
  const double q =
      1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(samples, 1));
  return std::clamp(q, 0.5, 0.99);
}

double latency_tail(const Report& r) {
  if (r.latency_windows.empty())
    return percentile(r.latency_ms, tail_quantile(r.latency_ms.size()));
  std::vector<double> tails;
  for (const std::vector<double>& window : r.latency_windows)
    tails.push_back(percentile(window, tail_quantile(window.size())));
  return median(tails);
}

std::vector<Metric> end_to_end(const Report& r) {
  const double ok =
      r.attempted > 0
          ? static_cast<double>(r.attempted - r.failed) /
                static_cast<double>(r.attempted)
          : 0.0;
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"throughput", r.throughput, "1/s"},
      {"latency_ms_p50", percentile(r.latency_ms, 0.50), "ms"},
      {"latency_ms_tail", latency_tail(r), "ms"},
      {"ok_share", ok, "ratio"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Report& r) {
  const LayerTotals& t = r.layers;
  const auto per_op = [&t](double seconds, double scale) {
    return t.ops > 0.0 ? seconds * scale / t.ops : 0.0;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  return {
      {"gen_us", per_op(t.gen_s, 1e6), "us"},
      {"bounds_us", per_op(t.bounds_s, 1e6), "us"},
      {"engine_us", per_op(t.engine_s, 1e6), "us"},
      {"engine_self_us", per_op(t.engine_s - t.sched_s, 1e6), "us"},
      {"sched_ns", ratio(t.sched_s * 1e9, static_cast<double>(t.sched_calls)),
       "ns"},
      {"sched_calls", per_op(static_cast<double>(t.sched_calls), 1.0),
       "count"},
      {"steps", per_op(static_cast<double>(t.steps), 1.0), "count"},
      {"decisions_per_step",
       ratio(static_cast<double>(t.sched_calls), static_cast<double>(t.steps)),
       "ratio"},
      {"check_us", per_op(t.check_s, 1e6), "us"},
      {"busy_share", ratio(t.busy_s, t.capacity_s), "ratio"},
      {"trace_overhead", median(r.overhead), "ratio"},
  };
}

std::string host_json(unsigned nproc, const std::string& git) {
  return std::string("{\"host\": {\"nproc\": ") + std::to_string(nproc) +
         ", \"compiler\": \"" + obs::json_escape(KRAD_BENCH_COMPILER) +
         "\", \"build_type\": \"" + obs::json_escape(KRAD_BENCH_BUILD_TYPE) +
         "\", \"tracing\": " + (obs::kTracingEnabled ? "true" : "false") +
         ", \"git\": \"" + obs::json_escape(git) + "\"}}";
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           obs::format_double(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// Ends the process with a failed result if the run is still going at the
/// deadline.  The hung threads cannot be joined, so it exits in place.
class Watchdog {
 public:
  Watchdog(double seconds, std::string what)
      : thread_([this, seconds, what = std::move(what)] {
          std::unique_lock<std::mutex> lock(mu_);
          if (cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                           [this] { return done_; }))
            return;
          std::cout << "watchdog: " << what << " still running after "
                    << seconds << " s\n"
                    << result_json(false, 1, 1, {{"ok_share", 0.0, "ratio"}})
                    << std::endl;
          std::_Exit(3);
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

int usage(const char* message) {
  std::cerr << "krad_bench: " << message
            << "\nusage: krad_bench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace <dir>] [--work-dir <dir>] "
               "[--git <describe>]\n       krad_bench --smoke [--trace <dir>] "
               "[--work-dir <dir>]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

/// Run one workload and print its lines, the host line and the result line;
/// returns whether it was correct.
bool run_one(const Workload& workload, const Options& options,
             const std::string& host) {
  Report report;
  try {
    workload.run(options, report);
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  if (report.attempted < 1) report.fail("no op was attempted");
  report.attempted = std::max(report.attempted, report.failed);

  const std::vector<Metric> e2e = end_to_end(report);
  const std::vector<Metric> layers = per_layer(report);
  std::cout << "workload " << workload.name << " seed " << options.seed
            << (options.traced() ? " traced" : "") << '\n';
  for (const std::string& error : report.errors)
    std::cout << "[FAIL] " << error << '\n';
  if (!report.digest.empty()) std::cout << "digest " << report.digest << '\n';
  const auto print = [](const std::string& name, double value,
                        const std::string& unit) {
    std::cout << name << ' ' << obs::format_double(value) << ' ' << unit
              << '\n';
  };
  for (const Metric& m : e2e) print(m.name, m.value, m.unit);
  if (options.traced())
    for (const Metric& m : layers) print(m.name, m.value, m.unit);
  print("latency.samples", static_cast<double>(report.latency_ms.size()),
        "count");
  print("latency.tail_quantile",
        tail_quantile(report.latency_windows.empty()
                          ? report.latency_ms.size()
                          : report.latency_windows.front().size()),
        "ratio");
  for (const Detail& d : report.details) print(d.name, d.value, d.unit);

  std::vector<Metric> reported = options.traced() ? layers : e2e;
  bool finite = true;
  for (Metric& m : reported) {
    if (std::isfinite(m.value)) continue;
    finite = false;
    m.value = 0.0;
  }
  if (!finite) std::cout << "[FAIL] a metric is not finite\n";
  const bool correct = report.errors.empty() && finite;
  std::cout << host << '\n'
            << result_json(correct, report.attempted, report.failed, reported)
            << std::endl;
  return correct;
}

int run(int argc, char** argv) {
  Options options;
  options.nproc = hardware_threads();
  std::string git = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0)
        return usage("--seconds must be in (0, 600]");
    } else if (arg == "--trace") {
      options.trace_dir = argv[++i];
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (arg == "--git") {
      git = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads)
    if (options.smoke ? options.workload.empty() || options.workload == w.name
                      : options.workload == w.name)
      selected.push_back(&w);
  if (selected.empty()) return usage("unknown or missing --workload");
  if (!options.smoke && !have_seed) return usage("missing --seed");

  // Ten times the planned length, kept between one minute and just under
  // the three minutes a run may take.
  const double limit =
      options.smoke ? 600.0 : std::clamp(10.0 * options.seconds, 60.0, 170.0);
  Watchdog watchdog(limit, options.smoke ? std::string("smoke run")
                                         : options.workload);
  const std::string host = host_json(options.nproc, git);
  bool all_correct = true;
  for (const Workload* w : selected) {
    Options one = options;
    one.workload = w->name;
    all_correct = run_one(*w, one, host) && all_correct;
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace krad::e2e

int main(int argc, char** argv) { return krad::e2e::run(argc, argv); }
