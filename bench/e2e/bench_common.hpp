#pragma once
// Shared pieces of krad_bench (see README.md in this directory): run
// options, the report every workload fills, timers, and the allot()-timing
// scheduler decorator of traced runs.
//
// Every number is taken from outside the library: the benchmark times its
// own calls to public functions and reads public result structs, so the
// library needs no benchmark hooks and can change underneath it.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/trace_event.hpp"

namespace krad::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Independent 64-bit stream for (seed, salt): inputs of round r of a run
/// seeded s come from mix_seed(s, r), so a seed fixes every round's inputs.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase; set-up comes on top.
  double seconds = 10.0;
  /// Non-empty: a traced run, which writes <trace_dir>/<workload>.trace.json.
  std::string trace_dir;
  /// Directory for the files the system under test writes (its journal).
  std::string work_dir = ".";
  /// Tiny sizes and every correctness check; the numbers mean nothing.
  bool smoke = false;
  /// Load threads and connections may not exceed this (hardware threads).
  unsigned nproc = 1;

  bool traced() const { return !trace_dir.empty(); }
};

/// Seconds spent in each layer, summed over the ops of the traced phase.
/// Which call is a workload's "engine" and what its "op" is: README.md.
struct LayerTotals {
  double ops = 0.0;
  double gen_s = 0.0;       ///< input generation
  double bounds_s = 0.0;    ///< lower bounds used by the checks
  double engine_s = 0.0;    ///< the loop calling the scheduler, with allot()
  double sched_s = 0.0;     ///< inside KScheduler::allot
  std::int64_t sched_calls = 0;
  std::int64_t steps = 0;   ///< busy steps or busy quanta
  double check_s = 0.0;     ///< correctness checks
  double busy_s = 0.0;      ///< summed op time
  double capacity_s = 0.0;  ///< measured wall x load threads

  void add(const LayerTotals& other);
};

/// A workload-specific number printed as a `name value unit` line; the
/// BENCHMARK.json metrics are the ones every workload reports.
struct Detail {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<double> setup_s;     ///< one entry per set-up
  double throughput = 0.0;         ///< ops per second
  std::vector<double> latency_ms;  ///< one entry per op
  /// Open-loop runs: the same latencies cut into consecutive windows.  The
  /// tail is then the median of the windows' tails, so one stall of the
  /// host moves one window, not the result.
  std::vector<std::vector<double>> latency_windows;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Failed correctness checks; any entry makes the run incorrect.
  std::vector<std::string> errors;
  LayerTotals layers;              ///< traced runs only
  std::vector<double> overhead;    ///< traced / untraced wall - 1, per pair
  std::vector<Detail> details;
  /// Digest of the run's deterministic outputs, when it has one: equal
  /// seeds must print equal digests.
  std::string digest;

  /// Record a failed op; `check_failed` also marks the output incorrect.
  void fail(const std::string& what, bool check_failed = true);
  void detail(std::string name, double value, std::string unit) {
    details.push_back(Detail{std::move(name), value, std::move(unit)});
  }
};

/// Forwards every KScheduler call to `inner` and times allot().  The
/// steady-state hooks are forwarded as well, so the sparse engine skips
/// exactly the calls it skips on the bare scheduler and results stay
/// bit-identical.
class TimedScheduler final : public KScheduler {
 public:
  explicit TimedScheduler(KScheduler& inner) : inner_(inner) {}

  void reset(const MachineConfig& machine, std::size_t num_jobs) override {
    inner_.reset(machine, num_jobs);
  }
  void allot(Time now, std::span<const JobView> active,
             const ClairvoyantView* clair, Allotment& out) override;
  void set_capacity(const MachineConfig& effective) override {
    inner_.set_capacity(effective);
  }
  bool clairvoyant() const override { return inner_.clairvoyant(); }
  Time steady_horizon() const override { return inner_.steady_horizon(); }
  void note_steady_steps(Time steps) override {
    inner_.note_steady_steps(steps);
  }
  std::string name() const override { return inner_.name(); }

  std::int64_t calls() const noexcept { return calls_; }
  double seconds() const noexcept { return static_cast<double>(ns_) * 1e-9; }

 private:
  KScheduler& inner_;
  std::int64_t calls_ = 0;
  std::int64_t ns_ = 0;
};

/// Records a span of `session` (when non-null) from construction to
/// destruction, tagged with the op's id, and adds its length to `total`.
class Span {
 public:
  Span(obs::TraceSession* session, const char* name, std::string id,
       double* total = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::TraceSession* session_;
  const char* name_;
  std::string id_;
  double* total_;
  Clock::time_point start_;
  double start_us_ = 0.0;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Write the session as <dir>/<workload>.trace.json; false on I/O failure.
bool write_trace(const obs::TraceSession& session, const Options& options);

// The workloads (one translation unit each).  Each fills `report` and
// returns; main() turns the report into metrics.
void run_campaign_dag(const Options& options, Report& report);
void run_campaign_profile(const Options& options, Report& report);
void run_opt_exact(const Options& options, Report& report);
void run_executor_batch(const Options& options, Report& report);
void run_service_open(const Options& options, Report& report);

}  // namespace krad::e2e
