#include "bench_common.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/rng.hpp"

namespace krad::e2e {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

void LayerTotals::add(const LayerTotals& other) {
  ops += other.ops;
  gen_s += other.gen_s;
  bounds_s += other.bounds_s;
  engine_s += other.engine_s;
  sched_s += other.sched_s;
  sched_calls += other.sched_calls;
  steps += other.steps;
  check_s += other.check_s;
  busy_s += other.busy_s;
  capacity_s += other.capacity_s;
}

void Report::fail(const std::string& what, bool check_failed) {
  ++failed;
  // The first few messages say what broke; the rest only add up.
  if (check_failed && errors.size() < 20) errors.push_back(what);
}

void TimedScheduler::allot(Time now, std::span<const JobView> active,
                           const ClairvoyantView* clair, Allotment& out) {
  const auto start = Clock::now();
  inner_.allot(now, active, clair, out);
  ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
             .count();
  ++calls_;
}

Span::Span(obs::TraceSession* session, const char* name, std::string id,
           double* total)
    : session_(session), name_(name), id_(std::move(id)), total_(total),
      start_(Clock::now()) {
  if (session_ != nullptr) start_us_ = session_->now_us();
}

Span::~Span() {
  if (total_ != nullptr) *total_ += seconds_since(start_);
  if (session_ != nullptr) {
    session_->complete(name_, "krad_bench", start_us_,
                       session_->now_us() - start_us_, {}, {{"id", id_}});
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(values.begin(), mid);
  return (lower + upper) / 2.0;
}

bool write_trace(const obs::TraceSession& session, const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  const std::filesystem::path path =
      std::filesystem::path(options.trace_dir) /
      (options.workload + ".trace.json");
  std::ofstream out(path);
  if (!out) return false;
  session.write_json(out);
  out << '\n';
  return static_cast<bool>(out);
}

}  // namespace krad::e2e
