// Workload service_open: the scheduling service end to end — an in-process
// svc::Service behind an svc::Server, driven over loopback TCP by one
// client thread.
//
// Why: it exercises the front door, admission, the write-ahead journal and
// the executor in live wall-clock mode, none of which the batch workloads
// touch.  A runtime change that helps executor_batch but hurts live mode
// shows as a split between the two.
//
// Service: one tenant, machine {4, 4}, K-RAD, 500 us quanta, 64 slots, the
// journal in the run's work directory.  Jobs are fork-join or chain 2-DAGs
// whose tasks spin for 20 us.  The client spreads its requests over
// min(nproc, 4) connections and waits in ppoll() until the next request is
// due, so its own lateness stays in microseconds.
//   1. Open loop: Poisson arrivals at 1000 jobs/s.  Latency runs from each
//      request's due time to its completion event, so a stall also delays
//      the requests behind it; a refused request counts as failed and as
//      waiting the whole phase.  The tail is the median over one-second
//      windows of each window's p99.
//   2. Closed loop: 128 jobs kept in flight, twice the slot count, so the
//      admission queue is never empty; throughput is the completion rate.
// Checks: every accepted ticket gets exactly one completion event, with
// outcome "completed" and response_quanta at least the job's makespan lower
// bound on the machine.  A traced run splits phase 1 into an untraced and a
// traced half and records one span per request.

#include <poll.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "bounds/lower_bounds.hpp"
#include "svc/svc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace krad::e2e {
namespace {

using namespace std::chrono_literals;

const MachineConfig kMachine{{4, 4}};
constexpr auto kQuantum = 500us;
constexpr std::size_t kSlots = 64;
constexpr std::uint64_t kTaskUs = 20;

struct Plan {
  double rate;          ///< open-loop jobs per second
  std::size_t window;   ///< closed-loop jobs in flight
  double open_s;        ///< open-loop length (each half when traced)
  double closed_s;      ///< closed-loop length
  std::size_t pool;     ///< distinct closed-loop requests, reused in turn
};

Plan make_plan(const Options& options) {
  if (options.smoke) return Plan{200.0, 16, 0.5, 0.3, 64};
  const double open = options.traced() ? 0.3 : 0.6;
  return Plan{1000.0, 2 * kSlots, open * options.seconds,
              0.3 * options.seconds, 4096};
}

/// A fork-join of 2-8 category-0 tasks between category-1 endpoints, or a
/// single-category chain of 2-10 tasks.
KDag synthetic_dag(Rng& rng) {
  KDag dag(2);
  if (rng.chance(0.5)) {
    const auto width = rng.uniform_int(2, 8);
    const VertexId source = dag.add_vertex(1);
    const VertexId sink = dag.add_vertex(1);
    for (std::int64_t i = 0; i < width; ++i) {
      const VertexId mid = dag.add_vertex(0);
      dag.add_edge(source, mid);
      dag.add_edge(mid, sink);
    }
  } else {
    dag.add_chain(rng.chance(0.5) ? 0 : 1,
                  static_cast<std::size_t>(rng.uniform_int(2, 10)));
  }
  dag.seal();
  return dag;
}

struct Request {
  std::string line;
  Work lower_bound = 0;  ///< no schedule finishes the job in fewer quanta
};

struct Requests {
  std::vector<Request> open;    ///< phase 1, in arrival order
  std::vector<double> due_s;    ///< phase 1 arrival offsets
  std::vector<Request> closed;  ///< phase 2 pool
  double gen_s = 0.0;
  double bounds_s = 0.0;
};

Request make_request(Rng& rng, Requests& out) {
  const auto gen_start = Clock::now();
  KDag dag = synthetic_dag(rng);
  svc::JsonWriter w;
  w.begin_object()
      .field("op", "submit")
      .field("tenant", "bench")
      .field("task_us", kTaskUs)
      .field_raw("job", svc::render_job_spec(dag))
      .end_object();
  Request request;
  request.line = w.str() + "\n";
  out.gen_s += seconds_since(gen_start);

  const auto bounds_start = Clock::now();
  JobSet alone(2);
  alone.add(std::make_unique<DagJob>(std::move(dag)));
  request.lower_bound = makespan_bounds(alone, kMachine).lower_bound();
  out.bounds_s += seconds_since(bounds_start);
  return request;
}

Requests make_requests(std::uint64_t seed, const Plan& plan,
                       std::size_t open_count) {
  Rng rng(seed);
  Requests out;
  double t = 0.0;
  for (std::size_t i = 0; i < open_count; ++i) {
    t += rng.exponential(1.0 / plan.rate);
    out.due_s.push_back(t);
    out.open.push_back(make_request(rng, out));
  }
  for (std::size_t i = 0; i < plan.pool; ++i)
    out.closed.push_back(make_request(rng, out));
  return out;
}

/// `s` seconds as a steady-clock duration.
Clock::duration after(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Submission {
  const Request* request = nullptr;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point acked;
  Clock::time_point done;
  std::uint64_t ticket = 0;
  Time response = 0;
  bool accepted = false;
  bool completed = false;
  bool refused = false;
};

/// The load generator: one thread, several connections, one ppoll() loop.
class Client {
 public:
  Client(std::uint16_t port, unsigned connections, Report& report);
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send `requests[i]` at `start + due_s[i]`; return once every one is
  /// terminal or `deadline` passed.  Returns the first submission index.
  std::size_t open_loop(const std::vector<Request>& requests,
                        const std::vector<double>& due_s,
                        Clock::time_point start, Clock::time_point deadline);
  /// Keep `window` submissions in flight until `end`, drawing requests from
  /// `pool` in turn, then wait for the stragglers.  Returns the number of
  /// completions up to `end`.
  std::size_t closed_loop(const std::vector<Request>& pool,
                          std::size_t window, Clock::time_point end,
                          Clock::time_point deadline);

  /// Accepted submissions that never completed count as failed ops.
  void fail_unfinished();

  const std::vector<Submission>& submissions() const { return subs_; }
  /// Spans for traced phases; null when untraced.
  void set_trace(obs::TraceSession* session, Clock::time_point epoch) {
    session_ = session;
    epoch_ = epoch;
  }
  double check_s() const { return check_s_; }

 private:
  struct Connection {
    int fd = -1;
    std::string rx;
    std::deque<std::size_t> unacked;  ///< submissions, in send order
  };

  void close_all();
  void send(std::size_t index, Clock::time_point now);
  void poll_once(Clock::duration timeout);
  void on_line(Connection& conn, std::string_view line);
  std::size_t outstanding() const { return sent_ - terminal_; }

  Report& report_;
  std::vector<Connection> conns_;
  std::vector<Submission> subs_;
  std::unordered_map<std::uint64_t, std::size_t> by_ticket_;
  std::size_t sent_ = 0;
  std::size_t terminal_ = 0;
  std::size_t next_conn_ = 0;
  obs::TraceSession* session_ = nullptr;
  Clock::time_point epoch_;
  double check_s_ = 0.0;
};

Client::Client(std::uint16_t port, unsigned connections, Report& report)
    : report_(report) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (unsigned i = 0; i < connections; ++i) {
    Connection conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd >= 0 &&
        ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      conns_.push_back(std::move(conn));
      continue;
    }
    const std::string error = std::strerror(errno);
    if (conn.fd >= 0) ::close(conn.fd);
    close_all();
    throw std::runtime_error("cannot connect to the server: " + error);
  }
}

void Client::close_all() {
  for (Connection& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
}

void Client::send(std::size_t index, Clock::time_point now) {
  Connection& conn = conns_[next_conn_++ % conns_.size()];
  Submission& sub = subs_[index];
  sub.sent = now;
  conn.unacked.push_back(index);
  ++sent_;
  const std::string& line = sub.request->line;
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(conn.fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      report_.fail("send() failed: " + std::string(std::strerror(errno)));
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void Client::poll_once(Clock::duration timeout) {
  std::vector<pollfd> fds;
  for (const Connection& conn : conns_) fds.push_back({conn.fd, POLLIN, 0});
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  char buffer[65536];
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Connection& conn = conns_[i];
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      report_.fail("server closed connection " + std::to_string(i));
      ::close(conn.fd);
      conn.fd = -1;
      continue;
    }
    conn.rx.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = conn.rx.find('\n', start)) != std::string::npos;
         start = nl + 1)
      on_line(conn, std::string_view(conn.rx).substr(start, nl - start));
    conn.rx.erase(0, start);
  }
}

void Client::on_line(Connection& conn, std::string_view line) {
  const auto now = Clock::now();
  svc::JsonValue msg;
  try {
    msg = svc::parse_json(line);
  } catch (const svc::JsonError& e) {
    report_.fail(std::string("unparsable reply: ") + e.what());
    return;
  }
  if (const svc::JsonValue* ok = msg.find("ok"); ok != nullptr) {
    if (conn.unacked.empty()) {
      report_.fail("reply without a request");
      return;
    }
    Submission& sub = subs_[conn.unacked.front()];
    const std::size_t index = conn.unacked.front();
    conn.unacked.pop_front();
    sub.acked = now;
    if (ok->as_bool()) {
      sub.accepted = true;
      sub.ticket = static_cast<std::uint64_t>(msg.find("ticket")->as_int());
      by_ticket_[sub.ticket] = index;
      return;
    }
    sub.refused = true;
    sub.done = now;
    ++terminal_;
    const svc::JsonValue* error = msg.find("error");
    report_.fail("submit refused: " +
                     (error != nullptr ? error->as_string() : "?"),
                 /*check_failed=*/false);
    return;
  }
  const auto check_start = Clock::now();
  const svc::JsonValue* ticket = msg.find("ticket");
  const auto it = ticket != nullptr
                      ? by_ticket_.find(static_cast<std::uint64_t>(
                            ticket->as_int()))
                      : by_ticket_.end();
  if (it == by_ticket_.end()) {
    report_.fail("event for an unknown ticket: " + std::string(line));
    return;
  }
  Submission& sub = subs_[it->second];
  if (sub.completed) {
    report_.fail("second completion event for ticket " +
                 std::to_string(sub.ticket));
    return;
  }
  sub.completed = true;
  sub.done = now;
  ++terminal_;
  const svc::JsonValue* outcome = msg.find("outcome");
  const svc::JsonValue* response = msg.find("response_quanta");
  sub.response = response != nullptr ? response->as_int() : 0;
  if (outcome == nullptr || outcome->as_string() != "completed" ||
      sub.response < sub.request->lower_bound) {
    report_.fail("ticket " + std::to_string(sub.ticket) +
                 " ended badly: " + std::string(line));
  }
  if (session_ != nullptr) {
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    const std::string id = std::to_string(sub.ticket);
    session_->complete("submit_to_ack", "krad_bench", us(sub.due),
                       us(sub.acked) - us(sub.due), {}, {{"ticket", id}});
    session_->complete("request", "krad_bench", us(sub.due),
                       us(sub.done) - us(sub.due), {}, {{"ticket", id}});
  }
  check_s_ += seconds_since(check_start);
}

std::size_t Client::open_loop(const std::vector<Request>& requests,
                              const std::vector<double>& due_s,
                              Clock::time_point start,
                              Clock::time_point deadline) {
  const std::size_t first = subs_.size();
  subs_.reserve(first + requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Submission sub;
    sub.request = &requests[i];
    sub.due = start + after(due_s[i]);
    subs_.push_back(sub);
  }
  std::size_t next = first;
  for (;;) {
    auto now = Clock::now();
    while (next < subs_.size() && subs_[next].due <= now) {
      send(next++, now);
      now = Clock::now();
    }
    if ((next == subs_.size() && outstanding() == 0) || now >= deadline) break;
    const Clock::time_point wake =
        next < subs_.size() ? std::min(subs_[next].due, deadline)
                            : std::min(now + 20ms, deadline);
    poll_once(wake - now);
  }
  return first;
}

std::size_t Client::closed_loop(const std::vector<Request>& pool,
                                std::size_t window, Clock::time_point end,
                                Clock::time_point deadline) {
  const std::size_t first = subs_.size();
  std::size_t drawn = 0;
  for (;;) {
    const auto now = Clock::now();
    if (now < end) {
      while (outstanding() < window) {
        Submission sub;
        sub.request = &pool[drawn++ % pool.size()];
        sub.due = now;
        subs_.push_back(sub);
        send(subs_.size() - 1, now);
      }
    } else if (outstanding() == 0) {
      break;
    }
    if (now >= deadline) break;
    poll_once(std::min(now + 20ms, deadline) - now);
  }
  std::size_t done = 0;
  for (std::size_t i = first; i < subs_.size(); ++i)
    if (subs_[i].completed && subs_[i].done <= end) ++done;
  return done;
}

void Client::fail_unfinished() {
  for (const Submission& sub : subs_) {
    if (sub.accepted && !sub.completed)
      report_.fail("no completion event for ticket " +
                   std::to_string(sub.ticket));
    else if (!sub.accepted && !sub.refused)
      report_.fail("no reply to a submit");
  }
}

/// One service instance with its server and a connected client, declared
/// in the order they must be destroyed in reverse.
struct Stack {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<svc::Service> service;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<Client> client;

  /// Close the client, stop the server, drain the service and tear it all
  /// down; returns the executor's result.
  RuntimeResult shut_down() {
    client.reset();
    server->stop();
    server.reset();
    service->drain();
    RuntimeResult result = service->join();
    service.reset();
    return result;
  }
};

Stack start_stack(const Options& options, Report& report) {
  const std::filesystem::path journal =
      std::filesystem::path(options.work_dir) / "service_open.wal";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  std::filesystem::remove(journal, ec);

  Stack stack;
  stack.metrics = std::make_unique<obs::MetricsRegistry>();
  svc::ServiceConfig config;
  config.machine = kMachine;
  // Deep enough that the closed loop's extra window never overflows it.
  config.tenants = {{"bench", 1.0, 4096}};
  config.scheduler = "krad";
  config.live_slots = kSlots;
  config.clock = ClockMode::kWall;
  config.quantum_length = kQuantum;
  config.threads_per_category = 1;
  config.journal_path = journal.string();
  config.metrics = stack.metrics.get();
  stack.service = std::make_unique<svc::Service>(config);
  stack.server = std::make_unique<svc::Server>(*stack.service,
                                               svc::ServerConfig{});
  stack.server->start();
  stack.client = std::make_unique<Client>(
      stack.server->port(), std::min(options.nproc, 4U), report);
  return stack;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

void run_service_open(const Options& options, Report& report) {
  const Plan plan = make_plan(options);
  const auto open_count =
      static_cast<std::size_t>(std::ceil(plan.rate * plan.open_s));
  const std::uint64_t seed = mix_seed(options.seed, 0);

  // Set-up: generate the requests and bring up service, server and client.
  // Done five times, keeping the last, so setup_s is a median.
  Requests requests;
  Stack stack;
  for (int i = 0; i < 5; ++i) {
    if (stack.service != nullptr) stack.shut_down();
    const auto start = Clock::now();
    requests = make_requests(seed, plan, open_count);
    stack = start_stack(options, report);
    report.setup_s.push_back(seconds_since(start));
  }
  Client& client = *stack.client;

  // Phase 1: the open loop, and in a traced run a traced copy of it.  A
  // request still unanswered drain_s after the last arrival counts as lost.
  const auto phase_start = Clock::now();
  const double drain_s = 10.0;
  struct OpenLoop {
    std::size_t first = 0;  ///< index of its first submission
    std::vector<double> latency_ms;
    std::vector<std::vector<double>> windows;  ///< by second of due time
  };
  const auto run_open = [&] {
    OpenLoop loop;
    const auto start = Clock::now() + 2ms;
    loop.first = client.open_loop(requests.open, requests.due_s, start,
                                  start + after(plan.open_s + drain_s));
    const auto& subs = client.submissions();
    for (std::size_t i = loop.first; i < subs.size(); ++i) {
      const Submission& sub = subs[i];
      const double ms = sub.completed ? us_between(sub.due, sub.done) * 1e-3
                                      : plan.open_s * 1e3;
      loop.latency_ms.push_back(ms);
      const auto second =
          static_cast<std::size_t>(requests.due_s[i - loop.first]);
      if (loop.windows.size() <= second) loop.windows.resize(second + 1);
      loop.windows[second].push_back(ms);
    }
    report.attempted += static_cast<std::int64_t>(open_count);
    return loop;
  };
  OpenLoop open = run_open();

  std::unique_ptr<obs::TraceSession> session;
  if (options.traced()) {
    session = std::make_unique<obs::TraceSession>();
    client.set_trace(session.get(), Clock::now());
    const OpenLoop traced = run_open();
    report.overhead.push_back(percentile(traced.latency_ms, 0.5) /
                                  percentile(open.latency_ms, 0.5) -
                              1.0);
  }

  // Phase 2: closed loop.
  const auto closed_end = Clock::now() + after(plan.closed_s);
  const std::size_t before = client.submissions().size();
  const std::size_t done =
      client.closed_loop(requests.closed, plan.window, closed_end,
                         closed_end + after(drain_s));
  report.attempted +=
      static_cast<std::int64_t>(client.submissions().size() - before);
  report.throughput = static_cast<double>(done) / plan.closed_s;
  const double phases_s = seconds_since(phase_start);

  client.fail_unfinished();
  const double check_s = client.check_s();
  const std::vector<Submission> subs = client.submissions();
  const RuntimeResult result = stack.shut_down();
  report.latency_ms = std::move(open.latency_ms);
  report.latency_windows = std::move(open.windows);

  // Where phase 1's latency went: waiting for the ack, and the part of the
  // rest that the schedule itself (response quanta x quantum) explains.
  std::vector<double> ack_us, lag_us, model_ms, residual_us;
  for (std::size_t i = open.first; i < open.first + open_count; ++i) {
    const Submission& sub = subs[i];
    lag_us.push_back(us_between(sub.due, sub.sent));
    if (!sub.completed) continue;
    ack_us.push_back(us_between(sub.due, sub.acked));
    const double model =
        static_cast<double>(sub.response) *
        std::chrono::duration<double, std::milli>(kQuantum).count();
    model_ms.push_back(model);
    residual_us.push_back(us_between(sub.due, sub.done) - model * 1e3);
  }
  report.detail("svc.ack_us_p50", percentile(ack_us, 0.5), "us");
  report.detail("svc.ack_us_p99", percentile(ack_us, 0.99), "us");
  report.detail("svc.gen_lag_us_p99", percentile(lag_us, 0.99), "us");
  report.detail("svc.model_ms_p50", percentile(model_ms, 0.5), "ms");
  report.detail("svc.residual_us_p50", percentile(residual_us, 0.5), "us");
  report.detail("svc.residual_us_p99", percentile(residual_us, 0.99), "us");
  auto counter = [&stack](const char* name, const obs::Labels& labels) {
    return static_cast<double>(stack.metrics->counter(name, labels).value());
  };
  report.detail("svc.journal_records", counter("krad_svc_journal_records", {}),
                "count");
  report.detail("svc.journal_fsyncs", counter("krad_svc_journal_fsyncs", {}),
                "count");
  report.detail("svc.rejected",
                counter("krad_svc_rejected_total", {{"tenant", "bench"}}),
                "count");
  std::vector<double> quantum_us;
  for (const QuantumStats& q : result.quanta)
    quantum_us.push_back(static_cast<double>(q.total_ns) * 1e-3);
  report.detail("runtime.quantum_us_p50", percentile(quantum_us, 0.5), "us");
  report.detail("runtime.quantum_us_p99", percentile(quantum_us, 0.99), "us");
  if (!options.traced()) return;

  // Per-layer totals cover the whole service run: its executor reports
  // only at join().
  LayerTotals& layers = report.layers;
  std::size_t completed = 0;
  for (const Submission& sub : subs) completed += sub.completed ? 1 : 0;
  const double generated =
      static_cast<double>(requests.open.size() + requests.closed.size());
  layers.ops = static_cast<double>(completed);
  layers.gen_s = requests.gen_s / generated * layers.ops;
  layers.bounds_s = requests.bounds_s / generated * layers.ops;
  layers.check_s = check_s;
  layers.steps = result.busy_quanta;
  for (const QuantumStats& q : result.quanta) {
    layers.engine_s += static_cast<double>(q.total_ns) * 1e-9;
    layers.sched_s += static_cast<double>(q.schedule_ns) * 1e-9;
    layers.busy_s += static_cast<double>(q.schedule_ns + q.barrier_ns) * 1e-9;
    ++layers.sched_calls;
  }
  layers.capacity_s = phases_s;
  if (!write_trace(*session, options))
    report.fail("cannot write the trace file");
}

}  // namespace krad::e2e
