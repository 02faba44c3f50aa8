#include "hetero/speed_engine.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sim/engine.hpp"

namespace krad {

const char* to_string(SpeedAssignment assignment) {
  switch (assignment) {
    case SpeedAssignment::kBlind: return "speed-blind";
    case SpeedAssignment::kFastestToGreediest: return "fastest-to-greediest";
  }
  return "?";
}

namespace {

/// Runs a count-based scheduler on a machine whose category capacity is the
/// aggregate speed S_alpha.  The inner scheduler decides processor counts on
/// the counts machine; this decorator hands each job the summed speed of the
/// concrete processors the assignment policy gives it, and the engine then
/// executes min(desire, speed) tasks.  It tallies the counted
/// processor-steps, so SimResult::allotted keeps its count meaning.
class SpeedAssigner final : public KScheduler {
 public:
  SpeedAssigner(KScheduler& inner, const SpeedMachineConfig& machine,
                SpeedAssignment assignment)
      : inner_(&inner),
        machine_(&machine),
        counts_(machine.counts()),
        assignment_(assignment),
        by_speed_(machine.categories()),
        allotted_(machine.categories(), 0),
        last_(machine.categories(), 0) {
    // Per category, processor indices sorted by descending speed (for the
    // fastest-to-greediest policy).
    for (std::size_t a = 0; a < by_speed_.size(); ++a) {
      const std::vector<int>& speeds = machine.speeds[a];
      by_speed_[a].resize(speeds.size());
      std::iota(by_speed_[a].begin(), by_speed_[a].end(), 0u);
      std::stable_sort(by_speed_[a].begin(), by_speed_[a].end(),
                       [&](std::size_t x, std::size_t y) {
                         return speeds[x] > speeds[y];
                       });
    }
  }

  void reset(const MachineConfig& machine, std::size_t num_jobs) override {
    (void)machine;  // the S_alpha machine; the inner scheduler sees counts
    inner_->reset(counts_, num_jobs);
    std::fill(allotted_.begin(), allotted_.end(), 0);
  }
  bool clairvoyant() const override { return inner_->clairvoyant(); }
  std::string name() const override { return inner_->name(); }
  Time steady_horizon() const override { return inner_->steady_horizon(); }
  void note_steady_steps(Time steps) override {
    inner_->note_steady_steps(steps);
    for (std::size_t a = 0; a < allotted_.size(); ++a)
      allotted_[a] += last_[a] * steps;
  }

  void allot(Time now, std::span<const JobView> active,
             const ClairvoyantView* clair, Allotment& out) override {
    const std::size_t k = allotted_.size();
    counted_.resize(active.size());
    for (std::vector<Work>& row : counted_) row.assign(k, 0);
    inner_->allot(now, active, clair, counted_);

    for (std::size_t a = 0; a < k; ++a) {
      Work total = 0;
      for (std::size_t j = 0; j < active.size(); ++j) total += counted_[j][a];
      if (total > counts_.processors[a])
        throw std::logic_error("simulate_speeds: over-allocation by " +
                               inner_->name());
      last_[a] = total;
      allotted_[a] += total;

      // Job visit order for processor hand-out.
      order_.resize(active.size());
      std::iota(order_.begin(), order_.end(), 0u);
      if (assignment_ == SpeedAssignment::kFastestToGreediest)
        std::stable_sort(order_.begin(), order_.end(),
                         [&](std::size_t x, std::size_t y) {
                           return active[x].desire[a] > active[y].desire[a];
                         });
      std::size_t next_proc = 0;  // index into by_speed_[a] / identity order
      for (std::size_t j : order_) {
        Work speed = 0;
        for (Work c = 0; c < counted_[j][a]; ++c, ++next_proc)
          speed += machine_->speeds[a][assignment_ == SpeedAssignment::kBlind
                                           ? next_proc
                                           : by_speed_[a][next_proc]];
        out[j][a] = speed;
      }
    }
  }

  const std::vector<Work>& allotted() const { return allotted_; }

 private:
  KScheduler* inner_;
  const SpeedMachineConfig* machine_;
  MachineConfig counts_;
  SpeedAssignment assignment_;
  std::vector<std::vector<std::size_t>> by_speed_;
  std::vector<Work> allotted_;  // counted processor-steps per category
  std::vector<Work> last_;      // counted total of the last decision
  Allotment counted_;
  std::vector<std::size_t> order_;
};

}  // namespace

SpeedSimResult simulate_speeds(JobSet& set, KScheduler& scheduler,
                               const SpeedMachineConfig& machine,
                               SpeedAssignment assignment, Time max_steps) {
  const auto k = static_cast<Category>(machine.categories());
  if (set.num_categories() != k)
    throw std::logic_error("simulate_speeds: category mismatch");
  MachineConfig capacity;
  for (Category a = 0; a < k; ++a) {
    if (machine.speeds[a].empty())
      throw std::logic_error("simulate_speeds: empty category");
    for (int s : machine.speeds[a])
      if (s < 1) throw std::logic_error("simulate_speeds: speed < 1");
    capacity.processors.push_back(static_cast<int>(machine.total_speed(a)));
  }

  SpeedAssigner assigner(scheduler, machine, assignment);
  SimOptions options;
  options.max_steps = max_steps;
  SpeedSimResult out;
  out.base = simulate(set, assigner, capacity, options);
  // The engine allotted speed; what it did not execute was wasted.
  out.wasted_speed.resize(k);
  for (Category a = 0; a < k; ++a)
    out.wasted_speed[a] = out.base.allotted[a] - out.base.executed_work[a];
  out.base.allotted = assigner.allotted();
  return out;
}

Work speed_makespan_lower_bound(const JobSet& set,
                                const SpeedMachineConfig& machine) {
  Work bound = set.max_release_plus_span();
  for (Category a = 0; a < machine.categories(); ++a) {
    const Work speed = machine.total_speed(a);
    const Work work = set.total_work(a);
    bound = std::max(bound, (work + speed - 1) / speed);
  }
  return bound;
}

}  // namespace krad
