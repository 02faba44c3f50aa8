#pragma once
// Simulation for machines with per-processor speeds (see
// speed_machine.hpp).  The scheduler remains count-based and speed-blind —
// it decides how many alpha-processors each job gets, exactly as in the
// base model; the SpeedAssignment policy then maps concrete processors to
// jobs, and each job executes min(desire, sum of assigned speeds) ready
// tasks.  simulate_speeds is simulate() on a machine whose category
// capacity is S_alpha, under a scheduler decorator that does that mapping;
// with all speeds 1 it is simulate() step for step.

#include "core/scheduler.hpp"
#include "hetero/speed_machine.hpp"
#include "jobs/job_set.hpp"
#include "sim/metrics.hpp"

namespace krad {

struct SpeedSimResult {
  SimResult base;
  /// Speed units offered to jobs minus task units executed (wasted
  /// throughput), per category.
  std::vector<Work> wasted_speed;
};

SpeedSimResult simulate_speeds(JobSet& set, KScheduler& scheduler,
                               const SpeedMachineConfig& machine,
                               SpeedAssignment assignment,
                               Time max_steps = 50'000'000);

/// Makespan lower bound under speeds: max(max_i (r_i + T_inf),
/// max_alpha ceil(T1(J, alpha) / S_alpha)).
Work speed_makespan_lower_bound(const JobSet& set,
                                const SpeedMachineConfig& machine);

}  // namespace krad
