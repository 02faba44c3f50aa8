#pragma once
// Exact optimal schedules for small instances, by A* search over
// executed-vertex bitmasks.  Used to cross-validate the paper's lower bounds
// (LB <= OPT) and the measured competitive ratios (OPT <= K-RAD <=
// bound * OPT) on instances small enough to solve.
//
// Scope: batched DagJob sets with at most 63 vertices in total (the mask
// width); max_states and max_moves guard against instances too wide to
// search.  Executing a maximal set of ready tasks each step is without loss
// of generality for both makespan and total response time (running extra
// unit tasks can only advance the state), so moves enumerate, per category,
// every choice of min(P_alpha, ready_alpha) ready tasks.  The heuristics are
// the residual forms of the paper's lower bounds: Section 4's span and work
// bounds, taken level by level, for makespan; Section 6's aggregate span and
// squashed work area, rank by rank, for total response.  Jobs with identical
// categories and edges are interchangeable in a batched set, so states that
// differ only by permuting such jobs are searched once.

#include <cstdint>
#include <optional>

#include "jobs/job_set.hpp"

namespace krad {

struct OptimalLimits {
  std::size_t max_vertices = 63;      ///< refuse larger instances
  std::size_t max_states = 4'000'000; ///< memo/visited cap
  std::size_t max_moves = 200'000;    ///< per-state move cap
};

/// Minimum possible makespan, or nullopt if the instance exceeds the limits.
/// Throws std::logic_error for non-batched or non-DagJob sets.
std::optional<Work> optimal_makespan(const JobSet& set,
                                     const MachineConfig& machine,
                                     const OptimalLimits& limits = {});

/// Minimum possible TOTAL response time (sum over jobs of completion time),
/// or nullopt if the instance exceeds the limits.
std::optional<Work> optimal_total_response(const JobSet& set,
                                           const MachineConfig& machine,
                                           const OptimalLimits& limits = {});

}  // namespace krad
