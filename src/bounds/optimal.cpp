#include "bounds/optimal.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace krad {

namespace {

using Mask = std::uint64_t;

/// Jobs with identical categories and edges.  In a batched set they are
/// interchangeable, so a state and its twin-permuted images share one
/// canonical form: the twins' sub-masks in ascending order.
struct TwinGroup {
  std::size_t width = 0;             // vertices per job
  std::vector<std::size_t> offsets;  // first global vertex, per job
};

struct Instance {
  std::vector<Category> category;    // per global vertex
  std::vector<Mask> predecessors;    // per global vertex
  std::vector<Mask> job_mask;        // per job
  std::vector<int> processors;       // per category
  std::vector<Mask> category_mask;   // per category
  /// [L - 1]: vertices whose longest chain, counting themselves, is >= L.
  /// Unexecuted vertices are closed under successors, so the largest L that
  /// meets the unexecuted vertices of a job is the job's residual span.
  std::vector<Mask> chain_at_least;
  std::vector<TwinGroup> twins;      // groups of two or more jobs
  Mask full = 0;
};

/// Fills `inst`; false when the set is over the vertex limit or has a task
/// whose category has no processors, so that no schedule finishes it.
bool build_instance(const JobSet& set, const MachineConfig& machine,
                    const OptimalLimits& limits, Instance& inst) {
  if (!set.batched())
    throw std::logic_error("optimal search requires a batched job set");
  std::vector<const KDag*> dags;
  std::size_t total = 0;
  for (JobId id = 0; id < set.size(); ++id) {
    const auto* dag_job = dynamic_cast<const DagJob*>(&set.job(id));
    if (dag_job == nullptr)
      throw std::logic_error("optimal search requires DagJob-backed sets");
    dags.push_back(&dag_job->dag());
    total += dag_job->dag().num_vertices();
  }
  if (total > limits.max_vertices || total > 63) return false;
  inst.processors = machine.processors;
  inst.category.resize(total);
  inst.predecessors.assign(total, 0);
  inst.job_mask.assign(set.size(), 0);
  inst.category_mask.assign(machine.categories(), 0);
  std::vector<std::size_t> offsets;
  std::size_t offset = 0;
  for (const KDag* dag : dags) {
    offsets.push_back(offset);
    for (VertexId v = 0; v < dag->num_vertices(); ++v) {
      const Mask bit = Mask{1} << (offset + v);
      const Category alpha = dag->category(v);
      if (alpha >= machine.categories() || machine.processors[alpha] < 1)
        return false;
      inst.category[offset + v] = alpha;
      inst.category_mask[alpha] |= bit;
      inst.job_mask[offsets.size() - 1] |= bit;
      const auto chain = static_cast<std::size_t>(dag->cp_length(v));
      if (inst.chain_at_least.size() < chain) inst.chain_at_least.resize(chain);
      for (std::size_t l = 0; l < chain; ++l) inst.chain_at_least[l] |= bit;
      for (VertexId succ : dag->successors(v))
        inst.predecessors[offset + succ] |= bit;
    }
    offset += dag->num_vertices();
  }
  inst.full = (Mask{1} << total) - 1;

  auto same_job = [&](std::size_t a, std::size_t b) {
    const KDag& x = *dags[a];
    const KDag& y = *dags[b];
    if (x.num_vertices() != y.num_vertices()) return false;
    for (VertexId v = 0; v < x.num_vertices(); ++v)
      if (x.category(v) != y.category(v) ||
          inst.predecessors[offsets[a] + v] >> offsets[a] !=
              inst.predecessors[offsets[b] + v] >> offsets[b])
        return false;
    return true;
  };
  std::vector<bool> grouped(dags.size(), false);
  for (std::size_t a = 0; a < dags.size(); ++a) {
    if (grouped[a] || dags[a]->num_vertices() == 0) continue;
    TwinGroup group{dags[a]->num_vertices(), {offsets[a]}};
    for (std::size_t b = a + 1; b < dags.size(); ++b) {
      if (!grouped[b] && same_job(a, b)) {
        grouped[b] = true;
        group.offsets.push_back(offsets[b]);
      }
    }
    if (group.offsets.size() > 1) inst.twins.push_back(std::move(group));
  }
  return true;
}

/// Longest chain, in vertices, among the set bits of `vertices`.
Work residual_span(const Instance& inst, Mask vertices) {
  auto l = inst.chain_at_least.size();
  while (l > 0 && (inst.chain_at_least[l - 1] & vertices) == 0) --l;
  return static_cast<Work>(l);
}

/// ceil(work / processors) for processors >= 1.
Work steps_for(Work work, int processors) {
  return (work + processors - 1) / processors;
}

/// Expands states: enumerates every maximal execution from a mask.  The
/// buffers are reused across expansions.
class Expander {
 public:
  Expander(const Instance& inst, const OptimalLimits& limits)
      : inst_(inst),
        limits_(limits),
        ready_(inst.processors.size()),
        choices_(inst.processors.size()),
        pick_(inst.processors.size()) {}

  /// Calls visit(next_mask) for every move from `mask`, each executing, per
  /// category, min(P_alpha, ready_alpha) ready tasks.  Returns false if the
  /// move count exceeded the limit.
  template <typename Visit>
  bool expand(Mask mask, Visit&& visit) {
    const auto k = inst_.processors.size();
    for (auto& r : ready_) r.clear();
    for (Mask rest = inst_.full & ~mask; rest != 0; rest &= rest - 1) {
      const auto v = static_cast<std::size_t>(std::countr_zero(rest));
      if ((inst_.predecessors[v] & ~mask) == 0)
        ready_[inst_.category[v]].push_back(v);
    }

    // Per-category combinations of exactly min(P, |ready|) tasks.
    std::size_t product = 1;
    for (std::size_t a = 0; a < k; ++a) {
      choices_[a].clear();
      const std::size_t take =
          std::min<std::size_t>(static_cast<std::size_t>(inst_.processors[a]),
                                ready_[a].size());
      if (!combinations(ready_[a], take, choices_[a])) return false;
      product *= choices_[a].size();
      if (product > limits_.max_moves) return false;
    }

    // Cross product.
    std::fill(pick_.begin(), pick_.end(), 0);
    for (;;) {
      Mask next = mask;
      for (std::size_t a = 0; a < k; ++a) next |= choices_[a][pick_[a]];
      visit(next);
      std::size_t a = 0;
      for (; a < k; ++a) {
        if (++pick_[a] < choices_[a].size()) break;
        pick_[a] = 0;
      }
      if (a == k) break;
    }
    return true;
  }

 private:
  /// Appends the mask of every `take`-subset of `from`; false past the cap.
  bool combinations(const std::vector<std::size_t>& from, std::size_t take,
                    std::vector<Mask>& out) {
    idx_.resize(take);
    for (std::size_t i = 0; i < take; ++i) idx_[i] = i;
    for (;;) {
      Mask m = 0;
      for (std::size_t i : idx_) m |= Mask{1} << from[i];
      out.push_back(m);
      if (out.size() > limits_.max_moves) return false;
      std::size_t i = take;
      while (i > 0 && idx_[i - 1] == i - 1 + from.size() - take) --i;
      if (i == 0) return true;
      ++idx_[i - 1];
      for (std::size_t j = i; j < take; ++j) idx_[j] = idx_[j - 1] + 1;
    }
  }

  const Instance& inst_;
  const OptimalLimits& limits_;
  std::vector<std::vector<std::size_t>> ready_;
  std::vector<std::vector<Mask>> choices_;
  std::vector<std::size_t> pick_;
  std::vector<std::size_t> idx_;
};

/// Sorts each twin group's sub-masks, so twin-permuted states coincide.
class Canonicalizer {
 public:
  explicit Canonicalizer(const Instance& inst) : inst_(inst) {}

  Mask operator()(Mask mask) {
    for (const TwinGroup& group : inst_.twins) {
      const Mask low = (Mask{1} << group.width) - 1;
      subs_.clear();
      for (std::size_t offset : group.offsets)
        subs_.push_back((mask >> offset) & low);
      std::sort(subs_.begin(), subs_.end());
      for (std::size_t i = 0; i < subs_.size(); ++i) {
        const std::size_t offset = group.offsets[i];
        mask = (mask & ~(low << offset)) | subs_[i] << offset;
      }
    }
    return mask;
  }

 private:
  const Instance& inst_;
  std::vector<Mask> subs_;
};

/// A* from the empty mask to the full one over canonical states.  Every move
/// out of `mask` costs step_cost(mask).  heuristic(mask) must never exceed
/// the cheapest remaining cost from `mask`, and must be at least
/// step_cost(mask) for every unfinished mask; states are re-opened when a
/// cheaper path reaches them, so it need not be consistent.  nullopt when
/// the state or move limit is exceeded.
template <typename StepCost, typename Heuristic>
std::optional<Work> a_star(const Instance& inst, const OptimalLimits& limits,
                           StepCost&& step_cost, Heuristic&& heuristic) {
  struct Entry {
    Work f;  // g + heuristic
    Work g;  // cost so far
    Mask mask;
  };
  // Lowest f first; among equal f the deepest state, which reaches the goal
  // soonest.
  auto later = [](const Entry& a, const Entry& b) {
    return a.f != b.f ? a.f > b.f : a.g < b.g;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> open(later);
  std::unordered_map<Mask, Work> best;  // cheapest g seen, per state
  best.reserve(1024);
  Expander expander(inst, limits);
  Canonicalizer canonical(inst);
  best.emplace(0, 0);
  open.push({heuristic(0), 0, 0});
  while (!open.empty()) {
    const Entry top = open.top();
    open.pop();
    if (best.find(top.mask)->second < top.g) continue;  // superseded
    const Work g = top.g + step_cost(top.mask);
    bool reached_goal = false;
    const bool ok = expander.expand(top.mask, [&](Mask next) {
      if (next == top.mask || reached_goal) return;
      if (next == inst.full) {
        reached_goal = true;
        return;
      }
      next = canonical(next);
      const auto [it, fresh] = best.try_emplace(next, g);
      if (!fresh) {
        if (it->second <= g) return;
        it->second = g;
      }
      open.push({g + heuristic(next), g, next});
    });
    if (!ok) return std::nullopt;
    // Optimal on first sight: `top` has the least f of any open state, and
    // f(top) <= OPT because the heuristic is admissible, while
    // heuristic(top) >= step_cost(top) makes g <= f(top).
    if (reached_goal) return g;
    if (best.size() > limits.max_states) return std::nullopt;
  }
  return std::nullopt;  // unreachable full mask: seal() rules out cycles
}

}  // namespace

std::optional<Work> optimal_makespan(const JobSet& set,
                                     const MachineConfig& machine,
                                     const OptimalLimits& limits) {
  Instance inst;
  if (!build_instance(set, machine, limits, inst)) return std::nullopt;
  if (inst.full == 0) return Work{0};

  // Section 4's bounds on what is left, level by level: a remaining vertex
  // heading a chain of more than l vertices runs l or more steps before the
  // end, so those of category alpha need l + ceil(count / P_alpha) steps.  l = 0 is the work bound and the top level the span bound.  One
  // step lowers each term by at most 1, so the heuristic is consistent.
  auto heuristic = [&](Mask mask) {
    const Mask remaining = inst.full & ~mask;
    Work h = 0;
    for (std::size_t l = 0; l < inst.chain_at_least.size(); ++l) {
      const Mask tail = remaining & inst.chain_at_least[l];
      if (tail == 0) break;
      for (std::size_t a = 0; a < inst.processors.size(); ++a) {
        const Work work = std::popcount(tail & inst.category_mask[a]);
        h = std::max(h, static_cast<Work>(l) +
                            steps_for(work, inst.processors[a]));
      }
    }
    return h;
  };
  return a_star(inst, limits, [](Mask) { return Work{1}; }, heuristic);
}

std::optional<Work> optimal_total_response(const JobSet& set,
                                           const MachineConfig& machine,
                                           const OptimalLimits& limits) {
  Instance inst;
  if (!build_instance(set, machine, limits, inst)) return std::nullopt;
  if (inst.full == 0) return Work{0};

  // Every job unfinished at the start of a step accrues one step of
  // response time.
  auto unfinished = [&](Mask mask) {
    Work count = 0;
    for (const Mask jm : inst.job_mask)
      if ((mask & jm) != jm) ++count;
    return count;
  };

  // Section 6's bounds (aggregate span, squashed work area), per rank: the
  // i-th job to finish does so no sooner than the i-th smallest residual
  // span, nor before each category has run the i smallest residual works.
  const auto k = inst.processors.size();
  std::vector<Work> spans;
  std::vector<std::vector<Work>> works(k);
  auto heuristic = [&](Mask mask) {
    spans.clear();
    for (auto& w : works) w.clear();
    for (const Mask jm : inst.job_mask) {
      const Mask remaining = jm & ~mask;
      if (remaining == 0) continue;
      spans.push_back(residual_span(inst, remaining));
      for (std::size_t a = 0; a < k; ++a)
        works[a].push_back(std::popcount(remaining & inst.category_mask[a]));
    }
    std::sort(spans.begin(), spans.end());
    for (auto& w : works) std::sort(w.begin(), w.end());
    Work h = 0;  // works[a] turns into prefix sums as the ranks go
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Work rank = spans[i];
      for (std::size_t a = 0; a < k; ++a) {
        if (i > 0) works[a][i] += works[a][i - 1];
        rank = std::max(rank, steps_for(works[a][i], inst.processors[a]));
      }
      h += rank;
    }
    return h;
  };
  return a_star(inst, limits, unfinished, heuristic);
}

}  // namespace krad
