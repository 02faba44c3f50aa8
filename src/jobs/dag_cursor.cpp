#include "jobs/dag_cursor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace krad {

const char* to_string(SelectionPolicy policy) {
  switch (policy) {
    case SelectionPolicy::kFifo: return "fifo";
    case SelectionPolicy::kLifo: return "lifo";
    case SelectionPolicy::kCriticalPathFirst: return "cp-first";
    case SelectionPolicy::kCriticalPathLast: return "cp-last";
    case SelectionPolicy::kRandom: return "random";
  }
  return "?";
}

DagCursor::DagCursor(KDag dag, SelectionPolicy policy, std::uint64_t seed)
    : dag_(std::move(dag)), policy_(policy), seed_(seed) {
  if (!dag_.sealed()) throw std::logic_error("DagCursor: dag must be sealed");
  reset();
}

void DagCursor::reset() {
  rng_.reseed(seed_);
  ready_.assign(dag_.num_categories(), {});
  enabled_.clear();
  cooling_.clear();
  attempts_.clear();
  remaining_work_.resize(dag_.num_categories());
  for (Category a = 0; a < dag_.num_categories(); ++a)
    remaining_work_[a] = dag_.work(a);
  span_count_.assign(static_cast<std::size_t>(dag_.span()) + 1, 0);
  span_ = advances_ = completed_ = 0;
  arrivals_ = 0;
  outcome_ = JobOutcome::kCompleted;
  pending_in_degree_.resize(dag_.num_vertices());
  for (VertexId v = 0; v < dag_.num_vertices(); ++v) {
    pending_in_degree_[v] = static_cast<std::uint32_t>(dag_.in_degree(v));
    if (pending_in_degree_[v] == 0) {
      count_span(v);
      push(v);
    }
  }
}

void DagCursor::count_span(VertexId v) {
  const Work cp = dag_.cp_length(v);
  ++span_count_[static_cast<std::size_t>(cp)];
  span_ = std::max(span_, cp);
}

void DagCursor::push(VertexId v) {
  ReadySet& set = ready_[dag_.category(v)];
  if (policy_ == SelectionPolicy::kFifo || policy_ == SelectionPolicy::kLifo) {
    set.order.push_back(v);
    return;
  }
  // kRandom draws at make-ready time, so the stream follows ready order.
  const Work cp = dag_.cp_length(v);
  std::int64_t priority =
      policy_ == SelectionPolicy::kCriticalPathFirst ? cp : -cp;
  if (policy_ == SelectionPolicy::kRandom)
    priority = static_cast<std::int64_t>(rng_() >> 1);
  set.ranked.push_back(Ranked{priority, arrivals_++, v});
  std::push_heap(set.ranked.begin(), set.ranked.end());
}

VertexId DagCursor::front(Category alpha) const {
  const ReadySet& set = ready_.at(alpha);
  if (policy_ == SelectionPolicy::kFifo) return set.order[set.head];
  if (policy_ == SelectionPolicy::kLifo) return set.order.back();
  return set.ranked.front().vertex;
}

VertexId DagCursor::pop(Category alpha) {
  if (ready(alpha) == 0)
    throw std::logic_error("DagCursor::pop: no ready vertex");
  const VertexId v = front(alpha);
  ReadySet& set = ready_[alpha];
  if (policy_ == SelectionPolicy::kLifo) {
    set.order.pop_back();
  } else if (policy_ != SelectionPolicy::kFifo) {
    std::pop_heap(set.ranked.begin(), set.ranked.end());
    set.ranked.pop_back();
  } else if (++set.head == set.order.size()) {
    set.order.clear();  // drained: refill from the front of the buffer
    set.head = 0;
  }
  --span_count_[static_cast<std::size_t>(dag_.cp_length(v))];
  return v;
}

bool DagCursor::frozen(std::span<const Work> allot) const {
  if (!cooling_.empty()) return false;
  for (Category a = 0; a < dag_.num_categories(); ++a)
    if (allot[a] > 0 && ready(a) > 0) return false;
  return true;
}

void DagCursor::complete(VertexId v) {
  if (outcome_ != JobOutcome::kCompleted) return;  // abandoned
  for (VertexId succ : dag_.successors(v))
    if (--pending_in_degree_[succ] == 0) enabled_.push_back(succ);
  --remaining_work_[dag_.category(v)];
  ++completed_;
}

int DagCursor::attempt(VertexId v) {
  if (attempts_.empty()) attempts_.assign(dag_.num_vertices(), 0);
  return ++attempts_.at(v);
}

void DagCursor::requeue(VertexId v, Time backoff) {
  if (outcome_ != JobOutcome::kCompleted) return;  // abandoned
  // The +1 covers the upcoming advance(): backoff 0 = ready next step.
  cooling_.push_back(Retry{advances_ + 1 + backoff, v});
  count_span(v);
}

void DagCursor::abandon(JobOutcome outcome) {
  outcome_ = outcome;
  ready_.assign(ready_.size(), {});
  enabled_.clear();
  cooling_.clear();
  std::fill(remaining_work_.begin(), remaining_work_.end(), 0);
  std::fill(span_count_.begin(), span_count_.end(), 0);
  span_ = 0;
}

void DagCursor::advance() {
  ++advances_;
  for (VertexId v : enabled_) {
    count_span(v);
    push(v);
  }
  enabled_.clear();
  // Retries are still in the span histogram since requeue().
  std::size_t kept = 0;
  for (const Retry& retry : cooling_) {
    if (retry.due <= advances_)
      push(retry.vertex);
    else
      cooling_[kept++] = retry;
  }
  cooling_.resize(kept);
}

Work DagCursor::remaining_span() const {
  while (span_ > 0 && span_count_[static_cast<std::size_t>(span_)] == 0)
    --span_;
  return span_;
}

}  // namespace krad
