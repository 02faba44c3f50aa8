// Tests for the performance-heterogeneity extension: speed machines, the
// speed engine's equivalence to the base engine at uniform speed 1, lower
// bounds under speeds, and the assignment-policy comparison.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "core/krad.hpp"
#include "dag/builders.hpp"
#include "hetero/speed_engine.hpp"
#include "sched/greedy_cp.hpp"
#include "sched/kdeq_only.hpp"
#include "sched/kequi.hpp"
#include "jobs/profile_job.hpp"
#include "sim/engine.hpp"
#include "workload/arrivals.hpp"
#include "workload/random_jobs.hpp"

namespace krad {
namespace {

TEST(SpeedMachine, CountsAndTotals) {
  SpeedMachineConfig machine;
  machine.speeds = {{1, 2, 4}, {8}};
  EXPECT_EQ(machine.categories(), 2u);
  EXPECT_EQ(machine.counts().processors, (std::vector<int>{3, 1}));
  EXPECT_EQ(machine.total_speed(0), 7);
  EXPECT_EQ(machine.total_speed(1), 8);
}

TEST(SpeedMachine, UniformFromCounts) {
  const auto machine = SpeedMachineConfig::uniform(MachineConfig{{3, 2}});
  EXPECT_EQ(machine.total_speed(0), 3);
  EXPECT_EQ(machine.total_speed(1), 2);
}

TEST(SpeedEngine, UniformSpeedMatchesBaseEngine) {
  Rng rng(91);
  for (int trial = 0; trial < 8; ++trial) {
    RandomDagJobParams params;
    params.num_categories = 2;
    JobSet set = make_dag_job_set(params, 8, rng);
    const MachineConfig counts{{3, 2}};
    KRad a;
    const SimResult base = simulate(set, a, counts);
    set.reset_all();
    KRad b;
    const auto speed = simulate_speeds(set, b, SpeedMachineConfig::uniform(counts),
                                       SpeedAssignment::kBlind);
    EXPECT_EQ(base.makespan, speed.base.makespan) << "trial " << trial;
    EXPECT_EQ(base.completion, speed.base.completion);
    EXPECT_EQ(speed.wasted_speed, (std::vector<Work>{0, 0}));
  }
}

TEST(SpeedEngine, FasterMachineFinishesSooner) {
  JobSet set(1);
  std::vector<Phase> phases(1);
  phases[0].parts.push_back({0, 120, 8});
  set.add(std::make_unique<ProfileJob>(std::move(phases), 1));

  SpeedMachineConfig slow;
  slow.speeds = {{1, 1}};
  KRad a;
  const auto r_slow =
      simulate_speeds(set, a, slow, SpeedAssignment::kBlind);

  set.reset_all();
  SpeedMachineConfig fast;
  fast.speeds = {{4, 4}};
  KRad b;
  const auto r_fast =
      simulate_speeds(set, b, fast, SpeedAssignment::kBlind);
  EXPECT_LT(r_fast.base.makespan, r_slow.base.makespan);
  // 120 units, desire 8, two speed-4 processors: 8 units/step -> 15 steps.
  EXPECT_EQ(r_fast.base.makespan, 15);
  EXPECT_EQ(r_slow.base.makespan, 60);
}

TEST(SpeedEngine, LowerBoundHolds) {
  Rng rng(92);
  for (int trial = 0; trial < 10; ++trial) {
    RandomDagJobParams params;
    params.num_categories = 2;
    JobSet set = make_dag_job_set(params, 6, rng);
    SpeedMachineConfig machine;
    machine.speeds = {{1, 2, 4}, {2, 2}};
    const Work lb = speed_makespan_lower_bound(set, machine);
    KRad sched;
    const auto result =
        simulate_speeds(set, sched, machine, SpeedAssignment::kBlind);
    EXPECT_GE(result.base.makespan, lb) << "trial " << trial;
  }
}

TEST(SpeedEngine, SpanBoundUnchangedByThroughputModel) {
  // A pure chain cannot be accelerated by fast processors: one ready task
  // per step regardless of speed (throughput heterogeneity preserves the
  // critical-path bound).
  JobSet set(1);
  set.add(std::make_unique<DagJob>(category_chain({0}, 12, 1)));
  SpeedMachineConfig machine;
  machine.speeds = {{8, 8}};
  KRad sched;
  const auto result =
      simulate_speeds(set, sched, machine, SpeedAssignment::kBlind);
  EXPECT_EQ(result.base.makespan, 12);
}

TEST(SpeedEngine, FastestToGreediestReducesWaste) {
  // One hungry job (desire 16) + 3 sequential jobs (desire 1) on processors
  // {8, 1, 1, 1}: blind assignment in id order can hand the speed-8
  // processor to a desire-1 job (7 units wasted); fastest-to-greediest
  // gives it to the hungry job.
  auto build = [] {
    JobSet set(1);
    for (int i = 0; i < 3; ++i) {
      std::vector<Phase> phases(1);
      phases[0].parts.push_back({0, 40, 1});
      set.add(std::make_unique<ProfileJob>(std::move(phases), 1,
                                           "seq-" + std::to_string(i)));
    }
    std::vector<Phase> hungry(1);
    hungry[0].parts.push_back({0, 400, 16});
    set.add(std::make_unique<ProfileJob>(std::move(hungry), 1, "hungry"));
    return set;
  };
  SpeedMachineConfig machine;
  machine.speeds = {{8, 1, 1, 1}};

  JobSet blind_set = build();
  KRad a;
  const auto blind =
      simulate_speeds(blind_set, a, machine, SpeedAssignment::kBlind);
  JobSet aware_set = build();
  KRad b;
  const auto aware = simulate_speeds(aware_set, b, machine,
                                     SpeedAssignment::kFastestToGreediest);
  EXPECT_LT(aware.wasted_speed[0], blind.wasted_speed[0]);
  EXPECT_LE(aware.base.makespan, blind.base.makespan);
}

TEST(SpeedEngine, HandlesReleaseTimesAndIdleGaps) {
  JobSet set(1);
  std::vector<Phase> a(1), b(1);
  a[0].parts.push_back({0, 16, 4});
  b[0].parts.push_back({0, 16, 4});
  set.add(std::make_unique<ProfileJob>(std::move(a), 1), 0);
  set.add(std::make_unique<ProfileJob>(std::move(b), 1), 50);
  SpeedMachineConfig machine;
  machine.speeds = {{2, 2}};
  KRad sched;
  const auto result =
      simulate_speeds(set, sched, machine, SpeedAssignment::kBlind);
  // Job 0: 16 units at 4/step = 4 steps; job 1 identical after release 50.
  EXPECT_EQ(result.base.completion[0], 4);
  EXPECT_EQ(result.base.completion[1], 54);
  EXPECT_EQ(result.base.response[1], 4);
  EXPECT_GT(result.base.idle_steps, 0);
}

TEST(SpeedEngine, ClairvoyantSchedulerWorks) {
  Rng rng(93);
  RandomDagJobParams params;
  params.num_categories = 2;
  JobSet set = make_dag_job_set(params, 5, rng);
  SpeedMachineConfig machine;
  machine.speeds = {{2, 1}, {4}};
  GreedyCp sched;
  const auto result =
      simulate_speeds(set, sched, machine, SpeedAssignment::kFastestToGreediest);
  EXPECT_GE(result.base.makespan, speed_makespan_lower_bound(set, machine));
  for (JobId id = 0; id < set.size(); ++id)
    EXPECT_EQ(set.job(id).total_remaining_work(), 0);
}

TEST(SpeedEngine, RejectsBadConfigs) {
  JobSet set(1);
  set.add(std::make_unique<DagJob>(single_task(0, 1)));
  KRad sched;
  SpeedMachineConfig empty_cat;
  empty_cat.speeds = {{}};
  EXPECT_THROW(
      simulate_speeds(set, sched, empty_cat, SpeedAssignment::kBlind),
      std::logic_error);
  SpeedMachineConfig zero_speed;
  zero_speed.speeds = {{0}};
  EXPECT_THROW(
      simulate_speeds(set, sched, zero_speed, SpeedAssignment::kBlind),
      std::logic_error);
  SpeedMachineConfig wrong_k;
  wrong_k.speeds = {{1}, {1}};
  EXPECT_THROW(simulate_speeds(set, sched, wrong_k, SpeedAssignment::kBlind),
               std::logic_error);
}

TEST(SpeedEngine, ToStringNames) {
  EXPECT_STREQ(to_string(SpeedAssignment::kBlind), "speed-blind");
  EXPECT_STREQ(to_string(SpeedAssignment::kFastestToGreediest),
               "fastest-to-greediest");
}

// A seeded sweep pinned to one digest over every scalar and per-category
// result the speed engine reports.  The digest was computed by the
// original per-step speed loop, so this is a dense-oracle check of the
// speed model running on the event-driven engine: 120 instances (profile
// and DAG sets, batched and Poisson releases, 1-6 processors per category
// at speeds 1-6) under four schedulers, one clairvoyant, and both
// assignment policies.
struct SpeedInstance {
  SpeedMachineConfig machine;
  JobSet set{1};
};

SpeedInstance build_speed_instance(std::uint64_t seed) {
  SpeedInstance inst;
  Rng rng(0xD1B54A32D192ED03ULL ^ (seed * 0x9E3779B97F4A7C15ULL + 5));
  const auto k = static_cast<Category>(rng.uniform_int(1, 3));
  for (Category a = 0; a < k; ++a) {
    std::vector<int> speeds(static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (int& s : speeds) s = static_cast<int>(rng.uniform_int(1, 6));
    inst.machine.speeds.push_back(std::move(speeds));
  }
  const auto count = static_cast<std::size_t>(rng.uniform_int(2, 6));
  if (rng.uniform_int(0, 1) == 0) {
    RandomDagJobParams params;
    params.num_categories = k;
    params.min_size = 8;
    params.max_size = 32;
    inst.set = make_dag_job_set(params, count, rng);
  } else {
    RandomProfileJobParams params;
    params.num_categories = k;
    params.max_phases = 4;
    params.max_phase_work = rng.uniform_int(0, 3) == 0 ? 2000 : 120;
    params.max_parallelism = 12;
    inst.set = make_profile_job_set(params, count, rng);
  }
  if (rng.uniform_int(0, 1) == 1) {
    const double gap = static_cast<double>(rng.uniform_int(1, 20));
    const std::vector<Time> releases =
        poisson_releases(inst.set.size(), gap, rng);
    for (JobId i = 0; i < inst.set.size(); ++i)
      inst.set.set_release(i, releases[i]);
  }
  return inst;
}

std::unique_ptr<KScheduler> make_speed_sched(int which) {
  switch (which) {
    case 0: return std::make_unique<KRad>();
    case 1: return std::make_unique<KEqui>();
    case 2: return std::make_unique<KDeqOnly>();
    default: return std::make_unique<GreedyCp>();
  }
}

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ULL;
}

TEST(SpeedEngine, SeededSweepMatchesPinnedDigest) {
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  int runs = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    for (int which = 0; which < 4; ++which) {
      for (SpeedAssignment assignment :
           {SpeedAssignment::kBlind, SpeedAssignment::kFastestToGreediest}) {
        SpeedInstance inst = build_speed_instance(seed);
        const std::unique_ptr<KScheduler> sched = make_speed_sched(which);
        const SpeedSimResult r =
            simulate_speeds(inst.set, *sched, inst.machine, assignment);
        const SimResult& b = r.base;
        mix(digest, static_cast<std::uint64_t>(b.makespan));
        for (Time c : b.completion) mix(digest, static_cast<std::uint64_t>(c));
        mix(digest, static_cast<std::uint64_t>(b.busy_steps));
        mix(digest, static_cast<std::uint64_t>(b.idle_steps));
        mix(digest, static_cast<std::uint64_t>(b.total_response));
        for (std::size_t a = 0; a < inst.machine.categories(); ++a) {
          mix(digest, static_cast<std::uint64_t>(b.executed_work[a]));
          mix(digest, static_cast<std::uint64_t>(b.allotted[a]));
          mix(digest, static_cast<std::uint64_t>(r.wasted_speed[a]));
          mix(digest, std::bit_cast<std::uint64_t>(b.utilization[a]));
        }
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 960);
  EXPECT_EQ(digest, 0xC64CA6C7505AEF61ULL) << std::hex << digest;
}

}  // namespace
}  // namespace krad
