// Allocation-regression gate for the signal hot path.
//
// The profiler's replacement operator new/delete charges every heap
// allocation to the innermost open profiling span, which makes allocation
// counts per site testable. This gate pins the hot-path allocation budget
// after the small-buffer/interning/pooled-event-loop refactor:
//
//   site                 before     budget
//   sim.deliver_tunnel   ~3.6/op    <= 1.0 allocs per delivered signal
//   sim.process_output   ~3.0/op    <= 1.0 allocs per output-processing run
//   loop.dispatch        ~1.5/op    <= 1.5 allocs per dispatched event
//
// "Before" numbers were measured on the same workload prior to the
// refactor (std::function event handlers, vector codec lists, string
// captures in delivery lambdas). If a future change reintroduces per-signal
// heap churn — a bigger capture than the event-node inline capacity, a
// string built per delivery, a descriptor clone — this test fails before
// the throughput regression reaches a release.
#include <gtest/gtest.h>

#include <string>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "obs/profiler.hpp"
#include "sim/fault.hpp"

namespace cmc {
namespace {

struct SiteBudget {
  const char* site;
  double max_allocs_per_op;
};

// One profiled single-shard run, sized to amortize warm-up growth (slab,
// metric registries, channel-end maps) across enough signals that
// steady-state behavior dominates.
obs::ProfileReport profiledRun() {
  load::WorkloadSpec w;
  w.master_seed = 7;
  w.calls = 200;
  w.arrivals_per_s = 200.0;
  w.flowlink_fraction = 0.5;

  load::LoadConfig cfg;
  cfg.shards = 1;
  cfg.profile = true;
  load::ShardedRuntime rt(cfg);
  rt.run(w);
  return rt.profileReport();
}

TEST(AllocBudget, HotPathSitesStayWithinBudget) {
  const obs::ProfileReport report = profiledRun();

  const SiteBudget budgets[] = {
      {"sim.deliver_tunnel", 1.0},
      {"sim.process_output", 1.0},
      {"loop.dispatch", 1.5},
  };

  for (const SiteBudget& budget : budgets) {
    std::uint64_t calls = 0;
    std::uint64_t allocs = 0;
    for (const auto& node : report.nodes()) {
      if (node.site == budget.site) {
        calls += node.calls;
        allocs += node.allocs;
      }
    }
    ASSERT_GT(calls, 0u) << "site " << budget.site
                         << " never hit — did the workload change?";
    const double per_op = static_cast<double>(allocs) /
                          static_cast<double>(calls);
    EXPECT_LE(per_op, budget.max_allocs_per_op)
        << "site " << budget.site << ": " << allocs << " allocs over "
        << calls << " calls = " << per_op
        << " allocs/op — hot-path allocation budget exceeded";
  }
}

TEST(AllocBudget, DeliveryVolumeIsRepresentative) {
  // Guard the gate itself: if a workload tweak quietly shrinks the number
  // of delivered signals, the budget above would be testing noise. Require
  // a minimum volume so per-op averages are meaningful.
  const obs::ProfileReport report = profiledRun();
  std::uint64_t deliveries = 0;
  for (const auto& node : report.nodes()) {
    if (node.site == "sim.deliver_tunnel") deliveries += node.calls;
  }
  EXPECT_GE(deliveries, 1000u);
}

TEST(AllocBudget, FaultDecisionsAllocateNothing) {
  // Every emitted signal of a faulty run asks its box's plan for a
  // decision, so deciding must not allocate.
  FaultSpec spec;
  spec.drop_rate = 0.25;
  spec.duplicate_rate = 0.25;
  spec.reorder_rate = 0.25;
  FaultPlan plan(7, spec);
  const SimTime now{};

  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  {
    CMC_PROF_SCOPE("fault.decide");
    for (int i = 0; i < 1000; ++i) {
      (void)plan.decide(now);
      (void)plan.decide(now);
    }
  }
  obs::setThreadProfiler(nullptr);

  const obs::ProfileReport report = table.report();
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;
  for (const auto& node : report.nodes()) {
    if (node.site == "fault.decide") {
      calls += node.calls;
      allocs += node.allocs;
    }
  }
  ASSERT_EQ(calls, 1u);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(plan.counters().considered, 2000u);
}

}  // namespace
}  // namespace cmc
