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
//
// The explorer has its own gate, per expanded state:
//
//   site                 before     budget
//   mc.expand_state      44.8       <= 10 allocs per expanded state (self)
//   mc.canonicalize      9.2        0 per call: only the reused buffer grows
//   mc.fingerprint       0          0
#include <gtest/gtest.h>

#include <string>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/state_graph.hpp"
#include "obs/profiler.hpp"
#include "sim/fault.hpp"

namespace cmc {
namespace {

struct SiteBudget {
  const char* site;
  double max_allocs_per_op;
};

struct SiteTotals {
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;
};

SiteTotals siteTotals(const obs::ProfileReport& report, const char* site) {
  SiteTotals totals;
  for (const auto& node : report.nodes()) {
    if (node.site == site) {
      totals.calls += node.calls;
      totals.allocs += node.allocs;
    }
  }
  return totals;
}

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
    const auto [calls, allocs] = siteTotals(report, budget.site);
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
  EXPECT_GE(siteTotals(profiledRun(), "sim.deliver_tunnel").calls, 1000u);
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

  const auto [calls, allocs] = siteTotals(table.report(), "fault.decide");
  ASSERT_EQ(calls, 1u);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(plan.counters().considered, 2000u);
}

TEST(AllocBudget, ExplorerExpansionStaysWithinBudget) {
  // The closeSlot/openSlot model with one flowlink (114,132 states), on the
  // one thread that records profiles. Expanding a state copies the state
  // into a reused scratch system, canonicalizes into a reused buffer and
  // copies out only the successors that are new.
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  limits.threads = 1;
  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  const ExploreResult graph =
      explorePath(GoalKind::closeSlot, GoalKind::openSlot, 1, limits);
  obs::setThreadProfiler(nullptr);
  ASSERT_FALSE(graph.truncated);
  ASSERT_EQ(graph.states(), 114'132u);

  const obs::ProfileReport report = table.report();
  const SiteTotals expand = siteTotals(report, "mc.expand_state");
  const SiteTotals canonicalize = siteTotals(report, "mc.canonicalize");
  const SiteTotals fingerprint = siteTotals(report, "mc.fingerprint");
  // Enough volume that the per-state averages are not noise.
  ASSERT_EQ(expand.calls, graph.states());
  ASSERT_GE(canonicalize.calls, 100'000u);
  ASSERT_EQ(fingerprint.calls, canonicalize.calls);

  const double per_state = static_cast<double>(expand.allocs) /
                           static_cast<double>(expand.calls);
  EXPECT_LE(per_state, 10.0)
      << expand.allocs << " allocs over " << expand.calls
      << " expanded states at mc.expand_state (self)";
  // The reused buffer doubles up to the longest encoding once per run; a
  // per-call allocation would add one per successor.
  EXPECT_LE(canonicalize.allocs, 32u)
      << canonicalize.allocs << " allocs over " << canonicalize.calls
      << " canonicalizations";
  EXPECT_EQ(fingerprint.allocs, 0u);
}

}  // namespace
}  // namespace cmc
