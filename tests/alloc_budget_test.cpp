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
//   mc.expand_state      44.8       <= 1 alloc per expanded state (self;
//                                   0.012 measured: states decode from
//                                   their bytes into a reused system, and
//                                   an outbox holds two signals inline)
//   mc.canonicalize      9.2        0 per call: only the reused buffer grows
//   mc.fingerprint       0          0
//
// And a box's own wiring (channel ends, slots, goals, flowlinks), per
// box lifecycle:
//
//   box                  before     budget
//   endpoint box         6          0
//   relay box            14         0
//   closeSlot goal       2          0   (the goal payload makeGoal builds)
//
// And a program box's own work per event (its guards and transitions),
// over a whole 1-flowlink call: 0 per slot activity and per meta event.
//
// And a whole clean call, from its arrival to its audit, per call:
//
//   call                 before     budget
//   clean load call      34.1       <= 9.8  (8.95 measured; 16.8 before
//                                   an outbox held two signals inline)
//
// "Before" is the simulator's string-keyed name map (a node per box), the
// probe results keyed by name (a node per call) and the probe histogram's
// name built at each convergence, ~4.5 allocations per call between them.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "apps/forwarding.hpp"
#include "core/path.hpp"
#include "endpoints/user_device.hpp"
#include "load/call_boxes.hpp"
#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/state_graph.hpp"
#include "obs/profiler.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

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

TEST(AllocBudget, BoxWiringAllocatesNothing) {
  // The wiring lifecycle of a call's boxes: add the ends (the boxes' own
  // hooks look up their slots, then set the goal or link the slots), look
  // the slots up, and remove the channels. The relay's queued output, its
  // far leg's channel request and the teardown that folds that leg, is not
  // wiring: it is measured alone and subtracted. The closeSlot goal carries
  // no media intent and attaches to a closed slot without a signal, so the
  // endpoint allocates nothing at all and queues nothing.
  load::LoadEndpointBox endpoint(BoxId{1}, "L", GoalKind::closeSlot,
                                 PathEnd::left);
  load::LoadRelayBox relay(BoxId{2}, "M", BoxId{3});
  const ChannelId call{1};
  const ChannelId in{2};
  const ChannelId out{3};
  std::optional<SlotId> endpoint_slot;
  ChannelId endpoint_channel;
  std::optional<GoalKind> endpoint_goal;
  std::optional<GoalKind> relay_goal;
  bool relay_linked = false;

  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  {
    CMC_PROF_SCOPE("box.wiring.endpoint");
    endpoint.addChannelEnd(call, 1, /*initiator=*/true, "call", BoxId{2}, "M");
    endpoint_slot = endpoint.slotAt(call, 0);
    endpoint_channel = endpoint.channelOf(*endpoint_slot);
    endpoint_goal = endpoint.goalKind(*endpoint_slot);
    endpoint.removeChannel(call);
  }
  {
    CMC_PROF_SCOPE("box.wiring.relay");
    relay.addChannelEnd(in, 1, /*initiator=*/false, "", BoxId{1}, "L");
    relay.addChannelEnd(out, 1, /*initiator=*/true, "out", BoxId{3}, "R");
    relay_linked = relay.isBound(load::LoadRelayBox::kIn) &&
                   relay.isBound(load::LoadRelayBox::kOut);
    relay_goal = relay.goalKind(relay.bound(load::LoadRelayBox::kOut));
    relay.removeChannel(in);  // folds the far leg too
  }
  {
    CMC_PROF_SCOPE("box.goal_payload");
    (void)PathSystem::makeGoal(GoalKind::closeSlot, PathEnd::left);
  }
  {
    CMC_PROF_SCOPE("box.queued_output");
    Box::Output queued;
    queued.channelRequests.push_back(ChannelRequest{{}, 1, "out", BoxId{3}});
    queued.teardowns.push_back(Box::Teardown{out, BoxId{3}});
  }
  obs::setThreadProfiler(nullptr);

  ASSERT_TRUE(endpoint_slot.has_value());
  EXPECT_EQ(endpoint_channel, call);
  EXPECT_EQ(endpoint_goal, GoalKind::closeSlot);
  EXPECT_TRUE(relay_linked);
  EXPECT_EQ(relay_goal, GoalKind::flowLink);
  EXPECT_EQ(endpoint.slotCount() + endpoint.goalCount(), 0u);
  EXPECT_EQ(relay.slotCount() + relay.goalCount(), 0u);
  EXPECT_FALSE(relay.hasChannel(out));
  Box::Output queued;
  endpoint.drainOutput(queued);
  EXPECT_TRUE(queued.empty());
  relay.drainOutput(queued);
  EXPECT_EQ(queued.channelRequests.size(), 1u);
  EXPECT_EQ(queued.teardowns.size(), 1u);
  EXPECT_TRUE(queued.tunnel.empty() && queued.meta.empty() &&
              queued.timers.empty());

  const obs::ProfileReport report = table.report();
  const SiteTotals ep = siteTotals(report, "box.wiring.endpoint");
  const SiteTotals rl = siteTotals(report, "box.wiring.relay");
  const SiteTotals goal = siteTotals(report, "box.goal_payload");
  const SiteTotals output = siteTotals(report, "box.queued_output");
  ASSERT_EQ(ep.calls, 1u);
  ASSERT_EQ(rl.calls, 1u);
  ASSERT_EQ(goal.calls, 1u);
  ASSERT_GE(rl.allocs, output.allocs);
  EXPECT_EQ(goal.allocs, 0u) << "closeSlot goal payload allocations";
  EXPECT_EQ(ep.allocs, 0u) << "endpoint box wiring allocations";
  EXPECT_EQ(rl.allocs - output.allocs, 0u)
      << "relay box wiring allocations (" << rl.allocs << " in all, "
      << output.allocs << " of them queued output)";
}

// A program box whose event hooks run inside a profiling span.
class MeasuredForwardingBox : public CallForwardingBox {
 public:
  using CallForwardingBox::CallForwardingBox;

 protected:
  void onSlotActivity(SlotId slot) override {
    CMC_PROF_SCOPE("program.slot_activity");
    CallForwardingBox::onSlotActivity(slot);
  }
  void onMeta(ChannelId channel, const MetaSignal& meta) override {
    CMC_PROF_SCOPE("program.meta");
    CallForwardingBox::onMeta(channel, meta);
  }
};

TEST(AllocBudget, ProgramEventsAllocateNothing) {
  // A full call through one forwarding program (one flowlink): ring,
  // answer, talk, hang up. The program's evaluator runs on every slot
  // activity and on the ringing callee's availability meta; the goal work
  // of each delivery runs before the hook, outside the span.
  Simulator sim(TimingModel::paperDefaults(), 37);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.5.1.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.5.1.2", 5000),
                            UserDeviceBox::AcceptPolicy::manual);
  auto& fwd = sim.addBox<MeasuredForwardingBox>("fwdB", "B", "C");
  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  sim.inject("A", [](Box& bx) {
    static_cast<UserDeviceBox&>(bx).placeCall("fwdB");
  });
  sim.runFor(std::chrono::seconds(1));
  sim.inject("B", [](Box& bx) {
    static_cast<UserDeviceBox&>(bx).acceptCall();
  });
  sim.runFor(std::chrono::seconds(2));
  const std::string state_in_call = fwd.currentState();
  sim.inject("A", [](Box& bx) {
    static_cast<UserDeviceBox&>(bx).hangUp();
  });
  sim.runFor(std::chrono::seconds(1));
  obs::setThreadProfiler(nullptr);

  EXPECT_EQ(state_in_call, "serving");
  EXPECT_EQ(fwd.currentState(), "idle");
  const obs::ProfileReport report = table.report();
  const SiteTotals activity = siteTotals(report, "program.slot_activity");
  const SiteTotals meta = siteTotals(report, "program.meta");
  ASSERT_GE(activity.calls, 4u);
  ASSERT_GE(meta.calls, 1u);
  EXPECT_EQ(activity.allocs, 0u)
      << "over " << activity.calls << " slot activities";
  EXPECT_EQ(meta.allocs, 0u) << "over " << meta.calls << " meta events";
}

// A program box adds its def pointer and its two inline bindings (behind
// the SmallVec's 16-byte header) to a Box: 40 bytes. A load box adds one
// word of its own: the relay's far BoxId, or the endpoint's goal kind and
// path end.
static_assert(sizeof(load::LoadEndpointBox) <= sizeof(Box) + 48);
static_assert(sizeof(load::LoadRelayBox) <= sizeof(Box) + 48);
static_assert(sizeof(ProgramBox) <= sizeof(Box) + 40);

TEST(AllocBudget, CleanCallLifecycleStaysWithinBudget) {
  // Every allocation of a profiled single-shard run, setup and teardown
  // included, over its calls. At this size the run's fixed cost (event-loop
  // chunks, row and index growth, registry entries) is under 0.1 per call.
  load::WorkloadSpec w;
  w.master_seed = 7;
  w.calls = 4000;
  w.arrivals_per_s = 100.0;
  w.flowlink_fraction = 0.5;
  load::LoadConfig cfg;
  cfg.shards = 1;
  cfg.profile = true;
  load::ShardedRuntime rt(cfg);
  rt.run(w);
  ASSERT_EQ(rt.cleanTeardownCount(), w.calls);
  const double per_call =
      static_cast<double>(rt.profileReport().totals().allocs) /
      static_cast<double>(w.calls);
  EXPECT_LE(per_call, 9.8)
      << "allocations per clean call; a per-call string key (a name map "
         "node, a metric name) costs about one more each";
}

TEST(AllocBudget, ExplorerExpansionStaysWithinBudget) {
  // The closeSlot/openSlot model with one flowlink (114,132 states), on the
  // one thread that records profiles. Expanding a state decodes its bytes
  // into a reused scratch system, copy-assigns that into a reused successor
  // system per action, canonicalizes into a reused buffer and keeps only
  // a view of a new successor's bytes in the seen set.
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
  EXPECT_LE(per_state, 1.0)
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
