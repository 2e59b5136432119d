// Fault-injection property suite (docs/FAULTS.md).
//
// Three layers of the same claim — the signaling protocol self-stabilizes
// once fault injection ceases:
//
//   1. PathSystem random walks: seeded schedules of drops, duplicates,
//      chaos sends, and mutes against all six path types; after the walk
//      the stabilization oracle (alternate stabilize()/run() until dry)
//      must land every path in its Section V rest state.
//   2. Simulator runs: a call established under a FaultPlan (25% drop,
//      duplicates, reordering, a box crash) must converge to two-way
//      media, and a fixed (sim seed, fault seed) pair must replay to a
//      byte-identical trace.
//   3. Model checker: the paper's verification table re-checked with a
//      fault budget — every temporal verdict must survive adversarial
//      message faults.
//
// Every failure prints the seed that produced it; set FAULT_SEED_LOG to a
// path to also append failing seeds there (the CI fault-fuzz job uploads
// that file as an artifact). FAULT_FUZZ_SCHEDULES scales the number of
// seeds per configuration (default 5).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "core/path.hpp"
#include "endpoints/user_device.hpp"
#include "mc/verification.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cmc {
namespace {

using namespace literals;
using K = GoalKind;

std::uint64_t schedulesPerConfig() {
  if (const char* env = std::getenv("FAULT_FUZZ_SCHEDULES")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 5;
}

void logFailingSeed(const std::string& line) {
  if (const char* path = std::getenv("FAULT_SEED_LOG")) {
    std::ofstream out(path, std::ios::app);
    out << line << '\n';
  }
}

// ------------------------------------------------- PathSystem random walks

struct FaultCase {
  K left;
  K right;
  std::size_t flowlinks;
  std::uint64_t seed;
};

class FaultRandomWalk : public ::testing::TestWithParam<FaultCase> {
 protected:
  // The stabilization oracle: deliver everything, then let every party
  // re-assert unconverged goals, until a sweep emits nothing. Bounded —
  // a protocol that needs more than 32 sweeps is livelocked, not late.
  static bool stabilizeUntilDry(PathSystem& path) {
    for (int sweep = 0; sweep < 32; ++sweep) {
      path.run();
      if (!path.stabilize()) {
        path.run();
        return true;
      }
    }
    return false;
  }

  static bool drainWithRetries(PathSystem& path, int rounds = 6) {
    if (!stabilizeUntilDry(path)) return false;
    for (int round = 0; round < rounds; ++round) {
      path.fireRetry(PathEnd::left);
      path.fireRetry(PathEnd::right);
      if (!stabilizeUntilDry(path)) return false;
    }
    return true;
  }
};

TEST_P(FaultRandomWalk, SelfStabilizesAfterInjectionCeases) {
  const FaultCase param = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(param.seed));

  PathSystem path(PathSystem::makeGoal(param.left, PathEnd::left),
                  PathSystem::makeGoal(param.right, PathEnd::right),
                  param.flowlinks, /*defer_attach=*/true);
  path.setChaosBudget(1);
  path.setModifyBudget(1);
  path.setFaultBudget(8);
  path.enableStabilization(true);
  Rng rng(param.seed);

  // Random walk with a drop bias: when fault actions are enabled, pick one
  // at least 25% of the time, so well over 20% of in-flight signals get
  // dropped or duplicated while the budget lasts.
  std::vector<PathAction> actions;
  for (int step = 0; step < 400; ++step) {
    path.enabledActions(actions);
    if (actions.empty()) break;
    std::vector<PathAction> faults;
    for (const auto& a : actions) {
      if (a.kind == PathAction::Kind::dropHead ||
          a.kind == PathAction::Kind::dupHead) {
        faults.push_back(a);
      }
    }
    if (!faults.empty() && rng.chance(0.25)) {
      path.apply(faults[rng.below(faults.size())]);
    } else {
      path.apply(actions[rng.below(actions.size())]);
    }
  }
  for (std::uint32_t p = 0; p < path.partyCount(); ++p) {
    if (!path.partyAttached(p)) {
      PathAction attach;
      attach.kind = PathAction::Kind::attach;
      attach.party = p;
      path.apply(attach);
    }
  }

  // Injection has ceased (walk over; remaining budget unused from here on).
  // Unmute so bothFlowing is reachable, then run the oracle.
  bool dry = drainWithRetries(path);
  path.setMute(PathEnd::left, false, false);
  path.setMute(PathEnd::right, false, false);
  dry = drainWithRetries(path) && dry;
  EXPECT_TRUE(dry) << "stabilization sweeps did not run dry";
  ASSERT_TRUE(path.quiescent());

  const bool has_close = param.left == K::closeSlot || param.right == K::closeSlot;
  const bool has_open = param.left == K::openSlot || param.right == K::openSlot;
  if (has_close) {
    EXPECT_TRUE(path.bothClosed()) << "close end must win (<>[] bothClosed)";
    EXPECT_FALSE(path.bothFlowing());
  } else if (has_open) {
    EXPECT_TRUE(path.bothFlowing()) << "open/hold must recur ([]<> bothFlowing)";
    EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
    EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
  } else {
    EXPECT_TRUE(path.bothClosed() || path.bothFlowing());
  }
  for (PathEnd end : {PathEnd::left, PathEnd::right}) {
    const auto state = path.endpointSlot(end).state();
    EXPECT_TRUE(state == ProtocolState::closed || state == ProtocolState::flowing)
        << "endpoint slot stuck in " << toString(state);
  }

  if (::testing::Test::HasFailure()) {
    logFailingSeed("path " + std::string(toString(param.left)) + "/" +
                   std::string(toString(param.right)) + " flowlinks=" +
                   std::to_string(param.flowlinks) + " seed=" +
                   std::to_string(param.seed));
  }
}

std::vector<FaultCase> makeFaultCases() {
  std::vector<FaultCase> cases;
  const std::pair<K, K> types[] = {
      {K::closeSlot, K::closeSlot}, {K::closeSlot, K::holdSlot},
      {K::closeSlot, K::openSlot},  {K::openSlot, K::openSlot},
      {K::openSlot, K::holdSlot},   {K::holdSlot, K::holdSlot},
  };
  const std::uint64_t schedules = schedulesPerConfig();
  for (auto [l, r] : types) {
    for (std::size_t flowlinks : {std::size_t{0}, std::size_t{1}}) {
      for (std::uint64_t seed = 1; seed <= schedules; ++seed) {
        cases.push_back(FaultCase{l, r, flowlinks, seed * 104729});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    FaultSchedules, FaultRandomWalk, ::testing::ValuesIn(makeFaultCases()),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      const auto& p = info.param;
      return std::string(toString(p.left)) + "_" + std::string(toString(p.right)) +
             "_links" + std::to_string(p.flowlinks) + "_seed" +
             std::to_string(p.seed);
    });

// ------------------------------------------------------- simulator layer

struct SimRunResult {
  bool in_call = false;
  bool hears_both = false;
  std::uint64_t dropped = 0;
  std::uint64_t crashes = 0;
  std::size_t probes_converged = 0;
  std::string trace_json;
};

SimRunResult runFaultedCall(std::uint64_t sim_seed, std::uint64_t fault_seed,
                            bool with_crash) {
  obs::TraceRecorder trace;
  Simulator sim(TimingModel::paperDefaults(), sim_seed);
  sim.attachTrace(&trace);
  auto& media = sim.mediaNetwork();
  auto& a = sim.addBox<UserDeviceBox>("A", media, sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", media, sim.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000));

  FaultSpec spec;
  spec.drop_rate = 0.25;
  spec.duplicate_rate = 0.10;
  spec.reorder_rate = 0.10;
  spec.active_for = 4_s;
  FaultPlan plan(fault_seed, spec);
  if (with_crash) plan.addCrash(CrashEvent{"B", SimTime{} + 1500_ms, 800_ms});
  sim.installFaultPlan(&plan);

  sim.inject("A",
             [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.armStabilizationProbe("call", [&] { return a.inCall() && b.inCall(); });
  sim.run(60_s);

  SimRunResult result;
  result.in_call = a.inCall() && b.inCall();
  result.hears_both =
      a.media().hears(b.media().id()) && b.media().hears(a.media().id());
  result.dropped = plan.counters().dropped;
  result.crashes = plan.counters().crashes;
  result.probes_converged = sim.probes().convergedCount();
  sim.attachTrace(nullptr);
  result.trace_json = trace.chromeTraceJson();
  return result;
}

TEST(SimFaultPlan, CallStabilizesUnderDropDupReorder) {
  const std::uint64_t schedules = schedulesPerConfig();
  for (std::uint64_t seed = 1; seed <= schedules; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const SimRunResult r = runFaultedCall(42, seed, /*with_crash=*/false);
    EXPECT_TRUE(r.in_call) << "call did not stabilize";
    EXPECT_TRUE(r.hears_both) << "media did not converge to two-way";
    EXPECT_EQ(r.probes_converged, 1u) << "stabilization probe never fired";
    if (::testing::Test::HasFailure()) {
      logFailingSeed("sim drop seed=" + std::to_string(seed));
    }
  }
}

TEST(SimFaultPlan, CallSurvivesCrashAndRestart) {
  const std::uint64_t schedules = schedulesPerConfig();
  for (std::uint64_t seed = 1; seed <= schedules; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const SimRunResult r = runFaultedCall(42, seed, /*with_crash=*/true);
    EXPECT_EQ(r.crashes, 1u);
    EXPECT_TRUE(r.in_call) << "call did not re-establish after crash";
    EXPECT_TRUE(r.hears_both);
    if (::testing::Test::HasFailure()) {
      logFailingSeed("sim crash seed=" + std::to_string(seed));
    }
  }
}

TEST(SimFaultPlan, FixedSeedsReplayByteIdentically) {
  const SimRunResult r1 = runFaultedCall(42, 7, /*with_crash=*/true);
  const SimRunResult r2 = runFaultedCall(42, 7, /*with_crash=*/true);
  EXPECT_GT(r1.dropped, 0u) << "schedule injected nothing; test is vacuous";
  EXPECT_EQ(r1.trace_json, r2.trace_json)
      << "same (sim seed, fault seed) must replay the exact same trace";
}

TEST(SimFaultPlan, WindowOpensAtThePlansStart) {
  FaultSpec spec;
  spec.drop_rate = 1.0;
  spec.active_for = 2_s;
  FaultPlan plan(5, spec, SimTime{40_s});
  EXPECT_TRUE(plan.decide(SimTime{40_s + 500_ms}).drop);
  EXPECT_FALSE(plan.decide(SimTime{42_s}).drop);
  EXPECT_EQ(plan.counters().considered, 2u);
}

TEST(SimFaultPlan, BoxPlanConfinesFaultsToOneDirection) {
  Simulator sim(TimingModel::paperDefaults(), 42);
  auto& media = sim.mediaNetwork();
  auto& a = sim.addBox<UserDeviceBox>("A", media, sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  sim.addBox<UserDeviceBox>("B", media, sim.loop(),
                            MediaAddress::parse("10.0.0.2", 5000));
  FaultSpec quiet;  // default: no faults anywhere
  FaultPlan plan(3, quiet);
  FaultSpec lossy;
  lossy.drop_rate = 1.0;
  lossy.active_for = 600_ms;
  FaultPlan a_plan(3, lossy);
  sim.installFaultPlan(&plan);
  // Only what A sends is lossy; B -> A stays with the quiet installed plan.
  sim.setBoxFaultPlan(a.id(), &a_plan);
  sim.inject("A",
             [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(600_ms);
  EXPECT_GT(a_plan.counters().dropped, 0u) << "A's plan saw no drops";
  EXPECT_EQ(plan.counters().dropped, 0u) << "the installed plan dropped";
  // After the injection window the dropped opens are re-asserted.
  sim.runFor(10_s);
  EXPECT_TRUE(a.inCall());
}

// ---------------------------------------------------- model-checker layer

TEST(McFaultColumn, VerificationTableHoldsUnderFaultBudget) {
  ExploreLimits limits;
  limits.chaos_budget = 0;
  limits.modify_budget = 0;
  limits.fault_budget = 2;
  limits.max_states = 500'000;
  for (const auto& config : paperVerificationSuite()) {
    const VerificationOutcome outcome = verifyPath(config, limits);
    EXPECT_TRUE(outcome.ok())
        << toString(config.left) << "/" << toString(config.right)
        << " flowlinks=" << config.flowlinks << ": " << outcome.failure;
    EXPECT_FALSE(outcome.stats.truncated);
  }
}

TEST(McFaultColumn, FaultBudgetEnlargesTheStateSpace) {
  ExploreLimits base;
  base.chaos_budget = 0;
  base.modify_budget = 0;
  base.max_states = 500'000;
  ExploreLimits faulty = base;
  faulty.fault_budget = 2;
  const auto clean = explorePath(K::openSlot, K::openSlot, 1, base);
  const auto injected = explorePath(K::openSlot, K::openSlot, 1, faulty);
  EXPECT_GT(injected.states(), clean.states())
      << "fault actions added no reachable states; injection is not wired";
}

}  // namespace
}  // namespace cmc
