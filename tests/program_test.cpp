// Tests for the state-oriented programming API (ProgramBox): annotation
// application order and continuity, and guard evaluation on entry and on
// events. The paper's Fig. 6 program, ClickToDialBox, is tested end to end
// in scenario_ctd_test.
#include <gtest/gtest.h>

#include <vector>

#include "core/program.hpp"
#include "endpoints/user_device.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;
using P = ProgramBox;

// ------------------------------------------------- ProgramBox primitives

TEST(ProgramBoxUnit, GuardsEvaluateOnEntry) {
  // A guard true at state entry fires immediately (the paper's "executable
  // as soon as the program enters the state").
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p");
  box.addState("a", {});
  box.addState("b", {});
  bool reached_b = false;
  box.addTransition("a", "b", [](ProgramBox&) { return true; },
                    [&](ProgramBox&) { reached_b = true; });
  box.start("a");
  EXPECT_TRUE(reached_b);
  EXPECT_EQ(box.currentState(), "b");
}

TEST(ProgramBoxUnit, ChainedTransitionsStopAtFixpoint) {
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p");
  box.addState("a", {}).addState("b", {}).addState("c", {});
  box.addTransition("a", "b", nullptr);  // nullptr guard = always
  box.addTransition("b", "c", nullptr);
  box.start("a");
  EXPECT_EQ(box.currentState(), "c");
}

TEST(ProgramBoxUnit, OnEnterActionsRun) {
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p");
  box.addState("a", {});
  int entered = 0;
  box.onEnter("a", [&](ProgramBox&) { ++entered; });
  box.start("a");
  EXPECT_EQ(entered, 1);
}

TEST(ProgramBoxUnit, UnboundSlotPredicatesAreFalseButClosedIsTrue) {
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p");
  box.addState("a", {});
  box.start("a");
  EXPECT_FALSE(box.flowing("x"));
  EXPECT_FALSE(box.opening("x"));
  EXPECT_TRUE(box.closed("x"));  // an unbound slot behaves as closed
}

TEST(ProgramBoxUnit, AnnotationsApplyInOrderAndUnchangedOnesKeepTheirGoal) {
  Simulator sim(TimingModel::paperDefaults(), 17);
  obs::TraceRecorder rec;
  sim.attachTrace(&rec);
  sim.addBox<UserDeviceBox>("u1", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.5.0.1", 5000));
  sim.addBox<UserDeviceBox>("u2", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.5.0.2", 5000));
  auto& box = sim.addBox<ProgramBox>("p");
  // `both` declares 2a before 1a; `kept` keeps 1a's annotation unchanged.
  box.addState("idle", {});
  box.addState("both", {P::openSlot("2a"), P::openSlot("1a")});
  box.addState("kept", {P::openSlot("1a")});
  box.addTransition("idle", "both", [](ProgramBox& b) {
    return b.isBound("1a") && b.isBound("2a");
  });
  box.addTransition("both", "kept", [](ProgramBox& b) {
    return b.flowing("1a") && b.flowing("2a");
  });
  box.start("idle");
  sim.inject("p", [](Box& b) {
    auto& program = static_cast<ProgramBox&>(b);
    program.requestChannel("u1", 1, "1a");
    program.requestChannel("u2", 1, "2a");
  });
  sim.runFor(2_s);
  sim.attachTrace(nullptr);

  ASSERT_EQ(box.currentState(), "kept");
  EXPECT_TRUE(box.flowing("1a"));
  std::vector<std::uint64_t> posted;
  int opens_to_u1 = 0;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    if (e.actor != "p") continue;
    if (e.kind == obs::EventKind::goalPosted) posted.push_back(e.id);
    if (e.kind == obs::EventKind::signalSend && e.name == "open" &&
        e.aux == "u1") {
      ++opens_to_u1;
    }
  }
  // One goal per slot, posted in declaration order; entering `kept` posts
  // none and sends no second open on 1a.
  EXPECT_EQ(posted, (std::vector<std::uint64_t>{box.slotNamed("2a").value(),
                                                box.slotNamed("1a").value()}));
  EXPECT_EQ(opens_to_u1, 1);
}

}  // namespace
}  // namespace cmc
