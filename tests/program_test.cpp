// Tests for the state-oriented programming API (ProgramDef, ProgramBox):
// annotation application order and continuity, guard evaluation on entry
// and on events, def validation, the transition-chain cap, and one def
// shared by every box of a program. The paper's Fig. 6 program,
// ClickToDialBox, is tested end to end in scenario_ctd_test.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/program.hpp"
#include "endpoints/user_device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;
using P = ProgramBox;

const ProgramBox::Guard kAlways = [](const ProgramBox&, const ProgramEvent&) {
  return true;
};

// ------------------------------------------------- ProgramBox primitives

TEST(ProgramBoxUnit, GuardsEvaluateOnEntry) {
  // A guard true at state entry fires immediately (the paper's "executable
  // as soon as the program enters the state").
  bool reached_b = false;
  ProgramDef def({});
  def.state("a", {}).state("b", {});
  def.transition("a", "b", kAlways,
                 [&](ProgramBox&, const ProgramEvent&) { reached_b = true; });
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p", def);
  box.start("a");
  EXPECT_TRUE(reached_b);
  EXPECT_EQ(box.currentState(), "b");
}

TEST(ProgramBoxUnit, ChainedTransitionsStopAtFixpoint) {
  ProgramDef def({});
  def.state("a", {}).state("b", {}).state("c", {});
  def.transition("a", "b", nullptr);  // nullptr guard = always
  def.transition("b", "c", nullptr);
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p", def);
  box.start("a");
  EXPECT_EQ(box.currentState(), "c");
}

TEST(ProgramBoxUnit, OnEnterActionsRun) {
  int entered = 0;
  ProgramDef def({});
  def.state("a", {});
  def.onEnter("a", [&](ProgramBox&, const ProgramEvent&) { ++entered; });
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p", def);
  box.start("a");
  EXPECT_EQ(entered, 1);
}

TEST(ProgramBoxUnit, UnboundSlotPredicatesAreFalseButClosedIsTrue) {
  ProgramDef def({"x"});
  def.state("a", {});
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p", def);
  box.start("a");
  EXPECT_FALSE(box.flowing(0));
  EXPECT_FALSE(box.opening(0));
  EXPECT_TRUE(box.closed(0));  // an unbound slot behaves as closed
}

TEST(ProgramBoxUnit, AnnotationsApplyInOrderAndUnchangedOnesKeepTheirGoal) {
  enum : ProgramDef::Slot { k1a, k2a };
  // `both` declares 2a before 1a; `kept` keeps 1a's annotation unchanged.
  ProgramDef def({"1a", "2a"});
  def.state("idle", {});
  def.state("both", {P::openSlot(k2a), P::openSlot(k1a)});
  def.state("kept", {P::openSlot(k1a)});
  def.transition("idle", "both", [](const ProgramBox& p, const ProgramEvent&) {
    return p.isBound(k1a) && p.isBound(k2a);
  });
  def.transition("both", "kept", [](const ProgramBox& p, const ProgramEvent&) {
    return p.flowing(k1a) && p.flowing(k2a);
  });

  Simulator sim(TimingModel::paperDefaults(), 17);
  obs::TraceRecorder rec;
  sim.attachTrace(&rec);
  sim.addBox<UserDeviceBox>("u1", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.5.0.1", 5000));
  sim.addBox<UserDeviceBox>("u2", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.5.0.2", 5000));
  auto& box = sim.addBox<ProgramBox>("p", def);
  box.start("idle");
  sim.inject("p", [](Box& bx) {
    auto& program = static_cast<ProgramBox&>(bx);
    program.requestChannel("u1", 1, "1a");
    program.requestChannel("u2", 1, "2a");
  });
  sim.runFor(2_s);
  sim.attachTrace(nullptr);

  ASSERT_EQ(box.currentState(), "kept");
  EXPECT_TRUE(box.flowing(k1a));
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
  EXPECT_EQ(posted, (std::vector<std::uint64_t>{box.bound(k2a).value(),
                                                box.bound(k1a).value()}));
  EXPECT_EQ(opens_to_u1, 1);
}

// ------------------------------------------------------- def validation

TEST(ProgramDefDeclare, RejectsTransitionToUndeclaredState) {
  ProgramDef def({});
  def.state("idle", {}).state("ringing", {});
  // A typo: "ringnig" is never declared.
  EXPECT_THROW(def.transition("idle", "ringnig", kAlways),
               std::invalid_argument);
}

TEST(ProgramDefDeclare, RejectsTransitionFromUndeclaredState) {
  ProgramDef def({});
  def.state("idle", {}).state("ringing", {});
  EXPECT_THROW(def.transition("idel", "ringing", kAlways),
               std::invalid_argument);
}

TEST(ProgramDefDeclare, RejectsOnEnterOfUndeclaredState) {
  ProgramDef def({});
  def.state("idle", {});
  EXPECT_THROW(
      def.onEnter("talking", [](ProgramBox&, const ProgramEvent&) {}),
      std::invalid_argument);
}

TEST(ProgramDefDeclare, RejectsAnnotationOnUndeclaredSlot) {
  ProgramDef def({"in", "out"});
  EXPECT_THROW(def.state("linked", {P::flowLink(0, 2)}), std::invalid_argument);
  EXPECT_THROW(def.state("held", {P::holdSlot(2)}), std::invalid_argument);
  def.state("linked", {P::flowLink(0, 1)});  // nothing was declared above
}

TEST(ProgramDefDeclare, StartRejectsAnUndeclaredState) {
  ProgramDef def({});
  def.state("idle", {});
  Simulator sim;
  auto& box = sim.addBox<ProgramBox>("p", def);
  EXPECT_THROW(box.start("idel"), std::invalid_argument);
}

// ------------------------------------------------------- chain cap

TEST(ProgramBoxUnit, TransitionLoopHitsTheChainCapVisibly) {
  // a <-> b, both guards always true: every evaluation would loop forever.
  ProgramDef def({});
  def.state("a", {}).state("b", {});
  def.transition("a", "b", kAlways);
  def.transition("b", "a", kAlways);

  Simulator sim;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder rec;
  sim.attachMetrics(&metrics);
  sim.attachTrace(&rec);
  auto& box = sim.addBox<ProgramBox>("p", def);
  EXPECT_EQ(metrics.findCounter("program.chain_cap_hits"), nullptr)
      << "registered before any hit";
  box.start("a");
  sim.attachTrace(nullptr);
  sim.attachMetrics(nullptr);

  // Sixteen transitions from `a` end back in `a`.
  EXPECT_EQ(box.currentState(), "a");
  const obs::Counter* hits = metrics.findCounter("program.chain_cap_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->value(), 1u);
  int marks = 0;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    if (e.kind == obs::EventKind::mark && e.name == "program.chain_cap") {
      ++marks;
      EXPECT_EQ(e.actor, "p");
      EXPECT_EQ(e.aux, "a");
    }
  }
  EXPECT_EQ(marks, 1);
}

// ------------------------------------------------------- shared def

TEST(ProgramBoxUnit, BoxesOfOneProgramShareOneDef) {
  ProgramDef def({"x"});
  def.state("a", {P::holdSlot(0)});
  Simulator sim;
  auto& first = sim.addBox<ProgramBox>("p1", def);
  auto& second = sim.addBox<ProgramBox>("p2", def);
  EXPECT_EQ(&first.def(), &def);
  EXPECT_EQ(&first.def(), &second.def());
}

}  // namespace
}  // namespace cmc
