// Tests for simulator internals: serial-server queueing (the paper's boxes
// process one stimulus at a time at cost c), network jitter, the delivery
// hook, injection ordering, the channel lifecycle the simulator carries
// between the two ends of a channel, channel requests by name and by id,
// refresh-tick lifetimes and order, and retired box rows.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "endpoints/user_device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace cmc {
namespace {

using namespace literals;

TEST(SimInternals, StimuliSerializeOnABox) {
  // Two stimuli injected at t=0 on the same box: the box is a serial
  // server with processing cost c = 20 ms, so they complete at 20 and 40.
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("box");
  std::vector<double> completions;
  sim.inject("box", [&](Box&) { completions.push_back(0); });
  sim.inject("box", [&](Box&) { completions.push_back(0); });
  sim.runFor(1_s);
  // Completion times are observable through the loop clock at callback
  // time; re-run with capture:
  Simulator sim2(TimingModel::paperDefaults(), 1);
  sim2.addBox<Box>("box");
  std::vector<double> at;
  sim2.inject("box", [&](Box&) { at.push_back(sim2.now().millis()); });
  sim2.inject("box", [&](Box&) { at.push_back(sim2.now().millis()); });
  sim2.runFor(1_s);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], 20.0);
  EXPECT_DOUBLE_EQ(at[1], 40.0);
}

TEST(SimInternals, DifferentBoxesRunInParallel) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("x");
  sim.addBox<Box>("y");
  std::vector<double> at;
  sim.inject("x", [&](Box&) { at.push_back(sim.now().millis()); });
  sim.inject("y", [&](Box&) { at.push_back(sim.now().millis()); });
  sim.runFor(1_s);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], 20.0);
  EXPECT_DOUBLE_EQ(at[1], 20.0);  // not serialized across boxes
}

TEST(SimInternals, SignalHookSeesDeliveries) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.2", 5000));
  std::vector<std::string> kinds;
  sim.onSignalDelivered = [&](const std::string& from, const std::string& to,
                              const Signal& signal, SimTime) {
    kinds.push_back(std::string(from) + ">" + to + ":" +
                    std::string(toString(kindOf(signal))));
  };
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim.runFor(2_s);
  ASSERT_GE(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], "A>B:open");
  EXPECT_EQ(kinds[1], "B>A:oack");
  EXPECT_EQ(kinds[2], "B>A:select");
  EXPECT_EQ(kinds[3], "A>B:select");
  EXPECT_EQ(sim.signalsDelivered(), kinds.size());
}

TEST(SimInternals, JitterSpreadsDeliveries) {
  TimingModel timing = TimingModel::paperDefaults();
  timing.network_jitter = 0.5;
  Simulator sim(timing, 9);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.2", 5000));
  std::vector<double> at;
  sim.onSignalDelivered = [&](const std::string&, const std::string&,
                              const Signal&, SimTime t) {
    at.push_back(t.millis());
  };
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim.runFor(2_s);
  ASSERT_GE(at.size(), 2u);
  // The open leaves when the inject stimulus completes (t = c = 20 ms) and
  // arrives n later; with +/-50% jitter n is in [17, 51] ms.
  EXPECT_GE(at[0], 20.0 + 17.0 - 0.001);
  EXPECT_LE(at[0], 20.0 + 51.0 + 0.001);
  // The call still establishes.
  auto& a = static_cast<UserDeviceBox&>(sim.box("A"));
  EXPECT_TRUE(a.inCall());
}

TEST(SimInternals, ConnectIsImmediatelyUsable) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.9.1.1", 5000));
  sim.addBox<Box>("hub");
  const ChannelId ch = sim.connect("A", "hub");
  EXPECT_TRUE(a.hasChannel(ch));
  EXPECT_TRUE(sim.box("hub").hasChannel(ch));
}

TEST(SimInternals, DuplicateBoxNameThrows) {
  Simulator sim;
  sim.addBox<Box>("same");
  EXPECT_THROW(sim.addBox<Box>("same"), std::logic_error);
}

TEST(SimInternals, UnknownBoxLookupThrows) {
  Simulator sim;
  EXPECT_THROW((void)sim.box("ghost"), std::logic_error);
}

// A box that exposes the channel helpers and logs what reaches it, in order.
class WiredBox : public Box {
 public:
  using Box::Box;
  using Box::destroyChannel;
  using Box::requestChannel;
  using Box::sendMeta;
  using Box::setTimer;

  void deliverTunnel(SlotId slot, const Signal& signal) override {
    log.push_back("signal:" + std::string(toString(kindOf(signal))));
    Box::deliverTunnel(slot, signal);
  }

  std::vector<std::string> log;
  ChannelId requested;

 protected:
  void onChannelUp(ChannelId channel, const std::string&) override {
    requested = channel;
  }
  void onIncomingChannel(ChannelId, const std::string&) override {
    log.push_back("incoming");
  }
  void onMeta(ChannelId, const MetaSignal& meta) override {
    log.push_back("meta:" + meta.tag);
  }
  void onChannelDown(ChannelId) override { log.push_back("down"); }
};

EndpointGoal opener() {
  return OpenSlotGoal{Medium::audio,
                      MediaIntent::endpoint(
                          MediaAddress::parse("10.9.1.1", 5000),
                          {Codec::g711u}),
                      DescriptorFactory{1}};
}

TEST(SimChannelLifecycle, SignalQueuedBeforeDestroyStillReachesThePeer) {
  // The signal was addressed when it was queued, so destroying the channel
  // later in the same stimulus does not strand it: the peer gets the
  // signal, then the teardown.
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<WiredBox>("A");
  auto& b = sim.addBox<WiredBox>("B");
  const ChannelId ch = sim.connect("A", "B");
  b.log.clear();  // "incoming", from connect
  sim.inject("A", [&](Box&) {
    a.setGoal(a.slotsOf(ch).front(), opener());
    a.destroyChannel(ch);
  });
  sim.runFor(1_s);
  EXPECT_EQ(b.log, (std::vector<std::string>{"signal:open", "down"}));
  EXPECT_FALSE(b.hasChannel(ch));
  EXPECT_EQ(sim.signalsDelivered(), 1u);
}

TEST(SimChannelLifecycle, HangupBeforeMaterializationNeverReachesCallee) {
  // n = 34 ms, c = 20 ms: the request leaves at 20 ms and would materialize
  // at 54 ms; the caller hangs up at 40 ms. The callee never gets an end,
  // is never stimulated, and is sent no teardown.
  Simulator sim(TimingModel::paperDefaults(), 1);
  obs::MetricsRegistry reg;
  sim.attachMetrics(&reg);
  auto& a = sim.addBox<WiredBox>("A");
  auto& b = sim.addBox<WiredBox>("B");
  sim.inject("A", [&](Box&) { a.requestChannel("B", 1, "call"); });
  sim.inject("A", [&](Box&) {
    ASSERT_TRUE(a.requested.valid());
    a.destroyChannel(a.requested);
  });
  EXPECT_TRUE(sim.run());
  EXPECT_FALSE(a.hasChannel(a.requested));
  EXPECT_FALSE(b.hasChannel(a.requested));
  EXPECT_TRUE(b.log.empty());
  EXPECT_EQ(reg.counter("sim.stimuli").value(), 2u);  // the two injections
}

TEST(SimChannelLifecycle, SignalToATornDownEndIsLostBeforeTheDeadBoxCheck) {
  // B drops its end at 20 ms, A's open leaves at 20 ms and arrives at 54 ms,
  // while B is also crashed (30 ms to 1.03 s). The end is gone, so the
  // signal is lost in the channel: it is neither delivered nor counted as a
  // dead-box drop.
  Simulator sim(TimingModel::paperDefaults(), 1);
  obs::MetricsRegistry reg;
  sim.attachMetrics(&reg);
  auto& a = sim.addBox<WiredBox>("A");
  auto& b = sim.addBox<WiredBox>("B");
  const ChannelId ch = sim.connect("A", "B");
  b.log.clear();  // "incoming", from connect
  FaultPlan plan(3, FaultSpec{0.0, 0.0, 0.0});
  plan.addCrash(CrashEvent{"B", SimTime{} + 30_ms, 1_s});
  sim.installFaultPlan(&plan);
  sim.inject("B", [&](Box&) { b.destroyChannel(ch); });
  sim.inject("A", [&](Box&) { a.setGoal(a.slotsOf(ch).front(), opener()); });
  sim.runFor(2_s);
  EXPECT_EQ(plan.counters().crashes, 1u);
  EXPECT_EQ(sim.signalsDelivered(), 0u);
  EXPECT_EQ(b.log, (std::vector<std::string>{"down"}));  // its own destroy
  EXPECT_EQ(plan.counters().dead_box_drops, 0u);
  EXPECT_EQ(reg.counter("fault.dead_box_drops").value(), 0u);
  EXPECT_FALSE(a.hasChannel(ch));  // the teardown reached A
  sim.installFaultPlan(nullptr);
}

TEST(SimChannelLifecycle, MetaReachesAReceiverThatDroppedItsEnd) {
  // B drops its end at 20 ms; A, still holding its end until the teardown
  // arrives (54 ms) and is processed (74 ms), sends a meta at 20 ms. The
  // meta arrives at 54 ms while A still holds the channel, so it is
  // delivered even though B no longer does.
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<WiredBox>("A");
  auto& b = sim.addBox<WiredBox>("B");
  const ChannelId ch = sim.connect("A", "B");
  b.log.clear();  // "incoming", from connect
  sim.inject("B", [&](Box&) { b.destroyChannel(ch); });
  sim.inject("A", [&](Box&) {
    a.sendMeta(ch, MetaSignal{MetaKind::custom, "hello", ""});
  });
  sim.runFor(1_s);
  EXPECT_EQ(b.log, (std::vector<std::string>{"down", "meta:hello"}));
  EXPECT_EQ(a.log, (std::vector<std::string>{"down"}));
}

// ------------------------------------------------------------ routing

// One call from A to B, its channel requested by name or by id: both ends
// take an open goal once the channel is up. Returns the exported trace.
std::string tracedCall(bool by_id) {
  obs::TraceRecorder rec;
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.attachTrace(&rec);
  auto& a = sim.addBox<WiredBox>("A");
  auto& b = sim.addBox<WiredBox>("B");
  sim.inject("A", [&](Box&) {
    if (by_id) {
      a.requestChannel(b.id(), 1, "call");
    } else {
      a.requestChannel("B", 1, "call");
    }
  });
  sim.runFor(100_ms);  // the far end materializes at 54 ms
  EXPECT_TRUE(a.requested.valid());
  EXPECT_TRUE(b.hasChannel(a.requested));
  sim.inject("A", [&](Box&) { a.setGoal(a.slotsOf(a.requested).front(), opener()); });
  sim.inject("B", [&](Box&) { b.setGoal(b.slotsOf(a.requested).front(), opener()); });
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(a.isFlowing(a.slotsOf(a.requested).front()));
  EXPECT_EQ(b.log.front(), "incoming");
  return rec.chromeTraceJson();
}

TEST(SimRouting, RequestsByIdAndByNameTraceAlike) {
  const std::string by_name = tracedCall(/*by_id=*/false);
  const std::string by_id = tracedCall(/*by_id=*/true);
  EXPECT_NE(by_name.find("\"recv open\""), std::string::npos);
  EXPECT_EQ(by_id, by_name);
}

TEST(SimRouting, ARequestByIdToARetiredBoxIsDroppedAndLogged) {
  // Like a request to an unknown name: the sender gets no end, the request
  // is logged, and nothing reached the retired row, so nothing is counted.
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<WiredBox>("A");
  const BoxId gone = sim.addBox<WiredBox>("B").id();
  sim.retireBox(gone);
  std::ostringstream sink;
  log::setSink(&sink);
  log::setLevel(log::Level::warn);
  sim.inject("A", [&](Box&) { a.requestChannel(gone, 1, "call"); });
  sim.inject("A", [&](Box&) { a.requestChannel("B", 1, "call"); });
  EXPECT_TRUE(sim.run());
  log::setLevel(log::Level::none);
  log::setSink(nullptr);
  EXPECT_FALSE(a.requested.valid());
  EXPECT_EQ(a.slotCount(), 0u);
  EXPECT_EQ(sim.retiredDrops(), 0u);
  const std::string out = sink.str();
  EXPECT_NE(out.find("channel request to retired box box:2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("channel request to unknown box B"), std::string::npos)
      << out;
}

// Boxes registered as b, a, c, each with an open goal its peer never
// answers, so each needs repair at the first refresh tick (300 ms). The
// ticks are armed when the plan is installed, in box-name order, so the
// three repair stimuli start at the same instant and complete a, b, c.
// Returns the boxes whose repair stimulus started at 300 ms, in order.
std::vector<std::string> sameInstantRepairs(Simulator& sim) {
  obs::TraceRecorder rec;
  sim.attachTrace(&rec);
  std::vector<std::pair<WiredBox*, ChannelId>> openers;
  for (const char* name : {"b", "a", "c"}) {
    auto& box = sim.addBox<WiredBox>(name);
    sim.addBox<WiredBox>(std::string("peer-") + name);
    openers.emplace_back(&box, sim.connect(name, std::string("peer-") + name));
  }
  FaultPlan plan(1, FaultSpec{0.0, 0.0, 0.0});
  sim.installFaultPlan(&plan);
  for (auto [box, ch] : openers) {
    sim.inject(box->name(), [box = box, ch = ch](Box&) {
      box->setGoal(box->slotsOf(ch).front(), opener());
    });
  }
  sim.runFor(400_ms);
  std::vector<std::string> repaired;
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind == obs::EventKind::boxSpan && ev.ts_us == 300'000) {
      repaired.push_back(ev.actor);
    }
  }
  sim.installFaultPlan(nullptr);
  sim.attachTrace(nullptr);
  return repaired;
}

TEST(SimRouting, SameInstantRefreshTicksFireInBoxNameOrder) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  EXPECT_EQ(sameInstantRepairs(sim), (std::vector<std::string>{"a", "b", "c"}));
}

// ------------------------------------------------------------ retired rows

TEST(SimRetiredRows, EventsAddressedToARetiredBoxAreDroppedAndCounted) {
  // At 0 B drops its end and arms a 100 ms timer; A sets an open goal and
  // sends a meta. Both stimuli complete at 20 ms, so the open and the meta
  // arrive at B at 54 ms and B's timer fires at 120 ms. B, holding nothing
  // by then, is retired at 30 ms: all three are dropped and counted.
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<WiredBox>("A");
  auto& b = sim.addBox<WiredBox>("B");
  const ChannelId ch = sim.connect("A", "B");
  sim.inject("B", [&](Box&) {
    b.destroyChannel(ch);
    b.setTimer(100_ms, "late");
  });
  sim.inject("A", [&](Box&) {
    a.setGoal(a.slotsOf(ch).front(), opener());
    a.sendMeta(ch, MetaSignal{MetaKind::custom, "hello", ""});
  });
  sim.runFor(30_ms);
  const BoxId b_id = b.id();
  sim.retireBox(b_id);
  EXPECT_EQ(sim.retiredDrops(), 0u);
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(sim.retiredDrops(), 3u);  // the open, the meta, the timer
  EXPECT_EQ(sim.signalsDelivered(), 0u);
  EXPECT_FALSE(a.hasChannel(ch));  // B's teardown still reached A
  EXPECT_EQ(a.log, (std::vector<std::string>{"down"}));
}

TEST(SimRetiredRows, NameIsForgottenAndIdsAreNeverReused) {
  Simulator sim;
  const BoxId first = sim.addBox<Box>("x").id();
  sim.addBox<Box>("y");
  sim.retireBox(first);
  EXPECT_THROW((void)sim.box("x"), std::logic_error);
  EXPECT_THROW(sim.inject("x", [](Box&) {}), std::logic_error);
  EXPECT_THROW(sim.retireBox(first), std::logic_error);  // already retired
  // The name is free again, but the new box gets a fresh id: an event
  // still addressed to the old row can never reach it.
  Box& again = sim.addBox<Box>("x");
  EXPECT_EQ(again.id().value(), 3u);
  EXPECT_EQ(&sim.box("x"), &again);
}

TEST(SimRetiredRows, RefreshTickEndsAtRetirementAndTheLoopDrains) {
  // A plan whose window never closes keeps every box's refresh tick alive,
  // so the loop never drains while the box lives.
  Simulator sim(TimingModel::paperDefaults(), 1);
  FaultSpec spec;
  spec.active_for = SimDuration{0};
  FaultPlan plan(5, spec);
  sim.installFaultPlan(&plan);
  const BoxId id = sim.addBox<Box>("ticker").id();
  EXPECT_FALSE(sim.run(2_s));
  sim.retireBox(id);
  EXPECT_TRUE(sim.run(2_s));
  EXPECT_EQ(sim.retiredDrops(), 0u);  // ending the tick drops nothing
  sim.installFaultPlan(nullptr);
}

// ------------------------------------------------------------ refresh ticks

// A box's refresh tick lives while the plan deciding for it is open or the
// box needs repair, whatever the installed plan's window. Here the installed
// plan stays open for 10 s; a box's own plan is either closed at 100 ms or
// open for 2 s. Ticks fire every 300 ms from registration.
TEST(SimRefreshTicks, ABoxTicksOnlyWhileItsOwnPlanIsOpenOrItNeedsRepair) {
  FaultSpec quiet{0.0, 0.0, 0.0};
  quiet.active_for = 10_s;
  FaultSpec brief = quiet;
  brief.active_for = 100_ms;
  FaultSpec two_seconds = quiet;
  two_seconds.active_for = 2_s;

  {
    // Converged, own window closed: the first tick (300 ms) is the last.
    Simulator sim(TimingModel::paperDefaults(), 1);
    FaultPlan installed(1, quiet);
    FaultPlan own(2, brief);
    sim.installFaultPlan(&installed);
    const BoxId id = sim.addBox<Box>("settled").id();
    sim.setBoxFaultPlan(id, &own);
    EXPECT_TRUE(sim.run(1_s));
    EXPECT_EQ(sim.now(), SimTime{} + 300_ms);
    sim.installFaultPlan(nullptr);
  }
  {
    // Converged, own window open until 2 s: the tick at 1.8 s sees the
    // window closed by the next one and is the last.
    Simulator sim(TimingModel::paperDefaults(), 1);
    FaultPlan installed(1, quiet);
    FaultPlan own(2, two_seconds);
    sim.installFaultPlan(&installed);
    const BoxId id = sim.addBox<Box>("exposed").id();
    sim.setBoxFaultPlan(id, &own);
    EXPECT_FALSE(sim.run(1_s));
    EXPECT_TRUE(sim.run(5_s));
    EXPECT_EQ(sim.now(), SimTime{} + 1800_ms);
    sim.installFaultPlan(nullptr);
  }
  {
    // Own window closed, but A's open goes unanswered until B takes an
    // open goal at 3 s: A keeps ticking until the path converges.
    Simulator sim(TimingModel::paperDefaults(), 1);
    obs::MetricsRegistry reg;
    sim.attachMetrics(&reg);
    FaultPlan installed(1, quiet);
    FaultPlan own(2, brief);
    sim.installFaultPlan(&installed);
    auto& a = sim.addBox<WiredBox>("A");
    auto& b = sim.addBox<WiredBox>("B");
    sim.setBoxFaultPlan(a.id(), &own);
    sim.setBoxFaultPlan(b.id(), &own);
    const ChannelId ch = sim.connect("A", "B");
    sim.inject("A", [&](Box&) { a.setGoal(a.slotsOf(ch).front(), opener()); });
    sim.runFor(3_s);
    EXPECT_TRUE(a.needsRefresh());
    EXPECT_GT(sim.loop().pending(), 0u);  // A's tick is armed
    const std::uint64_t stimuli = reg.counter("sim.stimuli").value();
    EXPECT_GE(stimuli, 10u);  // the goal, then a refresh every 300 ms
    sim.inject("B", [&](Box&) { b.setGoal(b.slotsOf(ch).front(), opener()); });
    EXPECT_TRUE(sim.run(5_s));
    EXPECT_FALSE(a.needsRefresh());
    EXPECT_FALSE(b.needsRefresh());
    EXPECT_LT(sim.now(), SimTime{} + 4_s);  // long before the installed
                                            // plan closes at 10 s
    sim.installFaultPlan(nullptr);
  }
}

TEST(SimRetiredRows, RetiringABoxThatHoldsASlotOrGoalThrows) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<WiredBox>("A");
  sim.addBox<WiredBox>("B");
  const ChannelId ch = sim.connect("A", "B");
  EXPECT_THROW(sim.retireBox(a.id()), std::logic_error);  // a slot
  sim.inject("A", [&](Box&) { a.setGoal(a.slotsOf(ch).front(), opener()); });
  sim.runFor(30_ms);
  ASSERT_EQ(a.goalCount(), 1u);
  EXPECT_THROW(sim.retireBox(a.id()), std::logic_error);  // slot and goal
  EXPECT_EQ(&sim.box("A"), &a);  // a refused retirement changes nothing
  sim.inject("A", [&](Box&) { a.destroyChannel(ch); });
  sim.runFor(30_ms);
  ASSERT_EQ(a.slotCount(), 0u);
  ASSERT_EQ(a.goalCount(), 0u);
  sim.retireBox(a.id());
  EXPECT_THROW((void)sim.box("A"), std::logic_error);
}

// ------------------------------------------------------------- name index

// The name index holds (hash tag, id) slots and reads names from the box
// rows; a retired name leaves a tombstone. Churn it through many rebuilds:
// `total` boxes, each retired `lag` registrations later unless its index is
// a multiple of `keep_every`.
struct Churned {
  std::vector<std::pair<std::string, BoxId>> live;
  std::vector<std::string> retired;
};

Churned churn(Simulator& sim, std::size_t total, std::size_t keep_every) {
  constexpr std::size_t lag = 7;
  Churned out;
  std::vector<BoxId> ids;
  const auto name = [](std::size_t i) { return "churn-" + std::to_string(i); };
  for (std::size_t i = 0; i < total + lag; ++i) {
    if (i < total) ids.push_back(sim.addBox<Box>(name(i)).id());
    if (i < lag) continue;
    const std::size_t old = i - lag;
    if (old % keep_every == 0) {
      out.live.emplace_back(name(old), ids[old]);
    } else {
      sim.retireBox(ids[old]);
      out.retired.push_back(name(old));
    }
  }
  return out;
}

TEST(SimNameIndex, ChurnedIndexResolvesLiveNamesOnly) {
  Simulator sim;
  const Churned c = churn(sim, 60'000, 3);
  ASSERT_EQ(c.live.size(), 20'000u);
  for (const auto& [name, id] : c.live) {
    ASSERT_EQ(sim.box(name).id(), id) << name;
  }
  for (const std::string& name : c.retired) {
    ASSERT_THROW((void)sim.box(name), std::logic_error) << name;
  }
  // A retired name registers again, under a fresh id.
  const std::string& reused = c.retired.front();
  Box& again = sim.addBox<Box>(reused);
  EXPECT_EQ(again.id().value(), 60'001u);
  EXPECT_EQ(&sim.box(reused), &again);
  // Live names stay taken, across every rebuild that dropped tombstones.
  for (std::size_t i = 0; i < c.live.size(); i += 997) {
    EXPECT_THROW(sim.addBox<Box>(c.live[i].first), std::logic_error);
  }
  EXPECT_THROW(sim.addBox<Box>(reused), std::logic_error);
  // A failed registration leaves no row behind.
  EXPECT_EQ(sim.addBox<Box>("fresh").id().value(), 60'002u);
  // Retire the churned boxes: their names are forgotten and free again,
  // and the boxes registered since still resolve.
  sim.retireBox(again.id());
  for (const auto& [name, id] : c.live) sim.retireBox(id);
  for (const auto& [name, id] : c.live) {
    ASSERT_THROW((void)sim.box(name), std::logic_error) << name;
  }
  Box& last = sim.addBox<Box>(c.live.back().first);
  EXPECT_EQ(&sim.box(c.live.back().first), &last);
  EXPECT_EQ(sim.box("fresh").id().value(), 60'002u);
}

TEST(SimNameIndex, SameInstantRefreshTicksFireInBoxNameOrderOnAChurnedTable) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  const Churned c = churn(sim, 50'000, 1'000);
  ASSERT_EQ(c.live.size(), 50u);
  EXPECT_EQ(sameInstantRepairs(sim), (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace cmc
