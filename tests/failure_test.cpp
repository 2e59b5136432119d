// Failure-injection tests: teardown racing with setup, simultaneous
// hangups, devices vanishing mid-modification, and the logger under
// concurrent use. The specification only promises behavior for stable
// paths; these tests pin down that instability degrades *cleanly* — no
// stuck slots, no phantom media, no crashes.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "endpoints/user_device.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace cmc {
namespace {

using namespace literals;

class FailureFixture : public ::testing::Test {
 protected:
  FailureFixture()
      : sim_(TimingModel::paperDefaults(), 43),
        a_(sim_.addBox<UserDeviceBox>("A", sim_.mediaNetwork(), sim_.loop(),
                                      MediaAddress::parse("10.8.1.1", 5000))),
        b_(sim_.addBox<UserDeviceBox>("B", sim_.mediaNetwork(), sim_.loop(),
                                      MediaAddress::parse("10.8.1.2", 5000))) {}

  Simulator sim_;
  UserDeviceBox& a_;
  UserDeviceBox& b_;
};

TEST_F(FailureFixture, HangupWhileOpenInFlight) {
  // A hangs up before its open even reaches B: B must not end up with a
  // half-open call.
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim_.runFor(30_ms);  // open still in flight (n = 34 ms)
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_FALSE(a_.inCall());
  EXPECT_FALSE(b_.inCall());
  EXPECT_FALSE(b_.media().sendingNow());
}

TEST_F(FailureFixture, SimultaneousHangup) {
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim_.runFor(2_s);
  ASSERT_TRUE(a_.inCall());
  // Both tear down at the same instant: teardown metas cross in flight.
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).hangUp(); });
  sim_.inject("B", [](Box& bx) { static_cast<UserDeviceBox&>(bx).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_FALSE(a_.inCall());
  EXPECT_FALSE(b_.inCall());
  EXPECT_FALSE(a_.media().sendingNow());
  EXPECT_FALSE(b_.media().sendingNow());
}

TEST_F(FailureFixture, HangupRacesWithMuteChange) {
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim_.runFor(2_s);
  // B modifies just as A tears the channel down: the describe races the
  // teardown and must be dropped harmlessly.
  sim_.inject("B", [](Box& bx) {
    static_cast<UserDeviceBox&>(bx).setMute(true, true);
  });
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_FALSE(a_.inCall());
  EXPECT_FALSE(b_.inCall());
}

TEST_F(FailureFixture, RapidRedial) {
  // Hang up and immediately redial, five times: each call must establish.
  for (int round = 0; round < 5; ++round) {
    sim_.inject("A",
                [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
    sim_.runFor(1_s);
    EXPECT_TRUE(a_.inCall()) << "round " << round;
    sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).hangUp(); });
    sim_.runFor(500_ms);
  }
  EXPECT_FALSE(a_.inCall());
}

TEST_F(FailureFixture, MuteStorm) {
  // 20 rapid alternating mute toggles queued faster than the network can
  // carry them: idempotent describes/selects must converge to the last
  // setting.
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim_.runFor(2_s);
  for (int i = 0; i < 20; ++i) {
    const bool mute = (i % 2) == 0;
    sim_.inject("A", [mute](Box& bx) {
      static_cast<UserDeviceBox&>(bx).setMute(mute, mute);
    });
  }
  sim_.runFor(3_s);  // last toggle: i=19 -> mute=false
  a_.media().resetStats();
  b_.media().resetStats();
  sim_.runFor(1_s);
  EXPECT_TRUE(a_.media().hears(b_.media().id()));
  EXPECT_TRUE(b_.media().hears(a_.media().id()));
}

// ---------------------------------------------------- crash/restart faults
// Box crashes lose all volatile slot state (FaultPlan + Box::crashRestart,
// docs/FAULTS.md); configuration — channel wiring, goal annotations —
// survives. These pin down that a restarted box rejoins the path cleanly:
// no stuck slots, no phantom media from a peer still flowing into a box
// that has forgotten the call.

TEST_F(FailureFixture, CrashMidOpenRecovers) {
  FaultPlan plan(1);  // no message faults; one crash
  plan.addCrash(CrashEvent{"B", SimTime{} + 60_ms, 500_ms});
  sim_.installFaultPlan(&plan);
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim_.runFor(15_s);
  EXPECT_EQ(plan.counters().crashes, 1u);
  EXPECT_TRUE(a_.inCall()) << "caller stuck after callee crashed mid-open";
  EXPECT_TRUE(b_.inCall());
  EXPECT_TRUE(a_.media().hears(b_.media().id()));
  EXPECT_TRUE(b_.media().hears(a_.media().id()));
}

TEST_F(FailureFixture, OverlappingCrashesKeepTheLongerOutage) {
  // A second crash lands while B is still down from the first: B stays
  // down until the later up-time and restarts once, not when the first
  // outage would have ended.
  FaultPlan plan(1);
  plan.addCrash(CrashEvent{"B", SimTime{} + 60_ms, 500_ms});
  plan.addCrash(CrashEvent{"B", SimTime{} + 200_ms, 2_s});
  sim_.installFaultPlan(&plan);
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim_.runFor(1_s);
  EXPECT_TRUE(sim_.boxDown("B")) << "first restart ended the longer outage";
  sim_.runFor(2_s);
  EXPECT_FALSE(sim_.boxDown("B"));
  EXPECT_EQ(plan.counters().crashes, 2u);
  sim_.runFor(15_s);
  EXPECT_TRUE(a_.inCall()) << "caller stuck after overlapping crashes";
  EXPECT_TRUE(b_.inCall());
  EXPECT_TRUE(a_.media().hears(b_.media().id()));
  EXPECT_TRUE(b_.media().hears(a_.media().id()));
}

// A box that arms a timer on request and counts the ones that fire.
class TimerBox : public Box {
 public:
  using Box::Box;
  void arm(SimDuration delay) { setTimer(delay, "t"); }
  int fired = 0;

 protected:
  void onTimer(const std::string&) override { ++fired; }
};

TEST(CrashRestart, DeadBoxDropsCountTimersAndQueuedStimuliOnce) {
  // Everything that reaches a crashed box is lost and counted once, the
  // same way in the plan's counters and in the metrics registry: here a
  // stimulus still queued when the crash lands, and a timer due during
  // the outage.
  Simulator sim(TimingModel::paperDefaults(), 43);
  obs::MetricsRegistry reg;
  sim.attachMetrics(&reg);
  auto& box = sim.addBox<TimerBox>("T");
  FaultPlan plan(1);
  plan.addCrash(CrashEvent{"T", SimTime{} + 100_ms, 1_s});
  sim.installFaultPlan(&plan);

  sim.inject("T", [](Box& bx) { static_cast<TimerBox&>(bx).arm(500_ms); });
  sim.runFor(90_ms);
  // Starts at 90 ms and would complete at 110 ms (c = 20 ms): the crash at
  // 100 ms kills it in the queue.
  bool ran = false;
  sim.inject("T", [&ran](Box&) { ran = true; });
  sim.runFor(3_s);

  EXPECT_EQ(plan.counters().crashes, 1u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(box.fired, 0);
  const obs::Counter* drops = reg.findCounter("fault.dead_box_drops");
  ASSERT_NE(drops, nullptr);
  EXPECT_EQ(plan.counters().dead_box_drops, 2u);
  EXPECT_EQ(drops->value(), plan.counters().dead_box_drops);
}

// A box that counts its restarts.
class RestartCountingBox : public Box {
 public:
  using Box::Box;
  int restarts = 0;

 protected:
  void onCrashRestart() override { ++restarts; }
};

TEST(CrashRestart, ZeroLengthOutageStillRestartsOnce) {
  // A crash with no outage is never "down", yet the box still loses its
  // volatile state and restarts, exactly once.
  Simulator sim(TimingModel::paperDefaults(), 43);
  auto& box = sim.addBox<RestartCountingBox>("Z");
  FaultPlan plan(1);
  plan.addCrash(CrashEvent{"Z", SimTime{} + 100_ms, SimDuration{0}});
  sim.installFaultPlan(&plan);
  sim.runFor(100_ms);
  EXPECT_FALSE(sim.boxDown("Z"));
  sim.runFor(1_s);
  EXPECT_EQ(plan.counters().crashes, 1u);
  EXPECT_EQ(box.restarts, 1);
  EXPECT_FALSE(sim.boxDown("Z"));
}

// Relay with one flowlink joining its two statically configured channels.
class RelayBox : public Box {
 public:
  using Box::Box;

 protected:
  void onChannelUp(ChannelId channel, const std::string&) override { note(channel); }
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    note(channel);
  }

 private:
  void note(ChannelId channel) {
    channels_.push_back(channel);
    if (channels_.size() == 2) {
      linkSlots(slotsOf(channels_[0])[0], slotsOf(channels_[1])[0]);
    }
  }
  std::vector<ChannelId> channels_;
};

TEST(CrashRestart, FlowlinkCrashWithHalfDescribedLinkRecovers) {
  Simulator sim(TimingModel::paperDefaults(), 43);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.8.2.1", 5000));
  sim.addBox<RelayBox>("R");
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.8.2.2", 5000));
  sim.connect("A", "R");
  sim.connect("R", "B");

  FaultPlan plan(2);
  // ~170 ms in, the relay has B's descriptor but has not finished pushing
  // it toward A: the flowlink dies half-described.
  plan.addCrash(CrashEvent{"R", SimTime{} + 170_ms, 600_ms});
  sim.installFaultPlan(&plan);

  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.runFor(20_s);
  EXPECT_EQ(plan.counters().crashes, 1u);
  EXPECT_TRUE(a.inCall()) << "left endpoint stuck after relay crash";
  EXPECT_TRUE(b.inCall()) << "right endpoint stuck after relay crash";
  EXPECT_TRUE(a.media().hears(b.media().id()));
  EXPECT_TRUE(b.media().hears(a.media().id()));
}

TEST_F(FailureFixture, RestartRefreshesDescriptorCaches) {
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim_.runFor(2_s);
  ASSERT_TRUE(a_.inCall());

  // A crashes mid-call: its descriptor cache and slot state are gone, while
  // B sits converged-flowing with no reason to ever signal first. The
  // restart's close-probe forces B down; A's re-attached openSlot then
  // rebuilds the call with freshly exchanged descriptors.
  FaultPlan plan(3);
  plan.addCrash(CrashEvent{"A", SimTime{} + 2500_ms, 1_s});
  sim_.installFaultPlan(&plan);
  sim_.runFor(20_s);

  EXPECT_EQ(plan.counters().crashes, 1u);
  EXPECT_TRUE(a_.inCall()) << "call not re-established after caller restart";
  EXPECT_TRUE(b_.inCall());
  // Fresh descriptors made it across both ways: media is two-way again,
  // not phantom packets aimed at the pre-crash session.
  a_.media().resetStats();
  b_.media().resetStats();
  sim_.runFor(1_s);
  EXPECT_TRUE(a_.media().hears(b_.media().id()));
  EXPECT_TRUE(b_.media().hears(a_.media().id()));
}

// ---------------------------------------------------------------- logging

TEST(Logging, LevelsFilter) {
  std::ostringstream sink;
  log::setSink(&sink);
  log::setLevel(log::Level::warn);
  log::debug("t", "hidden");
  log::info("t", "hidden");
  log::warn("t", "visible-warn");
  log::error("t", "visible-error");
  log::setLevel(log::Level::none);
  log::setSink(nullptr);
  const std::string out = sink.str();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible-warn"), std::string::npos);
  EXPECT_NE(out.find("visible-error"), std::string::npos);
  EXPECT_NE(out.find("[WARN ]"), std::string::npos);
}

TEST(Logging, ConcurrentWritersDoNotInterleave) {
  std::ostringstream sink;
  log::setSink(&sink);
  log::setLevel(log::Level::info);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t]() {
      for (int i = 0; i < 50; ++i) {
        log::info("thread", "writer=", t, " line=", i, " payload=XXXXXXXX");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  log::setLevel(log::Level::none);
  log::setSink(nullptr);
  // Every line is complete: timestamp, then the level tag, then payload.
  std::istringstream lines(sink.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("[", 0), 0u) << line;
    EXPECT_NE(line.find("[INFO ]"), std::string::npos) << line;
    EXPECT_NE(line.find("payload=XXXXXXXX"), std::string::npos) << line;
    ++count;
  }
  EXPECT_EQ(count, 200);
}

}  // namespace
}  // namespace cmc
