// End-to-end tests for the Click-to-Dial box (paper Fig. 6): happy path,
// busy callee with busy tone, ringback during alerting, caller giving up,
// and the feature folding when user 1 hangs up during ringback or a call.
#include <gtest/gtest.h>

#include "apps/click_to_dial.hpp"
#include "endpoints/resources.hpp"
#include "endpoints/user_device.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;

class CtdScenario : public ::testing::Test {
 protected:
  CtdScenario()
      : sim_(TimingModel::paperDefaults(), 11),
        user1_(sim_.addBox<UserDeviceBox>("U1", sim_.mediaNetwork(), sim_.loop(),
                                          MediaAddress::parse("10.1.0.1", 5000))),
        user2_(sim_.addBox<UserDeviceBox>(
            "U2", sim_.mediaNetwork(), sim_.loop(),
            MediaAddress::parse("10.1.0.2", 5000),
            UserDeviceBox::AcceptPolicy::manual)),
        tone_(sim_.addBox<ToneGeneratorBox>("tone", sim_.mediaNetwork(),
                                            sim_.loop(),
                                            MediaAddress::parse("10.1.0.9", 5900))),
        ctd_(sim_.addBox<ClickToDialBox>("CTD", "tone", 10_s)) {}

  void click() {
    sim_.inject("CTD", [](Box& b) {
      static_cast<ClickToDialBox&>(b).click("U1", "U2");
    });
  }

  Simulator sim_;
  UserDeviceBox& user1_;
  UserDeviceBox& user2_;
  ToneGeneratorBox& tone_;
  ClickToDialBox& ctd_;
};

TEST_F(CtdScenario, HappyPathConnectsBothUsers) {
  click();
  sim_.runFor(1_s);
  // User 1 answered (auto-accept); CTD is now alerting user 2 via meta.
  EXPECT_TRUE(user2_.ringing());
  sim_.inject("U2", [](Box& b) { static_cast<UserDeviceBox&>(b).acceptCall(); });
  sim_.runFor(2_s);
  EXPECT_EQ(ctd_.currentState(), "connected");
  // The flowlink re-described both flowing slots: users talk directly.
  EXPECT_TRUE(user1_.media().hears(user2_.media().id()));
  EXPECT_TRUE(user2_.media().hears(user1_.media().id()));
  // And they no longer hear any tone.
  EXPECT_FALSE(user1_.media().hears(tone_.toneId()));
}

TEST_F(CtdScenario, RingbackPlaysWhileAlerting) {
  click();
  sim_.runFor(2_s);
  EXPECT_EQ(ctd_.currentState(), "ringback");
  // User 1 hears ringback from the tone resource while user 2's phone
  // rings; user 2 hears nothing yet.
  EXPECT_TRUE(user1_.media().hears(tone_.toneId()));
  EXPECT_FALSE(user2_.media().hears(user1_.media().id()));
}

TEST_F(CtdScenario, BusyCalleeYieldsBusyTone) {
  // Make user 2 decline immediately: the device reports unavailable.
  user2_.onUserEvent = [this](const std::string& event) {
    if (event == "ringing") {
      // handled by injecting decline below
    }
  };
  click();
  sim_.runFor(1_s);
  ASSERT_TRUE(user2_.ringing());
  sim_.inject("U2", [](Box& b) { static_cast<UserDeviceBox&>(b).declineCall(); });
  sim_.runFor(2_s);
  EXPECT_EQ(ctd_.currentState(), "busyTone");
  EXPECT_TRUE(user1_.media().hears(tone_.toneId()));
}

TEST_F(CtdScenario, User1NeverAnswersTimesOut) {
  // Replace user 1 with a manual-accept device that never answers.
  auto& silent = sim_.addBox<UserDeviceBox>(
      "U1s", sim_.mediaNetwork(), sim_.loop(),
      MediaAddress::parse("10.1.0.3", 5000), UserDeviceBox::AcceptPolicy::manual);
  (void)silent;
  sim_.inject("CTD", [](Box& b) {
    static_cast<ClickToDialBox&>(b).click("U1s", "U2");
  });
  sim_.runFor(15_s);  // answer timeout is 10 s
  EXPECT_EQ(ctd_.currentState(), "done");
}

TEST_F(CtdScenario, User1HangupDuringRingbackFoldsFeature) {
  click();
  sim_.runFor(2_s);
  ASSERT_EQ(ctd_.currentState(), "ringback");
  sim_.inject("U1", [](Box& b) { static_cast<UserDeviceBox&>(b).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_EQ(ctd_.currentState(), "done");
  EXPECT_FALSE(user2_.inCall());
}

TEST_F(CtdScenario, User1HangupWhileConnectedFoldsFeature) {
  click();
  sim_.runFor(1_s);
  sim_.inject("U2", [](Box& b) { static_cast<UserDeviceBox&>(b).acceptCall(); });
  sim_.runFor(2_s);
  ASSERT_EQ(ctd_.currentState(), "connected");
  ASSERT_TRUE(user2_.inCall());
  sim_.inject("U1", [](Box& b) { static_cast<UserDeviceBox&>(b).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_EQ(ctd_.currentState(), "done");
  EXPECT_FALSE(user2_.inCall());
}

}  // namespace
}  // namespace cmc
