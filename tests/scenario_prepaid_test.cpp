// End-to-end reproduction of the paper's running example (Sections II-A,
// II-C; Figs. 2 and 3): telephone A behind an IP PBX, held call to B, a
// prepaid-card call from C supervised by server PC with voice resource V.
//
// Figure 2 shows what goes wrong when servers forward media signals
// blindly; Figure 3 shows the four snapshots under compositional control.
// These tests assert the *correct* behavior of each snapshot, i.e. that the
// pathologies of Fig. 2 do not occur:
//   snapshot 1: A talks to C; B is silent (held), and B also STOPS SENDING
//               (Fig. 2 left B transmitting to a deaf endpoint);
//   snapshot 2: C talks to V both ways (Fig. 2 cut V's input from C);
//   snapshot 3: A talks to B again; C<->V is UNAFFECTED by the PBX switch;
//   snapshot 4: PC reconnects C toward A, but the PBX still links A to B:
//               proximity confers priority — A is NOT hijacked (Fig. 2
//               switched A without permission), and C hears silence until
//               the user of A switches back.
// Finally, the Fig. 13 case: PBX and PC change state at the same instant
// and the path still converges to A<->C media.
#include <gtest/gtest.h>

#include "apps/pbx.hpp"
#include "apps/prepaid.hpp"
#include "endpoints/resources.hpp"
#include "endpoints/user_device.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;

class PrepaidScenario : public ::testing::Test {
 protected:
  PrepaidScenario()
      : sim_(TimingModel::paperDefaults(), 7),
        a_(sim_.addBox<UserDeviceBox>("A", sim_.mediaNetwork(), sim_.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000))),
        b_(sim_.addBox<UserDeviceBox>("B", sim_.mediaNetwork(), sim_.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000))),
        c_(sim_.addBox<UserDeviceBox>("C", sim_.mediaNetwork(), sim_.loop(),
                                      MediaAddress::parse("10.0.0.3", 5000))),
        v_(sim_.addBox<VoiceResourceBox>("V", sim_.mediaNetwork(), sim_.loop(),
                                         MediaAddress::parse("10.0.0.9", 5900))),
        pbx_(sim_.addBox<PbxBox>("PBX", "A")),
        pc_(sim_.addBox<PrepaidCardBox>("PC", "PBX", "V", talk_time_)) {
    // A's permanent line to its PBX.
    sim_.connect("A", "PBX");
    // Collecting an authorization takes a while (announcement + touch
    // tones); keep it long enough that snapshots 2 and 3 are observable.
    v_.authorizeAfter = 4_s;
  }

  // Establish the pre-history: A talking to B, then C's prepaid call
  // arrives and A switches to it (snapshot 1).
  void reachSnapshot1() {
    sim_.inject("A", [](Box& b) { static_cast<UserDeviceBox&>(b).callOnLine(); });
    sim_.runFor(300_ms);
    sim_.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).dial("B"); });
    sim_.runFor(1_s);
    ASSERT_TRUE(a_.media().hears(b_.media().id()));
    // C uses the prepaid card to call A.
    sim_.inject("C", [](Box& b) { static_cast<UserDeviceBox&>(b).placeCall("PC"); });
    sim_.runFor(1_s);
    ASSERT_TRUE(pbx_.hasCall("PC"));
    // A is notified and switches to the incoming call.
    sim_.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("PC"); });
    sim_.runFor(1_s);
  }

  void clearAllStats() {
    a_.media().resetStats();
    b_.media().resetStats();
    c_.media().resetStats();
    v_.media().resetStats();
  }

  static constexpr SimDuration talk_time_ = 5_s;  // prepaid talk time

  Simulator sim_;
  UserDeviceBox& a_;
  UserDeviceBox& b_;
  UserDeviceBox& c_;
  VoiceResourceBox& v_;
  PbxBox& pbx_;
  PrepaidCardBox& pc_;
};

TEST_F(PrepaidScenario, Snapshot1_ATalksToC_BHeldAndSilent) {
  reachSnapshot1();
  clearAllStats();
  sim_.runFor(1_s);
  EXPECT_TRUE(a_.media().hears(c_.media().id()));
  EXPECT_TRUE(c_.media().hears(a_.media().id()));
  // B is on hold: hears nothing...
  EXPECT_FALSE(b_.media().hears(a_.media().id()));
  // ...and, crucially, was told to stop sending (Fig. 2 pathology: B kept
  // transmitting to an endpoint that threw the packets away).
  EXPECT_FALSE(b_.media().sendingNow());
  EXPECT_EQ(pc_.currentState(), "talking");
}

TEST_F(PrepaidScenario, Snapshot2_FundsExhausted_CTalksToVBothWays) {
  reachSnapshot1();
  sim_.runFor(talk_time_);  // the prepaid timer fires
  ASSERT_EQ(pc_.currentState(), "collecting");
  clearAllStats();
  sim_.runFor(1_s);
  // C and V are connected BOTH ways (Fig. 2 pathology: media between C and
  // V became one-way after the PBX's interference).
  EXPECT_TRUE(c_.media().hears(v_.media().id()));
  EXPECT_TRUE(v_.media().hears(c_.media().id()));
  // A neither hears nor reaches C.
  EXPECT_FALSE(a_.media().hears(c_.media().id()));
  EXPECT_FALSE(c_.media().hears(a_.media().id()));
}

TEST_F(PrepaidScenario, Snapshot3_SwitchBackToB_CVUnaffected) {
  reachSnapshot1();
  sim_.runFor(talk_time_);  // collecting
  ASSERT_EQ(pc_.currentState(), "collecting");
  // A switches back to B while C is talking to V.
  sim_.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("B"); });
  sim_.runFor(1_s);
  clearAllStats();
  sim_.runFor(1_s);
  EXPECT_TRUE(a_.media().hears(b_.media().id()));
  EXPECT_TRUE(b_.media().hears(a_.media().id()));
  // The PBX's switch must NOT break the C<->V channel (Fig. 2 pathology:
  // the forwarded "stop sending" signal cut V's audio input from C).
  EXPECT_TRUE(v_.media().hears(c_.media().id()));
  EXPECT_TRUE(c_.media().hears(v_.media().id()));
}

TEST_F(PrepaidScenario, Snapshot4_ProximityConfersPriority_ANotHijacked) {
  reachSnapshot1();
  sim_.runFor(talk_time_);  // collecting; V will detect C's audio and accept
  ASSERT_EQ(pc_.currentState(), "collecting");
  sim_.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("B"); });
  // Wait for V to confirm payment -> PC returns to talking (snapshot 4).
  sim_.runFor(5_s);
  ASSERT_EQ(pc_.currentState(), "talking");
  clearAllStats();
  sim_.runFor(1_s);
  // PC reconnected C toward A, but the PBX (closer to A) still links A to
  // B. A must NOT be switched without its PBX's consent (Fig. 2 pathology),
  // and B must not end up talking to a deaf endpoint.
  EXPECT_TRUE(a_.media().hears(b_.media().id()));
  EXPECT_TRUE(b_.media().hears(a_.media().id()));
  EXPECT_FALSE(a_.media().hears(c_.media().id()));
  EXPECT_FALSE(c_.media().hears(a_.media().id()));
  // V is disconnected from C.
  EXPECT_FALSE(v_.media().hears(c_.media().id()));
}

TEST_F(PrepaidScenario, Fig13_ConcurrentRelinkConverges) {
  // From snapshot 3: PC completes authorization and the PBX switches back
  // to the prepaid call at the same instant. Both servers relink
  // concurrently; the descriptors/selectors must still converge to full
  // A<->C media (the paper's informal convergence argument, Fig. 13).
  reachSnapshot1();
  sim_.runFor(talk_time_);
  ASSERT_EQ(pc_.currentState(), "collecting");
  sim_.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("B"); });
  sim_.runFor(1_s);
  // Simultaneous: V confirms funds (PC relinks c<->a) and the user of A
  // switches back to the prepaid call (PBX relinks line<->PC).
  sim_.inject("PC", [](Box& b) {
    b.deliverMeta(ChannelId{}, MetaSignal{MetaKind::custom, "paid", ""});
  });
  sim_.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("PC"); });
  sim_.runFor(2_s);
  clearAllStats();
  sim_.runFor(1_s);
  EXPECT_TRUE(a_.media().hears(c_.media().id()));
  EXPECT_TRUE(c_.media().hears(a_.media().id()));
  EXPECT_FALSE(b_.media().sendingNow());
}

TEST_F(PrepaidScenario, PayCycleRepeats) {
  // talking -> collecting -> paid -> talking -> collecting again.
  reachSnapshot1();
  sim_.runFor(talk_time_);
  ASSERT_EQ(pc_.currentState(), "collecting");
  sim_.runFor(5_s);  // V hears C for authorizeAfter, sends "paid"
  EXPECT_EQ(pc_.currentState(), "talking");
  EXPECT_EQ(pc_.timesCollected(), 1);
  sim_.runFor(talk_time_ + 1_s);  // next talk-time expiry
  EXPECT_EQ(pc_.currentState(), "collecting");
  EXPECT_EQ(pc_.timesCollected(), 2);
}

TEST_F(PrepaidScenario, CallerHangupTearsFeatureDown) {
  reachSnapshot1();
  sim_.inject("C", [](Box& b) { static_cast<UserDeviceBox&>(b).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_EQ(pc_.currentState(), "idle");
  clearAllStats();
  sim_.runFor(500_ms);
  EXPECT_FALSE(a_.media().hears(c_.media().id()));
  EXPECT_FALSE(v_.media().hears(c_.media().id()));
}

}  // namespace
}  // namespace cmc
