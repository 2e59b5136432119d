// Feature-chaining tests (the DFC motivation, paper Section II-B): call
// forwarding boxes composed in series, with media following the call
// wherever it lands — no feature aware of the others.
#include <gtest/gtest.h>

#include "apps/forwarding.hpp"
#include "endpoints/user_device.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;

class ForwardingScenario : public ::testing::Test {
 protected:
  ForwardingScenario() : sim_(TimingModel::paperDefaults(), 37) {}

  UserDeviceBox& phone(const std::string& name, int octet,
                       UserDeviceBox::AcceptPolicy policy =
                           UserDeviceBox::AcceptPolicy::autoAccept) {
    return sim_.addBox<UserDeviceBox>(
        name, sim_.mediaNetwork(), sim_.loop(),
        MediaAddress::parse("10.5.1." + std::to_string(octet), 5000), policy);
  }

  Simulator sim_;
};

TEST_F(ForwardingScenario, CallReachesServedUserWhenAvailable) {
  auto& a = phone("A", 1);
  auto& b = phone("B", 2);
  sim_.addBox<CallForwardingBox>("fwdB", "B", "C");
  phone("C", 3);
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("fwdB"); });
  sim_.runFor(2_s);
  EXPECT_TRUE(a.media().hears(b.media().id()));
  EXPECT_TRUE(b.media().hears(a.media().id()));
}

TEST_F(ForwardingScenario, BusyUserForwardsToTarget) {
  auto& a = phone("A", 1);
  auto& b = phone("B", 2);
  auto& c = phone("C", 3);
  auto& fwd = sim_.addBox<CallForwardingBox>("fwdB", "B", "C");
  sim_.inject("B", [](Box& bx) { static_cast<UserDeviceBox&>(bx).setBusy(true); });
  sim_.runFor(100_ms);
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("fwdB"); });
  sim_.runFor(3_s);
  EXPECT_TRUE(fwd.forwarded());
  EXPECT_TRUE(a.media().hears(c.media().id()));
  EXPECT_TRUE(c.media().hears(a.media().id()));
  EXPECT_FALSE(b.media().hears(a.media().id()));
}

TEST_F(ForwardingScenario, AlwaysForwardSkipsUser) {
  auto& a = phone("A", 1);
  auto& b = phone("B", 2);
  auto& c = phone("C", 3);
  sim_.addBox<CallForwardingBox>("fwdB", "B", "C",
                                 CallForwardingBox::Mode::always);
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("fwdB"); });
  sim_.runFor(2_s);
  EXPECT_TRUE(a.media().hears(c.media().id()));
  EXPECT_FALSE(b.media().hears(a.media().id()));
}

TEST_F(ForwardingScenario, TwoChainedForwardingBoxes) {
  // A -> fwdB (busy B -> fwdC) -> fwdC (busy C -> D) -> D: media must flow
  // A <-> D through two feature boxes neither of which knows the other.
  auto& a = phone("A", 1);
  phone("B", 2);
  phone("C", 3);
  auto& d = phone("D", 4);
  sim_.addBox<CallForwardingBox>("fwdB", "B", "fwdC");
  sim_.addBox<CallForwardingBox>("fwdC", "C", "D");
  sim_.inject("B", [](Box& bx) { static_cast<UserDeviceBox&>(bx).setBusy(true); });
  sim_.inject("C", [](Box& bx) { static_cast<UserDeviceBox&>(bx).setBusy(true); });
  sim_.runFor(100_ms);
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("fwdB"); });
  sim_.runFor(4_s);
  EXPECT_TRUE(a.media().hears(d.media().id()));
  EXPECT_TRUE(d.media().hears(a.media().id()));
}

TEST_F(ForwardingScenario, CalleeHangupReleasesCaller) {
  auto& a = phone("A", 1);
  phone("B", 2);
  phone("C", 3);
  sim_.addBox<CallForwardingBox>("fwdB", "B", "C");
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("fwdB"); });
  sim_.runFor(2_s);
  ASSERT_TRUE(a.inCall());
  sim_.inject("B", [](Box& bx) { static_cast<UserDeviceBox&>(bx).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_FALSE(a.inCall());
  EXPECT_FALSE(a.media().sendingNow());
}

TEST_F(ForwardingScenario, CallerHangupFoldsChain) {
  auto& a = phone("A", 1);
  auto& b = phone("B", 2);
  phone("C", 3);
  sim_.addBox<CallForwardingBox>("fwdB", "B", "C");
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("fwdB"); });
  sim_.runFor(2_s);
  ASSERT_TRUE(b.inCall());
  sim_.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).hangUp(); });
  sim_.runFor(2_s);
  EXPECT_FALSE(a.inCall());
  EXPECT_FALSE(a.media().sendingNow());
  EXPECT_FALSE(b.inCall());
  EXPECT_FALSE(b.media().sendingNow());
}

}  // namespace
}  // namespace cmc
