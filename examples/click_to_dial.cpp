// Click-to-Dial (paper Fig. 6): a user browsing a web site clicks a
// "click-to-dial" link; the feature box calls the user's own phone first,
// plays ringback from a tone resource while the far party's phone rings,
// and finally flowlinks the two flowing calls so the users talk directly.
//
// Run twice: once with user 2 answering, once busy (busy tone).
//
// Build & run:   ./build/examples/click_to_dial
#include <cstdio>

#include "apps/click_to_dial.hpp"
#include "endpoints/resources.hpp"
#include "endpoints/user_device.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cmc;
using namespace cmc::literals;

void run(bool callee_answers) {
  Simulator sim(TimingModel::paperDefaults(), 11);
  auto& user1 = sim.addBox<UserDeviceBox>("user1", sim.mediaNetwork(),
                                          sim.loop(),
                                          MediaAddress::parse("10.1.0.1", 5000));
  auto& user2 = sim.addBox<UserDeviceBox>(
      "user2", sim.mediaNetwork(), sim.loop(),
      MediaAddress::parse("10.1.0.2", 5000),
      UserDeviceBox::AcceptPolicy::manual);
  auto& tone = sim.addBox<ToneGeneratorBox>("tone", sim.mediaNetwork(),
                                            sim.loop(),
                                            MediaAddress::parse("10.1.0.9", 5900));
  auto& ctd = sim.addBox<ClickToDialBox>("CTD", "tone");

  std::printf("\n== user 1 clicks the web link (callee will %s) ==\n",
              callee_answers ? "answer" : "decline");
  sim.inject("CTD", [](Box& b) {
    static_cast<ClickToDialBox&>(b).click("user1", "user2");
  });
  sim.runFor(2_s);
  std::printf("  CTD state: %-10s user1 hears ringback tone: %d\n",
              ctd.currentState().c_str(), user1.media().hears(tone.toneId()));

  if (callee_answers) {
    std::printf("  user 2 answers...\n");
    sim.inject("user2",
               [](Box& b) { static_cast<UserDeviceBox&>(b).acceptCall(); });
  } else {
    std::printf("  user 2 declines...\n");
    sim.inject("user2",
               [](Box& b) { static_cast<UserDeviceBox&>(b).declineCall(); });
  }
  sim.runFor(2_s);
  user1.media().resetStats();
  user2.media().resetStats();
  sim.runFor(1_s);
  std::printf("  CTD state: %-10s\n", ctd.currentState().c_str());
  std::printf("  user1 <-> user2 media: %d/%d   user1 hears tone: %d\n",
              user1.media().hears(user2.media().id()),
              user2.media().hears(user1.media().id()),
              user1.media().hears(tone.toneId()));
}

}  // namespace

int main() {
  std::printf("click-to-dial (paper Fig. 6)\n");
  run(/*callee_answers=*/true);
  run(/*callee_answers=*/false);
  std::printf("\ndone\n");
  return 0;
}
