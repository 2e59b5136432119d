// The paper's running example (Sections II-A/II-C, Figs. 2 and 3), played
// out end to end with narration: telephone A behind its PBX switching
// between a held call to B and a prepaid call from C, whose server PC
// connects C to the voice resource V whenever the card runs dry.
//
// Watch for the moments where Fig. 2's uncoordinated version broke:
// B keeps quiet while held, C<->V stays two-way through the PBX's switch,
// and PC can never steal A away from the PBX.
//
// Build & run:   ./build/examples/prepaid_card
#include <cstdio>

#include "apps/pbx.hpp"
#include "apps/prepaid.hpp"
#include "endpoints/resources.hpp"
#include "endpoints/user_device.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cmc;
using namespace cmc::literals;

void mediaReport(Simulator& sim, UserDeviceBox& a, UserDeviceBox& b,
                 UserDeviceBox& c, VoiceResourceBox& v) {
  a.media().resetStats();
  b.media().resetStats();
  c.media().resetStats();
  v.media().resetStats();
  sim.runFor(1_s);
  auto yn = [](bool x) { return x ? "yes" : "no "; };
  std::printf("    A hears: B=%s C=%s | B hears A=%s | C hears: A=%s V=%s | "
              "V hears C=%s | B sending=%s\n",
              yn(a.media().hears(b.media().id())),
              yn(a.media().hears(c.media().id())),
              yn(b.media().hears(a.media().id())),
              yn(c.media().hears(a.media().id())),
              yn(c.media().hears(v.media().id())),
              yn(v.media().hears(c.media().id())),
              yn(b.media().sendingNow()));
}

}  // namespace

int main() {
  Simulator sim(TimingModel::paperDefaults(), 7);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000));
  auto& c = sim.addBox<UserDeviceBox>("C", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.3", 5000));
  auto& v = sim.addBox<VoiceResourceBox>("V", sim.mediaNetwork(), sim.loop(),
                                         MediaAddress::parse("10.0.0.9", 5900));
  v.authorizeAfter = 3_s;
  auto& pbx = sim.addBox<PbxBox>("PBX", "A");
  auto& pc = sim.addBox<PrepaidCardBox>("PC", "PBX", "V", /*talk_time=*/6_s);
  sim.connect("A", "PBX");  // A's permanent line

  std::printf("== A (via its PBX) calls B ==\n");
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.runFor(500_ms);
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).dial("B"); });
  mediaReport(sim, a, b, c, v);

  std::printf("== C dials the prepaid-card service; PC routes the call toward "
              "A's PBX ==\n");
  sim.inject("C", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("PC"); });
  sim.runFor(1_s);
  std::printf("== A sees the incoming call and switches to it (snapshot 1) ==\n");
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("PC"); });
  mediaReport(sim, a, b, c, v);

  std::printf("== prepaid talk time expires: PC connects C to the voice "
              "resource V (snapshot 2) ==\n");
  sim.runFor(6_s);
  std::printf("   PC state: %s\n", pc.currentState().c_str());
  mediaReport(sim, a, b, c, v);

  std::printf("== meanwhile A switches back to B (snapshot 3) ==\n");
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("B"); });
  mediaReport(sim, a, b, c, v);

  std::printf("== V verifies the funds over audio signaling; PC reconnects C "
              "toward A (snapshot 4) ==\n");
  for (int i = 0; i < 10 && pc.currentState() != "talking"; ++i) {
    sim.runFor(1_s);
  }
  std::printf("   PC state: %s — but the PBX still links A to B: proximity "
              "confers priority\n",
              pc.currentState().c_str());
  mediaReport(sim, a, b, c, v);

  std::printf("== finally A switches back to the prepaid call ==\n");
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("PC"); });
  mediaReport(sim, a, b, c, v);

  std::printf("done; active call at PBX: %s\n", pbx.activeCall().c_str());
  return 0;
}
