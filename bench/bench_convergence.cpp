// Experiment E9 (paper Section VIII-B, Fig. 13): the convergence argument.
//
// "After a signaling path stabilizes, eventually the descriptor of an
// endpoint will propagate along the entire signaling path as the most
// recent descriptor from that end. When it reaches the other end, the other
// end will respond with a new selector... the selector will be accepted and
// forwarded by each box in the path."
//
// This bench replays the Fig. 13 moment (PBX and PC relink concurrently)
// and prints the actual message-sequence chart observed on the wire,
// followed by checks that the final descriptors/selectors propagated end
// to end. Compare the shape to the paper's Fig. 13: superseded noMedia
// describes, then the real descriptors, then matching selects.
#include <cstdio>

#include "apps/pbx.hpp"
#include "apps/prepaid.hpp"
#include "bench_util.hpp"
#include "endpoints/resources.hpp"
#include "endpoints/user_device.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cmc;
  using namespace cmc::literals;
  bench::banner(
      "E9: descriptor/selector convergence under concurrent relink (Fig. 13)",
      "the final endpoint descriptors propagate end to end and the "
      "answering selectors are forwarded by every box");

  Simulator sim(TimingModel::paperDefaults(), 7);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.2", 5000));
  auto& c = sim.addBox<UserDeviceBox>("C", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.3", 5000));
  auto& v = sim.addBox<VoiceResourceBox>("V", sim.mediaNetwork(), sim.loop(),
                                         MediaAddress::parse("10.0.0.9", 5900));
  v.authorizeAfter = 60_s;
  sim.addBox<PbxBox>("PBX", "A");
  auto& pc = sim.addBox<PrepaidCardBox>("PC", "PBX", "V", 3_s);
  sim.connect("A", "PBX");

  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.runFor(500_ms);
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).dial("B"); });
  sim.runFor(1_s);
  sim.inject("C", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("PC"); });
  sim.runFor(1_s);
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("PC"); });
  sim.runFor(4_s);  // includes the talk-time expiry -> collecting
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("B"); });
  sim.runFor(2_s);
  if (pc.currentState() != "collecting") {
    bench::verdict(false, "setup failed");
    return 1;
  }

  // Record the message-sequence chart from the concurrent change onward.
  struct Line {
    double t;
    std::string text;
  };
  std::vector<Line> chart;
  const SimTime start = sim.now();
  sim.onSignalDelivered = [&](const std::string& from, const std::string& to,
                              const Signal& signal, SimTime at) {
    std::ostringstream oss;
    oss << from << " -> " << to << " : " << signal;
    chart.push_back(Line{(at - start).count() / 1000.0, oss.str()});
  };
  sim.inject("PC", [](Box& bx) {
    bx.deliverMeta(ChannelId{}, MetaSignal{MetaKind::custom, "paid", ""});
  });
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("PC"); });
  sim.runFor(1500_ms);
  sim.onSignalDelivered = nullptr;

  std::printf("\n  message-sequence chart (t=0 at the concurrent change):\n");
  for (const auto& line : chart) {
    std::printf("   %8.1f ms  %s\n", line.t, line.text.c_str());
  }

  std::printf("\n  convergence checks:\n");
  bool ok = true;
  auto check = [&](bool condition, const std::string& what) {
    bench::verdict(condition, what);
    ok = ok && condition;
  };
  check(a.media().sendingState() &&
            a.media().sendingState()->target == c.media().address(),
        "A's selector answers C's descriptor (sends to C's address)");
  check(c.media().sendingState() &&
            c.media().sendingState()->target == a.media().address(),
        "C's selector answers A's descriptor (sends to A's address)");
  a.media().resetStats();
  c.media().resetStats();
  sim.runFor(1_s);
  check(a.media().hears(c.media().id()) && c.media().hears(a.media().id()),
        "media flows A <-> C after convergence");
  return ok ? 0 : 1;
}
