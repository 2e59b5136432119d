// Experiment E7 (paper Sections II-A and II-C, Figs. 2 and 3): the running
// example, checked snapshot by snapshot.
//
// Figure 2 catalogues what goes wrong when uncoordinated servers blindly
// forward media signals; Figure 3 shows the compositional solution. This
// bench replays the scenario on the simulator and verifies, for each
// snapshot, that the Fig. 2 pathology is absent:
//   S1  A<->C two-way; B held AND told to stop sending
//   S2  C<->V two-way (not one-way!)
//   S3  A<->B restored; C<->V untouched by the PBX's switch
//   S4  PC reconnects C toward A, but the PBX still links A to B:
//       proximity confers priority — A is not hijacked
#include <cstdio>

#include "apps/pbx.hpp"
#include "apps/prepaid.hpp"
#include "bench_util.hpp"
#include "endpoints/resources.hpp"
#include "endpoints/user_device.hpp"
#include "obs/snapshot.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cmc;
  using namespace cmc::literals;
  bench::banner(
      "E7: correctness of the running example (Figs. 2 vs 3)",
      "with compositional control, none of Fig. 2's erroneous media states "
      "occur at any snapshot");

  Simulator sim(TimingModel::paperDefaults(), 7);
  obs::MetricsRegistry registry;
  sim.attachMetrics(&registry);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000));
  auto& c = sim.addBox<UserDeviceBox>("C", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.3", 5000));
  auto& v = sim.addBox<VoiceResourceBox>("V", sim.mediaNetwork(), sim.loop(),
                                         MediaAddress::parse("10.0.0.9", 5900));
  v.authorizeAfter = 6_s;  // authorization spans snapshots 2-3
  sim.addBox<PbxBox>("PBX", "A");
  auto& pc = sim.addBox<PrepaidCardBox>("PC", "PBX", "V", 20_s);
  sim.connect("A", "PBX");

  auto clear = [&]() {
    a.media().resetStats();
    b.media().resetStats();
    c.media().resetStats();
    v.media().resetStats();
  };
  bool all_ok = true;
  auto check = [&](bool condition, const std::string& what) {
    bench::verdict(condition, what);
    all_ok = all_ok && condition;
  };

  // History: A talks to B; C calls in through PC; A switches to C.
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.runFor(500_ms);
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).dial("B"); });
  sim.runFor(1_s);
  sim.inject("C", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("PC"); });
  sim.runFor(1_s);
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("PC"); });
  sim.runFor(1_s);

  std::printf("\n  Snapshot 1 (A switched to the prepaid call):\n");
  clear();
  sim.runFor(1_s);
  check(a.media().hears(c.media().id()) && c.media().hears(a.media().id()),
        "A <-> C media flows both ways");
  check(!b.media().hears(a.media().id()), "held B hears nothing");
  check(!b.media().sendingNow(),
        "B stopped sending (Fig. 2: B kept transmitting to a deaf endpoint)");

  std::printf("\n  Snapshot 2 (prepaid funds exhausted):\n");
  // Drive the talk-time expiry directly so snapshot timing stays readable.
  sim.inject("PC", [](Box& bx) { bx.fireTimer("funds"); });
  sim.runFor(1_s);
  clear();
  sim.runFor(1_s);
  check(pc.currentState() == "collecting", "PC switched to collecting");
  check(c.media().hears(v.media().id()) && v.media().hears(c.media().id()),
        "C <-> V media flows BOTH ways (Fig. 2: V lost C's audio)");
  check(!a.media().hears(c.media().id()), "A no longer hears C");

  std::printf("\n  Snapshot 3 (A switches back to B during collection):\n");
  sim.inject("PBX", [](Box& bx) { static_cast<PbxBox&>(bx).switchTo("B"); });
  sim.runFor(1_s);
  clear();
  sim.runFor(1_s);
  check(a.media().hears(b.media().id()) && b.media().hears(a.media().id()),
        "A <-> B media restored");
  check(v.media().hears(c.media().id()),
        "C -> V audio UNAFFECTED by the PBX switch (Fig. 2: it was cut)");

  std::printf("\n  Snapshot 4 (V verifies funds; PC reconnects C toward A):\n");
  for (int i = 0; i < 15 && pc.currentState() != "talking"; ++i) {
    sim.runFor(1_s);  // wait for V's audio-signaling authorization
  }
  clear();
  sim.runFor(1_s);
  check(pc.currentState() == "talking", "PC back in talking");
  check(a.media().hears(b.media().id()) && b.media().hears(a.media().id()),
        "A still talks to B: proximity confers priority");
  check(!a.media().hears(c.media().id()) && !c.media().hears(a.media().id()),
        "A NOT hijacked by PC (Fig. 2: A was switched without permission)");
  check(!v.media().hears(c.media().id()), "V released");

  std::printf("\n");
  bench::jsonLine("OBS_METRICS",
                  obs::MetricsSnapshot::capture(registry).json());
  bench::verdict(all_ok, "all four snapshots correct (paper Fig. 3)");
  return all_ok ? 0 : 1;
}
