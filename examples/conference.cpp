// Audio conferencing (paper Fig. 7): a conference server flowlinks each
// participant's tunnel to a leg of a mixing bridge, then walks through the
// paper's muting scenarios — full muting with the four primitives, and the
// three partial-muting mixes (business, emergency services, whisper
// training) delegated to the bridge.
//
// Build & run:   ./build/examples/conference
//
// The run is traced: a Chrome trace of every signal, FSM transition, goal
// change, and box processing span is written to conference_trace.json —
// open it in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
#include <cstdio>
#include <fstream>

#include "apps/conference.hpp"
#include "endpoints/bridge_box.hpp"
#include "endpoints/user_device.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cmc;
using namespace cmc::literals;

void matrix(Simulator& sim, UserDeviceBox* devices[3], const char* names[3]) {
  for (int i = 0; i < 3; ++i) devices[i]->media().resetStats();
  sim.runFor(1_s);
  std::printf("           hears %s  hears %s  hears %s\n", names[0], names[1],
              names[2]);
  for (int listener = 0; listener < 3; ++listener) {
    std::printf("    %-7s", names[listener]);
    for (int speaker = 0; speaker < 3; ++speaker) {
      const bool hears =
          devices[listener]->media().hears(devices[speaker]->media().id());
      std::printf("%9s", hears ? "yes" : "-");
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  Simulator sim(TimingModel::paperDefaults(), 21);
  obs::TraceRecorder trace;
  // Causal propagation links every stimulus span to the send that caused it
  // and draws Perfetto flow arrows across boxes in the exported trace.
  trace.setPropagation(true);
  obs::MetricsRegistry metrics;
  sim.attachTrace(&trace);
  sim.attachMetrics(&metrics);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.2.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.2.0.2", 5000));
  auto& c = sim.addBox<UserDeviceBox>("C", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.2.0.3", 5000));
  sim.addBox<BridgeBox>("bridge", sim.mediaNetwork(), sim.loop(),
                        MediaAddress::parse("10.2.0.100", 6000));
  auto& conf = sim.addBox<ConferenceServerBox>("conf", "bridge");

  UserDeviceBox* devices[3] = {&a, &b, &c};
  const char* names[3] = {"A", "B", "C"};

  std::printf("== the conference server invites A, B, C ==\n");
  sim.inject("conf", [](Box& bx) {
    auto& server = static_cast<ConferenceServerBox&>(bx);
    server.invite("A");
    server.invite("B");
    server.invite("C");
  });
  sim.runFor(3_s);
  matrix(sim, devices, names);

  std::printf("\n== full muting of C: the flowlink is replaced by two "
              "holdslots ==\n");
  sim.inject("conf",
             [](Box& bx) { static_cast<ConferenceServerBox&>(bx).muteParty("C"); });
  sim.runFor(1_s);
  matrix(sim, devices, names);
  sim.inject("conf", [](Box& bx) {
    static_cast<ConferenceServerBox&>(bx).unmuteParty("C");
  });
  sim.runFor(1_s);

  std::printf("\n== business meeting: only speaker A's input is mixed ==\n");
  sim.inject("conf", [&](Box& bx) {
    static_cast<ConferenceServerBox&>(bx).setMode(
        "business:" + std::to_string(conf.legOf("A")));
  });
  sim.runFor(500_ms);
  matrix(sim, devices, names);

  std::printf("\n== emergency services: caller B is heard but hears nothing "
              "(NENA) ==\n");
  sim.inject("conf", [&](Box& bx) {
    static_cast<ConferenceServerBox&>(bx).setMode(
        "emergency:" + std::to_string(conf.legOf("B")));
  });
  sim.runFor(500_ms);
  matrix(sim, devices, names);

  std::printf("\n== whisper training: agent A, customer B, coach C ==\n");
  sim.inject("conf", [&](Box& bx) {
    static_cast<ConferenceServerBox&>(bx).setMode(
        "whisper:" + std::to_string(conf.legOf("A")) + "," +
        std::to_string(conf.legOf("B")) + "," + std::to_string(conf.legOf("C")));
  });
  sim.runFor(500_ms);
  matrix(sim, devices, names);

  const char* trace_path = "conference_trace.json";
  std::ofstream(trace_path) << trace.chromeTraceJson();
  std::printf("\ntrace: %s (%llu events, %llu dropped) — load in Perfetto "
              "or chrome://tracing\n",
              trace_path,
              static_cast<unsigned long long>(trace.recorded()),
              static_cast<unsigned long long>(trace.dropped()));
  std::printf("metrics: %s\n",
              obs::MetricsSnapshot::capture(metrics).json().c_str());

  std::printf("\ndone\n");
  return 0;
}
