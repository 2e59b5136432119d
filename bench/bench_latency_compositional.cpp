// Experiment E3 (paper Section VIII-C, Fig. 13): latency of compositional
// media control when two servers relink concurrently.
//
// Scenario: from snapshot 3 of the running example (A talking to B, prepaid
// caller C talking to the voice resource V), the prepaid server PC
// completes authorization and relinks c<->a at the same instant as A's PBX
// switches back to the prepaid call. The paper derives an average media-
// setup latency of 2n + 3c for each endpoint, = 128 ms with the measured
// n = 34 ms and typical c = 20 ms.
#include <cstdio>

#include "apps/pbx.hpp"
#include "apps/prepaid.hpp"
#include "bench_util.hpp"
#include "endpoints/resources.hpp"
#include "endpoints/user_device.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cmc;
using namespace cmc::literals;

struct Result {
  double a_ready_ms;
  double c_ready_ms;
};

Result runScenario(TimingModel timing, std::uint64_t seed) {
  Simulator sim(timing, seed);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.2", 5000));
  auto& c = sim.addBox<UserDeviceBox>("C", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.3", 5000));
  auto& v = sim.addBox<VoiceResourceBox>("V", sim.mediaNetwork(), sim.loop(),
                                         MediaAddress::parse("10.0.0.9", 5900));
  v.authorizeAfter = 60_s;  // we drive "paid" by hand for exact timing
  sim.addBox<PbxBox>("PBX", "A");
  auto& pc = sim.addBox<PrepaidCardBox>("PC", "PBX", "V", 3_s);
  sim.connect("A", "PBX");

  // Reach snapshot 3: A<->B held history, C talking to V, PBX linked to B.
  sim.inject("A", [](Box& b) { static_cast<UserDeviceBox&>(b).callOnLine(); });
  sim.runFor(500_ms);
  sim.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).dial("B"); });
  sim.runFor(1_s);
  sim.inject("C", [](Box& b) { static_cast<UserDeviceBox&>(b).placeCall("PC"); });
  sim.runFor(1_s);
  sim.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("PC"); });
  sim.runFor(1_s);
  sim.runFor(3_s);  // prepaid timer fires -> collecting
  sim.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("B"); });
  sim.runFor(2_s);
  if (pc.currentState() != "collecting") return {-1, -1};

  // The Fig. 13 moment: both servers change state concurrently.
  const SimTime start = sim.now();
  sim.inject("PC", [](Box& b) {
    b.deliverMeta(ChannelId{}, MetaSignal{MetaKind::custom, "paid", ""});
  });
  sim.inject("PBX", [](Box& b) { static_cast<PbxBox&>(b).switchTo("PC"); });

  const MediaAddress a_addr = a.media().address();
  const MediaAddress c_addr = c.media().address();
  double a_ready = -1, c_ready = -1;
  for (int ms = 0; ms < 3000 && (a_ready < 0 || c_ready < 0); ++ms) {
    sim.runFor(1_ms);
    if (a_ready < 0 && a.media().sendingState() &&
        a.media().sendingState()->target == c_addr &&
        !isNoMedia(a.media().sendingState()->codec)) {
      a_ready = (sim.now() - start).count() / 1000.0;
    }
    if (c_ready < 0 && c.media().sendingState() &&
        c.media().sendingState()->target == a_addr &&
        !isNoMedia(c.media().sendingState()->codec)) {
      c_ready = (sim.now() - start).count() / 1000.0;
    }
  }
  return {a_ready, c_ready};
}

}  // namespace

int main() {
  using namespace cmc;
  bench::banner(
      "E3: compositional relink latency (Section VIII-C, Fig. 13)",
      "with n = 34 ms, c = 20 ms, both endpoints can transmit after an "
      "average of 2n + 3c = 128 ms from the concurrent state change");

  TimingModel timing = TimingModel::paperDefaults();
  const double n = 34, cc = 20;
  const double paper = 2 * n + 3 * cc;

  const Result r = runScenario(timing, 7);
  if (r.a_ready_ms < 0 || r.c_ready_ms < 0) {
    bench::verdict(false, "scenario did not converge");
    return 1;
  }
  bench::row("A ready to transmit toward C", paper, r.a_ready_ms, "ms");
  bench::row("C ready to transmit toward A", paper, r.c_ready_ms, "ms");
  bench::note("(the 1 ms polling grid and retry pacing add small quantization)");

  // Sensitivity: the law is linear in n and c.
  std::printf("\n  sensitivity sweep (2n+3c law):\n");
  for (double n_ms : {10.0, 34.0, 60.0, 100.0}) {
    TimingModel t;
    t.network = SimDuration{static_cast<SimDuration::rep>(n_ms * 1000)};
    t.processing = 20_ms;
    const Result s = runScenario(t, 7);
    const double formula = 2 * n_ms + 3 * 20;
    bench::row("n=" + std::to_string(static_cast<int>(n_ms)) + "ms, c=20ms",
               formula, std::max(s.a_ready_ms, s.c_ready_ms), "ms");
  }

  const double worst = std::max(r.a_ready_ms, r.c_ready_ms);
  bench::verdict(worst > 0.7 * paper && worst < 1.5 * paper,
                 "measured latency matches the 2n+3c law within 50%");
  return 0;
}
