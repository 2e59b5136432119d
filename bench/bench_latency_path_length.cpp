// Experiment E4 (paper Section VIII-C): the general latency law.
//
// "The latency of providing media flow from a signaling path should be
// measured from the moment that the last flowlink in the path is
// initialized... the average signaling delay after that moment will be
// p*n + (p+1)*c, where p is the number of hops between the last flowlink
// and its farther endpoint."
//
// Setup: devices A and B at the ends of a chain of k patch (application
// server) boxes. Every box except the one next to A is pre-linked; both
// devices have opened their tunnels, so both half-paths are up (muted) and
// waiting. Initializing the last flowlink (the box adjacent to A) then
// completes the path; its farther endpoint is B at p = k hops.
//
// Measurement runs through obs::ConvergenceProbes: the probe is armed at
// the instant the flowlink initializes and the simulator re-evaluates it
// after every completed box stimulus, so the recorded latency is the exact
// virtual time of quiescence — no polling granularity.
#include <cstdio>

#include "bench_util.hpp"
#include "endpoints/user_device.hpp"
#include "obs/critical_path.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cmc;
using namespace cmc::literals;

// Measured latency (ms) from linking the box adjacent to A until B is ready
// to transmit toward A, for a chain of `k` boxes. `hops_ok` reports the
// hop-by-hop check: the causal critical path from the link injection to B
// must be exactly k+1 stimulus spans, each charged c of processing and (for
// every hop after the root) n of tunnel transit — the latency law read off
// the trace instead of the probe.
double measure(std::size_t k, TimingModel timing, obs::MetricsRegistry* reg,
               bool& hops_ok) {
  Simulator sim(timing, 3);
  if (reg != nullptr) sim.attachMetrics(reg);
  obs::TraceRecorder rec;
  sim.attachTrace(&rec);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.9.0.2", 5000));
  std::vector<Box*> patches;
  for (std::size_t i = 0; i < k; ++i) {
    patches.push_back(&sim.addBox<Box>("P" + std::to_string(i + 1)));
  }
  // Chain: A - P1 - P2 - ... - Pk - B.
  std::vector<ChannelId> channels;
  channels.push_back(sim.connect("A", "P1"));
  for (std::size_t i = 0; i + 1 < k; ++i) {
    channels.push_back(
        sim.connect("P" + std::to_string(i + 1), "P" + std::to_string(i + 2)));
  }
  channels.push_back(sim.connect("P" + std::to_string(k), "B"));

  // Pre-link every box except P1; P1 holds both its slots (so each side's
  // open is answered and the half-paths reach flowing, muted).
  DescriptorFactory hold_ids{77};
  for (std::size_t i = 0; i < k; ++i) {
    Box& box = *patches[i];
    const SlotId left = box.slotsOf(channels[i]).front();
    const SlotId right = box.slotsOf(channels[i + 1]).front();
    if (i == 0) {
      box.setGoal(left, HoldSlotGoal{MediaIntent::server(), hold_ids});
      box.setGoal(right, HoldSlotGoal{MediaIntent::server(), hold_ids});
    } else {
      box.linkSlots(left, right);
    }
  }

  // Both devices go off hook; their opens propagate to P1 from both sides.
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.inject("B", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.runFor(20_s);

  // The last flowlink initializes: P1 links its two (flowing) slots. Arm the
  // quiescence probe at the same instant: B sends real (non-muted) media
  // toward A. Retain only the measured cascade in the trace window and turn
  // causal propagation on so the critical path can be extracted afterwards.
  rec.clear();
  rec.setPropagation(true);
  const MediaAddress a_addr =
      static_cast<UserDeviceBox&>(sim.box("A")).media().address();
  const std::string probe = "path_p" + std::to_string(k);
  const std::int64_t armed_at = sim.nowUs();
  sim.probes().arm(probe, probe, armed_at, [&b, a_addr]() {
    const auto& st = b.media().sendingState();
    return st && st->target == a_addr && !isNoMedia(st->codec);
  });
  sim.inject("P1", [&channels](Box& bx) {
    bx.linkSlots(bx.slotsOf(channels[0]).front(),
                 bx.slotsOf(channels[1]).front());
  });
  sim.runFor(30_s);

  const auto latency = sim.probes().latencyUs(probe);
  if (!latency) return -1;

  obs::CriticalPathOptions opts;
  opts.end_actor = "B";
  opts.end_at_us = armed_at + *latency;
  const obs::CriticalPathReport path = obs::criticalPath(rec.snapshot(), opts);
  bench::jsonLine("CRITICAL_PATH", path.json());
  const std::int64_t proc_us =
      std::chrono::duration_cast<std::chrono::microseconds>(timing.processing)
          .count();
  const std::int64_t transit_us =
      std::chrono::duration_cast<std::chrono::microseconds>(timing.network)
          .count();
  hops_ok = path.complete && path.hops.size() == k + 1;
  for (std::size_t i = 0; hops_ok && i < path.hops.size(); ++i) {
    hops_ok = path.hops[i].proc_us == proc_us &&
              path.hops[i].transit_us == (i == 0 ? 0 : transit_us) &&
              path.hops[i].queue_us == 0;
  }
  hops_ok = hops_ok && path.total_us == *latency;
  return static_cast<double>(*latency) / 1000.0;
}

}  // namespace

int main() {
  using namespace cmc;
  bench::banner(
      "E4: latency vs path length (Section VIII-C)",
      "after the last flowlink initializes, media setup toward the farther "
      "endpoint takes p*n + (p+1)*c (n=34 ms, c=20 ms)");

  obs::MetricsRegistry registry;
  const double n = 34, c = 20;
  std::printf("  %-8s %-26s %-14s\n", "hops p", "paper p*n+(p+1)*c (ms)",
              "measured (ms)");
  bool ok = true;
  bool all_hops_ok = true;
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    const double paper = static_cast<double>(k) * n + (k + 1) * c;
    bool hops_ok = false;
    const double measured =
        measure(k, TimingModel::paperDefaults(), &registry, hops_ok);
    std::printf("  %-8zu %-26.1f %-14.1f\n", k, paper, measured);
    ok = ok && measured > 0 && measured > 0.7 * paper && measured < 1.6 * paper;
    all_hops_ok = all_hops_ok && hops_ok;
  }
  bench::note(
      "hop count p counts signaling hops from the last flowlink (adjacent "
      "to A) to the farther endpoint B");
  bench::jsonLine("OBS_METRICS",
                  obs::MetricsSnapshot::capture(registry).json());
  bench::verdict(ok, "latency grows linearly as p*n + (p+1)*c");
  bench::verdict(all_hops_ok,
                 "causal critical path attributes every hop exactly: "
                 "transit n, processing c, zero queueing");
  return ok && all_hops_ok ? 0 : 1;
}
