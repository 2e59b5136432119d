// Observability overhead: what tracing actually costs per stimulus.
//
// The obs layer promises to be branch-cheap when off (one relaxed pointer
// load per site) and cheap enough when on to leave on in every simulation
// run. This bench puts numbers on that promise by timing the canonical
// two-phone call in three configurations:
//
//   off          — no recorder installed (every site takes the null branch);
//   trace        — TraceRecorder attached, causal propagation off (PR-3
//                  behaviour: events recorded, no context stamping);
//   propagation  — recorder attached and in-band trace-context propagation
//                  on (id allocation, thread-local scopes, adoption);
//   metrics      — MetricsRegistry attached (atomic bumps, no tracing);
//   sampler      — metrics plus a live sampler thread snapshotting the
//                  registry every millisecond (the telemetry plane of
//                  obs/snapshot.hpp) — its cost over plain metrics is the
//                  price of watching a run live, and must stay ~free;
//   profiler     — a thread-local ProfileTable installed (obs/profiler.hpp):
//                  every CMC_PROF_SCOPE site times itself and operator
//                  new/delete attribute allocations.
//
// The per-stimulus cost is wall time divided by the stimulus count of the
// deterministic call (identical across modes by recorder transparency).
//
// The profiler's off-mode promise — compiled-in sites cost one thread-local
// load when no table is installed — is measured directly: a tight loop over
// a disabled site gives ns/visit, and (site visits per call x that cost)
// over the off-mode call time is the disabled-profiler overhead, which must
// stay under 1%.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "endpoints/user_device.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cmc;
using namespace cmc::literals;

enum class Mode { off, trace, propagation, metrics, sampler, profiler };

void runCall(std::uint64_t seed, obs::TraceRecorder* rec,
             obs::MetricsRegistry* reg) {
  Simulator sim(TimingModel::paperDefaults(), seed);
  if (rec != nullptr) sim.attachTrace(rec);
  if (reg != nullptr) sim.attachMetrics(reg);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.2", 5000));
  sim.inject("A",
             [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(2_s);
}

// Stimulus count of one call, read off a metrics-instrumented calibration
// run. Deterministic per seed and mode-independent.
std::uint64_t stimuliPerCall() {
  obs::MetricsRegistry reg;
  runCall(/*seed=*/1, nullptr, &reg);
  const obs::Counter* stimuli = reg.findCounter("sim.stimuli");
  return stimuli != nullptr ? stimuli->value() : 0;
}

double nsPerStimulus(Mode mode, int reps, std::uint64_t stimuli_per_call) {
  using clock = std::chrono::steady_clock;
  // The sampler is a long-lived thread in real hosts (one per soak, not one
  // per call); spawn it once around the whole rep loop so the measurement
  // captures its steady-state interference, not thread start-up.
  obs::MetricsRegistry sampled_reg;
  obs::ProfileTable prof_table("bench_obs");
  if (mode == Mode::profiler) obs::setThreadProfiler(&prof_table);
  std::atomic<bool> done{false};
  obs::SnapshotSeries series(64);
  std::thread sampler;
  if (mode == Mode::sampler) {
    sampler = std::thread([&]() {
      std::int64_t tick = 0;
      while (!done.load(std::memory_order_relaxed)) {
        series.push(obs::MetricsSnapshot::capture(sampled_reg, ++tick));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  const clock::time_point start = clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    if (mode == Mode::off) {
      runCall(static_cast<std::uint64_t>(rep), nullptr, nullptr);
    } else if (mode == Mode::metrics) {
      obs::MetricsRegistry reg;
      runCall(static_cast<std::uint64_t>(rep), nullptr, &reg);
    } else if (mode == Mode::sampler) {
      runCall(static_cast<std::uint64_t>(rep), nullptr, &sampled_reg);
    } else if (mode == Mode::profiler) {
      runCall(static_cast<std::uint64_t>(rep), nullptr, nullptr);
    } else {
      obs::TraceRecorder rec;
      if (mode == Mode::propagation) rec.setPropagation(true);
      runCall(static_cast<std::uint64_t>(rep), &rec, nullptr);
    }
  }
  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start)
          .count());
  if (mode == Mode::sampler) {
    done.store(true, std::memory_order_relaxed);
    sampler.join();
  }
  if (mode == Mode::profiler) obs::setThreadProfiler(nullptr);
  return total_ns / (static_cast<double>(reps) *
                     static_cast<double>(stimuli_per_call));
}

// Cost of visiting one disabled profiling site: the ctor loads the
// thread-local table pointer, sees nullptr, and skips everything else.
// Both timed loops live here, never inlined into the caller, and the bench
// is built with -falign-loops=64 (bench/CMakeLists.txt): each loop then
// starts on a 64-byte boundary, so their difference is the site's cost and
// not an artifact of where the caller's code placed them.
[[gnu::noinline]] double offSiteVisitNs() {
  using clock = std::chrono::steady_clock;
  obs::setThreadProfiler(nullptr);
  constexpr int kIters = 1 << 22;
  // Baseline: the same loop with only the optimization barrier, subtracted
  // so the result is the site's own cost, not the loop scaffolding.
  clock::time_point start = clock::now();
  for (int i = 0; i < kIters; ++i) {
    asm volatile("" ::: "memory");
  }
  const double base_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start)
          .count());
  start = clock::now();
  for (int i = 0; i < kIters; ++i) {
    CMC_PROF_SCOPE("bench.off_site");
    asm volatile("" ::: "memory");
  }
  const double total_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start)
          .count());
  const double per_visit = (total_ns - base_ns) / static_cast<double>(kIters);
  return per_visit > 0.0 ? per_visit : 0.0;
}

// Profiling-site visits in one call (span enters; value sites excluded from
// the span count), read off a profiled calibration run.
std::uint64_t siteVisitsPerCall() {
  obs::ProfileTable table("calibration");
  obs::setThreadProfiler(&table);
  runCall(/*seed=*/1, nullptr, nullptr);
  obs::setThreadProfiler(nullptr);
  return table.report().totals().span_calls;
}

}  // namespace

int main() {
  using namespace cmc;
  bench::banner(
      "obs overhead: tracing cost per stimulus",
      "observability is off-by-default and cheap enough to leave on: the "
      "recorder and causal propagation add bounded per-stimulus cost");

  const std::uint64_t stimuli = stimuliPerCall();
  if (stimuli == 0) {
    bench::verdict(false, "calibration run recorded no stimuli");
    return 1;
  }
  constexpr int kReps = 50;
  // Warm-up pass so allocator and cache state do not bias the first mode.
  (void)nsPerStimulus(Mode::propagation, 5, stimuli);

  const double off_ns = nsPerStimulus(Mode::off, kReps, stimuli);
  const double trace_ns = nsPerStimulus(Mode::trace, kReps, stimuli);
  const double prop_ns = nsPerStimulus(Mode::propagation, kReps, stimuli);
  const double metrics_ns = nsPerStimulus(Mode::metrics, kReps, stimuli);
  const double sampler_ns = nsPerStimulus(Mode::sampler, kReps, stimuli);
  const double prof_ns = nsPerStimulus(Mode::profiler, kReps, stimuli);
  const double off_site_ns = offSiteVisitNs();
  const std::uint64_t site_visits = siteVisitsPerCall();
  // Disabled-profiler tax on the off row: every compiled-in site still pays
  // the null-check, so (visits/call x ns/visit) of the call's wall time.
  const double off_call_ns = off_ns * static_cast<double>(stimuli);
  const double prof_off_pct =
      off_call_ns > 0
          ? 100.0 * static_cast<double>(site_visits) * off_site_ns / off_call_ns
          : 100.0;

  std::printf("  %-22s %-18s %-18s\n", "mode", "ns/stimulus", "vs off");
  std::printf("  %-22s %-18.0f %-18s\n", "off", off_ns, "1.00x");
  std::printf("  %-22s %-18.0f %.2fx\n", "trace", trace_ns,
              off_ns > 0 ? trace_ns / off_ns : 0.0);
  std::printf("  %-22s %-18.0f %.2fx\n", "trace+propagation", prop_ns,
              off_ns > 0 ? prop_ns / off_ns : 0.0);
  std::printf("  %-22s %-18.0f %.2fx\n", "metrics", metrics_ns,
              off_ns > 0 ? metrics_ns / off_ns : 0.0);
  std::printf("  %-22s %-18.0f %.2fx\n", "metrics+sampler", sampler_ns,
              off_ns > 0 ? sampler_ns / off_ns : 0.0);
  std::printf("  %-22s %-18.0f %.2fx\n", "profiler", prof_ns,
              off_ns > 0 ? prof_ns / off_ns : 0.0);
  std::printf("  disabled profiling site: %.2f ns/visit x %llu visits/call "
              "= %.3f%% of the off-mode call\n",
              off_site_ns, static_cast<unsigned long long>(site_visits),
              prof_off_pct);
  bench::note(
      "per-stimulus wall cost of the two-phone call; stimulus count is "
      "identical across modes by recorder transparency. The sampler row is "
      "the live telemetry plane: a 1ms-period snapshot thread reading the "
      "registry while the call runs — its delta over the metrics row is "
      "what watching a run live costs the hot path");

  char json[896];
  std::snprintf(json, sizeof(json),
                "{\"stimuli_per_call\":%llu,\"reps\":%d,\"off_ns\":%.0f,"
                "\"trace_ns\":%.0f,\"propagation_ns\":%.0f,"
                "\"metrics_ns\":%.0f,\"sampler_ns\":%.0f,\"profiler_ns\":%.0f,"
                "\"trace_overhead_ns\":%.0f,\"propagation_overhead_ns\":%.0f,"
                "\"sampler_overhead_ns\":%.0f,\"profiler_overhead_ns\":%.0f,"
                "\"prof_off_site_ns\":%.2f,\"prof_site_visits_per_call\":%llu,"
                "\"prof_off_overhead_pct\":%.3f}",
                static_cast<unsigned long long>(stimuli), kReps, off_ns,
                trace_ns, prop_ns, metrics_ns, sampler_ns, prof_ns,
                trace_ns - off_ns, prop_ns - off_ns, sampler_ns - metrics_ns,
                prof_ns - off_ns, off_site_ns,
                static_cast<unsigned long long>(site_visits), prof_off_pct);
  bench::jsonLine("OBS_OVERHEAD", json);

  const bool ok = off_ns > 0 && trace_ns > 0 && prop_ns > 0 &&
                  metrics_ns > 0 && sampler_ns > 0 && prof_ns > 0;
  bench::verdict(ok, "tracing modes measured; see OBS_OVERHEAD line");
  bench::verdict(prof_off_pct <= 1.0,
                 "disabled profiler costs <=1% of the uninstrumented run");
  return ok && prof_off_pct <= 1.0 ? 0 : 1;
}
