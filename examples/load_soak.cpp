// Soak the sharded load runtime: sustained call churn across worker shards.
//
//   load_soak [--calls N] [--shards N] [--rate CALLS_PER_S]
//             [--duration SIM_SECONDS] [--faults FRACTION] [--seed S]
//             [--ops-port P] [--sample-ms MS] [--ops-linger MS]
//             [--slo-setup-p99-us US] [--flight-dir DIR]
//             [--profile] [--profile-dir DIR]
//
// Either --calls fixes the call count directly, or --duration derives it
// from the arrival rate (duration * rate). Prints per-shard stats, the
// rollup metrics JSON, and a PASS/FAIL verdict: every call must converge to
// its §V rest state and tear down leak-free (under faults, convergence is
// still required — the windows close before hang-up and stabilization must
// recover every call). CI runs this under tsan as the load-smoke job.
//
// --ops-port turns on the live telemetry plane (0 = auto-pick, printed as
// "ops: serving on 127.0.0.1:<port>"): a sampler snapshots every shard
// registry each --sample-ms and serves JSON / Prometheus / windowed series /
// health over framed TCP (watch with cmc_top). A live progress line is
// printed per tick. --slo-setup-p99-us arms a windowed-p99 SLO on call
// setup (default bound: the §VIII-C law for the longest path); breaches
// flip health to degraded and, with --flight-dir, dump a post-mortem
// without stopping the run. The plane is strictly read-only: outcomes and
// the final "metrics:" rollup line are byte-identical with it on or off
// (the ops-smoke CI job asserts exactly that).
//
// --profile installs a per-shard hot-path profiler (docs/OBSERVABILITY.md
// §Profiling) and prints a PROF JSON attribution line (ns/op and allocs/op
// per site, coverage vs. shard thread time). --profile-dir additionally
// writes profile.json / profile.collapsed (flamegraph.pl, speedscope)
// there, and enables the `profile` ops verb when combined with --ops-port.
// Profiling is additive-only: the "metrics:" rollup line stays
// byte-identical with it on or off.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "obs/slo.hpp"
#include "sim/timing.hpp"

using namespace cmc;

int main(int argc, char** argv) {
  load::WorkloadSpec workload;
  workload.master_seed = 7;
  workload.calls = 200;
  workload.arrivals_per_s = 100.0;
  workload.flowlink_fraction = 0.5;

  load::LoadConfig config;
  config.shards = 4;

  double duration_s = 0.0;
  bool ops_on = false;
  double slo_setup_p99_us = -1.0;  // <0: no SLO; 0: paper-law default
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--calls") == 0) {
      workload.calls = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      config.shards = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      workload.arrivals_per_s = std::strtod(next(), nullptr);
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      duration_s = std::strtod(next(), nullptr);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      workload.fault_fraction = std::strtod(next(), nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      workload.master_seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--ops-port") == 0) {
      config.ops_port = static_cast<int>(std::strtol(next(), nullptr, 10));
      ops_on = true;
    } else if (std::strcmp(argv[i], "--sample-ms") == 0) {
      config.sample_ms = std::strtol(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--ops-linger") == 0) {
      config.ops_linger_ms = std::strtol(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--slo-setup-p99-us") == 0) {
      slo_setup_p99_us = std::strtod(next(), nullptr);
    } else if (std::strcmp(argv[i], "--flight-dir") == 0) {
      config.flight_dir = next();
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      config.profile = true;
    } else if (std::strcmp(argv[i], "--profile-dir") == 0) {
      config.profile_dir = next();
      config.profile = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (duration_s > 0.0) {
    workload.calls =
        static_cast<std::size_t>(duration_s * workload.arrivals_per_s);
  }

  std::printf("load_soak: %zu calls @ %.0f/s over %zu shards (faults %.2f, seed %llu)\n",
              workload.calls, workload.arrivals_per_s, config.shards,
              workload.fault_fraction,
              static_cast<unsigned long long>(workload.master_seed));

  if (slo_setup_p99_us >= 0.0) {
    obs::SloRule rule;
    rule.name = "setup_p99";
    rule.histogram = "probe.call_setup_us";
    rule.quantile = 0.99;
    // Default bound: the §VIII-C law for the longest generated path (a
    // relayed call, p = 2 hops) under the runtime's paper timing model.
    const TimingModel timing = TimingModel::paperDefaults();
    rule.max_value =
        slo_setup_p99_us > 0.0
            ? slo_setup_p99_us
            : static_cast<double>(obs::latencyLawUs(
                  2, timing.network.count(), timing.processing.count()));
    rule.min_count = 5;
    config.slos.push_back(rule);
  }
  if (ops_on) {
    config.on_sample = [](const load::TelemetryTick& tick) {
      std::printf("  tick %llu: arrivals=%llu teardowns=%llu armed=%lld "
                  "setup_p99_us=%.0f health=%s\n",
                  static_cast<unsigned long long>(tick.index),
                  static_cast<unsigned long long>(tick.arrivals),
                  static_cast<unsigned long long>(tick.teardowns),
                  static_cast<long long>(tick.armed_probes), tick.setup_p99_us,
                  tick.healthy ? "ok" : "degraded");
      std::fflush(stdout);
    };
  }

  load::ShardedRuntime runtime(config);
  if (ops_on) {
    std::printf("ops: serving on 127.0.0.1:%u\n",
                static_cast<unsigned>(runtime.opsPort()));
    std::fflush(stdout);
  }
  runtime.run(workload);

  for (std::size_t i = 0; i < runtime.shardStats().size(); ++i) {
    const auto& s = runtime.shardStats()[i];
    std::printf(
        "  shard %zu: %zu calls, %llu events (%.1f/call), %llu signals, "
        "peak queue %zu, %zu converged, %zu probe failures, "
        "%llu boxes retired, %llu retired drops\n",
        i, s.calls, static_cast<unsigned long long>(s.events_executed),
        s.calls > 0 ? static_cast<double>(s.events_executed) /
                          static_cast<double>(s.calls)
                    : 0.0,
        static_cast<unsigned long long>(s.signals_delivered), s.peak_pending,
        s.probes_converged, s.probes_failed,
        static_cast<unsigned long long>(s.boxes_retired),
        static_cast<unsigned long long>(s.retired_drops));
  }

  const auto& latency = runtime.setupLatency();
  std::printf("setup latency us: p50=%.0f p99=%.0f max=%lld (n=%llu)\n",
              latency.quantile(0.50), latency.quantile(0.99),
              static_cast<long long>(latency.max()),
              static_cast<unsigned long long>(latency.count()));
  std::printf("calls/sec (wall): %.0f\n",
              runtime.wallSeconds() > 0.0
                  ? static_cast<double>(workload.calls) / runtime.wallSeconds()
                  : 0.0);
  std::printf("metrics: %s\n", runtime.metricsJson().c_str());
  if (runtime.profiled()) {
    // Coverage denominator: the sum of each shard thread's own lifetime.
    // (wallSeconds * shards would overcount on machines with fewer cores
    // than shards, where the threads time-slice and finish staggered.)
    const std::int64_t thread_wall_ns = runtime.threadWallNs();
    std::printf("PROF %s\n",
                runtime.profileReport().attributionJson(thread_wall_ns).c_str());
    if (!config.profile_dir.empty()) {
      std::printf("profile exports: %s/profile.{json,collapsed}\n",
                  config.profile_dir.c_str());
    }
  }
  if (const load::LiveTelemetry* live = runtime.telemetry()) {
    std::printf("slo: %s (%llu breaches, %llu dumps)\n",
                live->everBreached() ? "breached" : "ok",
                static_cast<unsigned long long>(live->breaches()),
                static_cast<unsigned long long>(live->sloDumps()));
  }

  const std::size_t converged = runtime.convergedCount();
  const std::size_t clean = runtime.cleanTeardownCount();
  const bool ok = converged == workload.calls && clean == workload.calls;
  std::printf("%s: %zu/%zu converged, %zu/%zu clean teardowns\n",
              ok ? "PASS" : "FAIL", converged, workload.calls, clean,
              workload.calls);
  return ok ? 0 : 1;
}
