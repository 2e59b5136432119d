// Load throughput: the compositional model's scaling claim, measured.
//
// The paper's architecture composes per-call paths that share no state, so
// call-processing capacity should scale with worker shards until the
// machine runs out of cores. This bench drives the same randomized
// workload (src/load) through 1/2/4/8 shards and reports wall-clock
// calls/sec plus the convergence-latency distribution — which, by the
// determinism contract, must not move with shard count (the rollups are
// byte-identical; only the wall clock changes).
//
//   LOAD_THROUGHPUT {"shards":[...],"calls_per_s":[...],...}
//
// Knobs: LOAD_BENCH_CALLS (default 2000), LOAD_BENCH_SEED (default 7).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"

using namespace cmc;
using namespace cmc::load;

int main() {
  std::size_t calls = 2000;
  if (const char* env = std::getenv("LOAD_BENCH_CALLS")) {
    calls = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  std::uint64_t seed = 7;
  if (const char* env = std::getenv("LOAD_BENCH_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }

  WorkloadSpec workload;
  workload.master_seed = seed;
  workload.calls = calls;
  workload.arrivals_per_s = 200.0;
  workload.flowlink_fraction = 0.5;

  bench::banner(
      "E-LOAD: call throughput vs worker shards (" +
          std::to_string(calls) + " calls)",
      "independent per-call paths share nothing, so calls/sec scales with "
      "shards while per-call convergence latency stays put");

  const unsigned cores = std::thread::hardware_concurrency();
  bench::note("hardware_concurrency = " + std::to_string(cores));

  const std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  std::vector<double> rates;
  std::vector<double> p50s, p99s;
  std::string first_rollup;
  bool rollups_identical = true;

  for (std::size_t shards : shard_counts) {
    LoadConfig config;
    config.shards = shards;
    ShardedRuntime runtime(config);
    runtime.run(workload);

    const double rate =
        runtime.wallSeconds() > 0 ? calls / runtime.wallSeconds() : 0.0;
    const double p50 = runtime.setupLatency().quantile(0.50) / 1000.0;
    const double p99 = runtime.setupLatency().quantile(0.99) / 1000.0;
    rates.push_back(rate);
    p50s.push_back(p50);
    p99s.push_back(p99);
    if (first_rollup.empty()) {
      first_rollup = runtime.metricsJson();
    } else if (runtime.metricsJson() != first_rollup) {
      rollups_identical = false;
    }

    std::printf(
        "  shards=%zu  calls/s=%10.0f  converged=%zu/%zu  "
        "setup p50=%7.1fms p99=%7.1fms  wall=%6.3fs\n",
        shards, rate, runtime.convergedCount(), calls,
        p50, p99, runtime.wallSeconds());
    if (runtime.convergedCount() != calls ||
        runtime.cleanTeardownCount() != calls) {
      bench::verdict(false, "every call converges and tears down cleanly");
      return 1;
    }
  }

  bench::verdict(rollups_identical,
                 "metrics rollup is byte-identical across shard counts "
                 "(determinism contract)");

  const double scaling = rates[0] > 0 ? rates[2] / rates[0] : 0.0;
  std::printf("  scaling 1 -> 4 shards: %.2fx\n", scaling);
  if (cores >= 4) {
    bench::verdict(scaling > 2.0, "calls/sec scales >2x from 1 to 4 shards");
  } else {
    bench::note("  -> fewer than 4 cores: shards time-slice one CPU, so the "
                ">2x scaling verdict is not meaningful on this machine "
                "(rerun on >=4 cores)");
  }

  std::string json = "{\"bench\":\"load_throughput\",\"calls\":" +
                     std::to_string(calls) + ",\"cores\":" +
                     std::to_string(cores) + ",\"shards\":[";
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    json += (i ? "," : "") + std::to_string(shard_counts[i]);
  }
  json += "],\"calls_per_s\":[";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    json += (i ? "," : "") + std::to_string(rates[i]);
  }
  json += "],\"setup_p50_ms\":[";
  for (std::size_t i = 0; i < p50s.size(); ++i) {
    json += (i ? "," : "") + std::to_string(p50s[i]);
  }
  json += "],\"setup_p99_ms\":[";
  for (std::size_t i = 0; i < p99s.size(); ++i) {
    json += (i ? "," : "") + std::to_string(p99s[i]);
  }
  json += "],\"scaling_1_to_4\":" + std::to_string(scaling) +
          ",\"rollup_identical\":" + (rollups_identical ? "true" : "false") +
          "}";
  bench::jsonLine("LOAD_THROUGHPUT", json);

  // Profiled row: the same 1-shard workload with the hot-path profiler on.
  // Two claims: (a) profiling is additive-only — the rollup lands on the
  // same bytes as the unprofiled rows; (b) the site tree attributes >=90%
  // of the shard thread's wall time (the ISSUE acceptance bar).
  {
    LoadConfig config;
    config.shards = 1;
    config.profile = true;
    ShardedRuntime runtime(config);
    runtime.run(workload);
    bench::verdict(runtime.metricsJson() == first_rollup,
                   "profiled rollup is byte-identical to the unprofiled rows");
    const std::int64_t thread_wall_ns = runtime.threadWallNs();
    const std::string prof =
        runtime.profileReport().attributionJson(thread_wall_ns);
    bench::jsonLine("PROF", prof);
    const std::string::size_type cov = prof.find("\"coverage\":");
    const double coverage =
        cov != std::string::npos
            ? std::strtod(prof.c_str() + cov + sizeof("\"coverage\":") - 1,
                          nullptr)
            : 0.0;
    bench::verdict(coverage >= 0.9,
                   "profile attributes >=90% of shard wall time (coverage=" +
                       std::to_string(coverage) + ")");
    if (runtime.metricsJson() != first_rollup || coverage < 0.9) return 1;

    // Hot-path allocation verdicts: the small-buffer/interning/pooled-loop
    // memory model brought sim.deliver_tunnel from ~3.6 to ~0 allocs/signal
    // and sim.process_output from ~3.0 to ~0 allocs/run. Hold the line at
    // <=1.0 (same budget as tests/alloc_budget_test.cpp) so a capture-size
    // or string-key regression fails the bench, not just the unit gate.
    bool alloc_budget_ok = true;
    for (const char* site : {"sim.deliver_tunnel", "sim.process_output"}) {
      std::uint64_t site_calls = 0;
      std::uint64_t site_allocs = 0;
      for (const auto& node : runtime.profileReport().nodes()) {
        if (node.site == site) {
          site_calls += node.calls;
          site_allocs += node.allocs;
        }
      }
      const double per_op =
          site_calls ? static_cast<double>(site_allocs) /
                           static_cast<double>(site_calls)
                     : 0.0;
      std::printf("  %s: %.3f allocs/op (%llu allocs / %llu ops)\n", site,
                  per_op, static_cast<unsigned long long>(site_allocs),
                  static_cast<unsigned long long>(site_calls));
      if (site_calls == 0 || per_op > 1.0) alloc_budget_ok = false;
    }
    bench::verdict(alloc_budget_ok,
                   "signal hot path stays within 1 alloc/op on "
                   "sim.deliver_tunnel and sim.process_output");
    if (!alloc_budget_ok) return 1;
  }
  return 0;
}
