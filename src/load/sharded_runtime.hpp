// ShardedRuntime: many independent calls, N worker shards, one rollup.
//
// The paper's control model composes per-call signaling paths that share
// nothing but box code; a media server that handles millions of users is
// "just" very many such paths in flight at once. This runtime exploits that
// independence directly: the generated call set is partitioned across N
// shards by call id, and each shard runs its own EventLoop + Simulator +
// TraceRecorder + MetricsRegistry + ConvergenceProbes on its own thread.
// There is no cross-shard synchronization on the hot path — no shared
// locks, no shared clocks, no shared Rng. Shards interact exactly once,
// at the end, when the main thread merges per-shard artifacts (in shard
// index order, so the rollup is deterministic).
//
// Determinism contract (tested by tests/load_test.cpp):
//
//   Same WorkloadSpec ⇒ same per-call outcomes and same additive metrics
//   rollup, for ANY shard count.
//
// What makes that hold:
//   * every call's randomness comes from its own seed (WorkloadGenerator),
//     never from shard-shared state;
//   * every shard simulates with TimingModel::paperDefaults(), which has
//     zero network jitter, so the simulator's latency stream consumes no
//     Rng;
//   * a faulty call's boxes decide with the call's own seeded plan, its
//     window opening at the call's arrival; every other box decides with
//     a shard's installed plan, which injects nothing and whose window is
//     closed before time starts. A box's refresh tick lives while its own
//     plan is open or it needs repair, so it depends on its call alone;
//   * observability is installed per shard thread via the thread-local
//     overrides (obs::setThreadRecorder / setThreadMetrics /
//     setThreadFlightRecorder), so shards never write into each other's
//     artifacts, and a probe blowing its deadline on shard k dumps shard
//     k's flight recorder;
//   * the rollup is one MetricsSnapshot: each shard registry is captured,
//     its gauges cleared, and the captures merged in shard order. Gauges
//     are instantaneous shard-local values (queue depth, armed probes) that
//     legitimately differ with shard count.
//
// Call lifecycle inside a shard (all in the shard's virtual time):
//   arrival            spawn boxes, dial, arm "call_setup" probe watching
//                      the call's own boxes (L, R, and F with a relay);
//                      schedule this call's teardown and the next arrival
//   + kSetupGrace+hold check and disarm that one probe, caller hangs up,
//                      schedule the audit
//   + kTeardownGrace   take the probe's latency, leak audit: every box
//                      back to 0 slots / 0 goals. A leak-free call's boxes
//                      are retired (their refresh ticks end with them) and
//                      its fault plan freed; a leaking call keeps both.
// Each event schedules the next, so a shard's queue, box table and fault
// plans hold the calls in flight, not every call placed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load/live_telemetry.hpp"
#include "load/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace cmc::load {

// Virtual time granted between arrival and caller hang-up, on top of the
// call's own hold time; generous enough for any clean path to quiesce.
inline constexpr SimDuration kSetupGrace{3'000'000};
// Virtual time between hang-up and the leak audit (covers teardown
// propagation across the path).
inline constexpr SimDuration kTeardownGrace{1'000'000};

// The live telemetry plane's knobs (ops_port, sample_ms, slos, on_sample,
// flight_dir) are inherited from LiveTelemetry::Config. They are all
// optional and strictly read-only with respect to the run: enabling any of
// them cannot change outcomes or the final rollup (tested). flight_dir
// also gives every shard a flight recorder that dumps on probe timeouts.
struct LoadConfig : LiveTelemetry::Config {
  std::size_t shards = 1;
  // Per-call watchdog: fail a call's setup probe if its rest state is not
  // reached within this many µs of arrival (0 = no watchdog).
  std::int64_t setup_deadline_us = 0;
  // Capture per-shard trace rings (needed by the conformance and property
  // suites; off for pure throughput runs).
  bool capture_traces = false;
  std::size_t trace_capacity = 1 << 15;
  // Keep serving the drained run's state for this long at the end of run()
  // (gives out-of-process pollers a window to take their last reading).
  std::int64_t ops_linger_ms = 0;

  // ------------------------------------------------------ hot-path profiler
  // Install a per-shard ProfileTable on every worker thread. Purely
  // additive observability: the rollup and outcomes stay byte-identical
  // with profiling on or off (tested), only the profile tables differ.
  bool profile = false;
  // Write merged profile exports (profile.json / profile.collapsed) into
  // this directory after the run; non-empty implies `profile`.
  std::string profile_dir;
};

// What happened to one call.
struct CallOutcome {
  CallSpec spec;
  std::size_t shard = 0;
  bool converged = false;       // reached its §V rest state before hang-up
  bool clean_teardown = false;  // leak audit passed after hang-up
  std::int64_t setup_latency_us = -1;  // arrival → rest state (-1 if never)
  // Drops + dups + reorders on this call, counted up to its leak audit.
  std::uint64_t faults_injected = 0;
};

struct ShardStats {
  std::size_t calls = 0;
  std::uint64_t events_executed = 0;
  std::size_t peak_pending = 0;
  std::uint64_t signals_delivered = 0;
  std::size_t probes_converged = 0;
  std::size_t probes_failed = 0;
  std::vector<std::string> failed_probes;  // call probe names, arrival order
  // Probe predicate calls (not in the rollup): about one per stimulus of a
  // call still settling, independent of how many other calls are in flight.
  std::uint64_t probe_evaluations = 0;
  std::uint64_t flight_dumps = 0;
  // Boxes retired at leak-free audits, and events that still arrived for a
  // retired box (Simulator::retiredDrops). Neither enters the rollup.
  std::uint64_t boxes_retired = 0;
  std::uint64_t retired_drops = 0;
  std::uint64_t trace_dropped = 0;  // ring overflow (capture_traces runs)
  std::int64_t thread_wall_ns = 0;  // this shard thread's own lifetime
};

class ShardedRuntime {
 public:
  explicit ShardedRuntime(LoadConfig config = {});
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  // Generate the workload's call set and run it to completion (blocking;
  // spawns config.shards worker threads). A runtime runs once; construct a
  // fresh one per experiment.
  void run(const WorkloadSpec& workload);
  // Run an explicit call set (callers that pre-filter or hand-build calls).
  // `workload` still supplies the fault shape and fraction. Shards read
  // `calls` in place.
  void run(const std::vector<CallSpec>& calls, const WorkloadSpec& workload);

  // ---------------------------------------------------------------- results
  // Outcomes of every call, sorted by call id (shard-order independent).
  [[nodiscard]] const std::vector<CallOutcome>& outcomes() const noexcept {
    return outcomes_;
  }
  [[nodiscard]] std::size_t convergedCount() const noexcept;
  [[nodiscard]] std::size_t cleanTeardownCount() const noexcept;

  // Additive rollup of every shard's registry (counters + histograms; see
  // determinism contract above for why gauges are left out). Call-setup
  // latency is the probes' own "probe.call_setup_us" histogram.
  [[nodiscard]] const obs::MetricsSnapshot& metrics() const noexcept {
    return rollup_;
  }
  [[nodiscard]] std::string metricsJson() const { return rollup_.json(); }

  // Arrival → rest-state latency across all shards (µs).
  [[nodiscard]] const obs::Histogram& setupLatency() const noexcept {
    return setup_latency_;
  }

  [[nodiscard]] const std::vector<ShardStats>& shardStats() const noexcept {
    return shard_stats_;
  }
  [[nodiscard]] std::uint64_t signalsDelivered() const noexcept;
  [[nodiscard]] std::size_t probeFailures() const noexcept;

  // Captured trace events per shard (empty unless config.capture_traces).
  [[nodiscard]] const std::vector<std::vector<obs::TraceEvent>>& shardTraces()
      const noexcept {
    return shard_traces_;
  }

  // Wall-clock seconds the worker threads ran (throughput denominator).
  [[nodiscard]] double wallSeconds() const noexcept { return wall_seconds_; }

  // Sum of every worker thread's own lifetime in nanoseconds. When shards
  // outnumber cores the threads time-slice and finish staggered, so
  // wallSeconds() * shards overcounts the window before a thread starts or
  // after it exits; this is the honest denominator for profile coverage.
  [[nodiscard]] std::int64_t threadWallNs() const noexcept;

  // Merged hot-path profile (empty unless config.profile). Per-shard tables
  // merge in shard-index order — the same rank-order discipline as the
  // metrics rollup — so the report is deterministic in structure (timings
  // are wall-clock measurements and naturally vary run to run).
  [[nodiscard]] bool profiled() const noexcept { return config_.profile; }
  [[nodiscard]] const obs::ProfileReport& profileReport() const noexcept {
    return profile_report_;
  }

  [[nodiscard]] const LoadConfig& config() const noexcept { return config_; }

  // Live telemetry hub (nullptr unless the config enabled any of it). The
  // ops port is bound at construction — before run() — so callers can hand
  // it to pollers up front.
  [[nodiscard]] LiveTelemetry* telemetry() noexcept { return live_.get(); }
  [[nodiscard]] const LiveTelemetry* telemetry() const noexcept {
    return live_.get();
  }
  [[nodiscard]] std::uint16_t opsPort() const noexcept {
    return live_ != nullptr ? live_->port() : 0;
  }

 private:
  struct ShardState;

  void runShard(ShardState& shard, const std::vector<CallSpec>& calls,
                const WorkloadSpec& workload);

  LoadConfig config_;
  std::unique_ptr<LiveTelemetry> live_;
  bool ran_ = false;
  std::vector<CallOutcome> outcomes_;
  std::vector<ShardStats> shard_stats_;
  std::vector<std::vector<obs::TraceEvent>> shard_traces_;
  obs::MetricsSnapshot rollup_;
  obs::Histogram setup_latency_;
  std::vector<std::unique_ptr<obs::ProfileTable>> shard_profiles_;
  obs::ProfileReport profile_report_;
  double wall_seconds_ = 0.0;
};

}  // namespace cmc::load
