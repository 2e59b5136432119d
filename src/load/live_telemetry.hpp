// LiveTelemetry: the sampler + ops-endpoint hub of a sharded load run.
//
// The sharded runtime's determinism contract is that a run's outcomes and
// its final metrics rollup are a pure function of the workload. The live
// plane must therefore be strictly *read-only*: one sampler thread takes
// periodic MetricsSnapshots of every shard registry (relaxed atomic reads;
// shard threads never block on it), merges them into a fleet view, pushes
// the result into a bounded merged SnapshotSeries (plus one latest window
// per shard), and evaluates the configured SLO watchdogs against each
// closed window. Turning the sampler on or off cannot change what the run
// computes — tests/load_test and the ops-smoke CI job assert the rollup is
// byte-identical either way.
//
// The hub optionally serves that state over an OpsServer (framed TCP on
// loopback), so `cmc_top`, curl-less scripts, and tests can watch a soak
// mid-run. Verbs:
//
//   metrics  application/json  merged cumulative snapshot
//   prom     text/plain        Prometheus 0.0.4 exposition of the same
//   series   application/json  recent windows (args = max count, "0"=all)
//   shards   text/plain        one key=value line per shard (cmc_top feed)
//   health   text/plain        ok|degraded|starting + one line per SLO rule
//   flight   text/plain        on-demand flight dump of the merged view
//   profile  application/json  merged hot-path profile (args: "json" |
//                              "collapsed"; error when the run was not
//                              profiled)
//
// On an SLO breach-entry the hub flips health to degraded and dumps its own
// flight recorder (prefix "slo", whose metrics section is the latest merged
// snapshot) — never the shard-owned recorders, which are not safe to touch
// from this thread. The run keeps going.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/ops_server.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/snapshot.hpp"

namespace cmc::load {

// One sampler tick, delivered to the host's on_sample callback (outside the
// hub lock, so the callback may itself query the ops endpoint).
struct TelemetryTick {
  std::uint64_t index = 0;       // 0-based tick number
  std::int64_t wall_ms = 0;      // since the hub was constructed
  std::int64_t window_ms = 0;    // width of the window this tick closed
  std::uint64_t arrivals = 0;    // cumulative load.call_arrivals
  std::uint64_t teardowns = 0;   // cumulative load.call_teardowns
  std::int64_t armed_probes = 0; // sum of shard gauges, this instant
  double setup_p99_us = -1.0;    // windowed; -1 when the window is empty
  bool healthy = true;
  std::uint64_t breaches = 0;    // breach-entry transitions so far
};

class LiveTelemetry {
 public:
  struct Config {
    // <0: no ops endpoint (sampler only). 0: bind 127.0.0.1 on a free port
    // (see port()). >0: bind that port. The endpoint is up from
    // construction, so pollers can connect before a run and watch it all.
    int ops_port = -1;
    // Sampler period (wall-clock ms).
    std::int64_t sample_ms = 250;
    // SLO watchdogs evaluated against each merged window.
    std::vector<obs::SloRule> slos;
    // Directory for SLO-breach and on-demand flight dumps ("" = none).
    std::string flight_dir;
    // Invoked after every sampler tick (sampler thread, no hub lock held).
    std::function<void(const TelemetryTick&)> on_sample;
  };

  // Windows the merged series keeps: 1 min at the default 250 ms period.
  static constexpr std::size_t kSeriesCapacity = 240;

  explicit LiveTelemetry(Config config);
  ~LiveTelemetry();

  LiveTelemetry(const LiveTelemetry&) = delete;
  LiveTelemetry& operator=(const LiveTelemetry&) = delete;

  // True when no endpoint was requested or the endpoint bound successfully.
  [[nodiscard]] bool ok() const noexcept;
  // Bound port (0 when no endpoint). Known from construction, before any
  // run starts, so pollers can connect early and see "starting".
  [[nodiscard]] std::uint16_t port() const noexcept;

  // Hand the sampler the shard registries and start ticking. The pointers
  // must stay valid until finish().
  void attach(std::vector<const obs::MetricsRegistry*> shards);
  // Hand the `profile` verb the per-shard profiler tables (safe to read
  // while the shard threads write; see obs/profiler.hpp). The pointers
  // must stay valid until finish(), which retains a final merged report so
  // the endpoint keeps serving it after the tables die.
  void attachProfiles(std::vector<const obs::ProfileTable*> profiles);
  // Final tick, stop the sampler, drop the registry pointers. The ops
  // endpoint keeps serving the retained state until destruction.
  void finish();

  // ------------------------------------------------------------- inspection
  [[nodiscard]] std::uint64_t ticks() const;
  [[nodiscard]] bool healthy() const;
  [[nodiscard]] bool everBreached() const;
  [[nodiscard]] std::uint64_t breaches() const;
  [[nodiscard]] std::uint64_t sloDumps() const;
  [[nodiscard]] std::string lastDumpPath() const;

 private:
  void samplerLoop();
  // One capture+evaluate pass.
  void sampleOnce();
  void registerVerbs();
  [[nodiscard]] std::string shardsText() const;  // callers hold mutex_
  [[nodiscard]] std::string healthText() const;  // callers hold mutex_

  Config config_;
  std::unique_ptr<obs::OpsServer> server_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool attached_ = false;
  bool finished_ = false;
  std::vector<const obs::MetricsRegistry*> registries_;
  std::vector<const obs::ProfileTable*> profiles_;
  obs::ProfileReport retained_profile_;
  bool profile_retained_ = false;
  std::vector<obs::SnapshotSeries> shard_series_;
  obs::SnapshotSeries series_;  // merged fleet view
  obs::SloWatchdog watchdog_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::uint64_t ticks_ = 0;

  std::thread sampler_;
};

}  // namespace cmc::load
