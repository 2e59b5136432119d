#include "load/sharded_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "load/call_boxes.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cmc::load {

namespace {

// One call's live state inside a shard. Boxes are owned by the shard's
// Simulator and never removed, so the raw pointers stay valid for the run.
struct CallRuntime {
  CallSpec spec;
  LoadEndpointBox* left = nullptr;
  LoadEndpointBox* right = nullptr;
  LoadRelayBox* relay = nullptr;
  obs::ConvergenceProbes::Id probe;  // the call's setup probe, once armed
  CallOutcome outcome;
  std::unique_ptr<FaultPlan> faults;  // the call's own plan, if faulty
};

bool leakFree(const Box* box) {
  return box == nullptr || (box->slotCount() == 0 && box->goalCount() == 0);
}

}  // namespace

struct ShardedRuntime::ShardState {
  std::size_t index = 0;
  std::vector<CallSpec> calls;  // arrival order
  obs::MetricsRegistry metrics;
  std::vector<CallOutcome> outcomes;
  std::vector<obs::TraceEvent> events;
  ShardStats stats;
  std::string error;
};

ShardedRuntime::ShardedRuntime(LoadConfig config) : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  if (!config_.profile_dir.empty()) config_.profile = true;
  if (config_.ops_port >= 0 || !config_.slos.empty() || config_.on_sample) {
    live_ = std::make_unique<LiveTelemetry>(config_);  // the Config base
    if (!live_->ok()) {
      throw std::runtime_error("ops endpoint failed to bind port " +
                               std::to_string(config_.ops_port));
    }
  }
}

ShardedRuntime::~ShardedRuntime() = default;

void ShardedRuntime::run(const WorkloadSpec& workload) {
  run(WorkloadGenerator(workload).generate(), workload);
}

void ShardedRuntime::run(const std::vector<CallSpec>& calls,
                         const WorkloadSpec& workload) {
  if (ran_) {
    // The rollup histogram cannot be un-merged; one runtime, one run.
    throw std::logic_error("ShardedRuntime::run may only be called once");
  }
  ran_ = true;
  outcomes_.clear();
  shard_stats_.clear();
  shard_traces_.clear();

  std::vector<std::unique_ptr<ShardState>> shards;
  shards.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto state = std::make_unique<ShardState>();
    state->index = i;
    shards.push_back(std::move(state));
  }
  for (const CallSpec& call : calls) {
    shards[call.id % config_.shards]->calls.push_back(call);
  }
  // Workload-wide fault-activity horizon: the last instant any call's
  // arrival-relative fault window can still be open. Every shard's
  // installed plan closes its window there, so refresh-tick lifetimes are
  // shard-count invariant.
  const SimTime fault_horizon = faultHorizon(calls, workload);

  if (config_.profile) {
    shard_profiles_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shard_profiles_.push_back(std::make_unique<obs::ProfileTable>(
          "shard" + std::to_string(i)));
    }
  }

  if (live_ != nullptr) {
    std::vector<const obs::MetricsRegistry*> registries;
    registries.reserve(shards.size());
    for (auto& shard : shards) registries.push_back(&shard->metrics);
    live_->attach(std::move(registries));
    if (config_.profile) {
      std::vector<const obs::ProfileTable*> tables;
      tables.reserve(shard_profiles_.size());
      for (auto& table : shard_profiles_) tables.push_back(table.get());
      live_->attachProfiles(std::move(tables));
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(config_.shards);
  for (auto& shard : shards) {
    workers.emplace_back([this, &shard, &workload, fault_horizon]() {
      try {
        runShard(*shard, workload, fault_horizon);
      } catch (const std::exception& e) {
        shard->error = e.what();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

  // Close the live plane while the shard registries are still alive: one
  // final window, then the sampler drops its borrowed pointers. The ops
  // endpoint keeps serving the retained snapshots.
  if (live_ != nullptr) live_->finish();

  // Merge in shard-index order so the rollup is deterministic.
  for (auto& shard : shards) {
    if (!shard->error.empty()) {
      throw std::runtime_error("load shard " + std::to_string(shard->index) +
                               " failed: " + shard->error);
    }
    obs::MetricsSnapshot shot = obs::MetricsSnapshot::capture(shard->metrics);
    shot.gauges.clear();  // shard-local instants: not part of the rollup
    rollup_.mergeFrom(shot);
    if (const auto* h = shard->metrics.findHistogram("probe.call_setup_us")) {
      setup_latency_.mergeFrom(*h);
    }
    shard_stats_.push_back(shard->stats);
    shard_traces_.push_back(std::move(shard->events));
    for (CallOutcome& outcome : shard->outcomes) {
      outcomes_.push_back(std::move(outcome));
    }
  }
  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const CallOutcome& a, const CallOutcome& b) {
              return a.spec.id < b.spec.id;
            });

  if (config_.profile) {
    std::vector<const obs::ProfileTable*> tables;
    tables.reserve(shard_profiles_.size());
    for (auto& table : shard_profiles_) tables.push_back(table.get());
    profile_report_ = obs::mergeTables(tables);
    if (!config_.profile_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config_.profile_dir, ec);
      const std::string base = config_.profile_dir + "/profile";
      std::ofstream(base + ".json", std::ios::trunc)
          << profile_report_.json();
      std::ofstream(base + ".collapsed", std::ios::trunc)
          << profile_report_.collapsed();
      std::ofstream(base + ".speedscope.json", std::ios::trunc)
          << profile_report_.speedscope("load_soak");
    }
  }

  if (live_ != nullptr && config_.ops_linger_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.ops_linger_ms));
  }
}

void ShardedRuntime::runShard(ShardState& shard, const WorkloadSpec& workload,
                              SimTime fault_horizon) {
  const std::int64_t thread_start_ns = obs::prof::nowNs();
  // Per-shard observability, visible to this thread only. Cleared before
  // the artifacts die (end of this function).
  obs::TraceRecorder trace(config_.trace_capacity);
  obs::setThreadMetrics(&shard.metrics);
  if (config_.capture_traces) obs::setThreadRecorder(&trace);
  if (config_.profile) {
    obs::setThreadProfiler(shard_profiles_[shard.index].get());
  }

  {
    // Spans the shard thread's whole working life — simulator construction,
    // the run itself, and teardown — so the depth-1 profile total accounts
    // for (nearly) all of wallSeconds() and bench PROF lines can claim
    // >=90% coverage even when shards time-slice few cores.
    CMC_PROF_SCOPE("shard.run");
    std::uint64_t sim_seed = 0x10ad ^ shard.index;
    Simulator sim(TimingModel::paperDefaults(), splitmix64(sim_seed));
    trace.setTimeSource([&sim]() { return sim.nowUs(); });

    obs::FlightRecorder flight{obs::FlightRecorder::Config{
        config_.flight_dir, "shard" + std::to_string(shard.index), 16}};
    if (!config_.flight_dir.empty()) {
      flight.setTrace(config_.capture_traces ? &trace : nullptr);
      flight.setMetrics(&shard.metrics);
      flight.setProbes(&sim.probes());
      obs::setThreadFlightRecorder(&flight);
    }

    // The installed plan injects nothing: faulty calls' boxes decide with
    // their own plans. It is installed on every shard, even one that drew
    // no faulty call, because it switches boxes into stabilization mode,
    // and whether a call runs in that mode must not depend on where it
    // landed. Its window closes at the horizon of the whole workload, not
    // of this shard's slice: refresh-tick chains live while it is open, and
    // if their lifetime varied by shard composition, a box could get a goal
    // refresh at different instants under different shard counts.
    const FaultSpec quiet{
        .active_for = workload.fault_spec.active_for,
        .refresh_interval = workload.fault_spec.refresh_interval};
    FaultPlan installed(/*seed=*/0, quiet,
                        SimTime{fault_horizon.sinceStart() - quiet.active_for});
    const bool faults_on = workload.fault_fraction > 0.0;
    if (faults_on) sim.installFaultPlan(&installed);

    // Phases under shard.run: scheduling the call set, draining the event
    // loop, finalizing outcomes.
    std::deque<CallRuntime> live;
    {
      CMC_PROF_SCOPE("shard.schedule");
      for (const CallSpec& call : shard.calls) {
        CallRuntime& runtime = live.emplace_back();
        runtime.spec = call;
        if (faults_on && call.faulty) {
          // Seeded per call, its window opening at the call's arrival: the
          // call's faults depend on nothing else in its shard.
          runtime.faults = std::make_unique<FaultPlan>(
              call.seed, workload.fault_spec, call.arrival);
        }
      }
      for (CallRuntime& call : live) {
        call.outcome.spec = call.spec;
        call.outcome.shard = shard.index;
        const std::string probe = call.spec.probeName();

        sim.loop().scheduleAt(call.spec.arrival, [this, &sim, &shard, &call,
                                                  probe]() {
          // Live lifecycle metrics, written unconditionally (sampler or not)
          // so the rollup stays byte-identical either way. The gauge is
          // shard-local (excluded from the rollup); the counters are additive
          // and shard-count invariant — each call arrives exactly once.
          shard.metrics.counter("load.call_arrivals").add(1);
          shard.metrics.gauge("load.armed_probes").add(1);
          auto& left = sim.addBox<LoadEndpointBox>(
              call.spec.leftName(), call.spec.left, PathEnd::left);
          auto& right = sim.addBox<LoadEndpointBox>(
              call.spec.rightName(), call.spec.right, PathEnd::right);
          call.left = &left;
          call.right = &right;
          if (call.faults) {
            sim.setBoxFaultPlan(left.id(), call.faults.get());
            sim.setBoxFaultPlan(right.id(), call.faults.get());
          }
          std::string target = call.spec.rightName();
          // The probe reads this call's boxes and nothing else, so only
          // their stimuli re-check it.
          obs::ConvergenceProbes::Watch watch{left.id().value(),
                                              right.id().value()};
          if (call.spec.flowlinks > 0) {
            auto& relay = sim.addBox<LoadRelayBox>(call.spec.relayName(),
                                                   call.spec.rightName());
            call.relay = &relay;
            if (call.faults) sim.setBoxFaultPlan(relay.id(), call.faults.get());
            target = call.spec.relayName();
            watch.push_back(relay.id().value());
          }
          sim.inject(call.spec.leftName(), [target](Box& box) {
            static_cast<LoadEndpointBox&>(box).dial(target);
          });
          const std::int64_t deadline =
              config_.setup_deadline_us > 0
                  ? sim.nowUs() + config_.setup_deadline_us
                  : 0;
          call.probe = sim.probes().arm(
              probe, "call_setup", sim.nowUs(),
              [&left, &right, relay = call.relay]() {
                return pathAtRest(left, right, relay);
              },
              deadline, std::move(watch));
        });

        const SimTime teardown_at =
            call.spec.arrival + kSetupGrace + call.spec.hold;
        sim.loop().scheduleAt(teardown_at, [&sim, &shard, &call]() {
          // Final verdict for this call's probe (it may be resting right now,
          // or past its watchdog deadline), then retire it: once torn down
          // the predicate can never hold again.
          sim.probes().check(call.probe, sim.nowUs());
          sim.probes().disarm(call.probe);
          shard.metrics.counter("load.call_teardowns").add(1);
          shard.metrics.gauge("load.armed_probes").add(-1);
          sim.inject(call.spec.leftName(), [](Box& box) {
            static_cast<LoadEndpointBox&>(box).hangUp();
          });
        });

        sim.loop().scheduleAt(
            teardown_at + kTeardownGrace, [&sim, &call, probe]() {
              // Taken, not read: the probe keeps results only for calls
              // whose outcome is still open.
              const auto latency = sim.probes().takeLatencyUs(probe);
              call.outcome.converged = latency.has_value();
              call.outcome.setup_latency_us = latency.value_or(-1);
              call.outcome.clean_teardown = leakFree(call.left) &&
                                            leakFree(call.right) &&
                                            leakFree(call.relay);
            });
      }
    }

    // All lifecycle events are pre-scheduled; grants of virtual time keep
    // flowing until the shard drains (retry chains stop at teardown, refresh
    // ticks stop at the fault horizon, so it always does).
    bool idle = false;
    {
      CMC_PROF_SCOPE("shard.drain");
      for (int grants = 0; grants < 10'000 && !idle; ++grants) {
        idle = sim.run(std::chrono::seconds(600));
      }
    }
    if (!idle) throw std::runtime_error("shard event loop failed to drain");
    CMC_PROF_SCOPE("shard.finalize");

    // Per-call fault totals (drops + dups + reorders seen by each call).
    std::uint64_t faults_total = 0;
    for (CallRuntime& call : live) {
      if (call.faults) {
        const FaultPlan::Counters& c = call.faults->counters();
        call.outcome.faults_injected = c.dropped + c.duplicated + c.reordered;
        faults_total += call.outcome.faults_injected;
      }
      shard.outcomes.push_back(call.outcome);
    }

    // Leave behind additive load counters (all shard-count invariant; see
    // the determinism contract in the header).
    std::size_t converged = 0;
    std::size_t clean = 0;
    for (const CallOutcome& outcome : shard.outcomes) {
      if (outcome.converged) ++converged;
      if (outcome.clean_teardown) ++clean;
    }
    shard.metrics.counter("load.calls").add(shard.calls.size());
    shard.metrics.counter("load.converged").add(converged);
    shard.metrics.counter("load.clean_teardowns").add(clean);
    shard.metrics.counter("load.faults_injected").add(faults_total);

    shard.stats.calls = shard.calls.size();
    shard.stats.events_executed = sim.loop().executed();
    shard.stats.peak_pending = sim.loop().peakPending();
    shard.stats.signals_delivered = sim.signalsDelivered();
    shard.stats.probes_converged = sim.probes().convergedCount();
    shard.stats.probes_failed = sim.probes().failedCount();
    shard.stats.probe_evaluations = sim.probes().evaluations();
    shard.stats.failed_probes = sim.probes().failed();
    shard.stats.flight_dumps = flight.dumps();
    shard.stats.trace_dropped = trace.dropped();

    obs::setThreadFlightRecorder(nullptr);
    trace.setTimeSource(nullptr);
  }  // Simulator (and its probes) destroyed here, before the recorders.

  if (config_.capture_traces) shard.events = trace.snapshot();
  obs::setThreadProfiler(nullptr);
  obs::setThreadRecorder(nullptr);
  obs::setThreadMetrics(nullptr);
  shard.stats.thread_wall_ns = obs::prof::nowNs() - thread_start_ns;
}

std::size_t ShardedRuntime::convergedCount() const noexcept {
  std::size_t n = 0;
  for (const CallOutcome& outcome : outcomes_) {
    if (outcome.converged) ++n;
  }
  return n;
}

std::size_t ShardedRuntime::cleanTeardownCount() const noexcept {
  std::size_t n = 0;
  for (const CallOutcome& outcome : outcomes_) {
    if (outcome.clean_teardown) ++n;
  }
  return n;
}

std::uint64_t ShardedRuntime::signalsDelivered() const noexcept {
  std::uint64_t n = 0;
  for (const ShardStats& stats : shard_stats_) n += stats.signals_delivered;
  return n;
}

std::size_t ShardedRuntime::probeFailures() const noexcept {
  std::size_t n = 0;
  for (const ShardStats& stats : shard_stats_) n += stats.probes_failed;
  return n;
}

std::int64_t ShardedRuntime::threadWallNs() const noexcept {
  std::int64_t n = 0;
  for (const ShardStats& stats : shard_stats_) n += stats.thread_wall_ns;
  return n;
}

}  // namespace cmc::load
