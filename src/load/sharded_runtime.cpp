#include "load/sharded_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <thread>

#include "load/call_boxes.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cmc::load {

namespace {

// One call's live state inside a shard; its outcome lives in the runtime's
// outcomes_, at the call's index in run()'s calls. The boxes are owned by
// the shard's Simulator. A leak-free audit retires them and nulls these
// pointers; a leaking call keeps both, so its boxes stay live and visible.
struct CallRuntime {
  LoadEndpointBox* left = nullptr;
  LoadEndpointBox* right = nullptr;
  LoadRelayBox* relay = nullptr;
  obs::ConvergenceProbes::Id probe;  // the call's setup probe, once armed
  // The call's own plan, if faulty: made at arrival, freed with the boxes
  // that decide with it.
  std::unique_ptr<FaultPlan> faults;
};

bool leakFree(const Box* box) {
  return box == nullptr || (box->slotCount() == 0 && box->goalCount() == 0);
}

}  // namespace

struct ShardedRuntime::ShardState {
  std::size_t index = 0;
  std::vector<std::size_t> calls;  // indices into run()'s calls, arrival order
  obs::MetricsRegistry metrics;
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
  // Each shard writes its calls' outcomes in place: the slots are disjoint.
  outcomes_.assign(calls.size(), CallOutcome{});
  shard_stats_.clear();
  shard_traces_.clear();

  std::vector<std::unique_ptr<ShardState>> shards;
  shards.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto state = std::make_unique<ShardState>();
    state->index = i;
    shards.push_back(std::move(state));
  }
  for (std::size_t i = 0; i < calls.size(); ++i) {
    shards[calls[i].id % config_.shards]->calls.push_back(i);
  }

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
    workers.emplace_back([this, &shard, &calls, &workload]() {
      try {
        runShard(*shard, calls, workload);
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
    }
  }

  if (live_ != nullptr && config_.ops_linger_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.ops_linger_ms));
  }
}

void ShardedRuntime::runShard(ShardState& shard,
                              const std::vector<CallSpec>& all_calls,
                              const WorkloadSpec& workload) {
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
    // landed. Its window is closed before time starts, so a clean box ticks
    // only while it needs repair, and a faulty box while its own call's
    // window is open: a tick's lifetime depends on its call alone.
    const FaultSpec quiet{
        .active_for = workload.fault_spec.active_for,
        .refresh_interval = workload.fault_spec.refresh_interval};
    FaultPlan installed(/*seed=*/0, quiet, SimTime{-quiet.active_for});
    const bool faults_on = workload.fault_fraction > 0.0;
    if (faults_on) sim.installFaultPlan(&installed);

    // Phases under shard.run: scheduling the first arrival, draining the
    // event loop, finalizing outcomes. Each lifecycle event pushes the
    // next: an arrival pushes its call's teardown and the next call's
    // arrival, a teardown pushes its audit. The queue so holds the calls in
    // flight, not the calls still to come. A call's own events keep their
    // order; only same-instant events of different calls move, and those
    // share no state the rollup reads.
    const auto specOf = [&](std::size_t i) -> const CallSpec& {
      return all_calls[shard.calls[i]];
    };
    const std::size_t count = shard.calls.size();
    std::vector<CallRuntime> calls(count);
    const auto outcomeOf = [&](std::size_t i) -> CallOutcome& {
      return outcomes_[shard.calls[i]];
    };
    std::size_t boxes_retired = 0;
    // Per-call lifecycle metrics, each created at its first use.
    obs::CounterHandle arrivals{"load.call_arrivals"};
    obs::CounterHandle teardowns{"load.call_teardowns"};
    obs::GaugeHandle armed_probes{"load.armed_probes"};

    const auto audit = [&](std::size_t i) {
      CallRuntime& call = calls[i];
      CallOutcome& outcome = outcomeOf(i);
      // Taken, not read: a converged probe holds its slot until then.
      const auto latency = sim.probes().takeLatencyUs(call.probe);
      outcome.converged = latency.has_value();
      outcome.setup_latency_us = latency.value_or(-1);
      outcome.clean_teardown =
          leakFree(call.left) && leakFree(call.right) && leakFree(call.relay);
      if (call.faults) {
        const FaultPlan::Counters& c = call.faults->counters();
        outcome.faults_injected = c.dropped + c.duplicated + c.reordered;
      }
      // A leaking call keeps its boxes, and the plan they decide with, so
      // the leak stays visible. A leak-free one can emit nothing more.
      if (!outcome.clean_teardown) return;
      for (Box* box :
           std::initializer_list<Box*>{call.left, call.right, call.relay}) {
        if (box == nullptr) continue;
        sim.retireBox(box->id());
        ++boxes_retired;
      }
      call.left = call.right = nullptr;
      call.relay = nullptr;
      call.faults.reset();
    };

    const auto tearDown = [&](std::size_t i) {
      CallRuntime& call = calls[i];
      // Final verdict for this call's probe (it may be resting right now,
      // or past its watchdog deadline), then retire it: once torn down the
      // predicate can never hold again.
      sim.probes().check(call.probe, sim.nowUs());
      sim.probes().disarm(call.probe);
      teardowns.in(shard.metrics).add(1);
      armed_probes.in(shard.metrics).add(-1);
      sim.inject(call.left->id(), [](Box& box) {
        static_cast<LoadEndpointBox&>(box).destroyChannelOf(
            LoadEndpointBox::kCall);
      });
      sim.loop().schedule(kTeardownGrace, [&audit, i]() { audit(i); });
    };

    std::function<void(std::size_t)> arrive = [&](std::size_t i) {
      const CallSpec& spec = specOf(i);
      CallRuntime& call = calls[i];
      outcomeOf(i).spec = spec;
      outcomeOf(i).shard = shard.index;
      // Live lifecycle metrics, written unconditionally (sampler or not) so
      // the rollup stays byte-identical either way. The gauge is
      // shard-local (excluded from the rollup); the counters are additive
      // and shard-count invariant — each call arrives exactly once.
      arrivals.in(shard.metrics).add(1);
      armed_probes.in(shard.metrics).add(1);
      if (faults_on && spec.faulty) {
        // Seeded per call, its window opening at the call's arrival: the
        // call's faults depend on nothing else in its shard.
        call.faults = std::make_unique<FaultPlan>(
            spec.seed, workload.fault_spec, spec.arrival);
      }
      auto& left = sim.addBox<LoadEndpointBox>(spec.leftName(), spec.left,
                                               PathEnd::left);
      auto& right = sim.addBox<LoadEndpointBox>(spec.rightName(), spec.right,
                                                PathEnd::right);
      call.left = &left;
      call.right = &right;
      if (call.faults) {
        sim.setBoxFaultPlan(left.id(), call.faults.get());
        sim.setBoxFaultPlan(right.id(), call.faults.get());
      }
      BoxId target = right.id();
      // The probe reads this call's boxes and nothing else, so only their
      // stimuli re-check it.
      obs::ConvergenceProbes::Watch watch{left.id().value(),
                                          right.id().value()};
      if (spec.flowlinks > 0) {
        auto& relay = sim.addBox<LoadRelayBox>(spec.relayName(), right.id());
        call.relay = &relay;
        if (call.faults) sim.setBoxFaultPlan(relay.id(), call.faults.get());
        target = relay.id();
        watch.push_back(relay.id().value());
      }
      sim.inject(left.id(), [target](Box& box) {
        static_cast<LoadEndpointBox&>(box).requestChannel(target, 1, "call");
      });
      const std::int64_t deadline =
          config_.setup_deadline_us > 0
              ? sim.nowUs() + config_.setup_deadline_us
              : 0;
      call.probe = sim.probes().arm(
          spec.probeName(), "call_setup", sim.nowUs(),
          [&left, &right, relay = call.relay]() {
            return pathAtRest(left, right, relay);
          },
          deadline, std::move(watch));

      sim.loop().scheduleAt(spec.arrival + kSetupGrace + spec.hold,
                            [&tearDown, i]() { tearDown(i); });
      if (i + 1 < count) {
        sim.loop().scheduleAt(specOf(i + 1).arrival,
                              [&arrive, i]() { arrive(i + 1); });
      }
    };

    {
      CMC_PROF_SCOPE("shard.schedule");
      if (count > 0) {
        sim.loop().scheduleAt(specOf(0).arrival,
                              [&arrive]() { arrive(0); });
      }
    }

    // Grants of virtual time keep flowing until the shard drains (retry
    // chains stop at teardown, refresh ticks once their box is repaired and
    // its call's window closed, or at its retirement, so it always does).
    bool idle = false;
    {
      CMC_PROF_SCOPE("shard.drain");
      for (int grants = 0; grants < 10'000 && !idle; ++grants) {
        idle = sim.run(std::chrono::seconds(600));
      }
    }
    if (!idle) throw std::runtime_error("shard event loop failed to drain");
    CMC_PROF_SCOPE("shard.finalize");

    // Leave behind additive load counters (all shard-count invariant; see
    // the determinism contract in the header). Each call's fault total
    // (drops + dups + reorders) was read at its audit.
    std::size_t converged = 0;
    std::size_t clean = 0;
    std::uint64_t faults_total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const CallOutcome& outcome = outcomeOf(i);
      if (outcome.converged) ++converged;
      if (outcome.clean_teardown) ++clean;
      faults_total += outcome.faults_injected;
    }
    shard.metrics.counter("load.calls").add(count);
    shard.metrics.counter("load.converged").add(converged);
    shard.metrics.counter("load.clean_teardowns").add(clean);
    shard.metrics.counter("load.faults_injected").add(faults_total);

    shard.stats.calls = count;
    shard.stats.events_executed = sim.loop().executed();
    shard.stats.peak_pending = sim.loop().peakPending();
    shard.stats.boxes_retired = boxes_retired;
    shard.stats.retired_drops = sim.retiredDrops();
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
