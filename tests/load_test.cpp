// The sharded load runtime's contracts (docs/LOAD.md):
//
//   * determinism — same master seed ⇒ identical per-call outcomes and an
//     identical additive metrics rollup at 1 and 8 shards, clean and under
//     faults;
//   * churn hygiene — every call's teardown leaves its boxes with zero
//     slots and zero goals;
//   * fault isolation — per-call fault plans never bleed across calls: a
//     clean call behaves byte-identically whether or not faulty calls share
//     its shard;
//   * shard-local time — each shard's event loop owns its own virtual
//     clock, and a probe blowing its deadline dumps the flight recorder of
//     the shard that armed it, not a sibling's;
//   * conformance — traces captured under load satisfy the Fig. 5/10 wire
//     oracle (tests/conformance.hpp) on every tunnel;
//   * live work — events per call and the queue's peak do not grow with
//     the call count, and no event reaches a box retired at its audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "conformance.hpp"
#include "load/call_boxes.hpp"
#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "obs/ops_server.hpp"
#include "obs/slo.hpp"
#include "sim/event_loop.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace cmc::load {
namespace {

WorkloadSpec smallWorkload(std::uint64_t seed, double fault_fraction = 0.0) {
  WorkloadSpec workload;
  workload.master_seed = seed;
  workload.calls = 60;
  workload.arrivals_per_s = 120.0;
  workload.flowlink_fraction = 0.5;
  workload.fault_fraction = fault_fraction;
  return workload;
}

TEST(Workload, GenerationIsDeterministicAndCoversAllTypes) {
  const WorkloadSpec workload = smallWorkload(11);
  const auto a = WorkloadGenerator(workload).generate();
  const auto b = WorkloadGenerator(workload).generate();
  ASSERT_EQ(a.size(), workload.calls);
  std::set<std::string> types;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].left, b[i].left);
    EXPECT_EQ(a[i].right, b[i].right);
    EXPECT_EQ(a[i].hold, b[i].hold);
    types.insert(a[i].type_name);
  }
  // 60 draws over 6 types: every §V pair should appear.
  EXPECT_EQ(types.size(), callTypes().size());
  // Arrivals are non-decreasing and per-call seeds are distinct.
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(a[i - 1].arrival, a[i].arrival);
    }
    seeds.insert(a[i].seed);
  }
  EXPECT_EQ(seeds.size(), a.size());
}

TEST(Workload, FaultFractionDoesNotPerturbTheCallSet) {
  const auto clean = WorkloadGenerator(smallWorkload(11, 0.0)).generate();
  const auto faulty = WorkloadGenerator(smallWorkload(11, 0.4)).generate();
  ASSERT_EQ(clean.size(), faulty.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].left, faulty[i].left);
    EXPECT_EQ(clean[i].right, faulty[i].right);
    EXPECT_EQ(clean[i].flowlinks, faulty[i].flowlinks);
    EXPECT_EQ(clean[i].arrival, faulty[i].arrival);
    EXPECT_EQ(clean[i].hold, faulty[i].hold);
    EXPECT_EQ(clean[i].seed, faulty[i].seed);
    EXPECT_FALSE(clean[i].faulty);
  }
}

void expectSameOutcomes(const ShardedRuntime& a, const ShardedRuntime& b) {
  ASSERT_EQ(a.outcomes().size(), b.outcomes().size());
  for (std::size_t i = 0; i < a.outcomes().size(); ++i) {
    const CallOutcome& x = a.outcomes()[i];
    const CallOutcome& y = b.outcomes()[i];
    ASSERT_EQ(x.spec.id, y.spec.id);
    EXPECT_EQ(x.converged, y.converged) << "call " << x.spec.id;
    EXPECT_EQ(x.clean_teardown, y.clean_teardown) << "call " << x.spec.id;
    EXPECT_EQ(x.setup_latency_us, y.setup_latency_us) << "call " << x.spec.id;
    EXPECT_EQ(x.faults_injected, y.faults_injected) << "call " << x.spec.id;
  }
}

TEST(ShardDeterminism, SameSeedSameResultsAtOneAndEightShards) {
  const WorkloadSpec workload = smallWorkload(42);
  LoadConfig one;
  one.shards = 1;
  ShardedRuntime a(one);
  a.run(workload);
  LoadConfig eight;
  eight.shards = 8;
  ShardedRuntime b(eight);
  b.run(workload);

  expectSameOutcomes(a, b);
  // The whole additive rollup — counters and histograms, including the
  // aggregate sim.busy_us counter and the probe.call_setup_us histogram —
  // must be byte-identical.
  EXPECT_EQ(a.metricsJson(), b.metricsJson());
  EXPECT_EQ(a.signalsDelivered(), b.signalsDelivered());
}

TEST(ShardDeterminism, HoldsUnderPerCallFaultPlans) {
  const WorkloadSpec workload = smallWorkload(42, /*fault_fraction=*/0.3);
  std::size_t faulty = 0;
  for (const CallSpec& call : WorkloadGenerator(workload).generate()) {
    if (call.faulty) ++faulty;
  }
  ASSERT_GT(faulty, 0u) << "seed must draw some faulty calls";

  LoadConfig one;
  one.shards = 1;
  ShardedRuntime a(one);
  a.run(workload);
  LoadConfig eight;
  eight.shards = 8;
  ShardedRuntime b(eight);
  b.run(workload);

  expectSameOutcomes(a, b);
  EXPECT_EQ(a.metricsJson(), b.metricsJson());
  // Stabilization must have recovered every faulted call before hang-up.
  EXPECT_EQ(a.convergedCount(), workload.calls);
}

TEST(ShardDeterminism, HoldsWithFaultsOnAndNoFaultyCall) {
  // A fault fraction so small that no call draws a plan of its own. The
  // runtime still installs its quiet plan on every shard, which puts every
  // box in stabilization mode; with no faulty call its window never opens,
  // at any shard count.
  const WorkloadSpec workload = smallWorkload(42, /*fault_fraction=*/1e-9);
  for (const CallSpec& call : WorkloadGenerator(workload).generate()) {
    ASSERT_FALSE(call.faulty) << "call " << call.id;
  }

  LoadConfig one;
  one.shards = 1;
  ShardedRuntime a(one);
  a.run(workload);
  LoadConfig four;
  four.shards = 4;
  ShardedRuntime b(four);
  b.run(workload);

  EXPECT_EQ(a.convergedCount(), workload.calls);
  EXPECT_EQ(a.cleanTeardownCount(), workload.calls);
  expectSameOutcomes(a, b);
  EXPECT_EQ(a.metricsJson(), b.metricsJson());

  // Stabilization mode is on: the rollup is not the fault-free run's.
  ShardedRuntime clean(one);
  clean.run(smallWorkload(42));
  EXPECT_NE(a.metricsJson(), clean.metricsJson());
}

// --------------------------------------------- rollup transparency pins
//
// Recorded digests of the full metrics rollup for fixed seeds. The
// shard-equivalence tests above prove 1-shard == 8-shard; these pin the
// *absolute* bytes, so any refactor underneath the load plane (descriptor
// storage, event pooling, signal routing) that shifts a single counter or
// histogram bucket fails here instead of slipping through as a "still
// self-consistent" change. Recorded at the introduction of the hot-path
// memory model and re-recorded once, when the per-box busy counters and the
// duplicate load.call_setup_us histogram left the rollup (every other byte
// unchanged). The faulty pin was re-recorded once more when clean calls'
// boxes stopped refresh-ticking through other calls' fault windows (fewer
// goal.refreshes, sim.stimuli and sim.signal.* counts); a mismatch means
// behavior changed, not just performance.

std::uint64_t rollupDigest(const WorkloadSpec& workload, std::size_t shards,
                           std::size_t* bytes_out) {
  LoadConfig config;
  config.shards = shards;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  const std::string json = runtime.metricsJson();
  *bytes_out = json.size();
  return fnv1a(reinterpret_cast<const std::uint8_t*>(json.data()),
               json.size());
}

TEST(RollupPins, CleanRunMatchesRecordedDigest) {
  std::size_t bytes = 0;
  const std::uint64_t digest = rollupDigest(smallWorkload(42), 1, &bytes);
  EXPECT_EQ(bytes, 626u);
  EXPECT_EQ(digest, 0xd581a51f40d81abbULL);
}

TEST(RollupPins, FaultyEightShardRunMatchesRecordedDigest) {
  std::size_t bytes = 0;
  const std::uint64_t digest =
      rollupDigest(smallWorkload(42, /*fault_fraction=*/0.3), 8, &bytes);
  EXPECT_EQ(bytes, 755u);
  EXPECT_EQ(digest, 0xe5a2216abe973e66ULL);
}

// The metric namespace has a fixed size: which names a rollup holds
// depends on the code paths the call mix exercises, never on how many
// calls ran (no per-box or per-call metric names).
TEST(RollupNames, DoNotGrowWithCallCount) {
  const auto names = [](std::size_t calls) {
    WorkloadSpec workload = smallWorkload(42);
    workload.calls = calls;
    LoadConfig config;
    config.shards = 2;
    ShardedRuntime runtime(config);
    runtime.run(workload);
    std::set<std::string> out;
    const obs::MetricsSnapshot& rollup = runtime.metrics();
    for (const auto& entry : rollup.counters) out.insert(entry.first);
    for (const auto& entry : rollup.gauges) out.insert(entry.first);
    for (const auto& entry : rollup.histograms) out.insert(entry.first);
    return out;
  };
  const std::set<std::string> small = names(60);
  EXPECT_EQ(names(240), small);
  EXPECT_LT(small.size(), 60u);
}

TEST(Churn, TeardownLeavesNoLeakedSlotsOrGoals) {
  const WorkloadSpec workload = smallWorkload(7);
  LoadConfig config;
  config.shards = 4;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  EXPECT_EQ(runtime.convergedCount(), workload.calls);
  EXPECT_EQ(runtime.cleanTeardownCount(), workload.calls);
  for (const CallOutcome& outcome : runtime.outcomes()) {
    EXPECT_TRUE(outcome.clean_teardown) << "call " << outcome.spec.id;
    EXPECT_GE(outcome.setup_latency_us, 0) << "call " << outcome.spec.id;
  }
  EXPECT_EQ(runtime.metrics().counter("load.converged"), workload.calls);
}

TEST(FaultIsolation, CleanCallsAreUntouchedByFaultyNeighbors) {
  // Same seed, same call set (only the faulty flags differ); every call
  // that is clean in BOTH runs must behave identically even though in the
  // second run faulty calls share its shard. This is the no-bleed contract:
  // a per-call fault plan draws only from its own call's seed.
  const WorkloadSpec clean = smallWorkload(99, 0.0);
  const WorkloadSpec faulty = smallWorkload(99, 0.4);
  LoadConfig config;
  config.shards = 2;
  ShardedRuntime a(config);
  a.run(clean);
  ShardedRuntime b(config);
  b.run(faulty);

  const auto faulty_calls = WorkloadGenerator(faulty).generate();
  ASSERT_EQ(a.outcomes().size(), b.outcomes().size());
  std::size_t clean_calls = 0;
  for (std::size_t i = 0; i < a.outcomes().size(); ++i) {
    if (faulty_calls[i].faulty) continue;
    ++clean_calls;
    EXPECT_EQ(a.outcomes()[i].setup_latency_us,
              b.outcomes()[i].setup_latency_us)
        << "clean call " << i << " perturbed by faulty neighbors";
    EXPECT_EQ(b.outcomes()[i].faults_injected, 0u);
  }
  ASSERT_GT(clean_calls, 0u);
}

TEST(ShardLocalTime, EventLoopClocksAreInstanceLocal) {
  // Regression for the single-loop assumption audit: runUntilIdle's horizon
  // and now() are per-instance; advancing one shard's loop must not move
  // another's clock.
  EventLoop a;
  EventLoop b;
  a.schedule(SimDuration{5'000'000}, []() {});
  EXPECT_TRUE(a.runUntilIdle(std::chrono::seconds(10)));
  EXPECT_EQ(a.now().sinceStart(), SimDuration{5'000'000});
  EXPECT_EQ(b.now().sinceStart(), SimDuration{0});
  // The horizon is relative to the instance's own now, not absolute time:
  // a had already advanced to 5s, but b's 2s event fits b's fresh budget.
  b.schedule(SimDuration{2'000'000}, []() {});
  EXPECT_TRUE(b.runUntilIdle(SimDuration{3'000'000}));
  EXPECT_EQ(b.now().sinceStart(), SimDuration{2'000'000});
}

TEST(ShardLocalTime, ProbeDeadlineDumpsTheOwningShardsFlightRecorder) {
  // Impossible per-call deadline: every call fails its setup watchdog. The
  // failure must be recorded by the shard that armed the probe — failed
  // probe names on shard k are exactly the calls assigned to shard k, and
  // shard k's own flight recorder (installed thread-locally) captured the
  // dumps.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "cmc_load_flight_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  WorkloadSpec workload = smallWorkload(5);
  workload.calls = 8;
  LoadConfig config;
  config.shards = 2;
  config.setup_deadline_us = 1;  // unmeetable
  config.flight_dir = dir.string();
  ShardedRuntime runtime(config);
  runtime.run(workload);

  EXPECT_EQ(runtime.probeFailures(), workload.calls);
  ASSERT_EQ(runtime.shardStats().size(), 2u);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const ShardStats& stats = runtime.shardStats()[shard];
    EXPECT_EQ(stats.failed_probes.size(), stats.calls);
    for (const std::string& name : stats.failed_probes) {
      // Probe names are "c<id>"; the call must belong to this shard.
      const std::uint64_t id = std::stoull(name.substr(1));
      EXPECT_EQ(id % 2, shard) << "probe " << name << " failed on shard "
                               << shard;
    }
    EXPECT_GT(stats.flight_dumps, 0u) << "shard " << shard;
  }
  // Dump files carry the owning shard's prefix.
  bool saw_shard0 = false;
  bool saw_shard1 = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    saw_shard0 = saw_shard0 || name.rfind("shard0", 0) == 0;
    saw_shard1 = saw_shard1 || name.rfind("shard1", 0) == 0;
  }
  EXPECT_TRUE(saw_shard0);
  EXPECT_TRUE(saw_shard1);
  fs::remove_all(dir);
}

// ------------------------------------------------------------ probe index
//
// The runtime arms each call's setup probe watching only the call's boxes
// (L, R, and F with a relay). That is sound because the rest predicate
// reads nothing else: a probe watching those boxes and an unwatched probe,
// armed together on one path, must record the same latency — for every
// call type, with and without a flowlink, clean and under faults.
TEST(ProbeIndex, WatchedAndUnwatchedProbesRecordIdenticalLatencies) {
  FaultSpec faults;
  faults.drop_rate = 0.2;
  faults.duplicate_rate = 0.1;
  faults.reorder_rate = 0.1;
  std::size_t faulted = 0;
  for (const CallType& type : callTypes()) {
    for (const std::uint32_t flowlinks : {0u, 1u}) {
      for (const bool faulty : {false, true}) {
        SCOPED_TRACE(std::string(type.name) + " flowlinks=" +
                     std::to_string(flowlinks) +
                     (faulty ? " faulty" : " clean"));
        Simulator sim(TimingModel::paperDefaults(), 5);
        FaultPlan plan(0xfa17 + flowlinks, faults);
        auto& left = sim.addBox<LoadEndpointBox>("L", type.left, PathEnd::left);
        auto& right =
            sim.addBox<LoadEndpointBox>("R", type.right, PathEnd::right);
        LoadRelayBox* relay = nullptr;
        BoxId target = right.id();
        obs::ConvergenceProbes::Watch watch{left.id().value(),
                                            right.id().value()};
        if (flowlinks > 0) {
          relay = &sim.addBox<LoadRelayBox>("F", right.id());
          target = relay->id();
          watch.push_back(relay->id().value());
        }
        if (faulty) sim.installFaultPlan(&plan);
        sim.inject("L", [target](Box& box) {
          static_cast<LoadEndpointBox&>(box).requestChannel(target, 1, "call");
        });
        const auto rest = [&]() { return pathAtRest(left, right, relay); };
        sim.probes().arm("watched", "watched", sim.nowUs(), rest, 0, watch);
        sim.probes().arm("any", "any", sim.nowUs(), rest);
        // An open goal facing a close retries until hang-up, so the loop
        // never drains on its own: run past the fault window instead.
        sim.runFor(std::chrono::seconds(10));

        const auto any = sim.probes().latencyUs("any");
        ASSERT_TRUE(any.has_value());
        EXPECT_EQ(sim.probes().latencyUs("watched"), any);
        if (faulty) faulted += plan.counters().dropped;
      }
    }
  }
  EXPECT_GT(faulted, 0u) << "the fault plans must have dropped signals";
}

// At 2,000 calls/s hundreds of calls are settling at once, yet each
// stimulus evaluates at most its own call's probe (plus one final check per
// call at teardown). Before the index every stimulus evaluated every armed
// probe.
TEST(ProbeIndex, EvaluationsScaleWithStimuliNotCallsInFlight) {
  WorkloadSpec workload = smallWorkload(7);
  workload.calls = 1000;
  workload.arrivals_per_s = 2000.0;
  LoadConfig config;
  config.shards = 1;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  ASSERT_EQ(runtime.convergedCount(), workload.calls);
  std::uint64_t evaluations = 0;
  for (const ShardStats& stats : runtime.shardStats()) {
    evaluations += stats.probe_evaluations;
  }
  const std::uint64_t stimuli = runtime.metrics().counter("sim.stimuli");
  EXPECT_GT(evaluations, 0u);
  EXPECT_LE(evaluations, stimuli + workload.calls);
}

TEST(Conformance, CapturedLoadTracesSatisfyTheWireOracle) {
  WorkloadSpec workload = smallWorkload(23);
  workload.calls = 40;
  LoadConfig config;
  config.shards = 4;
  config.capture_traces = true;
  config.trace_capacity = 1 << 18;
  ShardedRuntime runtime(config);
  runtime.run(workload);

  ASSERT_EQ(runtime.shardTraces().size(), 4u);
  std::size_t signals_checked = 0;
  for (std::size_t shard = 0; shard < runtime.shardTraces().size(); ++shard) {
    ASSERT_EQ(runtime.shardStats()[shard].trace_dropped, 0u)
        << "ring overflow would truncate tunnels mid-run";
    const auto violations =
        conformance::checkTrace(runtime.shardTraces()[shard]);
    for (const auto& violation : violations) {
      ADD_FAILURE() << "shard " << shard << " signal " << violation.index
                    << ": " << violation.what;
    }
    for (const auto& ev : runtime.shardTraces()[shard]) {
      if (ev.kind == obs::EventKind::signalRecv) ++signals_checked;
    }
  }
  EXPECT_GT(signals_checked, 100u);
}

// ------------------------------------------------------------ live work
//
// A shard's work follows the calls in flight, not the calls ever placed: a
// leak-free audit retires the call's boxes (their refresh ticks end with
// them), and each lifecycle event schedules the next instead of the whole
// call set being queued up front.

struct ShardTotals {
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::uint64_t boxes_retired = 0;
  std::uint64_t retired_drops = 0;
};

ShardTotals runTotals(const WorkloadSpec& workload, std::size_t shards) {
  LoadConfig config;
  config.shards = shards;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  EXPECT_EQ(runtime.convergedCount(), workload.calls);
  EXPECT_EQ(runtime.cleanTeardownCount(), workload.calls);
  ShardTotals totals;
  for (const ShardStats& stats : runtime.shardStats()) {
    totals.events += stats.events_executed;
    totals.peak_pending = std::max(totals.peak_pending, stats.peak_pending);
    totals.boxes_retired += stats.boxes_retired;
    totals.retired_drops += stats.retired_drops;
  }
  return totals;
}

WorkloadSpec soakShape(std::size_t calls, double rate, double faults) {
  WorkloadSpec workload;
  workload.master_seed = 7;
  workload.calls = calls;
  workload.arrivals_per_s = rate;
  workload.flowlink_fraction = 0.5;
  workload.fault_fraction = faults;
  return workload;
}

TEST(LiveWork, EventsPerCallDoNotGrowWithCallCount) {
  // The faulty shape: 4,000 calls span 8 s, 16,000 span 32 s. A box
  // ticks while its own call's fault window is open or it needs repair,
  // and its ticks end at its audit at the latest. Before retirement every
  // box ticked to the end of the workload's window, and events per call
  // grew with the span.
  const auto per_call = [](std::size_t calls) {
    const ShardTotals totals = runTotals(soakShape(calls, 500.0, 0.25), 1);
    return static_cast<double>(totals.events) / static_cast<double>(calls);
  };
  const double small = per_call(4'000);
  const double large = per_call(16'000);
  EXPECT_LE(large, small * 1.10) << small << " vs " << large;
  EXPECT_GE(large, small * 0.90) << small << " vs " << large;
}

TEST(LiveWork, CleanCallsInAFaultyWorkloadDoNotTick) {
  // Same call mix and seed, with and without a quarter of the calls
  // faulty. A box ticks only while its own call's fault window is open or
  // it needs repair, so the clean three quarters cost what they cost in
  // the clean run, and only the faulty quarter pays for repair. When every
  // box ticked until the last faulty call's window closed, the faulty
  // shape cost 2.09x the clean one at this size.
  const auto per_call = [](double faults) {
    const ShardTotals totals = runTotals(soakShape(2'000, 500.0, faults), 1);
    return static_cast<double>(totals.events) / 2'000.0;
  };
  const double clean = per_call(0.0);
  const double faulty = per_call(0.25);
  EXPECT_LE(faulty, clean * 1.6) << clean << " vs " << faulty;
}

TEST(LiveWork, PeakQueueFollowsCallsInFlight) {
  // At 100 calls/s about 525 calls are in flight at any size; the queue
  // holds their pending events, not every call still to come.
  const std::size_t small = runTotals(soakShape(1'000, 100.0, 0.0), 1)
                                .peak_pending;
  const std::size_t large = runTotals(soakShape(4'000, 100.0, 0.0), 1)
                                .peak_pending;
  EXPECT_LE(static_cast<double>(large), static_cast<double>(small) * 1.10)
      << small << " vs " << large;
  EXPECT_GE(static_cast<double>(large), static_cast<double>(small) * 0.90)
      << small << " vs " << large;
}

TEST(LiveWork, NoEventReachesARetiredBox) {
  for (const double faults : {0.0, 0.3}) {
    const WorkloadSpec workload = smallWorkload(42, faults);
    std::uint64_t boxes = 0;
    for (const CallSpec& call : WorkloadGenerator(workload).generate()) {
      boxes += 2 + call.flowlinks;
    }
    for (const std::size_t shards : {1u, 8u}) {
      const ShardTotals totals = runTotals(workload, shards);
      EXPECT_EQ(totals.boxes_retired, boxes)
          << "faults " << faults << ", " << shards << " shards";
      EXPECT_EQ(totals.retired_drops, 0u)
          << "faults " << faults << ", " << shards << " shards";
    }
  }
}

// ------------------------------------------------------------ live telemetry

TEST(LiveTelemetry, SamplerOnOffRollupIsByteIdentical) {
  // The live plane is read-only: running with an ops endpoint, an
  // aggressive sampler, and SLO watchdogs must leave outcomes and the
  // final rollup byte-identical to a bare run.
  const WorkloadSpec workload = smallWorkload(42);
  LoadConfig off;
  off.shards = 4;
  ShardedRuntime bare(off);
  bare.run(workload);

  LoadConfig on;
  on.shards = 4;
  on.ops_port = 0;  // auto-pick
  on.sample_ms = 1; // hammer the registries as hard as possible
  obs::SloRule rule;
  rule.name = "teardown_ceiling";
  rule.counter = "load.call_teardowns";
  rule.max_value = 1e9;  // never breaches; evaluation still runs
  on.slos.push_back(rule);
  ShardedRuntime live(on);
  ASSERT_NE(live.telemetry(), nullptr);
  ASSERT_GT(live.opsPort(), 0);
  live.run(workload);

  expectSameOutcomes(bare, live);
  EXPECT_EQ(bare.metricsJson(), live.metricsJson());
  EXPECT_GE(live.telemetry()->ticks(), 1u);  // at least the final window
  EXPECT_TRUE(live.telemetry()->healthy());
  EXPECT_FALSE(live.telemetry()->everBreached());
}

TEST(LiveTelemetry, OpsEndpointServesMergedStateDuringAndAfterRun) {
  const WorkloadSpec workload = smallWorkload(17);
  LoadConfig config;
  config.shards = 4;
  config.ops_port = 0;
  config.sample_ms = 1;
  // Poll our own endpoint from the sampler callback — this exercises a
  // live request strictly *during* the run, against a half-built fleet.
  std::atomic<int> mid_run_polls{0};
  std::uint16_t port = 0;
  config.on_sample = [&mid_run_polls, &port](const TelemetryTick&) {
    auto c = obs::OpsClient::connect("127.0.0.1", port);
    if (c == nullptr) return;
    auto health = c->request("health");
    auto shards = c->request("shards");
    if (health && health->ok && shards && shards->ok) ++mid_run_polls;
  };
  ShardedRuntime runtime(config);
  port = runtime.opsPort();
  ASSERT_GT(port, 0);

  // Before the run: the endpoint is up and reports "starting".
  {
    auto c = obs::OpsClient::connect("127.0.0.1", port);
    ASSERT_NE(c, nullptr);
    auto health = c->request("health");
    ASSERT_TRUE(health.has_value());
    EXPECT_TRUE(health->ok);
    EXPECT_NE(health->body.find("health=starting"), std::string::npos);
  }

  runtime.run(workload);
  EXPECT_GE(mid_run_polls.load(), 1);

  // After the run: retained state, all verbs, Prometheus parses-ish.
  auto c = obs::OpsClient::connect("127.0.0.1", port);
  ASSERT_NE(c, nullptr);
  auto metrics = c->request("metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(metrics->ok);
  EXPECT_EQ(metrics->content_type, "application/json");
  EXPECT_NE(metrics->body.find("\"load.call_arrivals\":60"), std::string::npos);
  EXPECT_NE(metrics->body.find("\"probe.call_setup_us\""), std::string::npos);

  auto prom = c->request("prom");
  ASSERT_TRUE(prom.has_value());
  EXPECT_NE(prom->body.find("cmc_load_call_arrivals_total 60"),
            std::string::npos);
  EXPECT_NE(prom->body.find("# TYPE cmc_probe_call_setup_us histogram"),
            std::string::npos);

  auto series = c->request("series", "4");
  ASSERT_TRUE(series.has_value());
  EXPECT_NE(series->body.find("\"windows\":["), std::string::npos);

  auto shards = c->request("shards");
  ASSERT_TRUE(shards.has_value());
  // All four shards report, and every call arrived and tore down.
  EXPECT_NE(shards->body.find("shard=3"), std::string::npos);

  auto health = c->request("health");
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->body.find("health=ok"), std::string::npos);
  EXPECT_NE(health->body.find("final=1"), std::string::npos);
}

TEST(LiveTelemetry, ShardsVerbFaultCountsMatchTheRollup) {
  // faults= in the `shards` reply sums each shard's drops, duplicates and
  // delays; over all shards it must equal the same three rollup counters.
  // Reorders are counted as fault.delayed, so a faulty run must show some.
  LoadConfig config;
  config.shards = 4;
  config.ops_port = 0;
  ShardedRuntime runtime(config);
  runtime.run(smallWorkload(42, /*fault_fraction=*/0.3));

  const obs::MetricsSnapshot& rollup = runtime.metrics();
  ASSERT_GT(rollup.counter("fault.delayed"), 0u);
  auto c = obs::OpsClient::connect("127.0.0.1", runtime.opsPort());
  ASSERT_NE(c, nullptr);
  auto shards = c->request("shards");
  ASSERT_TRUE(shards.has_value());
  std::istringstream lines(shards->body);
  std::string line;
  std::size_t shard_lines = 0;
  std::uint64_t faults = 0;
  while (std::getline(lines, line)) {
    const std::size_t at = line.find(" faults=");
    ASSERT_NE(at, std::string::npos) << line;
    faults += std::stoull(line.substr(at + 8));
    ++shard_lines;
  }
  EXPECT_EQ(shard_lines, 4u);
  EXPECT_EQ(faults, rollup.counter("fault.dropped") +
                        rollup.counter("fault.duplicated") +
                        rollup.counter("fault.delayed"));
}

TEST(LiveTelemetry, SloBreachDegradesHealthAndDumpsWithoutStoppingTheRun) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "cmc_slo_breach_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const WorkloadSpec workload = smallWorkload(42);
  LoadConfig config;
  config.shards = 4;
  config.ops_port = 0;
  config.sample_ms = 1;
  config.flight_dir = dir.string();
  obs::SloRule rule;
  rule.name = "setup_p99";
  rule.histogram = "probe.call_setup_us";
  rule.quantile = 0.99;
  rule.max_value = 1.0;  // impossible bound: every evaluated window breaches
  rule.min_count = 1;
  config.slos.push_back(rule);

  ShardedRuntime runtime(config);
  runtime.run(workload);

  // The run itself was untouched by the breach...
  EXPECT_EQ(runtime.convergedCount(), workload.calls);
  EXPECT_EQ(runtime.cleanTeardownCount(), workload.calls);
  // ...but the watchdog latched it and the post-mortem landed on disk.
  ASSERT_NE(runtime.telemetry(), nullptr);
  EXPECT_TRUE(runtime.telemetry()->everBreached());
  EXPECT_FALSE(runtime.telemetry()->healthy());
  EXPECT_GE(runtime.telemetry()->sloDumps(), 1u);
  const std::string dump = runtime.telemetry()->lastDumpPath();
  ASSERT_FALSE(dump.empty());
  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("slo_breach:setup_p99"), std::string::npos);
  EXPECT_NE(buffer.str().find("\"metrics\""), std::string::npos);

  // The health verb reports the degradation.
  auto c = obs::OpsClient::connect("127.0.0.1", runtime.opsPort());
  ASSERT_NE(c, nullptr);
  auto health = c->request("health");
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->body.find("health=degraded"), std::string::npos);
  EXPECT_NE(health->body.find("ever_breached=1"), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace cmc::load
