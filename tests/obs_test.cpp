// Tests for the observability subsystem: trace recorder determinism and
// ring-buffer bounds, recorder transparency (on vs off changes nothing),
// metrics counters, convergence probes, and log timestamps.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "endpoints/user_device.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/probes.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace cmc {
namespace {

using namespace literals;

struct CallOutcome {
  std::uint64_t signals = 0;
  bool a_hears_b = false;
  bool b_hears_a = false;
  double end_ms = 0;
};

// Run the canonical two-phone call for 2 s of virtual time, optionally with
// a recorder and registry installed, and report what happened.
CallOutcome runCall(std::uint64_t seed, obs::TraceRecorder* rec,
                    obs::MetricsRegistry* reg) {
  Simulator sim(TimingModel::paperDefaults(), seed);
  if (rec != nullptr) sim.attachTrace(rec);
  if (reg != nullptr) sim.attachMetrics(reg);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000));
  sim.inject("A", [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(2_s);
  CallOutcome out;
  out.signals = sim.signalsDelivered();
  out.a_hears_b = a.media().hears(b.media().id());
  out.b_hears_a = b.media().hears(a.media().id());
  out.end_ms = sim.now().millis();
  return out;
}

TEST(ObsTraceTest, IdenticalSeedsYieldByteIdenticalTraces) {
  obs::TraceRecorder first;
  obs::TraceRecorder second;
  runCall(/*seed=*/5, &first, nullptr);
  runCall(/*seed=*/5, &second, nullptr);
  ASSERT_GT(first.recorded(), 0u);
  EXPECT_EQ(first.recorded(), second.recorded());
  EXPECT_EQ(first.chromeTraceJson(), second.chromeTraceJson());
}

TEST(ObsTraceTest, RecorderOnVsOffIdenticalOutcomes) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry reg;
  const CallOutcome off = runCall(/*seed=*/9, nullptr, nullptr);
  const CallOutcome on = runCall(/*seed=*/9, &rec, &reg);
  EXPECT_EQ(on.signals, off.signals);
  EXPECT_EQ(on.a_hears_b, off.a_hears_b);
  EXPECT_EQ(on.b_hears_a, off.b_hears_a);
  EXPECT_EQ(on.end_ms, off.end_ms);
  EXPECT_TRUE(off.a_hears_b);
  EXPECT_TRUE(off.b_hears_a);
}

TEST(ObsTraceTest, RingOverflowKeepsNewestWithDroppedCount) {
  obs::TraceRecorder rec(/*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    rec.record(obs::EventKind::mark, "e" + std::to_string(i), "t");
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const std::vector<obs::TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name,
              "e" + std::to_string(12 + i));
  }
  EXPECT_NE(rec.chromeTraceJson().find("\"dropped_events\":12"),
            std::string::npos);
}

TEST(ObsTraceTest, RingOverflowBumpsDroppedMetricAndReportsSize) {
  obs::MetricsRegistry reg;
  obs::setThreadMetrics(&reg);
  obs::TraceRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 3; ++i) {
    rec.record(obs::EventKind::mark, "fits", "t");
  }
  EXPECT_EQ(rec.size(), 3u);
  // No overflow yet: the counter must not even exist, so drop-free runs
  // keep their metrics dumps byte-identical.
  EXPECT_EQ(reg.findCounter("trace.dropped"), nullptr);
  for (int i = 0; i < 7; ++i) {
    rec.record(obs::EventKind::mark, "overflow", "t");
  }
  EXPECT_EQ(rec.size(), rec.capacity());
  EXPECT_EQ(rec.dropped(), 6u);
  const obs::Counter* dropped = reg.findCounter("trace.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 6u);
  obs::setThreadMetrics(nullptr);
}

TEST(ObsMetricsTest, GaugeMaxNeverSetReturnsValueNotSentinel) {
  // Regression: a created-but-never-set gauge used to report INT64_MIN as
  // its high-water mark, which leaked the sentinel into dumps.
  obs::Gauge gauge;
  EXPECT_EQ(gauge.max(), 0);
  EXPECT_EQ(gauge.value(), 0);
  obs::MetricsRegistry reg;
  (void)reg.gauge("untouched");
  EXPECT_NE(obs::MetricsSnapshot::capture(reg).json().find(
                "\"untouched\":{\"value\":0,\"max\":0}"),
            std::string::npos);
  // Once set, max tracks the high-water mark as before.
  gauge.set(-5);
  EXPECT_EQ(gauge.max(), -5);
  gauge.set(3);
  gauge.set(1);
  EXPECT_EQ(gauge.max(), 3);
}

TEST(ObsTraceTest, SlotTransitionsAndSignalsRecorded) {
  obs::TraceRecorder rec;
  runCall(/*seed=*/3, &rec, nullptr);
  bool saw_flowing = false;
  bool saw_send_open = false;
  bool saw_recv_oack = false;
  bool saw_span = false;
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind == obs::EventKind::slotTransition && ev.name == "flowing") {
      saw_flowing = true;
      EXPECT_FALSE(ev.actor.empty());  // ActorScope attributed the box
    }
    if (ev.kind == obs::EventKind::signalSend && ev.name == "open") {
      saw_send_open = true;
    }
    if (ev.kind == obs::EventKind::signalRecv && ev.name == "oack") {
      saw_recv_oack = true;
    }
    if (ev.kind == obs::EventKind::boxSpan) {
      saw_span = true;
      EXPECT_EQ(ev.dur_us, 20'000);  // paper processing cost c = 20 ms
    }
  }
  EXPECT_TRUE(saw_flowing);
  EXPECT_TRUE(saw_send_open);
  EXPECT_TRUE(saw_recv_oack);
  EXPECT_TRUE(saw_span);
}

TEST(ObsMetricsTest, CountersPopulatedBySimulation) {
  obs::MetricsRegistry reg;
  runCall(/*seed=*/7, nullptr, &reg);
  const obs::Counter* stimuli = reg.findCounter("sim.stimuli");
  ASSERT_NE(stimuli, nullptr);
  EXPECT_GT(stimuli->value(), 0u);
  const obs::Counter* open = reg.findCounter("sim.signal.open");
  ASSERT_NE(open, nullptr);
  EXPECT_GE(open->value(), 1u);
  const obs::Counter* posted = reg.findCounter("goal.posted");
  ASSERT_NE(posted, nullptr);
  EXPECT_GE(posted->value(), 2u);  // both devices post goals
  const obs::Counter* achieved = reg.findCounter("goal.achieved");
  ASSERT_NE(achieved, nullptr);
  EXPECT_GE(achieved->value(), 1u);
  const std::string json = obs::MetricsSnapshot::capture(reg).json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.stimuli\""), std::string::npos);
}

// The simulator caches its per-stimulus metric handles per registry. A
// switch to another registry — even a new one built where a dead one lived —
// must re-resolve them, never write through the old handles.
TEST(ObsMetricsTest, SimulatorFollowsRegistrySwitches) {
  Simulator sim(TimingModel::paperDefaults(), 23);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.1", 5000));
  const auto poke = [&]() {
    sim.inject("A", [](Box&) {});
    sim.runFor(1_s);
  };
  obs::MetricsRegistry first;
  sim.attachMetrics(&first);
  poke();
  EXPECT_EQ(first.findCounter("sim.stimuli")->value(), 1u);

  std::optional<obs::MetricsRegistry> reused;
  reused.emplace();
  sim.attachMetrics(&*reused);
  poke();
  poke();
  EXPECT_EQ(first.findCounter("sim.stimuli")->value(), 1u);
  EXPECT_EQ(reused->findCounter("sim.stimuli")->value(), 2u);

  reused.reset();
  reused.emplace();  // same address, different registry
  sim.attachMetrics(&*reused);
  poke();
  ASSERT_NE(reused->findCounter("sim.stimuli"), nullptr);
  EXPECT_EQ(reused->findCounter("sim.stimuli")->value(), 1u);
  sim.attachMetrics(nullptr);
}

// A MetricHandle resolves against whatever obs::metrics() returns: a
// thread's override, the global registry, or a registry rebuilt at a dead
// one's address (a new serial).
TEST(ObsMetricsTest, HandleFollowsThreadRegistrySwitches) {
  obs::CounterHandle handle{"test.handle"};
  EXPECT_EQ(handle.get(), nullptr);  // metrics off
  obs::MetricsRegistry global;
  obs::setMetrics(&global);
  handle.get()->add();
  obs::MetricsRegistry shard;
  obs::setThreadMetrics(&shard);
  handle.get()->add(2);
  EXPECT_EQ(global.findCounter("test.handle")->value(), 1u);
  EXPECT_EQ(shard.findCounter("test.handle")->value(), 2u);

  // Another thread with its own override and its own handle cache.
  std::thread other([]() {
    thread_local obs::CounterHandle cached{"test.handle"};
    obs::MetricsRegistry own;
    obs::setThreadMetrics(&own);
    cached.get()->add(5);
    EXPECT_EQ(own.findCounter("test.handle")->value(), 5u);
    obs::setThreadMetrics(nullptr);
  });
  other.join();
  EXPECT_EQ(shard.findCounter("test.handle")->value(), 2u);

  std::optional<obs::MetricsRegistry> rebuilt;
  rebuilt.emplace();
  obs::setThreadMetrics(&*rebuilt);
  handle.get()->add();
  const obs::MetricsRegistry* address = &*rebuilt;
  rebuilt.reset();
  rebuilt.emplace();  // same address, new serial
  ASSERT_EQ(&*rebuilt, address);
  EXPECT_EQ(rebuilt->findCounter("test.handle"), nullptr);
  handle.in(*rebuilt).add(3);
  ASSERT_NE(rebuilt->findCounter("test.handle"), nullptr);
  EXPECT_EQ(rebuilt->findCounter("test.handle")->value(), 3u);

  obs::setThreadMetrics(nullptr);
  handle.get()->add();
  EXPECT_EQ(global.findCounter("test.handle")->value(), 2u);
  obs::setMetrics(nullptr);
}

TEST(ObsMetricsTest, GaugeAddIsExactUnderContention) {
  // Regression: add() used to be a load/set pair, losing concurrent deltas.
  obs::Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge]() {
      for (int i = 0; i < kIters; ++i) {
        gauge.add(2);
        gauge.add(-1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(gauge.value(), kThreads * kIters);
  // The high-water mark saw at least the final value and never more than
  // the sum of all positive deltas.
  EXPECT_GE(gauge.max(), gauge.value());
  EXPECT_LE(gauge.max(), std::int64_t{2} * kThreads * kIters);
}

TEST(ObsTraceTest, FlowEventsLinkParentAndChildSpans) {
  obs::TraceRecorder rec;
  obs::TraceEvent parent;
  parent.kind = obs::EventKind::boxSpan;
  parent.name = "stimulus";
  parent.actor = "A";
  parent.ts_us = 100;
  parent.dur_us = 20'000;
  parent.trace_id = 7;
  parent.span_id = 1;
  rec.record(parent);
  obs::TraceEvent child = parent;
  child.actor = "B";
  child.ts_us = 54'100;
  child.span_id = 2;
  child.parent_span = 1;
  rec.record(child);
  // An orphan whose parent fell out of the ring must not emit an arrow.
  obs::TraceEvent orphan = parent;
  orphan.actor = "C";
  orphan.ts_us = 90'000;
  orphan.span_id = 3;
  orphan.parent_span = 99;
  rec.record(orphan);

  const std::string json = rec.chromeTraceJson();
  // The arrow leaves A's span at its end and lands at B's span start, both
  // sides carrying the child's span id so viewers pair them up.
  EXPECT_NE(json.find("{\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":20100,"
                      "\"cat\":\"flow\",\"name\":\"causal\",\"id\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":2,"
                      "\"ts\":54100,\"cat\":\"flow\",\"name\":\"causal\","
                      "\"id\":2}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"id\":3}"), std::string::npos);
}

TEST(ObsMetricsTest, HistogramQuantiles) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test.latency");
  for (int i = 1; i <= 100; ++i) h.observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_GE(h.quantile(0.99), h.quantile(0.5));
  EXPECT_LE(h.quantile(1.0), 100.0);
}

TEST(ObsProbesTest, ProbeCapturesConvergenceLatency) {
  Simulator sim(TimingModel::paperDefaults(), 11);
  obs::MetricsRegistry reg;
  sim.attachMetrics(&reg);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000));
  // Probes are re-evaluated after box stimuli, so the predicate must read
  // signaling-driven state (sendingState is set synchronously inside the
  // device's stimulus processing), not packet-arrival state like hears().
  sim.probes().arm("call_setup", "setup", sim.nowUs(), [&]() {
    const auto& sa = a.media().sendingState();
    const auto& sb = b.media().sendingState();
    return sa && sb && sa->target == b.media().address() &&
           sb->target == a.media().address() && !isNoMedia(sa->codec) &&
           !isNoMedia(sb->codec);
  });
  EXPECT_EQ(sim.probes().armedCount(), 1u);
  sim.inject("A", [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(5_s);
  EXPECT_EQ(sim.probes().convergedCount(), 1u);
  const auto latency = sim.probes().latencyUs("call_setup");
  ASSERT_TRUE(latency.has_value());
  EXPECT_GT(*latency, 0);
  EXPECT_LT(*latency, 2'000'000);  // converged well before the horizon
  // The latency lands in the registry histogram "probe.<bucket>_us".
  const obs::Histogram* h = reg.findHistogram("probe.setup_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), *latency);
}

TEST(ObsProbesTest, UnsatisfiedProbeStaysArmed) {
  Simulator sim(TimingModel::paperDefaults(), 13);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.1", 5000));
  sim.probes().arm("never", "never", sim.nowUs(), []() { return false; });
  sim.inject("A", [](Box&) {});
  sim.runFor(1_s);
  EXPECT_EQ(sim.probes().armedCount(), 1u);
  EXPECT_EQ(sim.probes().convergedCount(), 0u);
  EXPECT_FALSE(sim.probes().latencyUs("never").has_value());
}

TEST(ObsProbesTest, FailureHandlerMayCheckAgain) {
  obs::ConvergenceProbes probes;
  std::vector<std::string> inner;
  // Each failure arms a probe that holds at once and checks it from inside
  // the outer check; the outer check must still fail every expired probe.
  probes.setOnFailure([&](const std::string& name, std::int64_t now_us) {
    inner.push_back("inner_" + name);
    probes.arm(inner.back(), "inner", now_us, []() { return true; });
    probes.checkBox(/*box=*/7, now_us);
  });
  for (int i = 0; i < 3; ++i) {
    probes.arm("w" + std::to_string(i), "w", 0, []() { return false; },
               /*deadline_us=*/50, {1});
  }
  EXPECT_EQ(probes.checkBox(1, 40), 0u);
  EXPECT_TRUE(inner.empty());
  EXPECT_EQ(probes.checkBox(2, 60), 0u);
  EXPECT_EQ(probes.failed(), (std::vector<std::string>{"w0", "w1", "w2"}));
  EXPECT_EQ(inner.size(), 3u);
  EXPECT_EQ(probes.convergedCount(), 3u);
  for (const std::string& name : inner) {
    EXPECT_EQ(probes.latencyUs(name), std::optional<std::int64_t>(0)) << name;
  }
  EXPECT_EQ(probes.armedCount(), 0u);
  // The work list survived the nesting: later checks still evaluate.
  probes.arm("late", "late", 60, []() { return true; }, 0, {3});
  EXPECT_EQ(probes.checkBox(3, 70), 1u);
}

// A converged probe holds its latency in its own slot until a host takes
// it by Id; only the take frees the slot.
TEST(ObsProbesTest, TakeByIdReturnsNothingForStaleUnconvergedOrTakenIds) {
  obs::ConvergenceProbes probes;
  bool ready = false;
  const auto id = probes.arm("p", "b", 10, [&]() { return ready; }, 0, {1});
  EXPECT_FALSE(probes.takeLatencyUs(id).has_value());  // not converged
  EXPECT_FALSE(probes.takeLatencyUs(obs::ConvergenceProbes::Id{}).has_value());
  EXPECT_FALSE(
      probes.takeLatencyUs(obs::ConvergenceProbes::Id{id.slot, id.seq + 1})
          .has_value());  // stale seq
  EXPECT_FALSE(
      probes.takeLatencyUs(obs::ConvergenceProbes::Id{id.slot + 5, id.seq})
          .has_value());  // no such slot
  ready = true;
  EXPECT_EQ(probes.checkBox(1, 35), 1u);
  EXPECT_EQ(probes.takeLatencyUs(id), std::optional<std::int64_t>(25));
  EXPECT_FALSE(probes.takeLatencyUs(id).has_value());  // already taken
  EXPECT_FALSE(probes.latencyUs("p").has_value());
  // A disarmed probe, and a failed one, leave no result either.
  const auto dropped = probes.arm("d", "b", 0, []() { return false; });
  EXPECT_TRUE(probes.disarm(dropped));
  EXPECT_FALSE(probes.takeLatencyUs(dropped).has_value());
  const auto late = probes.arm("late", "b", 0, []() { return false; }, 50);
  probes.checkBox(2, 60);
  EXPECT_EQ(probes.failed(), (std::vector<std::string>{"late"}));
  EXPECT_FALSE(probes.takeLatencyUs(late).has_value());
}

TEST(ObsProbesTest, ResultSurvivesCheckDisarmTake) {
  // The load runtime's order at a call's teardown: a final check, a
  // disarm, and later the audit's take.
  obs::ConvergenceProbes probes;
  const auto id = probes.arm("call", "call_setup", 100, []() { return true; },
                             /*deadline_us=*/1'000, {4, 5});
  EXPECT_EQ(probes.check(id, 140), 1u);
  EXPECT_FALSE(probes.disarm(id));  // converged: not armed, result kept
  EXPECT_EQ(probes.armedCount(), 0u);
  probes.checkBox(4, 2'000);  // past the deadline: nothing to fail
  EXPECT_EQ(probes.failedCount(), 0u);
  EXPECT_EQ(probes.latencyUs("call"), std::optional<std::int64_t>(40));
  EXPECT_EQ(probes.takeLatencyUs(id), std::optional<std::int64_t>(40));
}

TEST(ObsProbesTest, SlotIsReusedOnlyAfterTheTake) {
  obs::ConvergenceProbes probes;
  const auto first = probes.arm("first", "b", 0, []() { return true; }, 0, {1});
  probes.checkBox(1, 7);
  // Converged but untaken: the next probe gets a fresh slot.
  const auto second = probes.arm("second", "b", 7, []() { return false; });
  EXPECT_NE(second.slot, first.slot);
  EXPECT_EQ(probes.takeLatencyUs(first), std::optional<std::int64_t>(7));
  const auto third = probes.arm("third", "b", 8, []() { return false; });
  EXPECT_EQ(third.slot, first.slot);
  EXPECT_NE(third.seq, first.seq);
  // The old handle does not reach the slot's new probe.
  EXPECT_FALSE(probes.disarm(first));
  EXPECT_EQ(probes.armedCount(), 2u);
}

TEST(ObsProbesTest, LatencyByNameFindsUntakenResults) {
  obs::ConvergenceProbes probes;
  const auto a = probes.arm("a", "b", 0, []() { return true; }, 0, {1});
  const auto b1 = probes.arm("b", "b", 0, []() { return true; }, 0, {2});
  probes.checkBox(1, 3);
  probes.checkBox(2, 5);
  // A second "b" converges later: the name reads the latest result.
  const auto b2 = probes.arm("b", "b", 5, []() { return true; }, 0, {3});
  probes.checkBox(3, 12);
  EXPECT_EQ(probes.latencyUs("a"), std::optional<std::int64_t>(3));
  EXPECT_EQ(probes.latencyUs("b"), std::optional<std::int64_t>(7));
  EXPECT_EQ(probes.convergedCount(), 3u);
  // Reading by name takes nothing; taking one "b" leaves the other.
  EXPECT_EQ(probes.takeLatencyUs(b2), std::optional<std::int64_t>(7));
  EXPECT_EQ(probes.latencyUs("b"), std::optional<std::int64_t>(5));
  EXPECT_EQ(probes.takeLatencyUs(a), std::optional<std::int64_t>(3));
  EXPECT_FALSE(probes.latencyUs("a").has_value());
  EXPECT_EQ(probes.takeLatencyUs(b1), std::optional<std::int64_t>(5));
  EXPECT_FALSE(probes.latencyUs("b").has_value());
}

// The probe index: a probe armed with a watch set is evaluated only after
// stimuli of the boxes it watches (and at channel-end materialization on
// them); an unwatched probe after every stimulus. A and B are unconnected
// phones, so a no-op injection stimulates exactly the box it targets.
class ObsProbeIndexTest : public ::testing::Test {
 protected:
  void poke(const std::string& box) {
    sim.inject(box, [](Box&) {});
  }
  std::uint64_t idOf(const std::string& box) {
    return sim.box(box).id().value();
  }
  // Never satisfied; counts its evaluations.
  obs::ConvergenceProbes::Predicate counting() {
    return [this]() {
      ++evaluated;
      return false;
    };
  }

  Simulator sim{TimingModel::paperDefaults(), 19};
  UserDeviceBox& a = sim.addBox<UserDeviceBox>(
      "A", sim.mediaNetwork(), sim.loop(), MediaAddress::parse("10.0.0.1", 5000));
  UserDeviceBox& b = sim.addBox<UserDeviceBox>(
      "B", sim.mediaNetwork(), sim.loop(), MediaAddress::parse("10.0.0.2", 5000));
  int evaluated = 0;
};

TEST_F(ObsProbeIndexTest, WatchedProbeIsEvaluatedOnlyOnItsBoxesStimuli) {
  sim.probes().arm("a", "a", sim.nowUs(), counting(), 0, {idOf("A")});
  poke("B");
  poke("B");
  poke("B");
  sim.runFor(1_s);
  EXPECT_EQ(evaluated, 0);
  poke("A");
  poke("A");
  sim.runFor(1_s);
  EXPECT_EQ(evaluated, 2);
  EXPECT_EQ(sim.probes().evaluations(), 2u);
  EXPECT_EQ(sim.probes().armedCount(), 1u);
}

TEST_F(ObsProbeIndexTest, UnwatchedProbeIsEvaluatedOnEveryStimulus) {
  sim.probes().arm("any", "any", sim.nowUs(), counting());
  poke("A");
  poke("B");
  poke("B");
  poke("A");
  poke("B");
  sim.runFor(1_s);
  EXPECT_EQ(evaluated, 5);
}

TEST_F(ObsProbeIndexTest, WatchdogFailsAtFirstCheckPastDeadlineOnAnyBox) {
  obs::FlightRecorder::Config cfg;
  cfg.directory = ::testing::TempDir();
  cfg.prefix = "obs_test_probe_index";
  obs::FlightRecorder flight(cfg);
  sim.attachFlightRecorder(&flight);
  std::int64_t failed_at = -1;
  sim.probes().setOnFailure(
      [&](const std::string&, std::int64_t now_us) { failed_at = now_us; });
  // Watches A, which is never stimulated; its deadline is 50 ms.
  sim.probes().arm("a_watchdog", "a_watchdog", sim.nowUs(), counting(),
                   /*deadline_us=*/50'000, {idOf("A")});
  poke("B");  // completes at c = 20 ms: before the deadline, not A's box
  sim.runFor(40_ms);
  EXPECT_EQ(evaluated, 0);
  EXPECT_EQ(sim.probes().failedCount(), 0u);

  std::int64_t checked_at = -1;
  sim.inject("B", [&](Box&) { checked_at = sim.nowUs(); });
  sim.runFor(1_s);
  EXPECT_EQ(checked_at, 60'000);  // B's stimulus completes past the deadline
  EXPECT_EQ(failed_at, checked_at);
  EXPECT_EQ(evaluated, 1);
  ASSERT_EQ(sim.probes().failed().size(), 1u);
  EXPECT_EQ(sim.probes().failed()[0], "a_watchdog");
  EXPECT_EQ(sim.probes().armedCount(), 0u);
  EXPECT_EQ(flight.dumps(), 1u);
}

TEST_F(ObsProbeIndexTest, DisarmedWatchedProbeIsNeverEvaluatedAgain) {
  const auto id = sim.probes().arm("a", "a", sim.nowUs(), counting(), 0,
                                   {idOf("A")});
  poke("A");
  sim.runFor(1_s);
  EXPECT_EQ(evaluated, 1);
  EXPECT_TRUE(sim.probes().disarm(id));
  poke("A");
  sim.runFor(1_s);
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(sim.probes().armedCount(), 0u);
  // The freed slot is reused. Neither the stale handle nor A's watcher list
  // may reach the newcomer, which watches B only.
  sim.probes().arm("b", "b", sim.nowUs(), counting(), 0, {idOf("B")});
  EXPECT_FALSE(sim.probes().disarm(id));
  EXPECT_EQ(sim.probes().armedCount(), 1u);
  poke("A");
  sim.runFor(1_s);
  EXPECT_EQ(evaluated, 1);
  poke("B");
  sim.runFor(1_s);
  EXPECT_EQ(evaluated, 2);
}

TEST_F(ObsProbeIndexTest, WatchedProbeOnCalleeRecordsMaterializationInstant) {
  // B's channel end appears one network latency after A's stimulus, outside
  // any stimulus of B; the probe must record that instant, not B's reaction
  // one processing cost later.
  sim.probes().arm("callee_up", "callee_up", sim.nowUs(),
                   [&]() {
                     ++evaluated;
                     return b.slotCount() > 0;
                   },
                   0, {idOf("B")});
  sim.inject("A", [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(1_s);
  const auto latency = sim.probes().latencyUs("callee_up");
  ASSERT_TRUE(latency.has_value());
  const TimingModel& t = sim.timing();
  EXPECT_EQ(*latency, (t.processing + t.network).count());
  EXPECT_EQ(evaluated, 1);  // A's stimulus did not evaluate it
}

TEST(ObsFlightRecorderTest, ProbeDeadlineTriggersPostMortemDump) {
  Simulator sim(TimingModel::paperDefaults(), 17);
  obs::TraceRecorder rec;
  obs::MetricsRegistry reg;
  sim.attachTrace(&rec);
  sim.attachMetrics(&reg);
  rec.setPropagation(true);
  obs::FlightRecorder::Config cfg;
  cfg.directory = ::testing::TempDir();
  cfg.prefix = "obs_test_flight";
  obs::FlightRecorder flight(cfg);
  sim.attachFlightRecorder(&flight);

  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.2", 5000));
  std::string failed_probe;
  sim.probes().setOnFailure(
      [&](const std::string& name, std::int64_t) { failed_probe = name; });
  // A watchdog that can never converge: the first probe check after its
  // deadline (1 ms of virtual time) must fail it and dump a post-mortem.
  sim.probes().arm("never", "never", sim.nowUs(), []() { return false; },
                   /*deadline_us=*/1'000);
  sim.inject("A",
             [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(2_s);

  EXPECT_EQ(sim.probes().failedCount(), 1u);
  ASSERT_EQ(sim.probes().failed().size(), 1u);
  EXPECT_EQ(sim.probes().failed()[0], "never");
  EXPECT_EQ(failed_probe, "never");
  EXPECT_EQ(sim.probes().armedCount(), 0u);
  EXPECT_EQ(flight.dumps(), 1u);

  std::ifstream in(flight.lastPath());
  ASSERT_TRUE(in.good()) << flight.lastPath();
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"reason\":\"probe_timeout:never\""), std::string::npos);
  EXPECT_NE(body.find("\"critical_path\":"), std::string::npos);
  EXPECT_NE(body.find("\"trace\":"), std::string::npos);
  EXPECT_NE(body.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(body.find("\"probes_failed\":1"), std::string::npos);
}

TEST(ObsFlightRecorderTest, FlightAssertDumpsOnlyOnFailure) {
  obs::TraceRecorder rec;
  rec.record(obs::EventKind::mark, "before_failure", "harness");
  obs::FlightRecorder::Config cfg;
  cfg.directory = ::testing::TempDir();
  cfg.prefix = "obs_test_assert";
  cfg.max_dumps = 2;
  obs::FlightRecorder flight(cfg);
  flight.setTrace(&rec);
  obs::setFlightRecorder(&flight);

  EXPECT_TRUE(obs::flightAssert(true, "fine"));
  EXPECT_EQ(flight.dumps(), 0u);
  EXPECT_FALSE(obs::flightAssert(false, "path diverged"));
  EXPECT_EQ(flight.dumps(), 1u);
  // The reason is slugified into the deterministic filename.
  EXPECT_NE(flight.lastPath().find("obs_test_assert_0_assert_path_diverged"),
            std::string::npos);
  std::ifstream in(flight.lastPath());
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("before_failure"), std::string::npos);

  // max_dumps caps a crash-looping run.
  EXPECT_FALSE(obs::flightAssert(false, "again"));
  EXPECT_FALSE(obs::flightAssert(false, "and again"));
  EXPECT_EQ(flight.dumps(), 2u);
  obs::setFlightRecorder(nullptr);
}

TEST(ObsLogTest, TimestampsUseInjectedSimTime) {
  std::ostringstream sink;
  log::setSink(&sink);
  log::setLevel(log::Level::info);
  log::setSimTimeSource([]() { return std::int64_t{1'234'567}; });
  log::info("obs_test", "hello");
  log::setSimTimeSource(nullptr);
  log::setLevel(log::Level::none);
  log::setSink(nullptr);
  const std::string line = sink.str();
  EXPECT_EQ(line.rfind("[+1234.567ms]", 0), 0u) << line;
  EXPECT_NE(line.find("[INFO ]"), std::string::npos);
}

TEST(ObsLogTest, WallClockTimestampByDefault) {
  std::ostringstream sink;
  log::setSink(&sink);
  log::setLevel(log::Level::info);
  log::info("obs_test", "hello");
  log::setLevel(log::Level::none);
  log::setSink(nullptr);
  const std::string line = sink.str();
  // "[HH:MM:SS.mmm] " prefix: fixed punctuation at fixed offsets.
  ASSERT_GE(line.size(), 15u);
  EXPECT_EQ(line[0], '[');
  EXPECT_EQ(line[3], ':');
  EXPECT_EQ(line[6], ':');
  EXPECT_EQ(line[9], '.');
  EXPECT_EQ(line[13], ']');
}

TEST(ObsEventLoopTest, ExecutedCounterTracksSteps) {
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 5; ++i) loop.schedule(1_ms, [&] { ++fired; });
  EXPECT_EQ(loop.executed(), 0u);
  loop.runUntilIdle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(loop.executed(), 5u);
  EXPECT_GE(loop.peakPending(), 5u);
}

}  // namespace
}  // namespace cmc
