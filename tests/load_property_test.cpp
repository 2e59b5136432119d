// Randomized-workload property suite: every completed call sampled from a
// sharded load run is replayed from its captured trace and checked against
// its §V path guarantee with the temporal machinery from mc/temporal.hpp.
//
// Replay means: filter the owning shard's trace down to the call's signal
// deliveries (box names carry the call id), reconstruct the two endpoints'
// Fig. 5 protocol states signal by signal, and emit the sequence as a
// linear ExploreResult — state i+1 follows delivery i, the last
// pre-teardown state carries the terminal self-loop. On that graph the
// paper's guarantees become the usual lasso queries:
//
//   open/open, open/hold    ◇□ bothFlowing   (settles flowing)
//   close/*, hold/hold      ◇□ bothClosed    (settles closed)
//   close/open              never flows, and the observed refusal cycle
//                           (made explicit with a back-edge over the last
//                           full retry) satisfies □◇ bothClosed while
//                           refuting ◇□ bothFlowing
//
// Runs twice: a clean workload and one with per-call fault plans — §V must
// hold either way (self-stabilization recovers inside the fault window,
// which closes before the call's hold expires).
//
// LOAD_FUZZ_CALLS overrides the number of randomized calls (default 60;
// the acceptance floor is 50), LOAD_FUZZ_SEED the master seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/temporal.hpp"

namespace cmc::load {
namespace {

std::size_t envCalls() {
  if (const char* env = std::getenv("LOAD_FUZZ_CALLS")) {
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  return 60;
}

std::uint64_t envSeed() {
  if (const char* env = std::getenv("LOAD_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedu;
}

enum class Side { closed, opening, flowing };

// One call's wire history, replayed into endpoint protocol states.
struct CallReplay {
  // Endpoint states after each delivery (index 0 = before any signal).
  std::vector<std::pair<Side, Side>> states{{Side::closed, Side::closed}};
  // Indices into `states` reached right after a closeack delivery (the
  // quiescent points of close/open refusal cycles).
  std::vector<std::size_t> after_closeack;
  std::size_t signals = 0;
};

CallReplay replayCall(const CallSpec& call,
                      const std::vector<obs::TraceEvent>& events,
                      std::int64_t until_us) {
  const std::string prefix = "c" + std::to_string(call.id) + ".";
  const std::string left = call.leftName();
  const std::string right = call.rightName();
  std::map<std::string, Side> side{{left, Side::closed},
                                   {right, Side::closed}};
  CallReplay replay;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind != obs::EventKind::signalRecv) continue;
    if (ev.ts_us >= until_us) continue;  // teardown signals are not §V
    // Both parties of an intra-call signal carry the call's name prefix.
    if (ev.actor.compare(0, prefix.size(), prefix) != 0) continue;
    ++replay.signals;
    // Fig. 5 transitions, sender's perspective (sender = aux, receiver =
    // actor; relay sides are tracked too but only endpoint states matter).
    Side& sender = side[ev.aux];
    Side& receiver = side[ev.actor];
    bool closeack = false;
    if (ev.name == "open") {
      sender = Side::opening;
    } else if (ev.name == "oack") {
      sender = Side::flowing;
      receiver = Side::flowing;
    } else if (ev.name == "close") {
      if (receiver == Side::opening) receiver = Side::closed;
      sender = Side::closed;
    } else if (ev.name == "closeack") {
      sender = Side::closed;
      closeack = true;
    }  // describe/select don't move the Fig. 5 state
    replay.states.emplace_back(side[left], side[right]);
    if (closeack) replay.after_closeack.push_back(replay.states.size() - 1);
  }
  return replay;
}

StateBits toBits(std::pair<Side, Side> s, bool terminal) {
  StateBits bits{};
  bits.bothClosed = s.first == Side::closed && s.second == Side::closed;
  bits.bothFlowing = s.first == Side::flowing && s.second == Side::flowing;
  bits.slotsStable =
      s.first != Side::opening && s.second != Side::opening;
  bits.terminal = terminal;
  bits.expanded = true;
  bits.left_state = static_cast<std::uint8_t>(s.first);
  bits.right_state = static_cast<std::uint8_t>(s.second);
  return bits;
}

// Linear graph over the replayed states; `loop_to`, when valid, turns the
// observed tail into an explicit cycle (close/open retry); otherwise the
// last state self-loops (settled call).
ExploreResult linearGraph(const CallReplay& replay, std::size_t loop_to,
                          bool has_loop) {
  ExploreResult graph;
  const std::size_t n = replay.states.size();
  graph.bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    graph.bits.push_back(toBits(replay.states[i], i + 1 == n && !has_loop));
    const std::size_t next = i + 1 < n ? i + 1 : has_loop ? loop_to : i;
    graph.edge_targets.push_back(static_cast<std::uint32_t>(next));
    graph.edge_offsets.push_back(graph.edge_targets.size());
  }
  graph.stats.transitions = n;
  graph.stats.terminals = has_loop ? 0 : 1;
  return graph;
}

const StatePredicate kBothFlowing = [](const StateBits& b) {
  return b.bothFlowing;
};
const StatePredicate kBothClosed = [](const StateBits& b) {
  return b.bothClosed;
};

struct SuiteStats {
  std::size_t checked = 0;
  std::map<std::string, std::size_t> by_type;
};

void checkWorkload(const WorkloadSpec& workload, SuiteStats& stats) {
  LoadConfig config;
  config.shards = 4;
  config.capture_traces = true;
  config.trace_capacity = 1 << 19;
  ShardedRuntime runtime(config);
  runtime.run(workload);

  ASSERT_EQ(runtime.convergedCount(), workload.calls)
      << "every call must reach its rest state before replay makes sense";
  for (const ShardStats& shard : runtime.shardStats()) {
    ASSERT_EQ(shard.trace_dropped, 0u)
        << "ring overflow would truncate replays";
  }

  for (const CallOutcome& outcome : runtime.outcomes()) {
    const CallSpec& call = outcome.spec;
    const auto& events = runtime.shardTraces()[outcome.shard];
    const std::int64_t teardown_us =
        (call.arrival + kSetupGrace + call.hold)
            .sinceStart()
            .count();
    CallReplay replay = replayCall(call, events, teardown_us);

    const bool has_close = call.left == GoalKind::closeSlot ||
                           call.right == GoalKind::closeSlot;
    const bool has_open = call.left == GoalKind::openSlot ||
                          call.right == GoalKind::openSlot;
    SCOPED_TRACE("call " + std::to_string(call.id) + " (" + call.type_name +
                 ", " + std::to_string(call.flowlinks) + " flowlinks" +
                 (call.faulty ? ", faulty)" : ")"));

    if (has_open && has_close) {
      // close/open: the open end retries forever and is refused every
      // time. The replay must show at least one full refusal cycle; the
      // cycle (last closeack back to the previous one) is the lasso.
      ASSERT_GE(replay.after_closeack.size(), 2u)
          << "expected repeated open/close/closeack refusals";
      const std::size_t cycle_end = replay.after_closeack.back();
      const std::size_t cycle_start =
          replay.after_closeack[replay.after_closeack.size() - 2];
      CallReplay truncated = replay;
      truncated.states.resize(cycle_end + 1);
      const ExploreResult graph =
          linearGraph(truncated, cycle_start, /*has_loop=*/true);
      // □◇ bothClosed: the retry cycle keeps returning to closed/closed.
      auto recurrent = checkAlwaysEventually(graph, kBothClosed);
      EXPECT_FALSE(recurrent.has_value())
          << (recurrent ? recurrent->description : "");
      // ◇□ bothFlowing must be REFUTED: the call never settles flowing —
      // in fact it never flows at all.
      EXPECT_TRUE(checkEventuallyAlways(graph, kBothFlowing).has_value());
      for (const auto& s : replay.states) {
        EXPECT_FALSE(s.first == Side::flowing && s.second == Side::flowing)
            << "a close goal must refuse the open before media flows";
      }
    } else {
      const ExploreResult graph = linearGraph(replay, 0, /*has_loop=*/false);
      const StatePredicate& rest =
          (has_open && !has_close) ? kBothFlowing : kBothClosed;
      auto violation = checkEventuallyAlways(graph, rest);
      EXPECT_FALSE(violation.has_value())
          << (violation ? violation->description : "") << " after "
          << replay.signals << " signals";
      // Settled calls also satisfy the fault-mode safety check: the
      // terminal state holds no half-open slot.
      auto unsafe = checkSafetyTerminal(graph);
      EXPECT_FALSE(unsafe.has_value())
          << (unsafe ? unsafe->description : "");
      if (has_open) {
        EXPECT_GE(replay.signals, 2u) << "open pair with no open/oack?";
      }
    }
    ++stats.checked;
    ++stats.by_type[call.type_name];
  }
}

TEST(LoadProperty, SampledCallsSatisfySectionVClean) {
  WorkloadSpec workload;
  workload.master_seed = envSeed();
  workload.calls = envCalls();
  workload.arrivals_per_s = 100.0;
  workload.flowlink_fraction = 0.5;
  workload.fault_fraction = 0.0;

  SuiteStats stats;
  checkWorkload(workload, stats);
  EXPECT_GE(stats.checked, 50u);
  // The randomized draw must have exercised every §V pair type.
  EXPECT_EQ(stats.by_type.size(), callTypes().size());
}

TEST(LoadProperty, SampledCallsSatisfySectionVUnderFaults) {
  WorkloadSpec workload;
  workload.master_seed = envSeed() ^ 0xfa17u;
  workload.calls = envCalls();
  workload.arrivals_per_s = 100.0;
  workload.flowlink_fraction = 0.5;
  workload.fault_fraction = 0.35;

  std::size_t faulty = 0;
  for (const CallSpec& call : WorkloadGenerator(workload).generate()) {
    if (call.faulty) ++faulty;
  }
  ASSERT_GT(faulty, 0u) << "seed drew no faulty calls; widen the fraction";

  SuiteStats stats;
  checkWorkload(workload, stats);
  EXPECT_GE(stats.checked, 50u);
  EXPECT_EQ(stats.by_type.size(), callTypes().size());
}

}  // namespace
}  // namespace cmc::load
