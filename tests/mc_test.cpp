// Tests for the model checker: exploration determinism, temporal checking
// on known graphs, the paper's 12-model verification suite (small budgets
// here; the full-budget campaign is bench_verification_table), and negative
// checks proving the checker can find violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "mc/seen_set.hpp"
#include "mc/verification.hpp"

namespace cmc {
namespace {

using K = GoalKind;

ExploreLimits quick() {
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 0;
  limits.max_states = 500'000;
  return limits;
}

TEST(Explore, DeterministicAcrossRuns) {
  auto a = explorePath(K::openSlot, K::holdSlot, 0, quick());
  auto b = explorePath(K::openSlot, K::holdSlot, 0, quick());
  EXPECT_EQ(a.states(), b.states());
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.stats.terminals, b.stats.terminals);
}

TEST(Explore, NoChaosOpenOpenIsTiny) {
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::openSlot, K::openSlot, 0, limits);
  EXPECT_LT(graph.states(), 50u);
  EXPECT_GE(graph.stats.terminals, 1u);
  EXPECT_FALSE(graph.truncated);
}

TEST(Explore, TerminalsHaveSelfLoops) {
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::closeSlot, K::closeSlot, 0, limits);
  bool found_terminal = false;
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    if (!graph.bits[s].terminal) continue;
    found_terminal = true;
    ASSERT_EQ(graph.successors(s).size(), 1u);
    EXPECT_EQ(graph.successors(s)[0], s);
  }
  EXPECT_TRUE(found_terminal);
}

TEST(Explore, TruncationIsReported) {
  ExploreLimits limits = quick();
  limits.max_states = 100;
  auto graph = explorePath(K::openSlot, K::openSlot, 1, limits);
  EXPECT_TRUE(graph.truncated);
  EXPECT_EQ(graph.states(), 100u);
}

TEST(Explore, TruncatedStatesAreMarkedUnexpanded) {
  ExploreLimits limits = quick();
  limits.max_states = 100;
  auto graph = explorePath(K::openSlot, K::openSlot, 1, limits);
  ASSERT_TRUE(graph.truncated);
  std::size_t unexpanded = 0;
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    if (graph.bits[s].expanded) continue;
    ++unexpanded;
    // Unexpanded states must contribute nothing the verifiers could read:
    // no outgoing edges, and no predicate bits.
    EXPECT_TRUE(graph.successors(s).empty());
    EXPECT_FALSE(graph.bits[s].terminal);
  }
  EXPECT_GT(unexpanded, 0u);
  // The safety check and the observables projection skip unexpanded states
  // instead of reading default-constructed bits: a default StateBits is
  // quiescent=false so it would also be skipped by accident, but the
  // expanded flag makes that robust rather than lucky.
  EXPECT_FALSE(checkSafety(graph).has_value());
  EXPECT_NO_FATAL_FAILURE({ auto observables = quiescentObservables(graph); (void)observables; });
}

TEST(Explore, FullRunMarksEveryStateExpanded) {
  auto graph = explorePath(K::openSlot, K::holdSlot, 0, quick());
  ASSERT_FALSE(graph.truncated);
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    EXPECT_TRUE(graph.bits[s].expanded) << "state " << s;
  }
}

// ------------------------------------------------------- collision safety

TEST(CollisionSafety, SeenSetKeepsCollidingStatesDistinct) {
  SeenSet seen(/*max_states=*/10);
  // Two different canonical encodings forced onto the same fingerprint.
  std::vector<std::uint8_t> a{1, 2, 3};
  std::vector<std::uint8_t> b{4, 5, 6, 7};
  auto first = seen.insert(42, a);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.collided);
  auto second = seen.insert(42, b);
  EXPECT_TRUE(second.inserted);
  EXPECT_TRUE(second.collided);
  EXPECT_NE(first.index, second.index);
  EXPECT_EQ(seen.collisions(), 1u);
  // Re-inserting either encoding is a dedup hit on its own index.
  auto again = seen.insert(42, a);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.index, first.index);
  EXPECT_EQ(seen.hits(), 1u);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.bytesRetained(), a.size() + b.size());
}

TEST(CollisionSafety, SeenSetEnforcesStateBudget) {
  SeenSet seen(/*max_states=*/2);
  const std::uint8_t one[] = {1}, two[] = {2}, three[] = {3};
  EXPECT_TRUE(seen.insert(1, one).inserted);
  EXPECT_TRUE(seen.insert(2, two).inserted);
  auto over = seen.insert(3, three);
  EXPECT_FALSE(over.inserted);
  EXPECT_EQ(over.index, SeenSet::kNoIndex);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(CollisionSafety, SeenSetKeepsIndicesAcrossGrowth) {
  // Enough distinct encodings to grow every shard's index several times,
  // under an 8-bit fingerprint so hundreds of encodings share each one.
  // Among them are an empty encoding and one longer than an arena chunk.
  constexpr std::uint64_t kMask = 0xFF;
  std::vector<std::vector<std::uint8_t>> encodings;
  encodings.emplace_back();
  encodings.emplace_back(SeenSet::kChunkBytes + 1, std::uint8_t{0xA5});
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    std::vector<std::uint8_t>& e = encodings.emplace_back();
    for (std::uint32_t copy = 0; copy <= i % 7; ++copy) {
      for (int b = 0; b < 4; ++b) e.push_back(static_cast<std::uint8_t>(i >> (8 * b)));
    }
  }

  SeenSet seen(/*max_states=*/100'000);
  std::vector<std::uint32_t> index;
  std::set<std::uint64_t> taken;
  std::size_t collisions = 0;
  std::size_t bytes = 0;
  for (const auto& e : encodings) {
    const std::uint64_t fp = fnv1a(e) & kMask;
    const auto got = seen.insert(fp, e);
    ASSERT_TRUE(got.inserted);
    EXPECT_EQ(got.collided, taken.count(fp) == 1);
    collisions += taken.count(fp);
    taken.insert(fp);
    bytes += e.size();
    index.push_back(got.index);
  }
  EXPECT_EQ(seen.size(), encodings.size());
  EXPECT_EQ(seen.collisions(), collisions);
  EXPECT_EQ(seen.bytesRetained(), bytes);
  EXPECT_EQ(seen.hits(), 0u);

  for (std::size_t i = 0; i < encodings.size(); ++i) {
    const auto again = seen.insert(fnv1a(encodings[i]) & kMask, encodings[i]);
    EXPECT_FALSE(again.inserted);
    EXPECT_FALSE(again.collided);
    EXPECT_EQ(again.index, index[i]) << "encoding " << i;
  }
  EXPECT_EQ(seen.hits(), encodings.size());
  EXPECT_EQ(seen.size(), encodings.size());
  EXPECT_EQ(seen.collisions(), collisions);
  EXPECT_EQ(seen.bytesRetained(), bytes);
}

TEST(CollisionSafety, MaskedFingerprintsDoNotMergeStates) {
  // Regression for the historical bug: dedup on the bare 64-bit fingerprint
  // merged any two states that collided. Coarsening the fingerprint to 8
  // bits forces constant collisions; byte verification must keep every
  // state distinct, so all counts match the full-fingerprint run exactly.
  ExploreLimits limits = quick();
  const auto full = explorePath(K::openSlot, K::holdSlot, 0, limits);
  EXPECT_EQ(full.stats.collisions, 0u);
  limits.fingerprint_mask = 0xFF;
  const auto masked = explorePath(K::openSlot, K::holdSlot, 0, limits);
  EXPECT_GT(masked.stats.collisions, 0u);
  EXPECT_EQ(masked.states(), full.states());
  EXPECT_EQ(masked.transitions, full.transitions);
  EXPECT_EQ(masked.stats.terminals, full.stats.terminals);
  EXPECT_EQ(quiescentObservables(masked), quiescentObservables(full));
}

TEST(CollisionSafety, MaskedVerdictsMatchUnmasked) {
  ExploreLimits limits = quick();
  limits.fingerprint_mask = 0xFF;
  for (const auto& config : paperVerificationSuite()) {
    if (config.flowlinks > 0) continue;  // keep this test fast
    auto outcome = verifyPath(config, limits);
    EXPECT_TRUE(outcome.ok()) << outcome.failure;
    EXPECT_GT(outcome.stats.collisions, 0u);
  }
}

// ------------------------------------------------------- explorer metrics

TEST(ExploreStatsTest, CountersAreCoherent) {
  auto graph = explorePath(K::openSlot, K::holdSlot, 0, quick());
  const ExploreStats& stats = graph.stats;
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.states, graph.states());
  EXPECT_EQ(stats.transitions, graph.transitions);
  EXPECT_EQ(stats.bytes_retained, graph.bytes_canonical);
  EXPECT_GT(stats.frontier_depth, 0u);
  EXPECT_GT(stats.peak_frontier, 0u);
  EXPECT_GE(stats.dedupRatio(), 0.0);
  EXPECT_LE(stats.dedupRatio(), 1.0);
  // Every recorded non-stutter edge either discovered a state or hit the
  // dedup set; stutters account for the terminals.
  EXPECT_EQ(stats.dedup_hits + stats.states + stats.terminals,
            stats.transitions + 1)  // +1: the initial state is not an edge
      << "edge accounting broke";
  EXPECT_FALSE(stats.truncated);
}

TEST(ExploreStatsTest, SnapshotCarriesEveryCounter) {
  // A coarse mask forces collisions, so that counter is not 0 by luck.
  ExploreLimits limits = quick();
  limits.fingerprint_mask = 0xFF;
  const ExploreStats stats =
      explorePath(K::openSlot, K::holdSlot, 0, limits).stats;
  ASSERT_GT(stats.collisions, 0u);
  const obs::MetricsSnapshot snap = stats.snapshot();
  auto us = [](double s) { return static_cast<std::uint64_t>(s * 1e6 + 0.5); };
  const std::map<std::string, std::uint64_t> counters = {
      {"mc.states", stats.states},
      {"mc.transitions", stats.transitions},
      {"mc.terminals", stats.terminals},
      {"mc.dedup_hits", stats.dedup_hits},
      {"mc.collisions", stats.collisions},
      {"mc.bytes_retained", stats.bytes_retained},
      {"mc.frontier_depth", stats.frontier_depth},
      {"mc.truncated", 0},
      {"mc.expand_us", us(stats.expand_seconds)},
      {"mc.merge_us", us(stats.merge_seconds)},
      {"mc.explore_us", us(stats.seconds)},
  };
  EXPECT_EQ(snap.counters, counters);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges.at("mc.threads").value, 1);
  EXPECT_EQ(snap.gauges.at("mc.peak_frontier").value,
            static_cast<std::int64_t>(stats.peak_frontier));
  EXPECT_EQ(snap.gauges.at("mc.peak_frontier").max,
            static_cast<std::int64_t>(stats.peak_frontier));
  EXPECT_TRUE(snap.histograms.empty());

  // One JSON object with exactly the registry's three keys, in the order
  // MetricsSnapshot::json writes them.
  const std::string json = snap.json();
  EXPECT_EQ(json.rfind("{\"counters\":{\"mc.bytes_retained\":", 0), 0u);
  EXPECT_NE(json.find("},\"gauges\":{\"mc.peak_frontier\":{\"value\":"),
            std::string::npos);
  EXPECT_TRUE(json.ends_with("},\"histograms\":{}}")) << json;
  EXPECT_NE(json.find("\"mc.states\":" + std::to_string(stats.states) + ","),
            std::string::npos);
  EXPECT_NE(json.find("\"mc.truncated\":0},\"gauges\":"), std::string::npos);
}

TEST(Explore, TraceReconstructsFromInit) {
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::openSlot, K::holdSlot, 0, limits);
  ASSERT_GT(graph.states(), 1u);
  auto trace = graph.traceTo(static_cast<std::uint32_t>(graph.states() - 1));
  EXPECT_FALSE(trace.empty());
}

TEST(Explore, FlowlinkBlowupIsMultiplicative) {
  // The paper reports that adding one flowlink multiplies memory ~300x and
  // time ~1000x. Reproduce the shape: a large multiplicative state-space
  // growth per flowlink.
  auto flat = explorePath(K::openSlot, K::openSlot, 0, quick());
  auto linked = explorePath(K::openSlot, K::openSlot, 1, quick());
  EXPECT_GT(linked.states(), flat.states() * 10);
  EXPECT_GT(linked.transitions, flat.transitions * 10);
}

// ------------------------------------------------------ spec assignments

TEST(Specs, PaperAssignment) {
  EXPECT_EQ(specFor(K::closeSlot, K::closeSlot), PathSpec::eventuallyBothClosed);
  EXPECT_EQ(specFor(K::closeSlot, K::holdSlot), PathSpec::eventuallyBothClosed);
  EXPECT_EQ(specFor(K::holdSlot, K::closeSlot), PathSpec::eventuallyBothClosed);
  EXPECT_EQ(specFor(K::closeSlot, K::openSlot), PathSpec::neverBothFlowing);
  EXPECT_EQ(specFor(K::openSlot, K::openSlot), PathSpec::recurrentlyBothFlowing);
  EXPECT_EQ(specFor(K::openSlot, K::holdSlot), PathSpec::recurrentlyBothFlowing);
  EXPECT_EQ(specFor(K::holdSlot, K::holdSlot), PathSpec::closedOrFlowing);
}

TEST(Specs, SuiteHasTwelveModels) {
  auto suite = paperVerificationSuite();
  ASSERT_EQ(suite.size(), 12u);
  std::size_t with_link = 0;
  for (const auto& c : suite) with_link += c.flowlinks;
  EXPECT_EQ(with_link, 6u);
}

// ------------------------------------------- verification (small budgets)

class VerifySuite : public ::testing::TestWithParam<int> {};

TEST_P(VerifySuite, ModelSatisfiesSafetyAndSpec) {
  const auto suite = paperVerificationSuite();
  const auto config = suite[static_cast<std::size_t>(GetParam())];
  auto outcome = verifyPath(config, quick());
  EXPECT_TRUE(outcome.safety_ok) << outcome.failure;
  EXPECT_TRUE(outcome.spec_ok) << outcome.failure;
  EXPECT_FALSE(outcome.stats.truncated);
  EXPECT_GT(outcome.stats.states, 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperModels, VerifySuite, ::testing::Range(0, 12));

TEST(VerifyWithPerturbations, OpenOpenSurvivesModifies) {
  ExploreLimits limits = quick();
  limits.modify_budget = 1;
  auto outcome = verifyPath({K::openSlot, K::openSlot, 0}, limits);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
}

TEST(VerifyWithPerturbations, HoldHoldSurvivesModifies) {
  ExploreLimits limits = quick();
  limits.modify_budget = 1;
  auto outcome = verifyPath({K::holdSlot, K::holdSlot, 0}, limits);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
}

// --------------------------------------------------------- negative tests
// The checker must be able to FIND violations; check wrong specs against
// correct systems.

TEST(NegativeChecks, OpenOpenViolatesBothClosedStability) {
  auto graph = explorePath(K::openSlot, K::openSlot, 0, quick());
  // An open/open path converges to flowing, so <>[] bothClosed must fail.
  auto violation = checkSpec(graph, PathSpec::eventuallyBothClosed);
  ASSERT_TRUE(violation.has_value());
  EXPECT_FALSE(graph.traceTo(violation->witness_state).empty());
}

TEST(NegativeChecks, OpenOpenViolatesNeverBothFlowing) {
  auto graph = explorePath(K::openSlot, K::openSlot, 0, quick());
  EXPECT_TRUE(checkSpec(graph, PathSpec::neverBothFlowing).has_value());
}

TEST(NegativeChecks, CloseCloseViolatesRecurrentFlowing) {
  auto graph = explorePath(K::closeSlot, K::closeSlot, 0, quick());
  EXPECT_TRUE(checkSpec(graph, PathSpec::recurrentlyBothFlowing).has_value());
}

TEST(NegativeChecks, CloseOpenSatisfiesDisjunctionVacuouslyFails) {
  // close/open livelocks outside bothClosed and never reaches bothFlowing:
  // the hold/hold disjunction must FAIL on it (the openslot retry cycle is
  // not bothClosed at every state and never bothFlowing).
  auto graph = explorePath(K::closeSlot, K::openSlot, 0, quick());
  EXPECT_TRUE(checkSpec(graph, PathSpec::closedOrFlowing).has_value());
}

// ------------------------------------------- canonical bytes decode back

// The initial system explorePath builds for these limits.
PathSystem initialSystem(K left, K right, std::size_t flowlinks,
                         const ExploreLimits& limits) {
  PathSystem initial(PathSystem::makeGoal(left, PathEnd::left),
                     PathSystem::makeGoal(right, PathEnd::right), flowlinks,
                     limits.defer_attach);
  initial.setChaosBudget(limits.defer_attach ? limits.chaos_budget : 0);
  initial.setModifyBudget(limits.modify_budget);
  if (limits.fault_budget > 0) {
    initial.setFaultBudget(limits.fault_budget);
    initial.enableStabilization(true);
  }
  return initial;
}

// Visits every state reachable from `initial` once, in BFS order, with the
// system that reached it and that system's canonical bytes; returns the
// number of states. Unlike the explorer it keeps each level's systems as
// they were built, never decoded, so the two can be compared.
template <typename Visit>
std::size_t walkStates(const PathSystem& initial, Visit&& visit) {
  SeenSet seen(/*max_states=*/4'000'000);
  std::vector<PathSystem> level{initial};
  std::vector<PathSystem> next;
  std::vector<PathAction> actions;
  PathSystem successor = initial;
  ByteWriter bytes;
  initial.canonicalize(bytes);
  (void)seen.insert(stateHash(bytes.bytes()), bytes.bytes());
  while (!level.empty()) {
    for (const PathSystem& state : level) {
      bytes.clear();
      state.canonicalize(bytes);
      visit(state, bytes.bytes());
      state.enabledActions(actions);
      for (const PathAction& action : actions) {
        successor = state;
        successor.apply(action);
        bytes.clear();
        successor.canonicalize(bytes);
        if (seen.insert(stateHash(bytes.bytes()), bytes.bytes()).inserted) {
          next.push_back(successor);
        }
      }
    }
    level.swap(next);
    next.clear();
  }
  return seen.size();
}

struct DecodeModel {
  K left;
  K right;
  std::size_t flowlinks;
  std::uint32_t fault_budget;
};

class DecodeRoundTrip : public ::testing::TestWithParam<DecodeModel> {};

TEST_P(DecodeRoundTrip, EveryStateReencodesToItsOwnBytes) {
  const DecodeModel m = GetParam();
  // The paper's models at this file's budget, the 2-flowlink models at the
  // transparency test's (no chaos, one modify), and the paper's models at
  // the fault column's (two faults, stabilizing slots, no chaos or modify).
  ExploreLimits limits = quick();
  if (m.flowlinks == 2) {
    limits.chaos_budget = 0;
    limits.modify_budget = 1;
  }
  if (m.fault_budget > 0) {
    limits.chaos_budget = 0;
    limits.fault_budget = m.fault_budget;
  }
  const PathSystem initial = initialSystem(m.left, m.right, m.flowlinks, limits);
  PathSystem decoded = initial;
  ByteWriter again;
  std::size_t mismatches = 0;
  const std::size_t states = walkStates(
      initial, [&](const PathSystem&, std::span<const std::uint8_t> bytes) {
        ByteReader reader(bytes);
        again.clear();
        if (decoded.decode(reader) && reader.atEnd()) decoded.canonicalize(again);
        const std::span<const std::uint8_t> out = again.bytes();
        if (!std::equal(out.begin(), out.end(), bytes.begin(), bytes.end()) &&
            ++mismatches == 1) {
          ADD_FAILURE() << "first state whose bytes do not decode back";
        }
      });
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(states, explorePath(m.left, m.right, m.flowlinks, limits).states());
}

std::vector<DecodeModel> decodeModels() {
  std::vector<DecodeModel> models;
  for (const VerificationCase& c : paperVerificationSuite()) {
    models.push_back({c.left, c.right, c.flowlinks, 0});
  }
  for (const VerificationCase& c : paperVerificationSuite()) {
    if (c.flowlinks == 0) models.push_back({c.left, c.right, 2, 0});
  }
  for (const VerificationCase& c : paperVerificationSuite()) {
    models.push_back({c.left, c.right, c.flowlinks, 2});
  }
  return models;
}

INSTANTIATE_TEST_SUITE_P(
    PathModels, DecodeRoundTrip,
    ::testing::ValuesIn(decodeModels()),
    [](const ::testing::TestParamInfo<DecodeModel>& info) {
      return std::string(toString(info.param.left)) + "_" +
             std::string(toString(info.param.right)) + "_links" +
             std::to_string(info.param.flowlinks) +
             (info.param.fault_budget > 0
                  ? "_faults" + std::to_string(info.param.fault_budget)
                  : "");
    });

// Every field of StateBits, packed, so two records compare whole.
std::uint32_t packed(const StateBits& b) {
  return b.observable() | (std::uint32_t{b.bothClosed} << 9) |
         (std::uint32_t{b.quiescent} << 10) |
         (std::uint32_t{b.allAttached} << 11) |
         (std::uint32_t{b.slotsStable} << 12) |
         (std::uint32_t{b.terminal} << 13) | (std::uint32_t{b.expanded} << 14);
}

// The self-descriptor an endpoint goal has minted, which its canonical
// bytes carry by id only.
std::optional<Descriptor> mintedDescriptor(const EndpointGoal& goal) {
  if (const auto* open = std::get_if<OpenSlotGoal>(&goal)) {
    return open->mintedDescriptor();
  }
  if (const auto* hold = std::get_if<HoldSlotGoal>(&goal)) {
    return hold->mintedDescriptor();
  }
  return std::nullopt;
}

TEST(DecodedSystem, BehavesAsTheSystemThatEncodedIt) {
  // Byte equality alone would miss state the encoding leaves out (the
  // content of a goal's self-descriptor, a flowlink's slot pairing, the
  // slots' stabilizing flags): here a system decoded from each state's
  // bytes must enable the same actions, reach successors with the same
  // bytes, and show the same predicate bits as the system that produced
  // them. The model is the perfbench explore_1t one.
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  const PathSystem initial = initialSystem(K::closeSlot, K::openSlot, 1, limits);
  PathSystem decoded = initial;
  PathSystem from_original = initial;
  PathSystem from_decoded = initial;
  std::vector<PathAction> original_actions;
  std::vector<PathAction> decoded_actions;
  ByteWriter original_bytes;
  ByteWriter decoded_bytes;
  std::size_t diverged = 0;
  auto report = [&diverged](const char* what) {
    if (++diverged <= 5) ADD_FAILURE() << what;
  };
  const std::size_t states = walkStates(
      initial, [&](const PathSystem& state, std::span<const std::uint8_t> bytes) {
        ByteReader reader(bytes);
        if (!decoded.decode(reader) || !reader.atEnd()) {
          report("a state's bytes do not decode");
          return;
        }
        for (PathEnd end : {PathEnd::left, PathEnd::right}) {
          if (mintedDescriptor(state.endpointGoal(end)) !=
              mintedDescriptor(decoded.endpointGoal(end))) {
            report("a rebuilt self-descriptor differs");
          }
        }
        state.enabledActions(original_actions);
        decoded.enabledActions(decoded_actions);
        if (original_actions != decoded_actions) {
          report("enabled actions differ");
          return;
        }
        const bool terminal = original_actions.empty();
        if (packed(bitsOf(state, terminal)) != packed(bitsOf(decoded, terminal))) {
          report("state bits differ");
        }
        for (const PathAction& action : original_actions) {
          from_original = state;
          from_original.apply(action);
          from_decoded = decoded;
          from_decoded.apply(action);
          original_bytes.clear();
          from_original.canonicalize(original_bytes);
          decoded_bytes.clear();
          from_decoded.canonicalize(decoded_bytes);
          const auto a = original_bytes.bytes();
          const auto b = decoded_bytes.bytes();
          if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
            report(("successor bytes differ after " + action.toString()).c_str());
          }
        }
      });
  EXPECT_EQ(states, 114'132u);
  EXPECT_EQ(diverged, 0u);
}

TEST(SeenSetArena, ReturnedBytesStayPutAcrossGrowth) {
  // The explorer's frontier is the views insert returns, read a BFS level
  // after they were handed out: they must survive index growth and later
  // chunks, and a hit returns the first copy's view.
  SeenSet seen(/*max_states=*/100'000);
  std::vector<std::vector<std::uint8_t>> encodings;
  std::vector<std::span<const std::uint8_t>> views;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    std::vector<std::uint8_t>& e = encodings.emplace_back(4 + i % 13, 0x5A);
    for (int b = 0; b < 4; ++b) e[b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  for (const auto& e : encodings) {
    const SeenSet::Outcome got = seen.insert(fnv1a(e) & 0xFF, e);
    ASSERT_TRUE(got.inserted);
    ASSERT_NE(got.bytes.data(), e.data());
    views.push_back(got.bytes);
  }
  for (std::size_t i = 0; i < encodings.size(); ++i) {
    const auto& e = encodings[i];
    ASSERT_TRUE(std::equal(views[i].begin(), views[i].end(), e.begin(), e.end()))
        << "encoding " << i;
    const SeenSet::Outcome again = seen.insert(fnv1a(e) & 0xFF, e);
    EXPECT_EQ(again.bytes.data(), views[i].data());
    EXPECT_EQ(again.bytes.size(), e.size());
  }
}

// ----------------------------------------------------- temporal primitives

TEST(TemporalPrimitives, SelfLoopCountsAsCycle) {
  // Build a minimal graph by exploring the trivial close/close system and
  // checking that its terminal (bothClosed) self-loop satisfies <>[]
  // bothClosed but violates []<> bothFlowing.
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::closeSlot, K::closeSlot, 0, limits);
  EXPECT_FALSE(checkEventuallyAlways(
                   graph, [](const StateBits& b) { return b.bothClosed; })
                   .has_value());
  EXPECT_TRUE(checkAlwaysEventually(
                  graph, [](const StateBits& b) { return b.bothFlowing; })
                  .has_value());
}

TEST(TemporalPrimitives, SafetyHoldsOnAllPaperModels) {
  for (const auto& config : paperVerificationSuite()) {
    if (config.flowlinks > 0) continue;  // keep this test fast
    auto graph = explorePath(config.left, config.right, 0, quick());
    EXPECT_FALSE(checkSafety(graph).has_value())
        << toString(config.left) << "/" << toString(config.right);
  }
}

}  // namespace
}  // namespace cmc
