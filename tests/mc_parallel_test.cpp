// Parallel explorer tests: thread-count equivalence over the paper's 12
// models (identical state/transition/terminal counts and verification
// verdicts at 1, 2, and 8 workers), determinism of the sequential fallback,
// and coherence of ExploreStats under concurrency. These are the tests the
// ThreadSanitizer preset (cmake --preset tsan) is meant to exercise.
#include <gtest/gtest.h>

#include <string>

#include "mc/verification.hpp"
#include "util/bytes.hpp"

namespace cmc {
namespace {

using K = GoalKind;

// Deterministic digest of a sequentially-explored graph: folds every
// state's observable bits, parent index, and parent action label ("<init>"
// for state 0, which has no parent action), then the edge totals. Only
// meaningful at threads==1, where state order is part of the explorer's
// contract.
std::uint64_t graphFingerprint(const ExploreResult& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < g.bits.size(); ++i) {
    mix(g.bits[i].observable());
    mix(g.parent[i]);
    const std::string a = i == 0 ? "<init>" : g.parent_action[i].toString();
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(a.data()), a.size(), h);
  }
  mix(g.transitions);
  mix(g.stats.terminals);
  return h;
}

ExploreLimits base() {
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 0;
  limits.max_states = 2'000'000;
  return limits;
}

// ------------------------------------ equivalence across thread counts

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, CountsAndVerdictsMatchAcrossThreadCounts) {
  const auto suite = paperVerificationSuite();
  const auto config = suite[static_cast<std::size_t>(GetParam())];
  const PathSpec spec = specFor(config.left, config.right);

  ExploreLimits limits = base();
  limits.threads = 1;
  const auto baseline =
      explorePath(config.left, config.right, config.flowlinks, limits);
  ASSERT_FALSE(baseline.truncated);
  const bool base_safety = !checkSafety(baseline).has_value();
  const bool base_spec = !checkSpec(baseline, spec).has_value();

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    limits.threads = threads;
    const auto graph =
        explorePath(config.left, config.right, config.flowlinks, limits);
    EXPECT_FALSE(graph.truncated) << threads << " threads";
    EXPECT_EQ(graph.states(), baseline.states()) << threads << " threads";
    EXPECT_EQ(graph.transitions, baseline.transitions) << threads << " threads";
    EXPECT_EQ(graph.stats.terminals, baseline.stats.terminals)
        << threads << " threads";
    EXPECT_EQ(!checkSafety(graph).has_value(), base_safety)
        << threads << " threads";
    EXPECT_EQ(!checkSpec(graph, spec).has_value(), base_spec)
        << threads << " threads";
    EXPECT_EQ(quiescentObservables(graph), quiescentObservables(baseline))
        << threads << " threads";
    EXPECT_EQ(graph.stats.threads, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperModels, ParallelEquivalence,
                         ::testing::Range(0, 12));

// ------------------------------------------------- sequential determinism

TEST(ParallelExplore, SingleThreadIsFullyDeterministic) {
  // threads == 1 must preserve the historical explorer's reproducibility:
  // not just counts, but state order, parents, and action labels — the
  // basis of stable counterexample traces.
  ExploreLimits limits = base();
  limits.threads = 1;
  const auto a = explorePath(K::openSlot, K::holdSlot, 0, limits);
  const auto b = explorePath(K::openSlot, K::holdSlot, 0, limits);
  ASSERT_EQ(a.states(), b.states());
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.parent_action, b.parent_action);
  EXPECT_EQ(a.edge_offsets, b.edge_offsets);
  EXPECT_EQ(a.edge_targets, b.edge_targets);
}

// ----------------------------------------------- stats under concurrency

TEST(ParallelExplore, StatsStayCoherentUnderThreads) {
  ExploreLimits limits = base();
  limits.threads = 4;
  const auto graph = explorePath(K::openSlot, K::openSlot, 0, limits);
  const ExploreStats& stats = graph.stats;
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.states, graph.states());
  EXPECT_EQ(stats.transitions, graph.transitions);
  EXPECT_GT(stats.bytes_retained, 0u);
  EXPECT_GT(stats.frontier_depth, 0u);
  EXPECT_GE(stats.peak_frontier, 1u);
  EXPECT_GE(stats.dedupRatio(), 0.0);
  EXPECT_LE(stats.dedupRatio(), 1.0);
  // The non-stutter edge accounting must close exactly even with parallel
  // insertion: every edge found a new state or hit the dedup set.
  EXPECT_EQ(stats.dedup_hits + stats.states + stats.terminals,
            stats.transitions + 1);
}

TEST(ParallelExplore, CollisionSafetyHoldsUnderThreads) {
  // Coarse fingerprints force constant collisions while 8 workers insert
  // concurrently; byte verification must still keep every state distinct.
  ExploreLimits limits = base();
  const auto full = explorePath(K::openSlot, K::holdSlot, 0, limits);
  limits.threads = 8;
  limits.fingerprint_mask = 0xFF;
  const auto masked = explorePath(K::openSlot, K::holdSlot, 0, limits);
  EXPECT_GT(masked.stats.collisions, 0u);
  EXPECT_EQ(masked.states(), full.states());
  EXPECT_EQ(masked.transitions, full.transitions);
  EXPECT_EQ(masked.stats.terminals, full.stats.terminals);
}

TEST(ParallelExplore, TruncationIsExactUnderThreads) {
  // The budget is enforced by a single atomic allocator, so even 8 racing
  // workers can never overshoot max_states.
  ExploreLimits limits = base();
  limits.threads = 8;
  limits.max_states = 500;
  const auto graph = explorePath(K::openSlot, K::openSlot, 1, limits);
  EXPECT_TRUE(graph.truncated);
  EXPECT_EQ(graph.states(), 500u);
}

// ------------------------------------------- behavior-transparency pins
//
// Recorded reference values for fixed seeds/limits. These pin the explorer's
// exact output — not just counts but the full state graph digest — so a
// refactor of any layer underneath (descriptor storage, event delivery,
// signal encoding) that perturbs behavior in the slightest shows up as a
// failed pin rather than a silently different model. Values recorded at the
// introduction of the interned-descriptor/pooled-event-loop memory model;
// they must never change without an intentional semantics change.

TEST(ExplorerPins, SmallModelsMatchRecordedFingerprints) {
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 0;
  limits.threads = 1;

  const auto hold = explorePath(K::openSlot, K::holdSlot, 0, limits);
  EXPECT_EQ(hold.states(), 326u);
  EXPECT_EQ(hold.transitions, 638u);
  EXPECT_EQ(graphFingerprint(hold), 0x1f09078d2397bfc4ULL);

  const auto linked = explorePath(K::openSlot, K::openSlot, 1, limits);
  EXPECT_EQ(linked.states(), 13660u);
  EXPECT_EQ(linked.transitions, 37151u);
  EXPECT_EQ(graphFingerprint(linked), 0x4eb9667e21b254f1ULL);
}

TEST(ExplorerPins, ReferenceModelMatchesRecordedFingerprint) {
  // The paper's openSlot+openSlot flat model with a modify budget — the
  // mid-size reference (13k states) explored sequentially for a full-graph
  // digest.
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  limits.max_states = 4'000'000;
  limits.threads = 1;
  const auto flat = explorePath(K::openSlot, K::openSlot, 0, limits);
  ASSERT_FALSE(flat.truncated);
  EXPECT_EQ(flat.states(), 13470u);
  EXPECT_EQ(flat.transitions, 31607u);
  EXPECT_EQ(flat.stats.terminals, 64u);
  EXPECT_EQ(graphFingerprint(flat), 0x26fcade4cad75678ULL);
}

TEST(ExplorerPins, LargeReferenceModelMatchesRecordedCounts) {
  // The 782k-state flowlinked reference model. Counts are thread-order
  // independent, so explore in parallel for speed; the full-graph digest
  // would require threads==1 (~12s) and is covered above on the flat model.
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  limits.max_states = 4'000'000;
  limits.threads = 8;
  const auto linked = explorePath(K::openSlot, K::openSlot, 1, limits);
  ASSERT_FALSE(linked.truncated);
  EXPECT_EQ(linked.states(), 782915u);
  EXPECT_EQ(linked.transitions, 2320246u);
  EXPECT_EQ(linked.stats.terminals, 128u);
}

}  // namespace
}  // namespace cmc
