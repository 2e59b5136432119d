// Explicit-state exploration of a signaling-path configuration.
//
// The model checked is not a hand-translated abstraction: it is the very
// PathSystem (slot FSMs, goal objects, flowlinks, FIFO channels) that the
// rest of the library runs. Nondeterminism is exactly the set of enabled
// PathActions in each state; the explorer enumerates them all, canonicalizes
// successor states to 64-bit fingerprints, and records the predicate bits
// each temporal property needs. Terminal states (no enabled actions) get a
// virtual self-loop, which encodes stuttering semantics for the temporal
// checks.
//
// This mirrors the paper's Promela/Spin setup (Section VIII-A): chaotic
// initial phases per goal object (PathSystem chaos budgets), a safety check
// (every quiescent fully-attached state has its slots closed or flowing),
// and the Section V path properties.
//
// Dedup is collision-safe: states are keyed by fingerprint but verified by
// full canonical bytes (see seen_set.hpp), so a 64-bit hash collision can
// never merge two distinct states. Expansion is a level-synchronized
// parallel BFS (ExploreLimits::threads workers per level); threads == 1 is
// the deterministic sequential fallback.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/path.hpp"
#include "mc/explore_stats.hpp"

namespace cmc {

// Predicate bits recorded per explored state.
struct StateBits {
  bool bothClosed : 1;
  bool bothFlowing : 1;
  bool quiescent : 1;
  bool allAttached : 1;
  bool slotsStable : 1;  // every slot closed or flowing
  bool terminal : 1;     // no enabled actions
  // Set when the explorer actually expanded the state and filled the bits
  // above. States discovered but never expanded (a run truncated by
  // max_states) keep expanded=false, and no predicate may be read from
  // them: quiescentObservables and the verifiers skip them.
  bool expanded : 1;
  // Endpoint-observable projection (for the transparency check): protocol
  // states of the two path endpoints and their media-enabled flags.
  std::uint8_t left_state : 3;
  std::uint8_t right_state : 3;
  bool media_left : 1;   // left endpoint ready to transmit
  bool media_right : 1;  // right endpoint ready to transmit

  // The endpoint-observable fingerprint of this state. Section V requires
  // that "a path of a given type can have any number of tunnels and
  // flowlinks, as these should be transparent with respect to observable
  // behavior": the set of these values over quiescent states must be the
  // same for every flowlink count.
  [[nodiscard]] std::uint32_t observable() const noexcept {
    return static_cast<std::uint32_t>(left_state) |
           (static_cast<std::uint32_t>(right_state) << 3) |
           (static_cast<std::uint32_t>(media_left) << 6) |
           (static_cast<std::uint32_t>(media_right) << 7) |
           (static_cast<std::uint32_t>(bothFlowing) << 8);
  }
};

// The predicate bits of one state, as the explorer records them when it
// expands the state; `terminal` says whether it has no enabled action.
[[nodiscard]] StateBits bitsOf(const PathSystem& system, bool terminal);

struct ExploreLimits {
  std::size_t max_states = 2'000'000;
  std::uint32_t chaos_budget = 2;
  std::uint32_t modify_budget = 1;
  // Adversarial message-fault budget (drop/duplicate of in-flight signals;
  // docs/FAULTS.md). Non-zero also switches the parties into stabilization
  // mode and relaxes safety to terminal states only (a quiescent state with
  // an in-flight fault being repaired is a legitimate transient).
  std::uint32_t fault_budget = 0;
  bool defer_attach = true;  // chaotic initial phase before goals engage
  // Worker threads for frontier expansion. threads == 1 runs the
  // deterministic sequential path: state indices, parents, and traces are
  // reproducible run-to-run and match the historical single-threaded
  // explorer. threads > 1 keeps state/transition/terminal counts and all
  // verification verdicts identical (the reachable graph is explored
  // exhaustively either way) but assigns indices in nondeterministic order.
  std::size_t threads = 1;
  // Testing hook: fingerprints are masked with this value before dedup, so
  // a coarse mask (e.g. 0xFF) forces hash collisions and exercises the
  // byte-verification path. Production runs leave it all-ones.
  std::uint64_t fingerprint_mask = ~std::uint64_t{0};
};

struct ExploreResult {
  std::vector<StateBits> bits;
  // Adjacency in compressed sparse rows: the successors of state v
  // (terminal self-loops included) are edge_targets[edge_offsets[v] ..
  // edge_offsets[v + 1]). edge_offsets has states() + 1 entries. Read it
  // through successors().
  std::vector<std::uint64_t> edge_offsets{0};
  std::vector<std::uint32_t> edge_targets;
  // Parent pointers for counterexample reconstruction: the action that
  // first reached each state from its parent (state 0 keeps a default
  // action that traceTo never reads).
  std::vector<std::uint32_t> parent;
  std::vector<PathAction> parent_action;
  ExploreStats stats;            // the run's counters and timings
  // Copies of stats.transitions, stats.truncated and stats.bytes_retained,
  // kept only because perfbench/cmc_perfbench.cpp reads them.
  std::size_t transitions = 0;
  bool truncated = false;        // hit max_states
  std::size_t bytes_canonical = 0;

  [[nodiscard]] std::size_t states() const noexcept { return bits.size(); }

  [[nodiscard]] std::span<const std::uint32_t> successors(
      std::uint32_t state) const noexcept {
    return std::span(edge_targets)
        .subspan(edge_offsets[state],
                 edge_offsets[state + 1] - edge_offsets[state]);
  }

  // Path of actions from the initial state to `state`, each rendered with
  // PathAction::toString.
  [[nodiscard]] std::vector<std::string> traceTo(std::uint32_t state) const;
};

// Explore all reachable states of the path configuration with the goals
// named at the two ends and `flowlinks` interior flowlink boxes.
[[nodiscard]] ExploreResult explorePath(GoalKind left, GoalKind right,
                                        std::size_t flowlinks,
                                        const ExploreLimits& limits = {});

// Explore from an explicit initial system (already configured/budgeted).
[[nodiscard]] ExploreResult explore(const PathSystem& initial,
                                    const ExploreLimits& limits = {});

// The set of endpoint-observable fingerprints over quiescent fully-attached
// states — the basis of the Section V transparency check.
[[nodiscard]] std::set<std::uint32_t> quiescentObservables(
    const ExploreResult& graph);

}  // namespace cmc
