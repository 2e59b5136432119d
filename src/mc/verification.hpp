// The paper's verification campaign (Section VIII-A), reproduced.
//
// Twelve models: the six path types (combinations of closeSlot, openSlot,
// holdSlot at the two ends, up to symmetry) with zero flowlinks, and the
// same six with one flowlink. Each model is checked for safety and for its
// Section V specification:
//
//   close/close, close/hold : ◇□ bothClosed
//   close/open               : ◇□ ¬bothFlowing
//   open/open, open/hold     : □◇ bothFlowing
//   hold/hold                : ◇□ bothClosed ∨ □◇ bothFlowing
//
// Every model starts with chaotic initial phases per goal object, so the
// goals begin their real work in all reachable initial states of the slots
// and tunnels.
#pragma once

#include <string>
#include <vector>

#include "mc/temporal.hpp"

namespace cmc {

enum class PathSpec {
  eventuallyBothClosed,      // ◇□ bothClosed
  neverBothFlowing,          // ◇□ ¬bothFlowing
  recurrentlyBothFlowing,    // □◇ bothFlowing
  closedOrFlowing,           // ◇□ bothClosed ∨ □◇ bothFlowing
};

[[nodiscard]] std::string_view toString(PathSpec spec) noexcept;

// The Section V specification for a pair of endpoint goals.
[[nodiscard]] PathSpec specFor(GoalKind left, GoalKind right) noexcept;

struct VerificationCase {
  GoalKind left;
  GoalKind right;
  std::size_t flowlinks;
};

// The paper's 12 models.
[[nodiscard]] std::vector<VerificationCase> paperVerificationSuite();

struct VerificationOutcome {
  VerificationCase config{};
  PathSpec spec{};
  bool safety_ok = false;
  bool spec_ok = false;
  ExploreStats stats;        // the exploration's counters and timings
  std::string failure;       // first counterexample summary, if any

  [[nodiscard]] bool ok() const noexcept {
    return safety_ok && spec_ok && !stats.truncated;
  }
};

// Explore and check one configuration.
[[nodiscard]] VerificationOutcome verifyPath(const VerificationCase& config,
                                             const ExploreLimits& limits = {});

// Check a spec against an already-explored graph.
[[nodiscard]] std::optional<TemporalViolation> checkSpec(
    const ExploreResult& graph, PathSpec spec);

}  // namespace cmc
