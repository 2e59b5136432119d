#include "mc/verification.hpp"

#include <sstream>

namespace cmc {

std::string_view toString(PathSpec spec) noexcept {
  switch (spec) {
    case PathSpec::eventuallyBothClosed: return "<>[] bothClosed";
    case PathSpec::neverBothFlowing: return "<>[] !bothFlowing";
    case PathSpec::recurrentlyBothFlowing: return "[]<> bothFlowing";
    case PathSpec::closedOrFlowing: return "<>[] bothClosed \\/ []<> bothFlowing";
  }
  return "?spec";
}

PathSpec specFor(GoalKind left, GoalKind right) noexcept {
  auto has = [&](GoalKind k) { return left == k || right == k; };
  if (has(GoalKind::closeSlot)) {
    // closeSlot present: if the other end is an openslot the path never
    // settles (the openslot keeps retrying), but media never flows; any
    // other partner lets the path rest in bothClosed.
    return has(GoalKind::openSlot) ? PathSpec::neverBothFlowing
                                   : PathSpec::eventuallyBothClosed;
  }
  if (has(GoalKind::openSlot)) return PathSpec::recurrentlyBothFlowing;
  return PathSpec::closedOrFlowing;  // holdSlot at both ends
}

std::vector<VerificationCase> paperVerificationSuite() {
  using K = GoalKind;
  const std::pair<K, K> types[] = {
      {K::closeSlot, K::closeSlot}, {K::closeSlot, K::holdSlot},
      {K::closeSlot, K::openSlot},  {K::openSlot, K::openSlot},
      {K::openSlot, K::holdSlot},   {K::holdSlot, K::holdSlot},
  };
  std::vector<VerificationCase> cases;
  for (std::size_t flowlinks : {std::size_t{0}, std::size_t{1}}) {
    for (auto [l, r] : types) cases.push_back(VerificationCase{l, r, flowlinks});
  }
  return cases;
}

std::optional<TemporalViolation> checkSpec(const ExploreResult& graph,
                                           PathSpec spec) {
  const StatePredicate both_closed = [](const StateBits& b) {
    return b.bothClosed;
  };
  const StatePredicate both_flowing = [](const StateBits& b) {
    return b.bothFlowing;
  };
  const StatePredicate not_both_flowing = [](const StateBits& b) {
    return !b.bothFlowing;
  };
  switch (spec) {
    case PathSpec::eventuallyBothClosed:
      return checkEventuallyAlways(graph, both_closed);
    case PathSpec::neverBothFlowing:
      return checkEventuallyAlways(graph, not_both_flowing);
    case PathSpec::recurrentlyBothFlowing:
      return checkAlwaysEventually(graph, both_flowing);
    case PathSpec::closedOrFlowing:
      return checkStableOrRecurrent(graph, both_closed, both_flowing);
  }
  return std::nullopt;
}

VerificationOutcome verifyPath(const VerificationCase& config,
                               const ExploreLimits& limits) {
  VerificationOutcome outcome;
  outcome.config = config;
  outcome.spec = specFor(config.left, config.right);

  const ExploreResult graph =
      explorePath(config.left, config.right, config.flowlinks, limits);
  outcome.stats = graph.stats;

  // Under fault injection quiescent-but-unstable transients are expected
  // while a repair is pending; only terminal states must be stable.
  const auto safety = limits.fault_budget > 0 ? checkSafetyTerminal(graph)
                                              : checkSafety(graph);
  if (auto violation = safety) {
    outcome.safety_ok = false;
    std::ostringstream oss;
    oss << "safety: " << violation->description << " at state "
        << violation->witness_state << "; trace:";
    for (const auto& step : graph.traceTo(violation->witness_state)) {
      oss << ' ' << step;
    }
    outcome.failure = oss.str();
  } else {
    outcome.safety_ok = true;
  }

  if (auto violation = checkSpec(graph, outcome.spec)) {
    outcome.spec_ok = false;
    if (outcome.failure.empty()) {
      std::ostringstream oss;
      oss << "spec " << toString(outcome.spec) << ": " << violation->description
          << " at state " << violation->witness_state << "; trace:";
      for (const auto& step : graph.traceTo(violation->witness_state)) {
        oss << ' ' << step;
      }
      outcome.failure = oss.str();
    }
  } else {
    outcome.spec_ok = true;
  }
  return outcome;
}

}  // namespace cmc
