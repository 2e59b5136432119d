// Property tests: random interleavings of path actions must always drain to
// the path type's specified goal state (the testable core of the paper's
// Section V semantics), regardless of scheduling, chaos prefixes, or user
// mute perturbations along the way.
//
// Strategy per case: perform a bounded random walk over the enabled
// actions (deliveries, attaches, chaos sends, retries, mute modifies), then
// drain deterministically (deliver everything; fire pending retries a few
// rounds) and check the end state. This complements the exhaustive model
// checker with longer, deeper runs than its budgets allow.
#include <gtest/gtest.h>

#include "core/path.hpp"
#include "util/rng.hpp"

namespace cmc {
namespace {

using K = GoalKind;

struct PropertyCase {
  K left;
  K right;
  std::size_t flowlinks;
  std::uint64_t seed;
};

class PathRandomWalk : public ::testing::TestWithParam<PropertyCase> {
 protected:
  // Deterministic drain: deliver everything; fire retries between rounds so
  // recurrent paths can converge. Rounds are bounded: a close/open path
  // never stops retrying, and must still be quiescent between rounds.
  static void drain(PathSystem& path, int retry_rounds = 6) {
    path.run();
    for (int round = 0; round < retry_rounds; ++round) {
      path.fireRetry(PathEnd::left);
      path.fireRetry(PathEnd::right);
      path.run();
    }
  }
};

TEST_P(PathRandomWalk, RandomInterleavingDrainsToSpecifiedState) {
  const PropertyCase param = GetParam();
  PathSystem path(PathSystem::makeGoal(param.left, PathEnd::left),
                  PathSystem::makeGoal(param.right, PathEnd::right),
                  param.flowlinks, /*defer_attach=*/true);
  path.setChaosBudget(2);
  path.setModifyBudget(2);
  Rng rng(param.seed);

  // Random walk: up to 400 random actions (attaches included, so the walk
  // ends with goals engaged with overwhelming probability; force-attach
  // afterwards regardless).
  std::vector<PathAction> actions;
  for (int step = 0; step < 400; ++step) {
    path.enabledActions(actions);
    if (actions.empty()) break;
    path.apply(actions[rng.below(actions.size())]);
  }
  for (std::uint32_t p = 0; p < path.partyCount(); ++p) {
    if (!path.partyAttached(p)) {
      PathAction attach;
      attach.kind = PathAction::Kind::attach;
      attach.party = p;
      path.apply(attach);
    }
  }
  // Restore unmuted intents at both ends so bothFlowing is reachable, then
  // drain.
  drain(path);
  path.setMute(PathEnd::left, false, false);
  path.setMute(PathEnd::right, false, false);
  drain(path);

  ASSERT_TRUE(path.quiescent());
  const bool has_close = param.left == K::closeSlot || param.right == K::closeSlot;
  const bool has_open = param.left == K::openSlot || param.right == K::openSlot;
  if (has_close) {
    EXPECT_TRUE(path.bothClosed()) << "close end must win";
    EXPECT_FALSE(path.bothFlowing());
  } else if (has_open) {
    EXPECT_TRUE(path.bothFlowing())
        << "open/hold paths must recur to bothFlowing";
    EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
    EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
  } else {
    // hold/hold: either rest state is acceptable, but it must be one of
    // them, cleanly.
    EXPECT_TRUE(path.bothClosed() || path.bothFlowing());
  }
  // Safety shape: every endpoint slot closed or flowing.
  for (PathEnd end : {PathEnd::left, PathEnd::right}) {
    const auto state = path.endpointSlot(end).state();
    EXPECT_TRUE(state == ProtocolState::closed || state == ProtocolState::flowing);
  }
}

std::vector<PropertyCase> makeCases() {
  std::vector<PropertyCase> cases;
  const std::pair<K, K> types[] = {
      {K::closeSlot, K::closeSlot}, {K::closeSlot, K::holdSlot},
      {K::closeSlot, K::openSlot},  {K::openSlot, K::openSlot},
      {K::openSlot, K::holdSlot},   {K::holdSlot, K::holdSlot},
  };
  for (auto [l, r] : types) {
    for (std::size_t flowlinks : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        cases.push_back(PropertyCase{l, r, flowlinks, seed * 7919});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomWalks, PathRandomWalk, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      const auto& p = info.param;
      return std::string(toString(p.left)) + "_" + std::string(toString(p.right)) +
             "_links" + std::to_string(p.flowlinks) + "_seed" +
             std::to_string(p.seed);
    });

}  // namespace
}  // namespace cmc
