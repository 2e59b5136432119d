// Integration tests over whole signaling paths (PathSystem): the six path
// types of paper Section V, transparency of flowlinks, muting end to end,
// and goal replacement mid-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

#include "core/path.hpp"

namespace cmc {
namespace {

using K = GoalKind;

PathSystem makePath(K left, K right, std::size_t flowlinks) {
  return PathSystem(PathSystem::makeGoal(left, PathEnd::left),
                    PathSystem::makeGoal(right, PathEnd::right), flowlinks);
}

// ------------------------------------------------ path types, no flowlinks

TEST(PathTypes, OpenOpenConvergesToBothFlowing) {
  auto path = makePath(K::openSlot, K::openSlot, 0);
  path.run();
  EXPECT_TRUE(path.quiescent());
  EXPECT_TRUE(path.bothFlowing());
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
}

TEST(PathTypes, OpenHoldConvergesToBothFlowing) {
  auto path = makePath(K::openSlot, K::holdSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathTypes, HoldOpenConvergesToBothFlowing) {
  auto path = makePath(K::holdSlot, K::openSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathTypes, CloseCloseStaysBothClosed) {
  auto path = makePath(K::closeSlot, K::closeSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST(PathTypes, CloseHoldStaysBothClosed) {
  auto path = makePath(K::closeSlot, K::holdSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST(PathTypes, HoldHoldStaysBothClosed) {
  // Neither end originates: the path rests in bothClosed (the stability
  // disjunct of the holdSlot/holdSlot specification).
  auto path = makePath(K::holdSlot, K::holdSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST(PathTypes, CloseOpenNeverFlowsAndKeepsRetrying) {
  auto path = makePath(K::closeSlot, K::openSlot, 0);
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  EXPECT_TRUE(path.bothClosed());
  // The openslot wants to retry (and would livelock if fired forever).
  EXPECT_TRUE(retryPending(path.endpointGoal(PathEnd::right)));
  // One retry round: still no flow.
  path.fireRetry(PathEnd::right);
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  EXPECT_TRUE(retryPending(path.endpointGoal(PathEnd::right)));
}

// ------------------------------------------------- path types, 1 flowlink

class PathTypesLinked : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PathTypesLinked, OpenOpenFlowsThroughFlowlinks) {
  auto path = makePath(K::openSlot, K::openSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.quiescent());
  EXPECT_TRUE(path.bothFlowing());
  for (std::size_t i = 0; i < path.flowlinkCount(); ++i) {
    EXPECT_EQ(path.flowlinkSlot(i, Side::A).state(), ProtocolState::flowing);
    EXPECT_EQ(path.flowlinkSlot(i, Side::B).state(), ProtocolState::flowing);
  }
}

TEST_P(PathTypesLinked, OpenHoldFlowsThroughFlowlinks) {
  auto path = makePath(K::openSlot, K::holdSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST_P(PathTypesLinked, CloseOpenNeverFlowsThroughFlowlinks) {
  auto path = makePath(K::closeSlot, K::openSlot, GetParam());
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  // The whole path must come back down: every interior slot dead.
  for (std::size_t i = 0; i < path.flowlinkCount(); ++i) {
    EXPECT_TRUE(isDead(path.flowlinkSlot(i, Side::A).state()));
    EXPECT_TRUE(isDead(path.flowlinkSlot(i, Side::B).state()));
  }
}

TEST_P(PathTypesLinked, CloseCloseStaysDownThroughFlowlinks) {
  auto path = makePath(K::closeSlot, K::closeSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST_P(PathTypesLinked, HoldHoldRestsClosedThroughFlowlinks) {
  auto path = makePath(K::holdSlot, K::holdSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

INSTANTIATE_TEST_SUITE_P(FlowlinkCounts, PathTypesLinked,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------------------ transparency

TEST(PathTransparency, DescriptorsTravelEndToEndUnchanged) {
  auto path = makePath(K::openSlot, K::openSlot, 3);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  // The descriptor the right endpoint received is the one the left minted,
  // byte for byte, despite three intervening flowlink boxes.
  const auto& l = path.endpointSlot(PathEnd::left);
  const auto& r = path.endpointSlot(PathEnd::right);
  EXPECT_EQ(r.remoteDescriptor()->id, l.lastDescriptorSent());
  EXPECT_EQ(l.remoteDescriptor()->id, r.lastDescriptorSent());
}

TEST(PathTransparency, SelectorsCarrySenderAddressEndToEnd) {
  auto path = makePath(K::openSlot, K::openSlot, 2);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  const auto& l = path.endpointSlot(PathEnd::left);
  // The selector the left end received was minted by the right endpoint
  // and carries the right endpoint's media address (10.0.1.1).
  EXPECT_EQ(l.lastSelectorReceived()->sender,
            MediaAddress::parse("10.0.1.1", 6001));
}

// ------------------------------------------------------------------ muting

TEST(PathMuting, MuteOutStopsThatDirectionOnly) {
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  path.setMute(PathEnd::left, false, /*muteOut=*/true);
  path.run();
  EXPECT_FALSE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.bothFlowing());  // recurrence: the path re-stabilizes
}

TEST(PathMuting, MuteInStopsOppositeDirection) {
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  path.setMute(PathEnd::left, /*muteIn=*/true, false);
  path.run();
  // Left refuses to receive -> right cannot send.
  EXPECT_FALSE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathMuting, UnmuteRestoresFlow) {
  auto path = makePath(K::openSlot, K::openSlot, 2);
  path.run();
  path.setMute(PathEnd::right, true, true);
  path.run();
  EXPECT_FALSE(path.mediaEnabled(PathEnd::left));
  EXPECT_FALSE(path.mediaEnabled(PathEnd::right));
  path.setMute(PathEnd::right, false, false);
  path.run();
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathMuting, ConcurrentModifyBothDirectionsConverges) {
  // Section VI-C: describe/select in opposite directions do not constrain
  // each other; concurrent changes must still converge.
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  path.setMute(PathEnd::left, true, false);   // both sent before any delivery
  path.setMute(PathEnd::right, true, false);
  path.run();
  EXPECT_FALSE(path.mediaEnabled(PathEnd::left));
  EXPECT_FALSE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.bothFlowing());
  path.setMute(PathEnd::left, false, false);
  path.setMute(PathEnd::right, false, false);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
}

// --------------------------------------------------------- goal replacement

TEST(PathReplacement, HoldToOpenBringsPathUp) {
  auto path = makePath(K::holdSlot, K::holdSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothClosed());
  path.replaceGoal(PathEnd::left,
                   PathSystem::makeGoal(K::openSlot, PathEnd::left));
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathReplacement, OpenToCloseBringsPathDown) {
  auto path = makePath(K::openSlot, K::openSlot, 2);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  path.replaceGoal(PathEnd::left, CloseSlotGoal{});
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  EXPECT_TRUE(isDead(path.endpointSlot(PathEnd::left).state()));
  EXPECT_TRUE(isDead(path.endpointSlot(PathEnd::right).state()) ||
              retryPending(path.endpointGoal(PathEnd::right)));
}

TEST(PathReplacement, CloseToOpenAfterRejectionRecovers) {
  auto path = makePath(K::closeSlot, K::openSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothClosed());
  path.replaceGoal(PathEnd::left,
                   PathSystem::makeGoal(K::openSlot, PathEnd::left));
  path.run();
  // The left open travels right; the right openslot accepts (it may also
  // have a retry pending from earlier rejections; both opens meeting in an
  // open/open race must still resolve).
  path.fireRetry(PathEnd::right);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathReplacement, ReopenAfterFullTeardownViaRetry) {
  // Recurrence across a whole cycle: up, torn down by closeSlot, goal
  // switched back to openSlot at the same end, path comes back up.
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  path.replaceGoal(PathEnd::left, CloseSlotGoal{});
  path.run();
  ASSERT_FALSE(path.bothFlowing());
  path.replaceGoal(PathEnd::left,
                   PathSystem::makeGoal(K::openSlot, PathEnd::left));
  path.run();
  path.fireRetry(PathEnd::left);
  path.fireRetry(PathEnd::right);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

// ------------------------------------------------------- race: both ends open

TEST(PathRaces, SimultaneousOpensResolveByChannelInitiator) {
  // With no flowlink, both ends open at once inside one tunnel; the
  // channel-initiator (left) wins and the right backs off to acceptor.
  auto path = makePath(K::openSlot, K::openSlot, 0);
  // Both attach before any delivery: both opens are in flight.
  EXPECT_EQ(path.channel(0).depthToward(Side::B), 1u);
  EXPECT_EQ(path.channel(0).depthToward(Side::A), 1u);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathRaces, SimultaneousOpensThroughFlowlink) {
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
  EXPECT_TRUE(path.quiescent());
}

// ----------------------------------------------------------- fingerprinting

TEST(PathFingerprint, EqualSystemsEqualFingerprints) {
  auto p1 = makePath(K::openSlot, K::holdSlot, 1);
  auto p2 = makePath(K::openSlot, K::holdSlot, 1);
  EXPECT_EQ(p1.fingerprint(), p2.fingerprint());
  p1.run();
  p2.run();
  EXPECT_EQ(p1.fingerprint(), p2.fingerprint());
}

TEST(PathFingerprint, DifferentProgressDifferentFingerprints) {
  auto p1 = makePath(K::openSlot, K::holdSlot, 1);
  auto p2 = makePath(K::openSlot, K::holdSlot, 1);
  p2.run();
  EXPECT_NE(p1.fingerprint(), p2.fingerprint());
}

TEST(PathFingerprint, CopyIsIndependent) {
  auto p1 = makePath(K::openSlot, K::openSlot, 1);
  PathSystem p2 = p1;  // value semantics
  p2.run();
  EXPECT_NE(p1.fingerprint(), p2.fingerprint());
  p1.run();
  EXPECT_EQ(p1.fingerprint(), p2.fingerprint());
}

// The explorer's reference models, openSlot with one flowlink to an openSlot
// or a holdSlot, set up as explorePath sets them up (deferred attach, chaos
// and modify budget 1).
PathSystem referenceInitial(K right) {
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(right, PathEnd::right), 1,
                  /*defer_attach=*/true);
  path.setChaosBudget(1);
  path.setModifyBudget(1);
  return path;
}

// Twelve steps from the reference model; on openSlot/openSlot they attach
// every party, spend the chaos and modify budgets and deliver in both
// directions on both channels.
PathSystem referenceScripted(K right) {
  PathSystem path = referenceInitial(right);
  std::vector<PathAction> actions;
  for (std::size_t step = 0; step < 12; ++step) {
    path.enabledActions(actions);
    EXPECT_FALSE(actions.empty()) << "step " << step;
    if (actions.empty()) break;
    path.apply(actions[(step * 7) % actions.size()]);
  }
  return path;
}

std::vector<std::uint8_t> canonicalBytes(const PathSystem& path) {
  ByteWriter w;
  path.canonicalize(w);
  return w.take();
}

void expectRecorded(const PathSystem& path,
                    const std::vector<std::uint8_t>& recorded) {
  EXPECT_EQ(canonicalBytes(path), recorded);
  EXPECT_EQ(path.fingerprint(), stateHash(recorded));
}

// Canonical bytes the explorer dedups on must not move by a byte. The
// openSlot/openSlot encodings were recorded before the writer copied whole
// words, the openSlot/holdSlot ones before openSlot and holdSlot shared one
// media core.
TEST(PathFingerprint, InitialCanonicalBytesMatchRecordedEncoding) {
  expectRecorded(referenceInitial(K::openSlot), {
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x70, 0x17, 0x00,
      0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05,
      0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x00, 0x00,
      0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00,
      0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  });
  expectRecorded(referenceInitial(K::holdSlot), {
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x70, 0x17, 0x00,
      0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05,
      0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0x00, 0x02, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x00, 0x00, 0x02,
      0x00, 0x02, 0x00, 0x05, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x00,
      0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xff, 0xff, 0xff, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  });
}

TEST(PathFingerprint, ScriptedCanonicalBytesMatchRecordedEncoding) {
  expectRecorded(referenceScripted(K::openSlot), {
      0x01, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x70, 0x17,
      0x01, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x02, 0x00, 0x02, 0x00,
      0x05, 0x00, 0x02, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01,
      0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x01,
      0x00, 0x01, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x0a, 0x70, 0x17, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x10, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x00, 0x01, 0x02, 0x00,
      0x02, 0x00, 0x05, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x01, 0x00,
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x20, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x01,
      0x00, 0x01, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x0a, 0x70, 0x17, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x01, 0x01, 0x00,
      0x01, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00,
      0x0a, 0x71, 0x17, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x01, 0x0d, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17,
      0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
      0x01, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x02, 0x00, 0x02, 0x00, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x10, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
  });
  expectRecorded(referenceScripted(K::holdSlot), {
      0x01, 0x03, 0x01, 0x01, 0x00, 0x01, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x70, 0x17,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x70, 0x17, 0x01, 0x01,
      0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00,
      0x02, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x10,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x01, 0x00, 0x01,
      0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a,
      0x70, 0x17, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x20,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x02, 0x00, 0x02, 0x01,
      0x01, 0x00, 0x0a, 0x71, 0x17, 0x01, 0x00, 0x02, 0x00, 0x02, 0x00, 0x05,
      0x00, 0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x01, 0x00, 0x20, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00,
      0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x70, 0x17,
      0x02, 0x00, 0x02, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x03, 0x01, 0x01, 0x00, 0x01, 0x00, 0x00, 0x20,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x01,
      0x00, 0x00, 0x00, 0x01, 0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x02, 0x00, 0x00, 0x00, 0x10, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x01, 0x01, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x04, 0x01, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x0a, 0x70, 0x17, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x05, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x0a, 0x70, 0x17, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x10,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x0a, 0x71, 0x17, 0x02,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  });
}

// ------------------------------------------------------ decoding the bytes

// Decodes `bytes` into a copy of `skeleton`, from a heap block of exactly
// their length so that a read past the end is an overflow the address
// sanitizer reports. True only if the state decodes and fills the block.
bool decodes(const PathSystem& skeleton, std::span<const std::uint8_t> bytes) {
  const auto block = std::make_unique<std::uint8_t[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), block.get());
  PathSystem into = skeleton;
  ByteReader reader(block.get(), bytes.size());
  return into.decode(reader) && reader.atEnd();
}

std::size_t encodedSize(const auto& part) {
  ByteWriter w;
  part.canonicalize(w);
  return w.size();
}

// Where fields sit in a path's canonical bytes, found from the encodings of
// its parts: each end is an attached flag, its slot and its goal; then the
// flowlink count and each flowlink box (attached flag, two slots, link);
// then the channels.
struct Layout {
  std::size_t left_state = 1;  // after the left end's attached flag
  std::size_t left_goal = 0;
  std::size_t link_count = 0;
  std::size_t first_link = 0;  // the first box's attached flag
  std::size_t first_link_kind = 0;
  std::size_t first_channel = 0;

  explicit Layout(const PathSystem& path) {
    left_goal = 1 + encodedSize(path.endpointSlot(PathEnd::left));
    std::size_t at = 0;
    for (PathEnd end : {PathEnd::left, PathEnd::right}) {
      ByteWriter goal;
      canonicalize(path.endpointGoal(end), goal);
      at += 1 + encodedSize(path.endpointSlot(end)) + goal.size();
    }
    link_count = at;
    at += 4;
    first_link = at;
    for (std::size_t i = 0; i < path.flowlinkCount(); ++i) {
      at += 1 + encodedSize(path.flowlinkSlot(i, Side::A)) +
            encodedSize(path.flowlinkSlot(i, Side::B));
      if (i == 0) first_link_kind = at;
      at += encodedSize(path.flowlink(i));
    }
    first_channel = at;
  }
};

TEST(PathDecode, ScriptedStatesDecodeBackToTheirBytes) {
  for (K right : {K::openSlot, K::holdSlot}) {
    const std::vector<std::uint8_t> bytes = canonicalBytes(referenceScripted(right));
    PathSystem decoded = referenceInitial(right);
    ByteReader reader(bytes);
    ASSERT_TRUE(decoded.decode(reader));
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(canonicalBytes(decoded), bytes);
  }
}

TEST(PathDecode, RejectsEveryTruncationAndTrailingBytes) {
  const PathSystem skeleton = referenceInitial(K::openSlot);
  std::vector<std::uint8_t> bytes = canonicalBytes(referenceScripted(K::openSlot));
  ASSERT_TRUE(decodes(skeleton, bytes));
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_FALSE(decodes(skeleton, std::span(bytes).first(length)))
        << "a " << length << "-byte prefix of " << bytes.size() << " decoded";
  }
  bytes.push_back(0);
  EXPECT_FALSE(decodes(skeleton, bytes));
}

TEST(PathDecode, RejectsBytesOfAnotherSkeleton) {
  // Attached at construction: the endpoints' opens sit on channel 0 toward
  // the flowlink and on channel 1 toward it from the right.
  const PathSystem path = makePath(K::openSlot, K::openSlot, 1);
  const std::vector<std::uint8_t> bytes = canonicalBytes(path);
  const Layout at(path);
  ASSERT_TRUE(decodes(path, bytes));

  EXPECT_FALSE(decodes(makePath(K::openSlot, K::openSlot, 0), bytes));
  EXPECT_FALSE(decodes(makePath(K::openSlot, K::openSlot, 2), bytes));
  for (std::uint8_t links : {0, 2, 0xff}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[at.link_count] = links;
    EXPECT_FALSE(decodes(path, bad)) << "flowlink count " << int(links);
  }
  for (std::uint8_t tunnels : {0, 2, 0xff}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[at.first_channel] = tunnels;
    EXPECT_FALSE(decodes(path, bad)) << "tunnel count " << int(tunnels);
  }
  // The left endpoint's slot is its channel's initiator.
  std::vector<std::uint8_t> bad = bytes;
  ASSERT_EQ(bad[at.left_state + 1], 1);
  bad[at.left_state + 1] = 0;
  EXPECT_FALSE(decodes(path, bad)) << "initiator flag";
}

TEST(PathDecode, RejectsOutOfRangeEnumBytes) {
  const PathSystem path = makePath(K::openSlot, K::openSlot, 1);
  const std::vector<std::uint8_t> bytes = canonicalBytes(path);
  const Layout at(path);
  // Channel 0: tunnel count, no message toward A, one toward B: its tag,
  // its tunnel, then the signal kind.
  const std::size_t signal_kind = at.first_channel + 4 + 4 + 4 + 1 + 4;
  ASSERT_EQ(bytes[at.left_state], static_cast<std::uint8_t>(ProtocolState::opening));
  ASSERT_EQ(bytes[at.left_goal], static_cast<std::uint8_t>(K::openSlot));
  ASSERT_EQ(bytes[at.first_link_kind], static_cast<std::uint8_t>(K::flowLink));
  ASSERT_EQ(bytes[signal_kind], static_cast<std::uint8_t>(SignalKind::open));

  struct Patch {
    std::size_t at;
    std::uint8_t value;
    const char* what;
  };
  const Patch patches[] = {
      {at.left_state, 5, "protocol state 5"},
      {at.left_state, 0xff, "protocol state 255"},
      {at.left_goal, static_cast<std::uint8_t>(K::flowLink), "flowLink goal at an endpoint"},
      {at.left_goal, 4, "goal kind 4"},
      {at.left_goal, 0xff, "goal kind 255"},
      {at.first_link_kind, static_cast<std::uint8_t>(K::openSlot), "openSlot in a flowlink box"},
      {signal_kind, 6, "signal kind 6"},
      {signal_kind, 0xff, "signal kind 255"},
  };
  for (const Patch& patch : patches) {
    std::vector<std::uint8_t> bad = bytes;
    bad[patch.at] = patch.value;
    EXPECT_FALSE(decodes(path, bad)) << patch.what;
  }
}

TEST(PathDecode, AnyCorruptedByteStaysInsideTheSpan) {
  // Every byte of a scripted state set to a few values: decode may accept
  // or reject, but it reads only the block (checked under the address
  // sanitizer) and leaves a system that encodes again.
  const PathSystem skeleton = referenceInitial(K::holdSlot);
  const std::vector<std::uint8_t> bytes = canonicalBytes(referenceScripted(K::holdSlot));
  PathSystem into = skeleton;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (std::uint8_t value : {0x00, 0x01, 0x07, 0x80, 0xff}) {
      std::vector<std::uint8_t> bad = bytes;
      bad[i] = value;
      const auto block = std::make_unique<std::uint8_t[]>(bad.size());
      std::copy(bad.begin(), bad.end(), block.get());
      ByteReader reader(block.get(), bad.size());
      (void)into.decode(reader);
      ByteWriter w;
      into.canonicalize(w);
    }
  }
}

// ------------------------------------------------------------ enabled actions

TEST(PathActions, EnabledActionsMatchQueues) {
  auto path = makePath(K::openSlot, K::openSlot, 0);
  std::vector<PathAction> actions;
  path.enabledActions(actions);
  // Two opens in flight -> two deliver actions.
  ASSERT_EQ(actions.size(), 2u);
  for (const auto& a : actions) EXPECT_EQ(a.kind, PathAction::Kind::deliver);
}

TEST(PathActions, ApplyDeliverStepsSystem) {
  auto path = makePath(K::openSlot, K::holdSlot, 0);
  std::vector<PathAction> actions;
  path.enabledActions(actions);
  ASSERT_EQ(actions.size(), 1u);
  path.apply(actions[0]);
  // Hold end accepted: oack + select are now in flight leftward.
  EXPECT_EQ(path.channel(0).depthToward(Side::A), 2u);
}

TEST(PathActions, DeferredAttachExposesAttachActions) {
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(K::openSlot, PathEnd::right), 1,
                  /*defer_attach=*/true);
  std::vector<PathAction> actions;
  path.enabledActions(actions);
  std::size_t attaches = 0;
  for (const auto& a : actions) {
    if (a.kind == PathAction::Kind::attach) ++attaches;
  }
  EXPECT_EQ(attaches, 3u);  // two endpoints + one flowlink box
  for (const auto& a : actions) path.apply(a);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathActions, ChaosBudgetExposesChaosActions) {
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(K::openSlot, PathEnd::right), 0,
                  /*defer_attach=*/true);
  path.setChaosBudget(2);
  std::vector<PathAction> actions;
  path.enabledActions(actions);
  std::size_t chaos = 0;
  for (const auto& a : actions) {
    if (a.kind == PathAction::Kind::chaos) ++chaos;
  }
  EXPECT_GT(chaos, 0u);
}

TEST(PathActions, ChaosThenAttachStillConverges) {
  // A chaotic prefix must not be able to wedge the goals: whatever mess the
  // chaos phase makes, after attach the path reaches its specified state.
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(K::openSlot, PathEnd::right), 0,
                  /*defer_attach=*/true);
  path.setChaosBudget(4);
  // Chaos: left opens (muted variant), right closes it after attach etc.
  PathAction chaos;
  chaos.kind = PathAction::Kind::chaos;
  chaos.party = 0;
  chaos.chaosSignal = SignalKind::open;
  chaos.chaosVariant = 1;
  path.apply(chaos);
  path.run();  // right absorbs silently (unattached)
  PathAction attach0, attach1;
  attach0.kind = PathAction::Kind::attach;
  attach0.party = 0;
  attach1.kind = PathAction::Kind::attach;
  attach1.party = 1;
  path.apply(attach1);  // right attaches first: sees slot 'opened', accepts
  path.apply(attach0);  // left attaches while its own chaos open in flight
  path.run();
  while (retryPending(path.endpointGoal(PathEnd::left)) ||
         retryPending(path.endpointGoal(PathEnd::right))) {
    path.fireRetry(PathEnd::left);
    path.fireRetry(PathEnd::right);
    path.run();
  }
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathActions, ModifyBudgetExposesModifyActions) {
  auto path = makePath(K::openSlot, K::openSlot, 0);
  path.run();
  path.setModifyBudget(1);
  std::vector<PathAction> actions;
  path.enabledActions(actions);
  std::size_t modifies = 0;
  for (const auto& a : actions) {
    if (a.kind == PathAction::Kind::modifyMute) ++modifies;
  }
  EXPECT_EQ(modifies, 6u);  // 3 non-current combos per endpoint
}

}  // namespace
}  // namespace cmc
