// Unit tests for the Box runtime (paper Section VII): channel-end wiring,
// the rows that bind slots to their goals (the paper's Maps object), the
// order in which refresh and crash passes walk them, output draining, retry
// pacing, and teardown behavior — driven directly, without the simulator.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/box.hpp"

namespace cmc {
namespace {

MediaIntent phone() {
  return MediaIntent::endpoint(MediaAddress::parse("10.0.0.1", 5000),
                               {Codec::g711u});
}

Descriptor remote(std::uint64_t id) {
  const Codec codecs[] = {Codec::g711u};
  return makeDescriptor(DescriptorId{id}, MediaAddress::parse("10.0.9.9", 5900),
                        codecs, false);
}

Box::Output drained(Box& box) {
  Box::Output out;
  box.drainOutput(out);
  return out;
}

class BoxFixture : public ::testing::Test {
 protected:
  Box box_{BoxId{1}, "box"};
};

TEST_F(BoxFixture, AddChannelEndCreatesSlots) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 3, true, "", BoxId{2}, "peer");
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_TRUE(box_.hasChannel(ChannelId{1}));
  EXPECT_EQ(box_.slotsOf(ChannelId{1}), slots);
  EXPECT_EQ(box_.channelOf(slots[1]), ChannelId{1});
  for (SlotId s : slots) {
    EXPECT_EQ(box_.slotState(s), ProtocolState::closed);
    EXPECT_TRUE(box_.slot(s).channelInitiator());
  }
}

TEST_F(BoxFixture, SetGoalAttachesAndEmits) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "peer");
  box_.setGoal(slots[0], OpenSlotGoal{Medium::audio, phone(), DescriptorFactory{1}});
  auto out = drained(box_);
  ASSERT_EQ(out.tunnel.size(), 1u);
  EXPECT_EQ(kindOf(out.tunnel[0].signal), SignalKind::open);
  EXPECT_EQ(box_.goalKind(slots[0]), GoalKind::openSlot);
}

TEST_F(BoxFixture, LinkSlotsSamePairIsIdempotent) {
  auto s1 = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "x");
  auto s2 = box_.addChannelEnd(ChannelId{2}, 1, true, "", BoxId{2}, "y");
  box_.linkSlots(s1[0], s2[0]);
  EXPECT_EQ(box_.goalKind(s1[0]), GoalKind::flowLink);
  // Re-linking the same (even reversed) pair must keep the same object:
  // no goal churn, no new signals.
  (void)drained(box_);
  box_.linkSlots(s2[0], s1[0]);
  EXPECT_TRUE(drained(box_).empty());
}

TEST_F(BoxFixture, RelinkDifferentPairReplaces) {
  auto s1 = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "x");
  auto s2 = box_.addChannelEnd(ChannelId{2}, 1, true, "", BoxId{2}, "y");
  auto s3 = box_.addChannelEnd(ChannelId{3}, 1, true, "", BoxId{2}, "z");
  box_.linkSlots(s1[0], s2[0]);
  box_.linkSlots(s1[0], s3[0]);
  EXPECT_EQ(box_.goalKind(s1[0]), GoalKind::flowLink);
  EXPECT_EQ(box_.goalKind(s3[0]), GoalKind::flowLink);
  // s2 lost its goal when the old link dissolved.
  EXPECT_EQ(box_.goalKind(s2[0]), std::nullopt);
}

TEST_F(BoxFixture, DeliverTunnelRoutesToGoal) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, false, "", BoxId{2}, "peer");
  box_.setGoal(slots[0], HoldSlotGoal{phone(), DescriptorFactory{1}});
  (void)drained(box_);
  box_.deliverTunnel(slots[0], OpenSignal{Medium::audio, remote(1)});
  auto out = drained(box_);
  ASSERT_EQ(out.tunnel.size(), 2u);  // oack + select
  EXPECT_EQ(kindOf(out.tunnel[0].signal), SignalKind::oack);
  EXPECT_EQ(box_.slotState(slots[0]), ProtocolState::flowing);
}

TEST_F(BoxFixture, DeliverToUnknownSlotIsSafe) {
  box_.deliverTunnel(SlotId{999}, CloseSignal{});
  EXPECT_TRUE(drained(box_).empty());
}

TEST_F(BoxFixture, UnboundSlotAbsorbsButAutoReplies) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, false, "", BoxId{2}, "peer");
  // No goal bound: an open is absorbed (protocol state advances)...
  box_.deliverTunnel(slots[0], OpenSignal{Medium::audio, remote(1)});
  EXPECT_EQ(box_.slotState(slots[0]), ProtocolState::opened);
  EXPECT_TRUE(drained(box_).tunnel.empty());
  // ...but mandatory protocol replies still go out.
  box_.deliverTunnel(slots[0], CloseSignal{});
  auto out = drained(box_);
  ASSERT_EQ(out.tunnel.size(), 1u);
  EXPECT_EQ(kindOf(out.tunnel[0].signal), SignalKind::closeack);
}

TEST_F(BoxFixture, RetryTimerRequestedOncePerPendingRetry) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "peer");
  box_.setGoal(slots[0], OpenSlotGoal{Medium::audio, phone(), DescriptorFactory{1}});
  (void)drained(box_);
  box_.deliverTunnel(slots[0], CloseSignal{});  // rejected -> retry pending
  auto out = drained(box_);
  ASSERT_EQ(out.timers.size(), 1u);
  EXPECT_EQ(out.timers[0].tag, Box::kRetryTimerTag);
  EXPECT_TRUE(box_.hasPendingRetries());
  // The retry timer fires: the open goes out again, and because that open
  // clears the pending state, no new timer is requested.
  box_.fireTimer(Box::kRetryTimerTag);
  auto out2 = drained(box_);
  ASSERT_EQ(out2.tunnel.size(), 1u);
  EXPECT_EQ(kindOf(out2.tunnel[0].signal), SignalKind::open);
  EXPECT_TRUE(out2.timers.empty());
  EXPECT_FALSE(box_.hasPendingRetries());
}

TEST_F(BoxFixture, RemoveChannelDropsSlotsAndGoals) {
  auto s1 = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "x");
  auto s2 = box_.addChannelEnd(ChannelId{2}, 1, true, "", BoxId{2}, "y");
  box_.linkSlots(s1[0], s2[0]);
  box_.removeChannel(ChannelId{1});
  EXPECT_FALSE(box_.hasChannel(ChannelId{1}));
  // The flowlink spanned both channels; it dies with either one.
  EXPECT_EQ(box_.goalKind(s2[0]), std::nullopt);
  EXPECT_THROW((void)box_.slot(s1[0]), std::logic_error);
}

TEST_F(BoxFixture, TeardownMetaRemovesChannel) {
  box_.addChannelEnd(ChannelId{1}, 1, false, "", BoxId{2}, "peer");
  box_.deliverMeta(ChannelId{1}, MetaSignal{MetaKind::teardown, "", ""});
  EXPECT_FALSE(box_.hasChannel(ChannelId{1}));
}

TEST_F(BoxFixture, SetSlotMuteFlowsThroughGoal) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, false, "", BoxId{2}, "peer");
  box_.setGoal(slots[0], HoldSlotGoal{phone(), DescriptorFactory{1}});
  box_.deliverTunnel(slots[0], OpenSignal{Medium::audio, remote(1)});
  (void)drained(box_);
  box_.setSlotMute(slots[0], true, false);
  auto out = drained(box_);
  ASSERT_EQ(out.tunnel.size(), 1u);
  const auto& describe = std::get<DescribeSignal>(out.tunnel[0].signal);
  EXPECT_TRUE(describe.descriptor.isNoMedia());
}

TEST_F(BoxFixture, DrainOutputIsDestructive) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "peer");
  box_.setGoal(slots[0], OpenSlotGoal{Medium::audio, phone(), DescriptorFactory{1}});
  EXPECT_FALSE(drained(box_).empty());
  EXPECT_TRUE(drained(box_).empty());
}

TEST_F(BoxFixture, DrainClearsTheTargetAndHandsTheBoxItsStorage) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "peer");
  Box::Output out;
  out.timers.push_back(Box::TimerRequest{SimDuration{1}, "stale"});
  out.tunnel.reserve(4);
  const Box::TunnelOut* reserved = out.tunnel.data();
  box_.setGoal(slots[0], OpenSlotGoal{Medium::audio, phone(), DescriptorFactory{1}});
  box_.drainOutput(out);
  ASSERT_EQ(out.tunnel.size(), 1u);
  EXPECT_EQ(kindOf(out.tunnel[0].signal), SignalKind::open);
  EXPECT_TRUE(out.timers.empty());  // what the target held is gone
  // The box queues its next output into the storage it was handed.
  box_.deliverTunnel(slots[0], CloseSignal{});
  Box::Output next;
  box_.drainOutput(next);
  ASSERT_EQ(next.tunnel.size(), 1u);
  EXPECT_EQ(next.tunnel.data(), reserved);
}

TEST_F(BoxFixture, ClearGoalDetaches) {
  auto slots = box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "peer");
  box_.setGoal(slots[0], CloseSlotGoal{});
  box_.clearGoal(slots[0]);
  EXPECT_EQ(box_.goalKind(slots[0]), std::nullopt);
}

TEST_F(BoxFixture, OutputsAreAddressedFromTheChannelEnd) {
  box_.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "x");
  auto slots = box_.addChannelEnd(ChannelId{4}, 3, true, "", BoxId{7}, "peer");
  box_.setGoal(slots[2], OpenSlotGoal{Medium::audio, phone(), DescriptorFactory{1}});
  auto out = drained(box_);
  ASSERT_EQ(out.tunnel.size(), 1u);
  EXPECT_EQ(out.tunnel[0].slot, slots[2]);
  EXPECT_EQ(out.tunnel[0].channel, ChannelId{4});
  EXPECT_EQ(out.tunnel[0].tunnel, 2u);
  EXPECT_EQ(out.tunnel[0].peer, BoxId{7});
  // The delivery side reads the same end.
  EXPECT_EQ(box_.slotAt(ChannelId{4}, 2), slots[2]);
  EXPECT_EQ(box_.slotAt(ChannelId{4}, 3), std::nullopt);
  EXPECT_EQ(box_.slotAt(ChannelId{9}, 0), std::nullopt);
  EXPECT_EQ(box_.peerOf(ChannelId{4}), BoxId{7});
  EXPECT_EQ(box_.peerOf(ChannelId{9}), std::nullopt);
}

// Exposes the protected channel helpers.
class HelperBox : public Box {
 public:
  using Box::Box;
  using Box::destroyChannel;
  using Box::sendMeta;
};

TEST(BoxHelpers, MetaAndTeardownOnAChannelNotHeldQueueNothing) {
  HelperBox box{BoxId{1}, "box"};
  box.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "peer");
  box.sendMeta(ChannelId{1}, MetaSignal{MetaKind::custom, "m", ""});
  box.destroyChannel(ChannelId{1});
  auto out = drained(box);
  ASSERT_EQ(out.meta.size(), 1u);
  EXPECT_EQ(out.meta[0].peer, BoxId{2});
  ASSERT_EQ(out.teardowns.size(), 1u);
  EXPECT_EQ(out.teardowns[0].channel, ChannelId{1});
  EXPECT_EQ(out.teardowns[0].peer, BoxId{2});
  // The end is gone: a second teardown or a late meta has nowhere to go.
  box.sendMeta(ChannelId{1}, MetaSignal{MetaKind::custom, "late", ""});
  box.destroyChannel(ChannelId{1});
  EXPECT_TRUE(drained(box).empty());
}

// (slot, signal kind) of each queued tunnel signal, in queue order.
std::vector<std::pair<SlotId, SignalKind>> sent(const Box::Output& out) {
  std::vector<std::pair<SlotId, SignalKind>> order;
  for (const auto& t : out.tunnel) order.emplace_back(t.slot, kindOf(t.signal));
  return order;
}

TEST_F(BoxFixture, RefreshAndCrashPassesKeepTheirOrder) {
  // One single goal on the highest slot, and two flowlinks, the second made
  // over lower slot ids (and reversed) than the first.
  box_.enableStabilization(true);
  std::vector<SlotId> s;
  for (std::uint64_t c = 1; c <= 5; ++c) {
    s.push_back(box_.addChannelEnd(ChannelId{c}, 1, true, "", BoxId{2}, "p")[0]);
  }
  box_.linkSlots(s[2], s[3]);
  box_.linkSlots(s[1], s[0]);
  box_.setGoal(s[4], OpenSlotGoal{Medium::audio, phone(), DescriptorFactory{1}});
  (void)drained(box_);

  // Restart: the goal re-attaches (open), the links re-attach over closed
  // slots (nothing to say), then every closed goal-bound slot is probed in
  // SlotId order.
  box_.crashRestart();
  using K = SignalKind;
  const std::vector<std::pair<SlotId, SignalKind>> crash{
      {s[4], K::open}, {s[0], K::close}, {s[1], K::close},
      {s[2], K::close}, {s[3], K::close}};
  EXPECT_EQ(sent(drained(box_)), crash);

  // Refresh: single goals first, then each link in creation order, each
  // re-sending its stuck closes in its own (a, b) order.
  box_.refreshGoals();
  const std::vector<std::pair<SlotId, SignalKind>> refresh{
      {s[4], K::open}, {s[2], K::close}, {s[3], K::close},
      {s[1], K::close}, {s[0], K::close}};
  EXPECT_EQ(sent(drained(box_)), refresh);
}

// Destroys another channel the first time one of its slots sees activity.
class FoldingBox : public Box {
 public:
  using Box::Box;
  ChannelId fold;

 protected:
  void onSlotActivity(SlotId) override {
    if (fold.valid()) destroyChannel(std::exchange(fold, ChannelId{}));
  }
};

TEST(BoxHooks, SlotActivityMayRemoveRowsMidDelivery) {
  FoldingBox box{BoxId{1}, "box"};
  const SlotId gone = box.addChannelEnd(ChannelId{1}, 1, true, "", BoxId{2}, "x")[0];
  const auto held = box.addChannelEnd(ChannelId{2}, 2, false, "", BoxId{3}, "y");
  const SlotId linked = box.addChannelEnd(ChannelId{3}, 1, true, "", BoxId{4}, "z")[0];
  box.linkSlots(gone, linked);
  box.setGoal(held[1], HoldSlotGoal{phone(), DescriptorFactory{1}});
  (void)drained(box);

  // The delivery's own outputs are queued before the hook erases the rows
  // (and the end) ahead of the delivering slot's.
  box.fold = ChannelId{1};
  box.deliverTunnel(held[1], OpenSignal{Medium::audio, remote(1)});
  const auto out = drained(box);
  ASSERT_EQ(out.tunnel.size(), 2u);  // oack + select
  for (const auto& t : out.tunnel) {
    EXPECT_EQ(t.slot, held[1]);
    EXPECT_EQ(t.channel, ChannelId{2});
    EXPECT_EQ(t.tunnel, 1u);
    EXPECT_EQ(t.peer, BoxId{3});
  }
  ASSERT_EQ(out.teardowns.size(), 1u);
  EXPECT_EQ(out.teardowns[0].channel, ChannelId{1});

  EXPECT_FALSE(box.hasChannel(ChannelId{1}));
  EXPECT_THROW((void)box.slot(gone), std::logic_error);
  EXPECT_EQ(box.goalKind(linked), std::nullopt);
  EXPECT_EQ(box.slotCount(), 3u);
  EXPECT_EQ(box.goalCount(), 1u);
  EXPECT_EQ(box.slotState(held[1]), ProtocolState::flowing);
  EXPECT_EQ(box.goalKind(held[1]), GoalKind::holdSlot);
  EXPECT_EQ(box.slotAt(ChannelId{2}, 1), held[1]);
  EXPECT_EQ(box.channelOf(linked), ChannelId{3});

  // Later deliveries find the moved rows.
  box.deliverTunnel(held[0], OpenSignal{Medium::audio, remote(2)});
  EXPECT_EQ(box.slotState(held[0]), ProtocolState::opened);
  box.deliverTunnel(gone, CloseSignal{});
  EXPECT_TRUE(drained(box).empty());
}

}  // namespace
}  // namespace cmc
