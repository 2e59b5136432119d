// Unit tests for the single-slot goal primitives (paper Section IV-A),
// driven directly against a SlotEndpoint.
#include <gtest/gtest.h>

#include <optional>

#include "core/goal.hpp"

namespace cmc {
namespace {

MediaIntent phoneIntent() {
  return MediaIntent::endpoint(MediaAddress::parse("10.0.0.1", 5000),
                               {Codec::g711u, Codec::g726});
}

Descriptor remoteDesc(std::uint64_t id, bool muted = false) {
  const Codec codecs[] = {Codec::g711u};
  return makeDescriptor(DescriptorId{id}, MediaAddress::parse("10.0.9.9", 5900),
                        muted ? std::span<const Codec>{} : std::span<const Codec>{codecs},
                        muted);
}

// Deliver a signal to the slot and run it through the goal, collecting output.
template <typename Goal>
Outbox deliverVia(Goal& goal, SlotEndpoint& slot, const Signal& signal) {
  Outbox out;
  auto result = slot.deliver(signal);
  goal.onEvent(slot, result.event, out);
  return out;
}

// ---------------------------------------------------------------- openSlot

class OpenSlotTest : public ::testing::Test {
 protected:
  SlotEndpoint slot_{SlotId{1}, /*channel_initiator=*/true};
  OpenSlotGoal goal_{Medium::audio, phoneIntent(), DescriptorFactory{1}};
};

TEST_F(OpenSlotTest, AttachOnClosedSendsOpen) {
  Outbox out;
  goal_.attach(slot_, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(kindOf(out.signals()[0].signal), SignalKind::open);
  const auto& open = std::get<OpenSignal>(out.signals()[0].signal);
  EXPECT_EQ(open.medium, Medium::audio);
  EXPECT_FALSE(open.descriptor.isNoMedia());
  EXPECT_EQ(slot_.state(), ProtocolState::opening);
}

TEST_F(OpenSlotTest, OackAnswersWithSelect) {
  Outbox out;
  goal_.attach(slot_, out);
  Outbox out2 = deliverVia(goal_, slot_, OackSignal{remoteDesc(50)});
  ASSERT_EQ(out2.size(), 1u);
  const auto& select = std::get<SelectSignal>(out2.signals()[0].signal);
  EXPECT_EQ(select.selector.answersDescriptor, DescriptorId{50});
  EXPECT_EQ(select.selector.codec, Codec::g711u);
  EXPECT_EQ(slot_.state(), ProtocolState::flowing);
}

TEST_F(OpenSlotTest, RejectSetsRetryPendingAndRetryReopens) {
  Outbox out;
  goal_.attach(slot_, out);
  Outbox out2 = deliverVia(goal_, slot_, CloseSignal{});
  EXPECT_TRUE(out2.empty());
  EXPECT_TRUE(goal_.retryPending());
  EXPECT_EQ(slot_.state(), ProtocolState::closed);

  Outbox out3;
  goal_.retry(slot_, out3);
  ASSERT_EQ(out3.size(), 1u);
  EXPECT_EQ(kindOf(out3.signals()[0].signal), SignalKind::open);
  EXPECT_FALSE(goal_.retryPending());
  EXPECT_EQ(slot_.state(), ProtocolState::opening);
}

TEST_F(OpenSlotTest, RetryReusesSameDescriptor) {
  // Descriptors are idempotent: a retry re-offers the same descriptor, so
  // the model checker's state space stays finite.
  Outbox out;
  goal_.attach(slot_, out);
  const auto first = std::get<OpenSignal>(out.signals()[0].signal).descriptor.id;
  (void)deliverVia(goal_, slot_, CloseSignal{});
  Outbox out2;
  goal_.retry(slot_, out2);
  const auto second = std::get<OpenSignal>(out2.signals()[0].signal).descriptor.id;
  EXPECT_EQ(first, second);
}

TEST_F(OpenSlotTest, IncomingOpenAcceptedWithOackAndSelect) {
  // An openslot takes any opportunity toward flowing: if the far end asks
  // first, accept.
  SlotEndpoint slot{SlotId{2}, false};
  OpenSlotGoal goal{Medium::audio, phoneIntent(), DescriptorFactory{2}};
  Outbox dummy;
  // Attach on closed sends open; simulate race loss: deliver an open.
  goal.attach(slot, dummy);
  Outbox out = deliverVia(goal, slot, OpenSignal{Medium::audio, remoteDesc(60)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(kindOf(out.signals()[0].signal), SignalKind::oack);
  EXPECT_EQ(kindOf(out.signals()[1].signal), SignalKind::select);
  EXPECT_EQ(slot.state(), ProtocolState::flowing);
}

TEST_F(OpenSlotTest, DescribeAnsweredWithSelect) {
  Outbox out;
  goal_.attach(slot_, out);
  (void)deliverVia(goal_, slot_, OackSignal{remoteDesc(50)});
  Outbox out2 = deliverVia(goal_, slot_, DescribeSignal{remoteDesc(51, true)});
  ASSERT_EQ(out2.size(), 1u);
  const auto& select = std::get<SelectSignal>(out2.signals()[0].signal);
  EXPECT_EQ(select.selector.answersDescriptor, DescriptorId{51});
  // noMedia descriptor -> noMedia selector.
  EXPECT_TRUE(select.selector.isNoMedia());
}

TEST_F(OpenSlotTest, MuteOutSendsNewSelector) {
  Outbox out;
  goal_.attach(slot_, out);
  (void)deliverVia(goal_, slot_, OackSignal{remoteDesc(50)});
  Outbox out2;
  goal_.setMute(false, true, slot_, out2);
  ASSERT_EQ(out2.size(), 1u);
  const auto& select = std::get<SelectSignal>(out2.signals()[0].signal);
  EXPECT_TRUE(select.selector.isNoMedia());
}

TEST_F(OpenSlotTest, MuteInSendsNewDescriptor) {
  Outbox out;
  goal_.attach(slot_, out);
  (void)deliverVia(goal_, slot_, OackSignal{remoteDesc(50)});
  Outbox out2;
  goal_.setMute(true, false, slot_, out2);
  ASSERT_EQ(out2.size(), 1u);
  const auto& describe = std::get<DescribeSignal>(out2.signals()[0].signal);
  EXPECT_TRUE(describe.descriptor.isNoMedia());
}

TEST_F(OpenSlotTest, MuteChangeBeforeFlowingDefersSignals) {
  Outbox out;
  goal_.attach(slot_, out);  // opening
  Outbox out2;
  goal_.setMute(true, true, slot_, out2);
  EXPECT_TRUE(out2.empty());  // nothing on the wire yet
  EXPECT_TRUE(goal_.intent().muteIn);
}

TEST_F(OpenSlotTest, MuteChangeMintsFreshDescriptorId) {
  Outbox out;
  goal_.attach(slot_, out);
  const auto first = std::get<OpenSignal>(out.signals()[0].signal).descriptor.id;
  (void)deliverVia(goal_, slot_, OackSignal{remoteDesc(50)});
  Outbox out2;
  goal_.setMute(true, false, slot_, out2);
  const auto second = std::get<DescribeSignal>(out2.signals()[0].signal).descriptor.id;
  EXPECT_NE(first, second);
}

TEST_F(OpenSlotTest, ServerIntentOpensMuted) {
  // A goal in an application server mutes both directions (Section IV-A).
  SlotEndpoint slot{SlotId{3}, true};
  OpenSlotGoal goal{Medium::audio, MediaIntent::server(), DescriptorFactory{3}};
  Outbox out;
  goal.attach(slot, out);
  const auto& open = std::get<OpenSignal>(out.signals()[0].signal);
  EXPECT_TRUE(open.descriptor.isNoMedia());

  Outbox out2 = deliverVia(goal, slot, OackSignal{remoteDesc(61)});
  const auto& select = std::get<SelectSignal>(out2.signals()[0].signal);
  EXPECT_TRUE(select.selector.isNoMedia());
}

// --------------------------------------------------------------- closeSlot

class CloseSlotTest : public ::testing::Test {
 protected:
  SlotEndpoint slot_{SlotId{1}, true};
  CloseSlotGoal goal_;
};

TEST_F(CloseSlotTest, AttachOnClosedDoesNothing) {
  Outbox out;
  goal_.attach(slot_, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(slot_.state(), ProtocolState::closed);
}

TEST_F(CloseSlotTest, AttachOnFlowingSendsClose) {
  (void)slot_.sendOpen(Medium::audio, remoteDesc(1));
  (void)slot_.deliver(OackSignal{remoteDesc(2)});
  Outbox out;
  goal_.attach(slot_, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(kindOf(out.signals()[0].signal), SignalKind::close);
  EXPECT_EQ(slot_.state(), ProtocolState::closing);
}

TEST_F(CloseSlotTest, AttachOnOpeningSendsClose) {
  (void)slot_.sendOpen(Medium::audio, remoteDesc(1));
  Outbox out;
  goal_.attach(slot_, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(kindOf(out.signals()[0].signal), SignalKind::close);
}

TEST_F(CloseSlotTest, RejectsIncomingOpenImmediately) {
  Outbox out;
  goal_.attach(slot_, out);
  Outbox out2 = deliverVia(goal_, slot_, OpenSignal{Medium::audio, remoteDesc(3)});
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(kindOf(out2.signals()[0].signal), SignalKind::close);
  EXPECT_EQ(slot_.state(), ProtocolState::closing);
}

TEST_F(CloseSlotTest, CloseackCompletesAndStaysClosed) {
  (void)slot_.sendOpen(Medium::audio, remoteDesc(1));
  Outbox out;
  goal_.attach(slot_, out);
  Outbox out2 = deliverVia(goal_, slot_, CloseAckSignal{});
  EXPECT_TRUE(out2.empty());
  EXPECT_EQ(slot_.state(), ProtocolState::closed);
}

TEST_F(CloseSlotTest, PeerCloseNeedsNoGoalAction) {
  (void)slot_.deliver(OpenSignal{Medium::audio, remoteDesc(1)});
  // Attach rejects the pending open...
  Outbox out;
  goal_.attach(slot_, out);
  EXPECT_EQ(slot_.state(), ProtocolState::closing);
  // ...and a crossing close from the peer is absorbed by the FSM.
  Outbox out2 = deliverVia(goal_, slot_, CloseSignal{});
  EXPECT_TRUE(out2.empty());
}

// ---------------------------------------------------------------- holdSlot

class HoldSlotTest : public ::testing::Test {
 protected:
  SlotEndpoint slot_{SlotId{1}, false};
  HoldSlotGoal goal_{phoneIntent(), DescriptorFactory{4}};
};

TEST_F(HoldSlotTest, AttachOnClosedWaits) {
  Outbox out;
  goal_.attach(slot_, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(slot_.state(), ProtocolState::closed);
}

TEST_F(HoldSlotTest, AcceptsIncomingOpen) {
  Outbox out;
  goal_.attach(slot_, out);
  Outbox out2 = deliverVia(goal_, slot_, OpenSignal{Medium::audio, remoteDesc(5)});
  ASSERT_EQ(out2.size(), 2u);
  EXPECT_EQ(kindOf(out2.signals()[0].signal), SignalKind::oack);
  EXPECT_EQ(kindOf(out2.signals()[1].signal), SignalKind::select);
  EXPECT_EQ(slot_.state(), ProtocolState::flowing);
}

TEST_F(HoldSlotTest, AttachOnOpenedAcceptsImmediately) {
  (void)slot_.deliver(OpenSignal{Medium::audio, remoteDesc(5)});
  Outbox out;
  goal_.attach(slot_, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(kindOf(out.signals()[0].signal), SignalKind::oack);
  EXPECT_EQ(slot_.state(), ProtocolState::flowing);
}

TEST_F(HoldSlotTest, StaysClosedAfterPeerClose) {
  Outbox out;
  goal_.attach(slot_, out);
  (void)deliverVia(goal_, slot_, OpenSignal{Medium::audio, remoteDesc(5)});
  Outbox out2 = deliverVia(goal_, slot_, CloseSignal{});
  EXPECT_TRUE(out2.empty());  // no re-open attempt
  EXPECT_EQ(slot_.state(), ProtocolState::closed);
}

TEST_F(HoldSlotTest, ReacceptsAfterReopen) {
  Outbox out;
  goal_.attach(slot_, out);
  (void)deliverVia(goal_, slot_, OpenSignal{Medium::audio, remoteDesc(5)});
  (void)deliverVia(goal_, slot_, CloseSignal{});
  Outbox out2 = deliverVia(goal_, slot_, OpenSignal{Medium::audio, remoteDesc(6)});
  ASSERT_EQ(out2.size(), 2u);
  EXPECT_EQ(kindOf(out2.signals()[0].signal), SignalKind::oack);
  EXPECT_EQ(slot_.state(), ProtocolState::flowing);
}

TEST_F(HoldSlotTest, AttachOnFlowingRefreshesDescriptorAndSelector) {
  // Gaining control of a flowing slot (e.g. after another goal) re-asserts
  // this party's description and re-answers the remote one.
  (void)slot_.deliver(OpenSignal{Medium::audio, remoteDesc(5)});
  (void)slot_.sendOack(remoteDesc(90));  // previous goal accepted
  Outbox out;
  goal_.attach(slot_, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(kindOf(out.signals()[0].signal), SignalKind::describe);
  EXPECT_EQ(kindOf(out.signals()[1].signal), SignalKind::select);
}

TEST_F(HoldSlotTest, AnswersDescribe) {
  Outbox out;
  goal_.attach(slot_, out);
  (void)deliverVia(goal_, slot_, OpenSignal{Medium::audio, remoteDesc(5)});
  Outbox out2 = deliverVia(goal_, slot_, DescribeSignal{remoteDesc(7)});
  ASSERT_EQ(out2.size(), 1u);
  const auto& select = std::get<SelectSignal>(out2.signals()[0].signal);
  EXPECT_EQ(select.selector.answersDescriptor, DescriptorId{7});
}

// A codec list longer than CodecList's inline capacity spills to the heap;
// goal copies (the explorer's states, the box rows) must own their lists.
TEST(MediaIntentCodecs, SpilledListsDescribeAndAnswer) {
  const CodecList six = {Codec::l16,  Codec::g711u, Codec::g711a,
                         Codec::g722, Codec::g726,  Codec::gsmFr};
  const MediaIntent intent =
      MediaIntent::endpoint(MediaAddress::parse("10.0.0.1", 5000), six);
  ASSERT_FALSE(intent.receivable.isInline());
  ASSERT_FALSE(intent.sendable.isInline());
  std::optional<OpenSlotGoal> original{
      OpenSlotGoal{Medium::audio, intent, DescriptorFactory{1}}};
  OpenSlotGoal goal = *original;
  original.reset();

  SlotEndpoint slot{SlotId{1}, /*channel_initiator=*/true};
  Outbox out;
  goal.attach(slot, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<OpenSignal>(out.signals()[0].signal).descriptor.codecs, six);

  // The far end offers only the last codec on our list.
  const Codec last[] = {Codec::gsmFr};
  Outbox out2 = deliverVia(
      goal, slot,
      OackSignal{makeDescriptor(DescriptorId{50},
                                MediaAddress::parse("10.0.9.9", 5900), last,
                                false)});
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(std::get<SelectSignal>(out2.signals()[0].signal).selector.codec,
            Codec::gsmFr);
}

// ------------------------------------------------------- EndpointGoal glue

TEST(EndpointGoalVariant, KindDispatch) {
  EndpointGoal open = OpenSlotGoal{Medium::audio, phoneIntent(), DescriptorFactory{1}};
  EndpointGoal close = CloseSlotGoal{};
  EndpointGoal hold = HoldSlotGoal{phoneIntent(), DescriptorFactory{2}};
  EXPECT_EQ(kindOf(open), GoalKind::openSlot);
  EXPECT_EQ(kindOf(close), GoalKind::closeSlot);
  EXPECT_EQ(kindOf(hold), GoalKind::holdSlot);
}

TEST(EndpointGoalVariant, RetryOnlyForOpenSlot) {
  EndpointGoal close = CloseSlotGoal{};
  EXPECT_FALSE(retryPending(close));
  SlotEndpoint slot{SlotId{1}, true};
  Outbox out;
  retry(close, slot, out);  // no-op, no crash
  EXPECT_TRUE(out.empty());
}

TEST(EndpointGoalVariant, SetMuteNoopForCloseSlot) {
  // Mute reaches a goal through its media core, which a closeSlot lacks.
  EndpointGoal close = CloseSlotGoal{};
  EXPECT_EQ(mediaGoalOf(close), nullptr);
  EndpointGoal open = OpenSlotGoal{Medium::audio, phoneIntent(), DescriptorFactory{1}};
  EXPECT_EQ(mediaGoalOf(open), &std::get<OpenSlotGoal>(open));
  EndpointGoal hold = HoldSlotGoal{phoneIntent(), DescriptorFactory{2}};
  MediaGoal* media = mediaGoalOf(hold);
  ASSERT_EQ(media, &std::get<HoldSlotGoal>(hold));
  SlotEndpoint slot{SlotId{1}, true};
  Outbox out;
  media->setMute(true, true, slot, out);
  EXPECT_TRUE(out.empty());  // closed: picked up at the next accept
  EXPECT_TRUE(std::get<HoldSlotGoal>(hold).intent().muteIn);
}

TEST(EndpointGoalVariant, CanonicalizeDistinguishesGoals) {
  EndpointGoal a = CloseSlotGoal{};
  EndpointGoal b = HoldSlotGoal{phoneIntent(), DescriptorFactory{1}};
  ByteWriter wa, wb;
  canonicalize(a, wa);
  canonicalize(b, wb);
  EXPECT_NE(fnv1a(wa.bytes()), fnv1a(wb.bytes()));
}

}  // namespace
}  // namespace cmc
