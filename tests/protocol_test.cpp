// Unit tests for src/protocol: signal serialization and the slot protocol
// FSM of paper Fig. 9, including race handling.
#include <gtest/gtest.h>

#include "protocol/signal.hpp"
#include "protocol/slot_endpoint.hpp"

namespace cmc {
namespace {

Descriptor desc(std::uint64_t id, bool muted = false) {
  const Codec codecs[] = {Codec::g711u, Codec::g726};
  return makeDescriptor(DescriptorId{id},
                        MediaAddress::parse("10.0.0.1", 5000),
                        muted ? std::span<const Codec>{} : std::span<const Codec>{codecs},
                        muted);
}

Selector sel(std::uint64_t answers, Codec codec = Codec::g711u) {
  return Selector{DescriptorId{answers}, MediaAddress::parse("10.0.0.2", 5002), codec};
}

TEST(SignalSerialization, AllKindsRoundTrip) {
  const Signal signals[] = {
      OpenSignal{Medium::audio, desc(1)},
      OackSignal{desc(2)},
      CloseSignal{},
      CloseAckSignal{},
      DescribeSignal{desc(3, true)},
      SelectSignal{sel(3, Codec::noMedia)},
  };
  for (const Signal& s : signals) {
    ByteWriter w;
    serialize(s, w);
    ByteReader r{w.bytes()};
    auto back = deserializeSignal(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
    EXPECT_TRUE(r.atEnd());
  }
}

TEST(SignalSerialization, GarbageFailsCleanly) {
  std::vector<std::uint8_t> garbage{0xff, 0x00, 0x12};
  ByteReader r{garbage};
  EXPECT_EQ(deserializeSignal(r), std::nullopt);
}

TEST(SignalSerialization, TruncatedOpenFails) {
  ByteWriter w;
  serialize(Signal{OpenSignal{Medium::audio, desc(1)}}, w);
  auto bytes = w.take();
  bytes.resize(bytes.size() / 2);
  ByteReader r{bytes.data(), bytes.size()};
  EXPECT_EQ(deserializeSignal(r), std::nullopt);
}

TEST(SignalHelpers, KindAndDescriptor) {
  Signal s = OpenSignal{Medium::video, desc(7)};
  EXPECT_EQ(kindOf(s), SignalKind::open);
  ASSERT_NE(descriptorOf(s), nullptr);
  EXPECT_EQ(descriptorOf(s)->id, DescriptorId{7});
  EXPECT_EQ(descriptorOf(Signal{CloseSignal{}}), nullptr);
}

// ----------------------------------------------------------- slot endpoint

class SlotFsm : public ::testing::Test {
 protected:
  SlotEndpoint initiator_{SlotId{1}, /*channel_initiator=*/true};
  SlotEndpoint acceptor_{SlotId{2}, /*channel_initiator=*/false};
};

TEST_F(SlotFsm, OpenHappyPathInitiatorSide) {
  EXPECT_EQ(initiator_.state(), ProtocolState::closed);
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  EXPECT_EQ(initiator_.state(), ProtocolState::opening);
  EXPECT_EQ(initiator_.lastDescriptorSent(), DescriptorId{1});

  auto r = initiator_.deliver(OackSignal{desc(2)});
  EXPECT_EQ(r.event, SlotEvent::oackReceived);
  EXPECT_FALSE(r.autoReply.has_value());
  EXPECT_EQ(initiator_.state(), ProtocolState::flowing);
  ASSERT_TRUE(initiator_.remoteDescriptor().has_value());
  EXPECT_EQ(initiator_.remoteDescriptor()->id, DescriptorId{2});
  EXPECT_EQ(initiator_.medium(), Medium::audio);
}

TEST_F(SlotFsm, OpenHappyPathAcceptorSide) {
  auto r = acceptor_.deliver(OpenSignal{Medium::audio, desc(1)});
  EXPECT_EQ(r.event, SlotEvent::openReceived);
  EXPECT_EQ(acceptor_.state(), ProtocolState::opened);
  (void)acceptor_.sendOack(desc(2));
  EXPECT_EQ(acceptor_.state(), ProtocolState::flowing);
  (void)acceptor_.sendSelect(sel(1));
  ASSERT_TRUE(acceptor_.lastSelectorSent().has_value());
  EXPECT_EQ(acceptor_.lastSelectorSent()->answersDescriptor, DescriptorId{1});
}

TEST_F(SlotFsm, RejectWithClose) {
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  auto r = initiator_.deliver(CloseSignal{});
  EXPECT_EQ(r.event, SlotEvent::closedByPeer);
  ASSERT_TRUE(r.autoReply.has_value());
  EXPECT_EQ(kindOf(*r.autoReply), SignalKind::closeack);
  EXPECT_EQ(initiator_.state(), ProtocolState::closed);
  EXPECT_FALSE(initiator_.medium().has_value());
}

TEST_F(SlotFsm, CloseHandshakeFromFlowing) {
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  (void)initiator_.deliver(OackSignal{desc(2)});
  (void)initiator_.sendClose();
  EXPECT_EQ(initiator_.state(), ProtocolState::closing);
  auto r = initiator_.deliver(CloseAckSignal{});
  EXPECT_EQ(r.event, SlotEvent::fullyClosed);
  EXPECT_EQ(initiator_.state(), ProtocolState::closed);
}

TEST_F(SlotFsm, CloseCloseCross) {
  // Both ends close simultaneously: each acknowledges the peer's close and
  // still completes on its own closeack.
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  (void)initiator_.deliver(OackSignal{desc(2)});
  (void)initiator_.sendClose();
  auto r1 = initiator_.deliver(CloseSignal{});
  EXPECT_EQ(r1.event, SlotEvent::ignored);
  ASSERT_TRUE(r1.autoReply.has_value());
  EXPECT_EQ(kindOf(*r1.autoReply), SignalKind::closeack);
  EXPECT_EQ(initiator_.state(), ProtocolState::closing);
  auto r2 = initiator_.deliver(CloseAckSignal{});
  EXPECT_EQ(r2.event, SlotEvent::fullyClosed);
  EXPECT_EQ(initiator_.state(), ProtocolState::closed);
}

TEST_F(SlotFsm, OpenOpenRaceInitiatorWins) {
  // The channel initiator ignores the incoming open and stays opening.
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  auto r = initiator_.deliver(OpenSignal{Medium::audio, desc(2)});
  EXPECT_EQ(r.event, SlotEvent::ignored);
  EXPECT_EQ(initiator_.state(), ProtocolState::opening);
}

TEST_F(SlotFsm, OpenOpenRaceNonInitiatorBacksOff) {
  // The non-initiator backs off and becomes the acceptor (footnote 6).
  (void)acceptor_.sendOpen(Medium::audio, desc(1));
  auto r = acceptor_.deliver(OpenSignal{Medium::audio, desc(2)});
  EXPECT_EQ(r.event, SlotEvent::becameAcceptor);
  EXPECT_EQ(acceptor_.state(), ProtocolState::opened);
  ASSERT_TRUE(acceptor_.remoteDescriptor().has_value());
  EXPECT_EQ(acceptor_.remoteDescriptor()->id, DescriptorId{2});
}

TEST_F(SlotFsm, DescribeUpdatesRemoteDescriptor) {
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  (void)initiator_.deliver(OackSignal{desc(2)});
  auto r = initiator_.deliver(DescribeSignal{desc(3)});
  EXPECT_EQ(r.event, SlotEvent::descriptorReceived);
  EXPECT_EQ(initiator_.remoteDescriptor()->id, DescriptorId{3});
}

TEST_F(SlotFsm, SelectRecorded) {
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  (void)initiator_.deliver(OackSignal{desc(2)});
  auto r = initiator_.deliver(SelectSignal{sel(1)});
  EXPECT_EQ(r.event, SlotEvent::selectorReceived);
  ASSERT_TRUE(initiator_.lastSelectorReceived().has_value());
  EXPECT_EQ(initiator_.lastSelectorReceived()->answersDescriptor, DescriptorId{1});
}

TEST_F(SlotFsm, ObsoleteSignalsIgnoredWhileClosing) {
  // After we send close, late oack/describe/select must be dropped.
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  (void)initiator_.sendClose();
  EXPECT_EQ(initiator_.deliver(OackSignal{desc(2)}).event, SlotEvent::ignored);
  EXPECT_EQ(initiator_.deliver(DescribeSignal{desc(3)}).event, SlotEvent::ignored);
  EXPECT_EQ(initiator_.deliver(SelectSignal{sel(1)}).event, SlotEvent::ignored);
  EXPECT_EQ(initiator_.state(), ProtocolState::closing);
}

TEST_F(SlotFsm, LateCloseWhileClosedAcked) {
  auto r = initiator_.deliver(CloseSignal{});
  EXPECT_EQ(r.event, SlotEvent::ignored);
  ASSERT_TRUE(r.autoReply.has_value());
  EXPECT_EQ(kindOf(*r.autoReply), SignalKind::closeack);
  EXPECT_EQ(initiator_.state(), ProtocolState::closed);
}

TEST_F(SlotFsm, StrayCloseackIgnored) {
  EXPECT_EQ(initiator_.deliver(CloseAckSignal{}).event, SlotEvent::ignored);
  EXPECT_EQ(initiator_.state(), ProtocolState::closed);
}

TEST_F(SlotFsm, IllegalSendsThrow) {
  EXPECT_THROW((void)initiator_.sendOack(desc(1)), std::logic_error);
  EXPECT_THROW((void)initiator_.sendDescribe(desc(1)), std::logic_error);
  EXPECT_THROW((void)initiator_.sendSelect(sel(1)), std::logic_error);
  EXPECT_THROW((void)initiator_.sendClose(), std::logic_error);
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  EXPECT_THROW((void)initiator_.sendOpen(Medium::audio, desc(2)), std::logic_error);
}

TEST_F(SlotFsm, StateAfterFullCycleIsReusable) {
  // closed -> opening -> flowing -> closing -> closed -> opening again.
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  (void)initiator_.deliver(OackSignal{desc(2)});
  (void)initiator_.sendClose();
  (void)initiator_.deliver(CloseAckSignal{});
  EXPECT_EQ(initiator_.state(), ProtocolState::closed);
  (void)initiator_.sendOpen(Medium::video, desc(3));
  EXPECT_EQ(initiator_.state(), ProtocolState::opening);
  EXPECT_EQ(initiator_.medium(), Medium::video);
}

TEST_F(SlotFsm, LiveDeadClassification) {
  EXPECT_TRUE(isDead(ProtocolState::closed));
  EXPECT_TRUE(isDead(ProtocolState::closing));
  EXPECT_TRUE(isLive(ProtocolState::opening));
  EXPECT_TRUE(isLive(ProtocolState::opened));
  EXPECT_TRUE(isLive(ProtocolState::flowing));
}

TEST_F(SlotFsm, CanonicalizeDistinguishesStates) {
  ByteWriter w1;
  initiator_.canonicalize(w1);
  (void)initiator_.sendOpen(Medium::audio, desc(1));
  ByteWriter w2;
  initiator_.canonicalize(w2);
  EXPECT_NE(fnv1a(w1.bytes()), fnv1a(w2.bytes()));
}

// Parameterized sweep: delivering any signal in any state never crashes and
// leaves the endpoint in a valid state (totality of the FSM).
class SlotFsmTotality
    : public ::testing::TestWithParam<std::tuple<int, SignalKind>> {};

TEST_P(SlotFsmTotality, DeliveryIsTotal) {
  auto [state_index, kind] = GetParam();
  SlotEndpoint slot{SlotId{1}, true};
  // Drive the slot into the target state.
  switch (static_cast<ProtocolState>(state_index)) {
    case ProtocolState::closed: break;
    case ProtocolState::opening:
      (void)slot.sendOpen(Medium::audio, desc(1));
      break;
    case ProtocolState::opened:
      (void)slot.deliver(OpenSignal{Medium::audio, desc(9)});
      break;
    case ProtocolState::flowing:
      (void)slot.sendOpen(Medium::audio, desc(1));
      (void)slot.deliver(OackSignal{desc(9)});
      break;
    case ProtocolState::closing:
      (void)slot.sendOpen(Medium::audio, desc(1));
      (void)slot.sendClose();
      break;
  }
  Signal s;
  switch (kind) {
    case SignalKind::open: s = OpenSignal{Medium::audio, desc(21)}; break;
    case SignalKind::oack: s = OackSignal{desc(22)}; break;
    case SignalKind::close: s = CloseSignal{}; break;
    case SignalKind::closeack: s = CloseAckSignal{}; break;
    case SignalKind::describe: s = DescribeSignal{desc(23)}; break;
    case SignalKind::select: s = SelectSignal{sel(23)}; break;
  }
  EXPECT_NO_THROW((void)slot.deliver(s));
  // State remains one of the five valid states (trivially true by type, but
  // exercise accessors for sanitizer coverage).
  (void)slot.state();
  (void)slot.remoteDescriptor();
  (void)slot.medium();
}

INSTANTIATE_TEST_SUITE_P(
    AllStateSignalPairs, SlotFsmTotality,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(SignalKind::open, SignalKind::oack,
                                         SignalKind::close, SignalKind::closeack,
                                         SignalKind::describe, SignalKind::select)));

}  // namespace
}  // namespace cmc
