// Unit tests for src/channel: FIFO channel semantics, tunnels, meta-signals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel/channel.hpp"

namespace cmc {
namespace {

Descriptor desc(std::uint64_t id) {
  const Codec codecs[] = {Codec::g711u};
  return makeDescriptor(DescriptorId{id}, MediaAddress::parse("10.0.0.1", 5000),
                        codecs, false);
}

TEST(MetaSignal, RoundTrip) {
  MetaSignal m{MetaKind::custom, "paid", "amount=5"};
  ByteWriter w;
  m.serialize(w);
  ByteReader r{w.bytes()};
  EXPECT_EQ(MetaSignal::deserialize(r), m);
  EXPECT_TRUE(r.ok());
}

TEST(MetaSignal, KindNames) {
  EXPECT_EQ(toString(MetaKind::available), "available");
  EXPECT_EQ(toString(MetaKind::teardown), "teardown");
}

TEST(ChannelMessage, TunnelSignalRoundTrip) {
  ChannelMessage m = TunnelSignal{3, OpenSignal{Medium::audio, desc(1)}};
  ByteWriter w;
  serialize(m, w);
  ByteReader r{w.bytes()};
  auto back = deserializeChannelMessage(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(ChannelMessage, MetaRoundTrip) {
  ChannelMessage m = MetaSignal{MetaKind::unavailable, "", ""};
  ByteWriter w;
  serialize(m, w);
  ByteReader r{w.bytes()};
  auto back = deserializeChannelMessage(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(ChannelMessage, BadTagFails) {
  std::vector<std::uint8_t> bytes{9};
  ByteReader r{bytes};
  EXPECT_EQ(deserializeChannelMessage(r), std::nullopt);
}

TEST(Side, Opposite) {
  EXPECT_EQ(opposite(Side::A), Side::B);
  EXPECT_EQ(opposite(Side::B), Side::A);
}

class ChannelFixture : public ::testing::Test {
 protected:
  ChannelState ch_{ChannelId{1}, /*tunnel_count=*/2};
};

TEST_F(ChannelFixture, StartsEmpty) {
  EXPECT_TRUE(ch_.empty());
  EXPECT_FALSE(ch_.hasMessageToward(Side::A));
  EXPECT_FALSE(ch_.hasMessageToward(Side::B));
  EXPECT_EQ(ch_.tunnelCount(), 2u);
}

TEST_F(ChannelFixture, FifoPerDirection) {
  ch_.push(Side::B, TunnelSignal{0, CloseSignal{}});
  ch_.push(Side::B, TunnelSignal{1, CloseAckSignal{}});
  ASSERT_TRUE(ch_.hasMessageToward(Side::B));
  EXPECT_EQ(ch_.depthToward(Side::B), 2u);

  auto m1 = ch_.pop(Side::B);
  EXPECT_EQ(std::get<TunnelSignal>(m1).tunnel, 0u);
  auto m2 = ch_.pop(Side::B);
  EXPECT_EQ(std::get<TunnelSignal>(m2).tunnel, 1u);
  EXPECT_TRUE(ch_.empty());
}

TEST_F(ChannelFixture, DirectionsIndependent) {
  ch_.push(Side::A, TunnelSignal{0, CloseSignal{}});
  EXPECT_TRUE(ch_.hasMessageToward(Side::A));
  EXPECT_FALSE(ch_.hasMessageToward(Side::B));
  (void)ch_.pop(Side::A);
  EXPECT_TRUE(ch_.empty());
}

TEST_F(ChannelFixture, PeekDoesNotConsume) {
  ch_.push(Side::B, MetaSignal{MetaKind::available, "", ""});
  (void)ch_.peek(Side::B);
  EXPECT_EQ(ch_.depthToward(Side::B), 1u);
}

TEST_F(ChannelFixture, CanonicalizeDependsOnContents) {
  ByteWriter w1;
  ch_.canonicalize(w1);
  ch_.push(Side::A, TunnelSignal{0, CloseSignal{}});
  ByteWriter w2;
  ch_.canonicalize(w2);
  EXPECT_NE(fnv1a(w1.bytes()), fnv1a(w2.bytes()));
}

TEST_F(ChannelFixture, CanonicalizeOrderSensitive) {
  ChannelState a{ChannelId{1}, 1};
  ChannelState b{ChannelId{1}, 1};
  a.push(Side::A, TunnelSignal{0, CloseSignal{}});
  a.push(Side::A, TunnelSignal{0, CloseAckSignal{}});
  b.push(Side::A, TunnelSignal{0, CloseAckSignal{}});
  b.push(Side::A, TunnelSignal{0, CloseSignal{}});
  ByteWriter wa, wb;
  a.canonicalize(wa);
  b.canonicalize(wb);
  EXPECT_NE(fnv1a(wa.bytes()), fnv1a(wb.bytes()));
}

std::vector<std::uint8_t> canonicalBytes(const ChannelState& ch) {
  ByteWriter w;
  ch.canonicalize(w);
  return w.take();
}

std::uint32_t tunnelOf(const ChannelMessage& m) {
  return std::get<TunnelSignal>(m).tunnel;
}

// Five messages spill the queue past its inline capacity; the head
// operations and pops still see them in FIFO order.
TEST_F(ChannelFixture, FifoAcrossTheInlineSpill) {
  for (std::uint32_t t = 0; t < 5; ++t) {
    ch_.push(Side::B, TunnelSignal{t, CloseSignal{}});
  }
  EXPECT_EQ(ch_.depthToward(Side::B), 5u);
  ch_.duplicateHead(Side::B);  // 0 0 1 2 3 4
  EXPECT_EQ(ch_.depthToward(Side::B), 6u);
  EXPECT_EQ(tunnelOf(ch_.pop(Side::B)), 0u);
  ch_.dropHead(Side::B);  // 1 2 3 4
  ch_.push(Side::B, TunnelSignal{5, CloseSignal{}});
  std::vector<std::uint32_t> order;
  while (ch_.hasMessageToward(Side::B)) order.push_back(tunnelOf(ch_.pop(Side::B)));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(ch_.empty());
}

TEST_F(ChannelFixture, CopiesKeepCanonicalBytes) {
  ChannelState spilled{ChannelId{2}, 1};
  for (std::uint32_t t = 0; t < 4; ++t) {
    spilled.push(Side::A, TunnelSignal{t, CloseAckSignal{}});
  }
  ch_.push(Side::B, MetaSignal{MetaKind::available, "", ""});  // inline
  for (const ChannelState* source : {&spilled, &ch_}) {
    const ChannelState constructed(*source);
    EXPECT_EQ(canonicalBytes(constructed), canonicalBytes(*source));
    ChannelState assigned_over_spilled = spilled;
    assigned_over_spilled = *source;
    EXPECT_EQ(canonicalBytes(assigned_over_spilled), canonicalBytes(*source));
    ChannelState assigned_over_empty;
    assigned_over_empty = *source;
    EXPECT_EQ(canonicalBytes(assigned_over_empty), canonicalBytes(*source));
  }
}

// The canonical encoding every explored state's bytes are built from,
// recorded from the deque-backed channel: tunnel count, then per direction
// (toward A, toward B) a depth and the messages oldest first.
TEST_F(ChannelFixture, CanonicalBytesMatchRecordedEncoding) {
  ChannelState ch{ChannelId{7}, 2};
  ch.push(Side::B, TunnelSignal{0, CloseSignal{}});
  ch.push(Side::B, TunnelSignal{1, CloseAckSignal{}});
  ch.push(Side::A, MetaSignal{MetaKind::custom, "paid", "5"});
  const std::string recorded(
      "\x02\x00\x00\x00\x01\x00\x00\x00\x01\x04\x04\x00\x00\x00\x70\x61"
      "\x69\x64\x01\x00\x00\x00\x35\x02\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x02\x00\x01\x00\x00\x00\x03",
      39);
  const std::vector<std::uint8_t> bytes = canonicalBytes(ch);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), recorded);
}

}  // namespace
}  // namespace cmc
