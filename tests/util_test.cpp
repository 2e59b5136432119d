// Unit tests for src/util: ids, rng, bytes, time.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <unordered_set>

#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace cmc {
namespace {

TEST(Ids, DefaultIsInvalid) {
  SlotId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, SlotId{});
}

TEST(Ids, ValueRoundTrip) {
  SlotId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(SlotId{1}, SlotId{2});
  EXPECT_NE(SlotId{1}, SlotId{2});
}

TEST(Ids, StreamFormat) {
  std::ostringstream oss;
  oss << TunnelId{7};
  EXPECT_EQ(oss.str(), "tun:7");
}

TEST(Ids, AllocatorIsMonotonic) {
  IdAllocator<BoxId> alloc;
  BoxId a = alloc.next();
  BoxId b = alloc.next();
  EXPECT_LT(a, b);
  EXPECT_TRUE(a.valid());
}

TEST(Ids, HashUsableInUnorderedSet) {
  std::unordered_set<SlotId> set;
  set.insert(SlotId{1});
  set.insert(SlotId{1});
  set.insert(SlotId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng{9};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, Uniform01InRange) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanRoughlyCentered) {
  Rng rng{13};
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform(2.0, 4.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.05);
}

TEST(Bytes, IntegerRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.boolean(true);

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string(1000, 'x'));

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, OverrunMarksReaderBad) {
  ByteWriter w;
  w.u16(7);
  ByteReader r{w.bytes()};
  (void)r.u32();  // only 2 bytes available
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, BadReaderReturnsZeroes) {
  std::vector<std::uint8_t> empty;
  ByteReader r{empty};
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, TruncatedStringFails) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow; none do
  ByteReader r{w.bytes()};
  (void)r.str();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, WriterLayoutIsLittleEndian) {
  // The writer's output is both the wire format and the explorer's
  // canonical encoding, so its byte layout is pinned exactly, then read
  // back.
  ByteWriter w;
  w.u8(0xA5);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.boolean(true);
  w.boolean(false);
  w.str("sip");
  w.str("");
  w.u16(1);
  w.u64(~std::uint64_t{0});
  w.u32(0x80000001u);
  const std::vector<std::uint8_t> recorded = {
    0xa5, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde, 0xef, 0xcd, 0xab, 0x89, 0x67,
    0x45, 0x23, 0x01, 0x01, 0x00, 0x03, 0x00, 0x00, 0x00, 0x73, 0x69, 0x70,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0x01, 0x00, 0x00, 0x80,
  };
  const std::vector<std::uint8_t> written = w.take();
  EXPECT_EQ(written, recorded);
  EXPECT_EQ(w.size(), 0u);

  ByteReader r{written};
  EXPECT_EQ(r.u8(), 0xA5u);
  EXPECT_EQ(r.u16(), 0xBEEFu);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "sip");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.u16(), 1u);
  EXPECT_EQ(r.u64(), ~std::uint64_t{0});
  EXPECT_EQ(r.u32(), 0x80000001u);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(Bytes, Fnv1aStableAndOrderSensitive) {
  ByteWriter a, b;
  a.u8(1);
  a.u8(2);
  b.u8(2);
  b.u8(1);
  EXPECT_NE(fnv1a(a.bytes()), fnv1a(b.bytes()));
  EXPECT_EQ(fnv1a(a.bytes()), fnv1a(a.bytes()));
}

TEST(StateHash, DeterministicAndOrderSensitive) {
  ByteWriter a, b;
  a.u64(1);
  a.u64(2);
  b.u64(2);
  b.u64(1);
  EXPECT_EQ(stateHash(a.bytes()), stateHash(a.bytes()));
  EXPECT_NE(stateHash(a.bytes()), stateHash(b.bytes()));
  const std::vector<std::uint8_t> copy(a.bytes().begin(), a.bytes().end());
  EXPECT_EQ(stateHash(copy), stateHash(a.bytes()));
}

TEST(StateHash, ZeroBuffersOfEachLengthDiffer) {
  // Covers the padded short path (<16), whole 16-byte steps and the
  // overlapping final step: zero padding must not alias a longer input.
  const std::vector<std::uint8_t> zeros(40, 0);
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= zeros.size(); ++len) {
    EXPECT_TRUE(seen.insert(stateHash({zeros.data(), len})).second) << "length " << len;
  }
}

TEST(StateHash, EverySingleBitFlipChangesTheHash) {
  // 272 bytes is the size of a typical explorer state encoding; the other
  // lengths put input bytes in the padded short step and in an overlapping
  // final step.
  for (const std::size_t length : {1, 15, 16, 17, 40, 272}) {
    std::vector<std::uint8_t> bytes(length);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const std::uint64_t base = stateHash(bytes);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_NE(stateHash(bytes), base)
            << "length " << length << " byte " << i << " bit " << bit;
        bytes[i] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
    EXPECT_EQ(stateHash(bytes), base);
  }
}

TEST(SimTime, ArithmeticAndComparison) {
  using namespace literals;
  SimTime t0;
  SimTime t1 = t0 + 5_ms;
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0), 5_ms);
  EXPECT_DOUBLE_EQ(t1.millis(), 5.0);
}

TEST(SimTime, LiteralUnits) {
  using namespace literals;
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_EQ(1_ms, 1000_us);
}

}  // namespace
}  // namespace cmc
