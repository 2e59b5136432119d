// Tests for the TCP signaling transport: framing, the listener contract,
// loopback delivery, FIFO ordering, and a full media-channel setup between
// two endpoint goals talking over real sockets.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <thread>

#include "core/goal.hpp"
#include "net/framed_rpc.hpp"
#include "net/tcp_transport.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cmc::net {
namespace {

Descriptor desc(std::uint64_t id) {
  const Codec codecs[] = {Codec::g711u};
  return makeDescriptor(DescriptorId{id}, MediaAddress::parse("10.0.0.1", 5000),
                        codecs, false);
}

TEST(Framing, RoundTripSingleMessage) {
  ChannelMessage m = TunnelSignal{2, OpenSignal{Medium::audio, desc(4)}};
  auto frame = encodeFrame(m);
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_FALSE(decoder.error());
}

TEST(Framing, TunnelSignalFrameMatchesRecordedBytes) {
  // [length u32][FNV-1a checksum u32][body], recorded before the writer
  // copied whole words: the wire format must not move by a byte.
  const ChannelMessage m = TunnelSignal{2, OpenSignal{Medium::audio, desc(4)}};
  const std::vector<std::uint8_t> recorded = {
    0x19, 0x00, 0x00, 0x00, 0xa0, 0x08, 0x93, 0xad, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x0a, 0x88, 0x13, 0x01, 0x00, 0x02, 0x00,
  };
  const auto frame = encodeFrame(m);
  EXPECT_EQ(frame, recorded);
  EXPECT_EQ(frameChecksum(frame.data() + 8, frame.size() - 8), 0xad9308a0u);
}

TEST(Framing, ByteAtATime) {
  ChannelMessage m = MetaSignal{MetaKind::custom, "paid", "x"};
  auto frame = encodeFrame(m);
  FrameDecoder decoder;
  std::optional<ChannelMessage> out;
  for (std::uint8_t byte : frame) {
    ASSERT_FALSE(out.has_value());
    decoder.feed(&byte, 1);
    out = decoder.next();
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST(Framing, MultipleMessagesOneChunk) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 5; ++i) {
    auto frame = encodeFrame(TunnelSignal{static_cast<std::uint32_t>(i),
                                          CloseSignal{}});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto out = decoder.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<TunnelSignal>(*out).tunnel, i);
  }
  EXPECT_EQ(decoder.next(), std::nullopt);
}

TEST(Framing, TraceContextSurvivesRoundTrip) {
  TunnelSignal sig{2, OpenSignal{Medium::audio, desc(4)}};
  sig.ctx = obs::TraceContext{0x1234567890abcdefULL, 42};
  const ChannelMessage m = sig;
  auto frame = encodeFrame(m);
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);  // equality deliberately ignores the causal ctx
  const auto& ts = std::get<TunnelSignal>(*out);
  EXPECT_EQ(ts.ctx.trace, 0x1234567890abcdefULL);
  EXPECT_EQ(ts.ctx.span, 42u);

  MetaSignal meta{MetaKind::custom, "paid", "x"};
  meta.ctx = obs::TraceContext{9, 10};
  auto meta_frame = encodeFrame(ChannelMessage{meta});
  FrameDecoder meta_decoder;
  meta_decoder.feed(meta_frame.data(), meta_frame.size());
  auto meta_out = meta_decoder.next();
  ASSERT_TRUE(meta_out.has_value());
  EXPECT_EQ(std::get<MetaSignal>(*meta_out).ctx, meta.ctx);
}

TEST(Framing, EmptyContextKeepsLegacyWireBytes) {
  // An empty ctx serializes with the original message tags, so runs without
  // propagation — including every mc canonicalization — see identical bytes
  // to the pre-context encoding. The ctx-bearing tag costs exactly the two
  // u64 ids.
  const auto legacy = encodeFrame(ChannelMessage{TunnelSignal{2, CloseSignal{}}});
  EXPECT_EQ(legacy[8], 0);  // body starts after the 8-byte header: tag 0
  TunnelSignal stamped{2, CloseSignal{}};
  stamped.ctx = obs::TraceContext{7, 9};
  const auto tagged = encodeFrame(ChannelMessage{stamped});
  EXPECT_EQ(tagged[8], 2);  // ctx-bearing tunnel-signal tag
  EXPECT_EQ(tagged.size(), legacy.size() + 16);
}

TEST(Framing, CorruptFrameDoesNotPoisonFollowingContext) {
  TunnelSignal first{1, CloseSignal{}};
  first.ctx = obs::TraceContext{11, 12};
  TunnelSignal second{2, CloseSignal{}};
  second.ctx = obs::TraceContext{21, 22};
  auto bad = encodeFrame(ChannelMessage{first});
  bad.back() ^= 0x5a;  // body byte flip: header checksum no longer matches
  const auto good = encodeFrame(ChannelMessage{second});

  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.corruptFrames(), 1u);
  // The next frame decodes with its own context, untouched by the loss.
  decoder.feed(good.data(), good.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<TunnelSignal>(*out).ctx, second.ctx);
}

TEST(Framing, OversizeFrameIsRejected) {
  FrameDecoder decoder;
  // Header: absurd length + arbitrary checksum.
  std::uint8_t huge[8] = {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0};
  decoder.feed(huge, 8);
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_TRUE(decoder.error());
}

TEST(Framing, GarbagePayloadPoisonsDecoder) {
  // A body that checksums correctly but does not parse is a framing bug,
  // not line noise: the decoder must poison, not skip.
  const std::uint8_t body[3] = {0xee, 0, 0};  // invalid message tag
  ByteWriter w;
  w.u32(3);
  w.u32(frameChecksum(body, 3));
  for (std::uint8_t b : body) w.u8(b);
  FrameDecoder decoder;
  decoder.feed(w.bytes().data(), w.bytes().size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_TRUE(decoder.error());
}

TEST(Framing, ChecksumRejectsCorruptBodyAsLoss) {
  // A frame corrupted in transit is discarded like a lost signal — the
  // stream survives and the following frame still decodes.
  ChannelMessage corrupted = TunnelSignal{1, OpenSignal{Medium::audio, desc(9)}};
  ChannelMessage survivor = TunnelSignal{2, CloseSignal{}};
  auto bad = encodeFrame(corrupted);
  bad.back() ^= 0x5a;  // body byte flip; header checksum no longer matches
  auto good = encodeFrame(survivor);

  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_FALSE(decoder.error()) << "corruption must not poison the stream";
  EXPECT_EQ(decoder.corruptFrames(), 1u);

  decoder.feed(good.data(), good.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, survivor);
  EXPECT_FALSE(decoder.error());
}

TEST(Framing, ChecksumCatchesHeaderLengthCorruption) {
  // Shrinking the advertised length misaligns the body: the checksum over
  // the truncated body fails and the bogus frame is skipped.
  ChannelMessage m = TunnelSignal{3, OpenSignal{Medium::audio, desc(5)}};
  auto frame = encodeFrame(m);
  frame[0] -= 1;  // length low byte: body now one short
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_EQ(decoder.corruptFrames(), 1u);
}

// ------------------------------------------------------------- listener
TEST(Listener, PortZeroResolvesToAFreePort) {
  Listener listener(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_NE(listener.port(), 0u);
}

TEST(Listener, StopIsIdempotentAndSafeBeforeStart) {
  Listener listener(0);
  ASSERT_TRUE(listener.ok());
  listener.stop();  // never started
  EXPECT_FALSE(listener.ok());
  listener.stop();  // second stop
  listener.start([](int fd) { ::close(fd); });  // no-op once stopped
  listener.stop();
}

TEST(Listener, StopWakesABlockedAcceptAndRefusesLaterConnects) {
  Listener listener(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.port();
  std::atomic<int> accepted{0};
  listener.start([&accepted](int fd) {
    ++accepted;
    ::close(fd);
  });
  // Give the accept thread time to block in accept().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto stopped =
      std::async(std::launch::async, [&listener]() { listener.stop(); });
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "stop() did not wake the blocked accept thread";
  EXPECT_EQ(accepted.load(), 0);
  const int fd = connectTcp("127.0.0.1", port);
  EXPECT_LT(fd, 0) << "connect succeeded after stop()";
  if (fd >= 0) ::close(fd);
}

class LoopbackPair : public ::testing::Test {
 protected:
  void SetUp() override {
    listener_ = std::make_unique<Listener>(0);
    ASSERT_TRUE(listener_->ok());
    auto accepted_fd = accepted_.get_future();
    listener_->start([this](int fd) { accepted_.set_value(fd); });
    client_ = TcpSignalingPeer::connect("127.0.0.1", listener_->port());
    ASSERT_NE(client_, nullptr);
    ASSERT_EQ(accepted_fd.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "the listener accepted no connection";
    server_ = std::make_unique<TcpSignalingPeer>(accepted_fd.get());
  }

  std::promise<int> accepted_;  // outlives the listener's accept thread
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<TcpSignalingPeer> client_;
  std::unique_ptr<TcpSignalingPeer> server_;
};

TEST_F(LoopbackPair, DeliversInFifoOrder) {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint32_t> received;
  constexpr int kCount = 200;

  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    received.push_back(std::get<TunnelSignal>(m).tunnel);
    cv.notify_one();
  });
  client_->start([](const ChannelMessage&) {});

  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client_->send(TunnelSignal{i, CloseSignal{}}));
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&]() { return received.size() == kCount; }));
  for (std::uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(received[i], i);
}

TEST_F(LoopbackPair, BidirectionalTraffic) {
  std::promise<ChannelMessage> to_server, to_client;
  auto server_got = to_server.get_future();
  auto client_got = to_client.get_future();
  server_->start([&](const ChannelMessage& m) { to_server.set_value(m); });
  client_->start([&](const ChannelMessage& m) { to_client.set_value(m); });

  ChannelMessage from_client = MetaSignal{MetaKind::available, "", ""};
  ChannelMessage from_server = MetaSignal{MetaKind::custom, "hi", ""};
  ASSERT_TRUE(client_->send(from_client));
  ASSERT_TRUE(server_->send(from_server));
  ASSERT_EQ(server_got.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_EQ(client_got.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(server_got.get(), from_client);
  EXPECT_EQ(client_got.get(), from_server);
}

TEST_F(LoopbackPair, DropAndCorruptHooksLoseExactlyOneFrame) {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint32_t> received;
  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    received.push_back(std::get<TunnelSignal>(m).tunnel);
    cv.notify_one();
  });
  client_->start([](const ChannelMessage&) {});

  client_->dropNextFrame();
  ASSERT_TRUE(client_->send(TunnelSignal{0, CloseSignal{}}));  // vanishes
  client_->corruptNextFrame();
  ASSERT_TRUE(client_->send(TunnelSignal{1, CloseSignal{}}));  // checksum-rejected
  ASSERT_TRUE(client_->send(TunnelSignal{2, CloseSignal{}}));  // arrives

  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&]() { return !received.empty(); }));
  // Only the clean frame made it, and the connection survived both faults.
  EXPECT_EQ(received, (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(client_->isOpen());
  EXPECT_TRUE(server_->isOpen());
}

TEST_F(LoopbackPair, CountsFramesAndBytesOnBothSides) {
  obs::MetricsRegistry registry;
  obs::setMetrics(&registry);
  std::promise<void> arrived;
  server_->start([&](const ChannelMessage&) { arrived.set_value(); });
  client_->start([](const ChannelMessage&) {});

  const ChannelMessage lost = TunnelSignal{0, CloseSignal{}};
  const ChannelMessage corrupt = TunnelSignal{1, CloseSignal{}};
  const ChannelMessage clean = TunnelSignal{2, CloseSignal{}};
  client_->dropNextFrame();
  ASSERT_TRUE(client_->send(lost));
  client_->corruptNextFrame();
  ASSERT_TRUE(client_->send(corrupt));
  ASSERT_TRUE(client_->send(clean));
  ASSERT_EQ(arrived.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  // Join both reader threads, so every count they make is in.
  server_.reset();
  client_.reset();
  obs::setMetrics(nullptr);

  const std::uint64_t wire =
      encodeFrame(corrupt).size() + encodeFrame(clean).size();
  EXPECT_EQ(registry.counter("net.frames_dropped").value(), 1u);
  EXPECT_EQ(registry.counter("net.frames_corrupted").value(), 1u);
  EXPECT_EQ(registry.counter("net.frames_sent").value(), 2u);
  EXPECT_EQ(registry.counter("net.bytes_sent").value(), wire);
  EXPECT_EQ(registry.counter("net.bytes_received").value(), wire);
  EXPECT_EQ(registry.counter("net.frames_received").value(), 1u);
  EXPECT_EQ(registry.counter("net.frames_rejected_checksum").value(), 1u);
}

TEST_F(LoopbackPair, SendStampsCurrentContextWhenPropagationOn) {
  obs::TraceRecorder rec;
  rec.setPropagation(true);
  obs::setRecorder(&rec);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<obs::TraceContext> received;
  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    received.push_back(std::get<TunnelSignal>(m).ctx);
    cv.notify_one();
  });
  client_->start([](const ChannelMessage&) {});

  {
    // Sends inside a stimulus scope pick up its context in-band.
    obs::ContextScope scope(obs::TraceContext{5, 6});
    ASSERT_TRUE(client_->send(TunnelSignal{0, CloseSignal{}}));
    // An explicitly stamped signal keeps its own ids.
    TunnelSignal pre{1, CloseSignal{}};
    pre.ctx = obs::TraceContext{1, 2};
    ASSERT_TRUE(client_->send(pre));
  }
  // No surrounding stimulus: nothing to propagate.
  ASSERT_TRUE(client_->send(TunnelSignal{2, CloseSignal{}}));

  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&]() { return received.size() == 3; }));
  EXPECT_EQ(received[0], (obs::TraceContext{5, 6}));
  EXPECT_EQ(received[1], (obs::TraceContext{1, 2}));
  EXPECT_TRUE(received[2].empty());
  obs::setRecorder(nullptr);
}

TEST_F(LoopbackPair, CloseNotifiesPeer) {
  std::promise<void> closed;
  server_->start([](const ChannelMessage&) {},
                 [&]() { closed.set_value(); });
  client_->start([](const ChannelMessage&) {});
  client_->close();
  EXPECT_EQ(closed.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_FALSE(client_->send(TunnelSignal{0, CloseSignal{}}));
}

TEST_F(LoopbackPair, MediaChannelSetupOverRealSockets) {
  // Drive the actual protocol machinery — two endpoint goals and slot FSMs
  // — over the socket: open/oack/select end to end.
  std::mutex mutex;
  std::condition_variable cv;

  SlotEndpoint caller_slot{SlotId{1}, /*channel_initiator=*/true};
  OpenSlotGoal caller{Medium::audio,
                     MediaIntent::endpoint(MediaAddress::parse("10.0.0.1", 5000),
                                           {Codec::g711u}),
                     DescriptorFactory{1}};
  SlotEndpoint callee_slot{SlotId{2}, false};
  HoldSlotGoal callee{MediaIntent::endpoint(MediaAddress::parse("10.0.0.2", 5000),
                                            {Codec::g711u}),
                      DescriptorFactory{2}};

  auto pump = [](TcpSignalingPeer& peer, Outbox&& out) {
    for (auto& item : out.take()) {
      ASSERT_TRUE(peer.send(TunnelSignal{0, std::move(item.signal)}));
    }
  };

  // Server side: callee goal reacts to every inbound signal.
  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto& ts = std::get<TunnelSignal>(m);
    auto result = callee_slot.deliver(ts.signal);
    Outbox out;
    if (result.autoReply) out.send(callee_slot.id(), *result.autoReply);
    callee.onEvent(callee_slot, result.event, out);
    pump(*server_, std::move(out));
    cv.notify_one();
  });
  // Client side: caller goal likewise.
  client_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto& ts = std::get<TunnelSignal>(m);
    auto result = caller_slot.deliver(ts.signal);
    Outbox out;
    if (result.autoReply) out.send(caller_slot.id(), *result.autoReply);
    caller.onEvent(caller_slot, result.event, out);
    pump(*client_, std::move(out));
    cv.notify_one();
  });

  {
    std::lock_guard<std::mutex> lock(mutex);
    Outbox out;
    caller.attach(caller_slot, out);
    pump(*client_, std::move(out));
  }

  std::unique_lock<std::mutex> lock(mutex);
  const bool converged = cv.wait_for(lock, std::chrono::seconds(5), [&]() {
    return caller_slot.state() == ProtocolState::flowing &&
           callee_slot.state() == ProtocolState::flowing &&
           caller_slot.lastSelectorReceived().has_value() &&
           callee_slot.lastSelectorReceived().has_value();
  });
  ASSERT_TRUE(converged);
  EXPECT_EQ(caller_slot.lastSelectorReceived()->codec, Codec::g711u);
  EXPECT_EQ(callee_slot.lastSelectorReceived()->codec, Codec::g711u);
}

}  // namespace
}  // namespace cmc::net
