// Length-prefixed framing of ChannelMessages over a byte stream.
//
// A signaling channel between physical components is typically TCP (paper
// Section III-A): two-way, FIFO, reliable. TCP gives a byte stream, so
// messages are delimited with an 8-byte header — a 4-byte little-endian
// body length and a 4-byte FNV-1a checksum of the body — followed by the
// ChannelMessage serialization from src/channel.
//
// The checksum guards the signaling plane against payload corruption
// (faulty middlebox, bit rot in a relaying component): a frame whose body
// fails the check is discarded as if the network had lost it — the
// protocol already self-stabilizes under loss (docs/FAULTS.md) — rather
// than poisoning the whole connection. Only a header that has plainly lost
// sync (absurd length) or a checksum-valid body that still fails to parse
// (a framing bug, not line noise) kills the stream.
//
// The same header carries opaque bodies for the ops/telemetry plane
// (obs/ops_server) via net/framed_rpc.hpp; RawFrameDecoder below is the
// only header parser.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "channel/channel.hpp"
#include "util/bytes.hpp"

namespace cmc::net {

[[nodiscard]] inline std::uint32_t frameChecksum(const std::uint8_t* data,
                                                 std::size_t size) {
  return static_cast<std::uint32_t>(fnv1a(data, size));
}

// Encode raw bytes as a frame: [length u32][checksum u32][body].
[[nodiscard]] inline std::vector<std::uint8_t> encodeRawFrame(
    const std::uint8_t* body, std::size_t size) {
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(size));
  frame.u32(frameChecksum(body, size));
  std::vector<std::uint8_t> out = frame.take();
  out.insert(out.end(), body, body + size);
  return out;
}

[[nodiscard]] inline std::vector<std::uint8_t> encodeRawFrame(
    std::span<const std::uint8_t> body) {
  return encodeRawFrame(body.data(), body.size());
}

// Encode one message as a frame whose body is its ChannelMessage bytes.
[[nodiscard]] inline std::vector<std::uint8_t> encodeFrame(
    const ChannelMessage& message) {
  ByteWriter body;
  serialize(message, body);
  return encodeRawFrame(body.bytes());
}

// Incremental decoder: feed arbitrary byte chunks, pop whole frame bodies.
class RawFrameDecoder {
 public:
  // Maximum accepted frame size; malformed/hostile lengths are rejected.
  static constexpr std::uint32_t kMaxFrame = 1 << 20;

  void feed(const std::uint8_t* data, std::size_t size) {
    buffer_.insert(buffer_.end(), data, data + size);
  }

  // Returns the next complete body, or nullopt if more bytes are needed.
  // A frame failing its checksum is silently skipped (corruptFrames()
  // counts it) — equivalent to network loss. A hostile length poisons the
  // decoder (error() becomes true): the stream has lost sync and the
  // connection should be dropped.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next() {
    while (!error_ && buffer_.size() >= kHeaderSize) {
      const std::uint32_t length = readU32(0);
      const std::uint32_t checksum = readU32(4);
      if (length > kMaxFrame) {
        error_ = true;
        return std::nullopt;
      }
      if (buffer_.size() < kHeaderSize + static_cast<std::size_t>(length)) {
        return std::nullopt;
      }
      const std::uint8_t* body = buffer_.data() + kHeaderSize;
      if (frameChecksum(body, length) != checksum) {
        // Corrupted in transit: discard and let the protocol's
        // stabilization machinery treat it as a lost signal.
        buffer_.erase(buffer_.begin(), buffer_.begin() + kHeaderSize + length);
        ++corrupt_frames_;
        continue;
      }
      std::vector<std::uint8_t> out(body, body + length);
      buffer_.erase(buffer_.begin(), buffer_.begin() + kHeaderSize + length);
      return out;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool error() const noexcept { return error_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size(); }
  // Frames discarded for checksum mismatch.
  [[nodiscard]] std::uint64_t corruptFrames() const noexcept {
    return corrupt_frames_;
  }

 private:
  static constexpr std::size_t kHeaderSize = 8;

  [[nodiscard]] std::uint32_t readU32(std::size_t offset) const noexcept {
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(buffer_[offset + i]) << (8 * i);
    }
    return value;
  }

  std::vector<std::uint8_t> buffer_;
  bool error_ = false;
  std::uint64_t corrupt_frames_ = 0;
};

// Incremental ChannelMessage decoder: raw frames, each body parsed as one
// message. A body that passes its checksum but does not parse is a framing
// bug, not line noise, so it poisons the decoder like a hostile length.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t size) {
    raw_.feed(data, size);
  }

  [[nodiscard]] std::optional<ChannelMessage> next() {
    if (error_) return std::nullopt;
    auto body = raw_.next();
    if (!body) return std::nullopt;
    ByteReader reader(body->data(), body->size());
    auto message = deserializeChannelMessage(reader);
    if (!message) error_ = true;
    return message;
  }

  [[nodiscard]] bool error() const noexcept { return error_ || raw_.error(); }
  [[nodiscard]] std::uint64_t corruptFrames() const noexcept {
    return raw_.corruptFrames();
  }

 private:
  RawFrameDecoder raw_;
  bool error_ = false;
};

}  // namespace cmc::net
