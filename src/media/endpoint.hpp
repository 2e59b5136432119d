// Simulated media endpoint: the source/sink half of a user device or media
// resource.
//
// Signaling (the slot protocol) drives two pieces of state here:
//   * sending — set when the endpoint has sent a selector with a real codec
//     answering the current remote descriptor: it then emits one packet per
//     packetInterval to the remote descriptor's address;
//   * listening — which codecs this endpoint currently accepts, set from
//     its own outstanding descriptor; per the paper's relaxed
//     synchronization (Section VI-B), packets that arrive before the
//     endpoint is ready count as *clipped*.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "media/network.hpp"

namespace cmc {

class MediaEndpoint : public MediaSink {
 public:
  MediaEndpoint(EndpointId id, MediaAddress addr, MediaNetwork& network,
                EventLoop& loop)
      : id_(id), addr_(addr), network_(network), loop_(loop) {
    network_.attach(addr_, this);
  }

  ~MediaEndpoint() override { network_.detach(addr_); }

  MediaEndpoint(const MediaEndpoint&) = delete;
  MediaEndpoint& operator=(const MediaEndpoint&) = delete;

  [[nodiscard]] EndpointId id() const noexcept { return id_; }
  [[nodiscard]] const MediaAddress& address() const noexcept { return addr_; }

  // Mobility: move this endpoint to a new address (packets to the old
  // address are dropped from now on, as in a real network).
  void rebind(const MediaAddress& addr) {
    network_.detach(addr_);
    addr_ = addr;
    network_.attach(addr_, this);
  }

  struct SendState {
    MediaAddress target;
    Codec codec = Codec::noMedia;
  };

  // Start/stop transmitting. Passing nullopt stops the packet ticker.
  void setSending(std::optional<SendState> state) {
    sending_ = state;
    if (sending_ && !isNoMedia(sending_->codec)) {
      ++ticker_generation_;
      scheduleTick();
    } else {
      ++ticker_generation_;  // cancels in-flight ticks
    }
  }

  // Start/stop accepting media. Empty codec set = not listening.
  void setListening(std::set<Codec> codecs) { listening_ = std::move(codecs); }

  [[nodiscard]] bool sendingNow() const noexcept {
    return sending_ && !isNoMedia(sending_->codec);
  }
  [[nodiscard]] const std::optional<SendState>& sendingState() const noexcept {
    return sending_;
  }

  void onMediaPacket(const MediaPacket& packet) override {
    if (listening_.count(packet.codec) == 0) {
      ++clipped_;
      return;
    }
    ++received_;
    for (EndpointId src : packet.contributors) {
      last_heard_[src] = loop_.now();
    }
  }

  [[nodiscard]] std::uint64_t packetsSent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t packetsReceived() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t packetsClipped() const noexcept { return clipped_; }

  // Sources heard within the trailing `window` of simulated time.
  [[nodiscard]] std::set<EndpointId> audibleSources(
      SimDuration window = SimDuration{100'000}) const {
    std::set<EndpointId> out;
    for (const auto& [src, when] : last_heard_) {
      if (loop_.now() - when <= window) out.insert(src);
    }
    return out;
  }

  [[nodiscard]] bool hears(EndpointId source,
                           SimDuration window = SimDuration{100'000}) const {
    auto it = last_heard_.find(source);
    return it != last_heard_.end() && loop_.now() - it->second <= window;
  }

  void resetStats() {
    sent_ = received_ = clipped_ = 0;
    last_heard_.clear();
  }

  SimDuration packetInterval{20'000};  // 20 ms, typical audio framing

 private:
  void scheduleTick() {
    const std::uint64_t generation = ticker_generation_;
    loop_.schedule(packetInterval, [this, generation]() {
      if (generation != ticker_generation_ || !sendingNow()) return;
      MediaPacket packet;
      packet.from = addr_;
      packet.to = sending_->target;
      packet.codec = sending_->codec;
      packet.seq = seq_++;
      packet.contributors = {id_};
      ++sent_;
      network_.send(std::move(packet));
      scheduleTick();
    });
  }

  EndpointId id_;
  MediaAddress addr_;
  MediaNetwork& network_;
  EventLoop& loop_;
  std::optional<SendState> sending_;
  std::set<Codec> listening_;
  std::uint64_t ticker_generation_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t clipped_ = 0;
  std::map<EndpointId, SimTime> last_heard_;
};

}  // namespace cmc
