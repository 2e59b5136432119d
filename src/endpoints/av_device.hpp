// AvDeviceBox: a multi-stream audio/video device (television, laptop,
// headphones) for the collaborative-television scenario (paper Fig. 8).
//
// Unlike a telephone, such a device terminates several media channels at
// once — e.g. one video and one audio stream of a shared movie — each on
// its own tunnel with its own media endpoint and codec capabilities.
// Different devices deliberately differ in capability (the paper's family
// TV vs. the daughter's laptop use different codecs/qualities); the
// unilateral codec choice rule then picks per-receiver codecs with no
// negotiation.
#pragma once

#include <map>
#include <memory>

#include "core/box.hpp"
#include "endpoints/media_sync.hpp"

namespace cmc {

class AvDeviceBox : public Box {
 public:
  struct StreamSpec {
    Medium medium = Medium::audio;
    CodecList codecs;
  };

  AvDeviceBox(BoxId id, std::string name, MediaNetwork& media_network,
              EventLoop& loop, MediaAddress base_addr,
              std::vector<StreamSpec> streams)
      : Box(id, std::move(name)), specs_(std::move(streams)) {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      MediaAddress addr = base_addr;
      addr.port = static_cast<std::uint16_t>(base_addr.port + i);
      endpoints_.push_back(std::make_unique<MediaEndpoint>(
          EndpointId{id.value() * 100 + i}, addr, media_network, loop));
    }
    ids_ = DescriptorFactory{id.value()};
  }

  [[nodiscard]] MediaEndpoint& stream(std::size_t i) { return *endpoints_[i]; }
  [[nodiscard]] const MediaEndpoint& stream(std::size_t i) const {
    return *endpoints_[i];
  }
  [[nodiscard]] std::size_t streamCount() const noexcept {
    return endpoints_.size();
  }

  // Open stream `i` on the device's (single) signaling channel: used when
  // the device initiates — e.g. the TV pulling the movie streams.
  void openStream(std::size_t i) {
    if (!channel_.valid()) return;
    const auto slots = slotsOf(channel_);
    if (i >= slots.size() || i >= specs_.size()) return;
    bound_[slots[i]] = i;
    setGoal(slots[i],
            OpenSlotGoal{specs_[i].medium, intentFor(i), ids_});
  }

  [[nodiscard]] ChannelId channel() const noexcept { return channel_; }

 protected:
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    adopt(channel);
    // Accept whatever streams are offered, one tunnel per stream.
    const auto slots = slotsOf(channel);
    for (std::size_t i = 0; i < slots.size() && i < specs_.size(); ++i) {
      bound_[slots[i]] = i;
      setGoal(slots[i], HoldSlotGoal{intentFor(i), ids_});
    }
  }

  void onChannelUp(ChannelId channel, const std::string&) override {
    adopt(channel);
    const auto slots = slotsOf(channel);
    for (std::size_t i = 0; i < slots.size() && i < specs_.size(); ++i) {
      bound_[slots[i]] = i;
      setGoal(slots[i], HoldSlotGoal{intentFor(i), ids_});
    }
  }

  void onSlotActivity(SlotId slot) override {
    auto it = bound_.find(slot);
    if (it == bound_.end()) return;
    const SlotEndpoint& s = this->slot(slot);
    endpoints_[it->second]->setSending(sendStateOf(s));
    endpoints_[it->second]->setListening(listenStateOf(s));
  }

  void onChannelDown(ChannelId channel) override {
    if (channel == channel_) channel_ = ChannelId{};
    for (auto it = bound_.begin(); it != bound_.end();) {
      if (!channelOf(it->first).valid()) {
        endpoints_[it->second]->setSending(std::nullopt);
        endpoints_[it->second]->setListening({});
        it = bound_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  [[nodiscard]] MediaIntent intentFor(std::size_t i) const {
    MediaIntent intent = MediaIntent::endpoint(endpoints_[i]->address(),
                                               specs_[i].codecs);
    return intent;
  }

  void adopt(ChannelId channel) {
    if (!channel_.valid()) channel_ = channel;
  }

  std::vector<StreamSpec> specs_;
  std::vector<std::unique_ptr<MediaEndpoint>> endpoints_;
  DescriptorFactory ids_;
  ChannelId channel_;
  std::map<SlotId, std::size_t> bound_;
};

}  // namespace cmc
