// BridgeBox: the signaling face of a conference bridge (paper Fig. 7).
//
// The conference server connects each user to the bridge through a tunnel;
// the bridge terminates each tunnel with a holdSlot and maps it onto one
// media leg of a ConferenceBridge. Toward the bridge a leg carries one
// user's voice; away from it, the mix chosen by the mix matrix.
//
// Partial muting (paper Section IV-B) cannot be expressed with the four
// primitives — it is the bridge's business. The controlling server sets the
// matrix with standardized meta-signals (the paper cites JSR 309):
//   tag "mix",  payload "<from>,<to>,<0|1>"  — per-edge audibility
//   tag "mode", payload "full" | "business:<spk>" | "emergency:<caller>" |
//               "whisper:<agent>,<customer>,<coach>"
#pragma once

#include <charconv>
#include <map>
#include <sstream>

#include "core/box.hpp"
#include "endpoints/media_sync.hpp"
#include "media/bridge.hpp"

namespace cmc {

class BridgeBox : public Box {
 public:
  BridgeBox(BoxId id, std::string name, MediaNetwork& media_network,
            EventLoop& loop, MediaAddress base_addr, std::uint32_t max_legs = 8)
      : Box(id, std::move(name)), bridge_(media_network, loop) {
    for (std::uint32_t i = 0; i < max_legs; ++i) {
      MediaAddress addr = base_addr;
      addr.port = static_cast<std::uint16_t>(base_addr.port + i);
      bridge_.addLeg(addr);
    }
    ids_ = DescriptorFactory{id.value()};
  }

  [[nodiscard]] ConferenceBridge& bridge() noexcept { return bridge_; }

 protected:
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    // One media leg per tunnel, in tunnel order.
    const auto slots = slotsOf(channel);
    for (std::size_t t = 0; t < slots.size(); ++t) {
      if (next_leg_ >= bridge_.legCount()) break;
      const std::size_t leg = next_leg_++;
      leg_of_[slots[t]] = leg;
      MediaIntent intent = MediaIntent::endpoint(
          bridge_.legAddress(leg), {Codec::g711u, Codec::g726});
      setGoal(slots[t], HoldSlotGoal{intent, ids_});
    }
  }

  void onSlotActivity(SlotId slot) override {
    auto it = leg_of_.find(slot);
    if (it == leg_of_.end()) return;
    const SlotEndpoint& s = this->slot(slot);
    bridge_.setLegSending(it->second, sendStateOf(s));
    bridge_.setLegListening(it->second, listenStateOf(s));
  }

  void onChannelDown(ChannelId channel) override {
    (void)channel;
    // Slots are gone; quiet any legs whose slot vanished.
    for (auto it = leg_of_.begin(); it != leg_of_.end();) {
      if (!channelOf(it->first).valid()) {
        bridge_.setLegSending(it->second, std::nullopt);
        bridge_.setLegListening(it->second, {});
        it = leg_of_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void onMeta(ChannelId, const MetaSignal& meta) override {
    if (meta.kind != MetaKind::custom) return;
    if (meta.tag == "mix") {
      applyMixEdge(meta.payload);
    } else if (meta.tag == "mode") {
      applyMode(meta.payload);
    }
  }

 private:
  void applyMixEdge(const std::string& payload) {
    std::size_t from = 0, to = 0;
    int on = 1;
    std::istringstream iss(payload);
    char comma;
    if (iss >> from >> comma >> to >> comma >> on) {
      if (from < bridge_.legCount() && to < bridge_.legCount()) {
        bridge_.setAudible(from, to, on != 0);
      }
    }
  }

  void fullMesh() {
    for (std::size_t i = 0; i < bridge_.legCount(); ++i) {
      for (std::size_t j = 0; j < bridge_.legCount(); ++j) {
        bridge_.setAudible(i, j, i != j);
      }
    }
  }

  void applyMode(const std::string& payload) {
    const auto colon = payload.find(':');
    const std::string mode = payload.substr(0, colon);
    std::vector<std::size_t> args;
    if (colon != std::string::npos) {
      std::istringstream iss(payload.substr(colon + 1));
      std::string part;
      while (std::getline(iss, part, ',')) {
        std::size_t v = 0;
        std::from_chars(part.data(), part.data() + part.size(), v);
        args.push_back(v);
      }
    }
    fullMesh();
    if (mode == "full") return;
    if (mode == "business" && args.size() == 1) {
      // Large meeting: only the speaker's input reaches anyone; everyone
      // still hears the speaker, background noise from listeners is cut.
      for (std::size_t from = 0; from < bridge_.legCount(); ++from) {
        if (from == args[0]) continue;
        for (std::size_t to = 0; to < bridge_.legCount(); ++to) {
          bridge_.setAudible(from, to, false);
        }
      }
    } else if (mode == "emergency" && args.size() == 1) {
      // Emergency services: keep the caller's input, but the caller must
      // not hear what emergency personnel say to each other.
      const std::size_t caller = args[0];
      for (std::size_t from = 0; from < bridge_.legCount(); ++from) {
        if (from != caller) bridge_.setAudible(from, caller, false);
      }
    } else if (mode == "whisper" && args.size() == 3) {
      // Training: agent & customer hear each other; coach hears both; the
      // customer cannot hear the coach; the agent hears the coach whisper.
      const std::size_t agent = args[0], customer = args[1], coach = args[2];
      fullMesh();
      bridge_.setAudible(coach, customer, false);
      bridge_.setAudible(agent, customer, true);
      bridge_.setAudible(customer, agent, true);
      bridge_.setAudible(coach, agent, true);
    }
  }

  ConferenceBridge bridge_;
  DescriptorFactory ids_;
  std::size_t next_leg_ = 0;
  std::map<SlotId, std::size_t> leg_of_;
};

}  // namespace cmc
