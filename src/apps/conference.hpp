// ConferenceServerBox: an audio conference (paper Fig. 7).
//
// The conference server is a pure application server; the mixing happens in
// a conference-bridge media resource. One signaling channel to the bridge
// carries one tunnel per participant; during the conference the server
// flowlinks each participant's tunnel to its bridge tunnel. Full muting of
// a participant replaces that flowlink by two holdslots; partial muting is
// delegated to the bridge through standardized meta-signals ("mode"/"mix"),
// as the paper prescribes.
#pragma once

#include <map>

#include "core/box.hpp"

namespace cmc {

class ConferenceServerBox : public Box {
 public:
  ConferenceServerBox(BoxId id, std::string name, std::string bridge_resource,
                      std::uint32_t max_parties = 8)
      : Box(id, std::move(name)),
        bridge_resource_(std::move(bridge_resource)),
        max_parties_(max_parties) {
    ids_ = DescriptorFactory{id.value()};
  }

  // Invite a device into the conference.
  void invite(const std::string& device) {
    requestChannel(device, 1, "party:" + device);
  }

  // Full muting: separate the participant from the conference entirely.
  void muteParty(const std::string& device) {
    auto it = parties_.find(device);
    if (it == parties_.end()) return;
    setGoal(it->second.party_slot, HoldSlotGoal{MediaIntent::server(), ids_});
    setGoal(it->second.bridge_slot, HoldSlotGoal{MediaIntent::server(), ids_});
  }

  void unmuteParty(const std::string& device) {
    auto it = parties_.find(device);
    if (it == parties_.end()) return;
    linkSlots(it->second.party_slot, it->second.bridge_slot);
  }

  // Partial muting: delegated to the bridge's mix matrix.
  void setMode(const std::string& mode) {
    if (bridge_channel_.valid()) {
      sendMeta(bridge_channel_, MetaSignal{MetaKind::custom, "mode", mode});
    }
  }
  void setMixEdge(std::size_t from, std::size_t to, bool audible) {
    if (!bridge_channel_.valid()) return;
    std::string payload = std::to_string(from) + "," + std::to_string(to) + "," +
                          (audible ? "1" : "0");
    sendMeta(bridge_channel_, MetaSignal{MetaKind::custom, "mix", payload});
  }

  [[nodiscard]] std::size_t legOf(const std::string& device) const {
    auto it = parties_.find(device);
    return it == parties_.end() ? ~std::size_t{0} : it->second.leg;
  }
  [[nodiscard]] std::size_t partyCount() const noexcept { return parties_.size(); }

 protected:
  void onChannelUp(ChannelId channel, const std::string& tag) override {
    if (tag == "bridge") {
      bridge_channel_ = channel;
      bridge_slots_ = slotsOf(channel);
      // Link any parties that arrived before the bridge.
      for (auto& [name, party] : parties_) attachParty(party);
      return;
    }
    if (tag.rfind("party:", 0) == 0) {
      addParty(tag.substr(6), channel, /*dialed_out=*/true);
    }
  }

  void onIncomingChannel(ChannelId channel, const std::string& peer) override {
    // Devices may also dial into the conference.
    addParty(peer, channel, /*dialed_out=*/false);
  }

  void onSlotActivity(SlotId slot) override {
    // An invited party answered: its slot reached flowing under the
    // server's openslot; now splice it onto its bridge leg. The flowlink's
    // flow bias extends the channel to the bridge.
    for (auto& [name, party] : parties_) {
      if (party.party_slot == slot && party.awaiting_answer &&
          isFlowing(slot)) {
        party.awaiting_answer = false;
        attachParty(party);
      }
    }
  }

  void onChannelDown(ChannelId channel) override {
    if (channel == bridge_channel_) {
      bridge_channel_ = ChannelId{};
      bridge_slots_ = {};
      return;
    }
    for (auto it = parties_.begin(); it != parties_.end(); ++it) {
      if (!channelOf(it->second.party_slot).valid()) {
        setGoal(it->second.bridge_slot, CloseSlotGoal{});
        parties_.erase(it);
        break;
      }
    }
  }

 private:
  struct Party {
    SlotId party_slot;
    SlotId bridge_slot;
    std::size_t leg = 0;
    bool awaiting_answer = false;  // we invited; open not yet accepted
  };

  void addParty(const std::string& name, ChannelId channel, bool dialed_out) {
    const auto slots = slotsOf(channel);
    if (slots.empty() || parties_.count(name) != 0) return;
    Party party;
    party.party_slot = slots.front();
    party.awaiting_answer = dialed_out;
    if (dialed_out) {
      // Ring the device: open (muted — this is a server masquerade); once
      // it answers, onSlotActivity splices it to the bridge.
      setGoal(party.party_slot,
              OpenSlotGoal{Medium::audio, MediaIntent::server(), ids_});
    }
    parties_[name] = party;
    if (!bridge_channel_.valid() && !bridge_requested_) {
      bridge_requested_ = true;
      requestChannel(bridge_resource_, max_parties_, "bridge");
    }
    if (!dialed_out) attachParty(parties_[name]);
  }

  void attachParty(Party& party) {
    if (party.awaiting_answer) return;  // still ringing
    if (bridge_slots_.empty()) {
      // Bridge not up yet: hold the participant.
      setGoal(party.party_slot, HoldSlotGoal{MediaIntent::server(), ids_});
      return;
    }
    if (!party.bridge_slot.valid()) {
      if (next_leg_ >= bridge_slots_.size()) return;
      party.leg = next_leg_++;
      party.bridge_slot = bridge_slots_[party.leg];
    }
    linkSlots(party.party_slot, party.bridge_slot);
  }

  std::string bridge_resource_;
  std::uint32_t max_parties_;
  DescriptorFactory ids_;
  ChannelId bridge_channel_;
  SlotIds bridge_slots_;
  bool bridge_requested_ = false;
  std::size_t next_leg_ = 0;
  std::map<std::string, Party> parties_;
};

}  // namespace cmc
