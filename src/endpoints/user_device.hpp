// UserDeviceBox: a telephone, laptop, or television.
//
// A user device is a media endpoint that acts autonomously (paper Section
// I): it can request connections at any time and accept or decline offered
// ones. Its media behavior is entirely the composition of the goal
// primitives — per the paper's Section V assumption, endpoints are
// programmed with openSlot/closeSlot/holdSlot, with the user free to choose
// mute flags.
//
//   placeCall(target)  create a signaling channel toward `target` and put
//                      an openSlot on its tunnel;
//   accept policy      autoAccept binds a holdSlot to every incoming
//                      tunnel immediately; manual waits for acceptCall();
//   hangUp()           destroy the channel (single-medium devices tear the
//                      whole channel down rather than closeSlot, as in the
//                      paper's Click-to-Dial discussion);
//   setMute(in, out)   the modify event of Fig. 5.
//
// The device keeps its MediaEndpoint in lock-step with its single active
// slot: sending follows the selector it last sent, listening follows the
// selector it last received.
#pragma once

#include <functional>

#include "core/box.hpp"
#include "endpoints/media_sync.hpp"

namespace cmc {

class UserDeviceBox : public Box {
 public:
  enum class AcceptPolicy { autoAccept, manual };

  UserDeviceBox(BoxId id, std::string name, MediaNetwork& media_network,
                EventLoop& loop, MediaAddress media_addr,
                AcceptPolicy policy = AcceptPolicy::autoAccept,
                CodecList codecs = {Codec::g711u, Codec::g726})
      : Box(id, std::move(name)),
        media_(EndpointId{id.value()}, media_addr, media_network, loop),
        policy_(policy) {
    intent_ = MediaIntent::endpoint(media_addr, std::move(codecs));
    ids_ = DescriptorFactory{id.value()};
  }

  // ---- user actions -------------------------------------------------
  // Call another box (device or server) by name.
  void placeCall(const std::string& target) { requestChannel(target, 1, "call"); }

  // Originate a call on the device's permanent line channel (e.g. a PBX
  // extension going off-hook): put an openSlot on the line tunnel.
  void callOnLine() {
    if (!line_channel_.valid()) return;
    for (SlotId s : slotsOf(line_channel_)) {
      if (slotState(s) == ProtocolState::closed) {
        setGoal(s, OpenSlotGoal{Medium::audio, intent_, ids_});
        active_slot_ = s;
        return;
      }
    }
  }

  // Accept the ringing channel (manual policy).
  void acceptCall() {
    if (!ringing_.valid()) return;
    bindHold(ringing_);
    ringing_ = ChannelId{};
  }

  // Decline the ringing channel.
  void declineCall() {
    if (!ringing_.valid()) return;
    sendMeta(ringing_, MetaSignal{MetaKind::unavailable, "", ""});
    for (SlotId s : slotsOf(ringing_)) setGoal(s, CloseSlotGoal{});
    ringing_ = ChannelId{};
  }

  // A busy device reports unavailable and rejects incoming channels.
  void setBusy(bool busy) noexcept { busy_ = busy; }

  // Tear down the current call's channel entirely.
  void hangUp() {
    for (ChannelId ch : activeChannels()) destroyChannel(ch);
    syncMedia();
  }

  // The modify event: change this user's mute flags.
  void setMute(bool mute_in, bool mute_out) {
    intent_.muteIn = mute_in;
    intent_.muteOut = mute_out;
    if (active_slot_.valid()) setSlotMute(active_slot_, mute_in, mute_out);
  }

  // Mobility (paper footnote 4, Section X-F): the device moved to a new
  // media address mid-call. A fresh descriptor re-points the far end
  // without tearing the channel down.
  void migrate(MediaAddress addr) {
    media_.rebind(addr);
    intent_.addr = addr;
    if (active_slot_.valid()) setSlotAddress(active_slot_, addr);
    syncMedia();
  }

  // Unilateral codec change mid-episode (paper Section VI-B); returns false
  // if the far end does not offer `codec`.
  bool switchCodec(Codec codec) {
    if (!active_slot_.valid()) return false;
    const bool ok = reselectSlotCodec(active_slot_, codec);
    if (ok) syncMedia();
    return ok;
  }

  // ---- observation ----------------------------------------------------
  [[nodiscard]] MediaEndpoint& media() noexcept { return media_; }
  [[nodiscard]] const MediaEndpoint& media() const noexcept { return media_; }
  [[nodiscard]] bool inCall() const {
    return active_slot_.valid() && slotState(active_slot_) == ProtocolState::flowing;
  }
  [[nodiscard]] bool ringing() const noexcept { return ringing_.valid(); }
  [[nodiscard]] SlotId activeSlot() const noexcept { return active_slot_; }
  [[nodiscard]] const MediaIntent& intent() const noexcept { return intent_; }

  // Observer hook for examples/tests.
  std::function<void(const std::string& event)> onUserEvent;

 protected:
  void onChannelUp(ChannelId channel, const std::string& tag) override {
    if (tag == "call") {
      for (SlotId s : slotsOf(channel)) {
        setGoal(s, OpenSlotGoal{Medium::audio, intent_, ids_});
        active_slot_ = s;
      }
      return;
    }
    // Statically configured channel (e.g. the permanent line to a PBX):
    // hold it so incoming calls are answered when the user is willing.
    line_channel_ = channel;
    if (policy_ == AcceptPolicy::autoAccept) bindHold(channel);
  }

  void onIncomingChannel(ChannelId channel, const std::string&) override {
    if (busy_) {
      sendMeta(channel, MetaSignal{MetaKind::unavailable, "", ""});
      for (SlotId s : slotsOf(channel)) setGoal(s, CloseSlotGoal{});
      return;
    }
    if (policy_ == AcceptPolicy::autoAccept) {
      bindHold(channel);
    } else {
      // The device is reachable and now alerting its user.
      sendMeta(channel, MetaSignal{MetaKind::available, "", ""});
      ringing_ = channel;
      notify("ringing");
    }
  }

  void onChannelDown(ChannelId channel) override {
    if (ringing_ == channel) ringing_ = ChannelId{};
    if (channelOf(active_slot_) == ChannelId{}) active_slot_ = SlotId{};
    syncMedia();
    notify("channel-down");
  }

  void onSlotActivity(SlotId slot) override {
    if (slotState(slot) == ProtocolState::flowing) active_slot_ = slot;
    syncMedia();
  }

  void onCrashRestart() override {
    // Volatile call-session state died with the box; the re-attached goals
    // (Box::crashRestart) rebuild the call, and syncMedia falls back to
    // silence until a slot flows again.
    ringing_ = ChannelId{};
    syncMedia();
    notify("restarted");
  }

 private:
  void bindHold(ChannelId channel) {
    for (SlotId s : slotsOf(channel)) {
      setGoal(s, HoldSlotGoal{intent_, ids_});
      active_slot_ = s;
    }
    syncMedia();
  }

  [[nodiscard]] std::vector<ChannelId> activeChannels() const {
    std::vector<ChannelId> out;
    if (active_slot_.valid()) {
      ChannelId ch = channelOf(active_slot_);
      if (ch.valid()) out.push_back(ch);
    }
    if (ringing_.valid()) out.push_back(ringing_);
    return out;
  }

  void syncMedia() {
    if (active_slot_.valid() && channelOf(active_slot_).valid()) {
      const SlotEndpoint& s = slot(active_slot_);
      media_.setSending(sendStateOf(s));
      media_.setListening(listenStateOf(s));
    } else {
      media_.setSending(std::nullopt);
      media_.setListening({});
    }
  }

  void notify(const std::string& event) {
    if (onUserEvent) onUserEvent(event);
  }

  MediaEndpoint media_;
  AcceptPolicy policy_;
  MediaIntent intent_;
  DescriptorFactory ids_;
  SlotId active_slot_;
  ChannelId ringing_;
  ChannelId line_channel_;
  bool busy_ = false;
};

}  // namespace cmc
