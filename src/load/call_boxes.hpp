// The boxes a generated call is built from.
//
// Each call instantiates two LoadEndpointBoxes (left and right parties, each
// carrying one of the §V endpoint goals) and, for 1-flowlink calls, one
// LoadRelayBox between them (the call-forwarding relay idiom: incoming
// channel on one side, a requested channel on the other, a flowlink joining
// the two slots). The boxes contain no load-runtime smarts: they are plain
// Box subclasses exercising the same goal primitives as the hand-written
// examples, which is the point — the load runtime stresses the production
// protocol stack, not a simplified stand-in.
//
// Determinism note: nothing in these boxes derives behavior from BoxId.
// BoxIds are allocated per simulator in registration order, which depends on
// how calls are sharded; goals instead use PathSystem::makeGoal's
// end-indexed descriptor spaces, so a call behaves identically whichever
// shard it lands on.
#pragma once

#include <string>
#include <utility>

#include "core/box.hpp"
#include "core/path.hpp"

namespace cmc::load {

// One party of a call: owns a single slot on the call's channel and attaches
// its configured goal the moment the channel materializes. The left party
// dials; the right party answers an incoming channel.
class LoadEndpointBox : public Box {
 public:
  LoadEndpointBox(BoxId id, std::string name, GoalKind kind, PathEnd end)
      : Box(id, std::move(name)), kind_(kind), end_(end) {}

  // Caller side: request the call's channel toward box `target` (the peer
  // endpoint, or the relay for 1-flowlink calls). The runtime created both,
  // so it addresses the peer by id.
  void dial(BoxId target) { requestChannel(target, 1, "call"); }

  // Caller-side teardown; the runtime propagates the teardown meta to the
  // other end (and the relay folds its far leg in onChannelDown).
  void hangUp() {
    if (channel_.valid() && hasChannel(channel_)) destroyChannel(channel_);
    channel_ = ChannelId{};
    slot_ = SlotId{};
  }

  [[nodiscard]] GoalKind kind() const noexcept { return kind_; }
  // The call's channel end is up and the slot exists.
  [[nodiscard]] bool ready() const noexcept {
    return slot_.valid() && channelOf(slot_).valid();
  }
  // Quiescence predicates for the call's §V rest state.
  [[nodiscard]] GoalKind goal() const noexcept { return kind_; }
  [[nodiscard]] bool atGoal() const { return ready() && goalSatisfied(slot_); }
  [[nodiscard]] bool closedAtRest() const { return ready() && isClosed(slot_); }

 protected:
  void onChannelUp(ChannelId channel, const std::string& /*tag*/) override {
    adopt(channel);
  }
  void onIncomingChannel(ChannelId channel, const std::string& /*peer*/) override {
    adopt(channel);
  }
  void onChannelDown(ChannelId channel) override {
    if (channel == channel_) {
      channel_ = ChannelId{};
      slot_ = SlotId{};
    }
  }

 private:
  void adopt(ChannelId channel) {
    if (slot_.valid()) return;  // one call channel per endpoint
    channel_ = channel;
    for (SlotId s : slotsOf(channel)) {
      slot_ = s;
      setGoal(s, PathSystem::makeGoal(kind_, end_));
    }
  }

  GoalKind kind_;
  PathEnd end_;
  ChannelId channel_{};
  SlotId slot_{};
};

// The 1-flowlink relay: accepts the caller's channel, opens a second leg to
// the far endpoint, and flowlinks the two slots so signals and media
// negotiation pass through (paper Fig. 6 structure). Either leg going down
// folds the other, propagating teardown along the path.
class LoadRelayBox : public Box {
 public:
  // `right` is the far endpoint's box, which the second leg dials by id.
  LoadRelayBox(BoxId id, std::string name, BoxId right)
      : Box(id, std::move(name)), right_(right) {}

  // Both legs up and the flowlink attached.
  [[nodiscard]] bool linked() const noexcept {
    return in_slot_.valid() && out_slot_.valid();
  }
  [[nodiscard]] SlotId inSlot() const noexcept { return in_slot_; }
  [[nodiscard]] SlotId outSlot() const noexcept { return out_slot_; }

 protected:
  void onIncomingChannel(ChannelId channel, const std::string& /*peer*/) override {
    if (in_slot_.valid()) return;
    const auto slots = slotsOf(channel);
    if (slots.empty()) return;
    in_slot_ = slots.front();
    requestChannel(right_, 1, "out");
  }

  void onChannelUp(ChannelId channel, const std::string& tag) override {
    if (tag != "out" || out_slot_.valid()) return;
    const auto slots = slotsOf(channel);
    if (slots.empty()) return;
    out_slot_ = slots.front();
    if (in_slot_.valid()) linkSlots(in_slot_, out_slot_);
  }

  void onChannelDown(ChannelId /*channel*/) override {
    // Whichever leg died first, fold the survivor so the far party sees the
    // teardown too (CallForwardingBox does the same).
    if (in_slot_.valid() && !channelOf(in_slot_).valid()) {
      in_slot_ = SlotId{};
      if (out_slot_.valid() && channelOf(out_slot_).valid()) {
        destroyChannel(channelOf(out_slot_));
      }
      out_slot_ = SlotId{};
    } else if (out_slot_.valid() && !channelOf(out_slot_).valid()) {
      out_slot_ = SlotId{};
      if (in_slot_.valid() && channelOf(in_slot_).valid()) {
        destroyChannel(channelOf(in_slot_));
      }
      in_slot_ = SlotId{};
    }
  }

 private:
  BoxId right_;
  SlotId in_slot_{};
  SlotId out_slot_{};
};

// A call path's §V rest state for its goal pair: any close goal (or a pure
// hold/hold pair) rests with both endpoint slots closed; otherwise — open
// against open or hold — it rests with both endpoint goals satisfied
// (flowing) and, through a relay, the flowlink matched. It reads the path's
// own boxes and nothing else, so a probe on it watches exactly those.
inline bool pathAtRest(const LoadEndpointBox& left,
                       const LoadEndpointBox& right,
                       const LoadRelayBox* relay) {
  if (!left.ready() || !right.ready()) return false;
  if (relay != nullptr && !relay->linked()) return false;
  const bool has_close =
      left.goal() == GoalKind::closeSlot || right.goal() == GoalKind::closeSlot;
  const bool has_open =
      left.goal() == GoalKind::openSlot || right.goal() == GoalKind::openSlot;
  if (has_open && !has_close) {
    bool ok = left.atGoal() && right.atGoal();
    if (ok && relay != nullptr) {
      ok = relay->goalSatisfied(relay->inSlot()) &&
           relay->goalSatisfied(relay->outSlot());
    }
    return ok;
  }
  return left.closedAtRest() && right.closedAtRest();
}

}  // namespace cmc::load
