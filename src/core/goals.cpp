#include "core/goals.hpp"

namespace cmc {

std::string_view toString(GoalKind kind) noexcept {
  switch (kind) {
    case GoalKind::openSlot: return "openSlot";
    case GoalKind::closeSlot: return "closeSlot";
    case GoalKind::holdSlot: return "holdSlot";
    case GoalKind::flowLink: return "flowLink";
  }
  return "?goal";
}

namespace {

// The media handshake at a flowing slot is fully settled from this end's
// view: we hold the peer's descriptor, our selector answers it, and the
// peer's selector answers the descriptor we most recently sent. Anything
// less means a signal may have been lost and a refresh could help.
bool flowingComplete(const SlotEndpoint& slot) noexcept {
  return slot.state() == ProtocolState::flowing && slot.remoteDescriptor() &&
         slot.lastSelectorSent() &&
         slot.lastSelectorSent()->answersDescriptor ==
             slot.remoteDescriptor()->id &&
         slot.lastSelectorReceived() &&
         slot.lastSelectorReceived()->answersDescriptor ==
             slot.lastDescriptorSent();
}

}  // namespace

// -------------------------------------------------------------- media core

const Descriptor& MediaGoal::selfDescriptor() {
  if (!self_desc_) self_desc_ = intent_.describeSelf(ids_);
  return *self_desc_;
}

void MediaGoal::attach(SlotEndpoint& slot, Outbox& out) {
  switch (slot.state()) {
    case ProtocolState::opened:
      accept(slot, out);
      break;
    case ProtocolState::flowing:
      refreshFlowing(slot, out);
      break;
    case ProtocolState::closed:
    case ProtocolState::opening:
    case ProtocolState::closing:
      // Wait: a holdslot never originates anything, and an open already
      // in flight is adopted, its answer awaited.
      break;
  }
}

void MediaGoal::onEvent(SlotEndpoint& slot, SlotEvent event, Outbox& out) {
  switch (event) {
    case SlotEvent::openReceived:
    case SlotEvent::becameAcceptor:
      accept(slot, out);
      break;
    case SlotEvent::oackReceived:
      // If the accepted open was inherited from a previous controller (the
      // goal attached while the slot was already opening), the descriptor
      // it carried was not ours: re-describe so the far end sends to this
      // party, not to whatever the old controller advertised.
      if (slot.lastDescriptorSent() != selfDescriptor().id) {
        out.send(slot.id(), slot.sendDescribe(selfDescriptor()));
      }
      answerRemote(slot, out);
      break;
    case SlotEvent::descriptorReceived:
      answerRemote(slot, out);
      break;
    case SlotEvent::closedByPeer:
    case SlotEvent::fullyClosed:
    case SlotEvent::selectorReceived:
    case SlotEvent::none:
    case SlotEvent::ignored:
      break;
  }
}

void MediaGoal::setMute(bool mute_in, bool mute_out, SlotEndpoint& slot,
                        Outbox& out) {
  const bool changed_in = intent_.muteIn != mute_in;
  const bool changed_out = intent_.muteOut != mute_out;
  intent_.muteIn = mute_in;
  intent_.muteOut = mute_out;
  if (changed_in) self_desc_.reset();  // receiver description changed
  // Minted now even if it goes out only at the next open/accept: the
  // descriptor id is part of the goal's state.
  const Descriptor& self = selfDescriptor();
  if (!slot.canModify()) return;
  if (changed_in) out.send(slot.id(), slot.sendDescribe(self));
  if (changed_out) answerRemote(slot, out);
}

void MediaGoal::setAddress(MediaAddress addr, SlotEndpoint& slot,
                           Outbox& out) {
  if (intent_.addr == addr) return;
  intent_.addr = addr;
  self_desc_.reset();  // the receiver description changed
  if (slot.canModify()) out.send(slot.id(), slot.sendDescribe(selfDescriptor()));
}

// Unilateral codec re-selection (Section VI-B): legal at any time after the
// first selector, provided the codec is on the remote descriptor's list.
bool MediaGoal::reselect(Codec codec, SlotEndpoint& slot, Outbox& out) {
  if (!slot.canModify() || !slot.remoteDescriptor()) return false;
  const Descriptor& remote = *slot.remoteDescriptor();
  if (std::find(remote.codecs.begin(), remote.codecs.end(), codec) ==
      remote.codecs.end()) {
    return false;
  }
  out.send(slot.id(),
           slot.sendSelect(Selector{remote.id, intent_.addr, codec}));
  return true;
}

void MediaGoal::refresh(SlotEndpoint& slot, Outbox& out) {
  switch (slot.state()) {
    case ProtocolState::opened:
      accept(slot, out);
      break;
    case ProtocolState::flowing:
      if (!flowingComplete(slot)) refreshFlowing(slot, out);
      break;
    case ProtocolState::closing:
      out.send(slot.id(), slot.resendClose());
      break;
    case ProtocolState::closed:
    case ProtocolState::opening:
      break;
  }
}

bool MediaGoal::converged(const SlotEndpoint& slot) const noexcept {
  return slot.state() == ProtocolState::closed || flowingComplete(slot);
}

void MediaGoal::canonicalizeMedia(ByteWriter& w) const {
  intent_.canonicalize(w);
  ids_.canonicalize(w);
  w.boolean(self_desc_.has_value());
  if (self_desc_) w.u64(self_desc_->id.value());
}

bool MediaGoal::decodeMedia(ByteReader& r) {
  intent_.decode(r);
  ids_.decode(r);
  if (!r.boolean()) {
    self_desc_.reset();
    return r.ok();
  }
  const DescriptorId id{r.u64()};
  if (!r.ok() || id.value() >= ids_.peek().value()) return false;
  self_desc_ = makeDescriptor(id, intent_.addr, intent_.receivable, intent_.muteIn);
  return true;
}

// Accept an offered channel by sending oack with our own receiver
// description, then select answering the opener's descriptor (the
// !oack / !select sequence of Fig. 9). A stabilizing endpoint re-accepts a
// redundant open while already flowing; the oack is then a re-send.
void MediaGoal::accept(SlotEndpoint& slot, Outbox& out) {
  const Descriptor remote = *slot.remoteDescriptor();  // set by the open
  out.send(slot.id(), slot.state() == ProtocolState::flowing
                          ? slot.resendOack(selfDescriptor())
                          : slot.sendOack(selfDescriptor()));
  out.send(slot.id(), slot.sendSelect(intent_.answer(remote)));
}

// Answer the most recent remote descriptor with a fresh selector.
void MediaGoal::answerRemote(SlotEndpoint& slot, Outbox& out) {
  if (slot.remoteDescriptor()) {
    out.send(slot.id(), slot.sendSelect(intent_.answer(*slot.remoteDescriptor())));
  }
}

// After gaining control of a slot that is already flowing (possible for any
// goal after the model checker's chaotic phase, and for holdSlot at any
// time), re-assert our receiver description and re-answer the remote one.
// Idempotent by protocol design (Section VI-C).
void MediaGoal::refreshFlowing(SlotEndpoint& slot, Outbox& out) {
  out.send(slot.id(), slot.sendDescribe(selfDescriptor()));
  answerRemote(slot, out);
}

// ---------------------------------------------------------------- openSlot

void OpenSlotGoal::attach(SlotEndpoint& slot, Outbox& out) {
  // Closing: wait for closeack; fullyClosed will trigger a (re)open.
  retry_pending_ = slot.state() == ProtocolState::closing;
  if (slot.state() == ProtocolState::closed) {
    out.send(slot.id(), slot.sendOpen(medium_, selfDescriptor()));
  } else {
    MediaGoal::attach(slot, out);
  }
}

void OpenSlotGoal::onEvent(SlotEndpoint& slot, SlotEvent event, Outbox& out) {
  switch (event) {
    case SlotEvent::openReceived:
    case SlotEvent::becameAcceptor:
      // The far end asked first (or won an open/open race): take the
      // opportunity — an openslot pushes toward flowing however it can.
      retry_pending_ = false;
      break;
    case SlotEvent::closedByPeer:
    case SlotEvent::fullyClosed:
      // Rejected or torn down: the goal persists, so try again (paper:
      // "If an openslot sends open and receives reject, it sends open
      // again"). Pacing is the runtime's business.
      retry_pending_ = true;
      break;
    case SlotEvent::oackReceived:
    case SlotEvent::descriptorReceived:
    case SlotEvent::selectorReceived:
    case SlotEvent::none:
    case SlotEvent::ignored:
      break;
  }
  MediaGoal::onEvent(slot, event, out);
}

void OpenSlotGoal::retry(SlotEndpoint& slot, Outbox& out) {
  if (!retry_pending_) return;
  if (slot.state() == ProtocolState::closed) {
    retry_pending_ = false;
    out.send(slot.id(), slot.sendOpen(medium_, selfDescriptor()));
  }
}

void OpenSlotGoal::refresh(SlotEndpoint& slot, Outbox& out) {
  switch (slot.state()) {
    case ProtocolState::closed:
      // A pending rejection is the retry timer's business; anything else
      // means the attach-time open was lost.
      if (!retry_pending_) {
        out.send(slot.id(), slot.sendOpen(medium_, selfDescriptor()));
      }
      return;
    case ProtocolState::opening:
      out.send(slot.id(), slot.resendOpen(selfDescriptor()));
      return;
    case ProtocolState::opened:
      retry_pending_ = false;  // accepting, as on an incoming open
      break;
    case ProtocolState::flowing:
    case ProtocolState::closing:
      break;
  }
  MediaGoal::refresh(slot, out);
}

bool OpenSlotGoal::converged(const SlotEndpoint& slot) const noexcept {
  if (slot.state() == ProtocolState::closed) return retry_pending_;
  return MediaGoal::converged(slot);
}

void OpenSlotGoal::canonicalize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(medium_));
  canonicalizeMedia(w);
  w.boolean(retry_pending_);
}

bool OpenSlotGoal::decode(ByteReader& r) {
  const std::uint8_t medium = r.u8();
  if (medium > static_cast<std::uint8_t>(Medium::data)) return false;
  medium_ = static_cast<Medium>(medium);
  if (!decodeMedia(r)) return false;
  retry_pending_ = r.boolean();
  return r.ok();
}

// --------------------------------------------------------------- closeSlot

void CloseSlotGoal::attach(SlotEndpoint& slot, Outbox& out) {
  switch (slot.state()) {
    case ProtocolState::opening:
    case ProtocolState::opened:
    case ProtocolState::flowing:
      out.send(slot.id(), slot.sendClose());
      break;
    case ProtocolState::closing:
    case ProtocolState::closed:
      break;  // already where we want it (or on the way)
  }
}

void CloseSlotGoal::onEvent(SlotEndpoint& slot, SlotEvent event, Outbox& out) {
  switch (event) {
    case SlotEvent::openReceived:
    case SlotEvent::becameAcceptor:
      // Reject immediately: close plays the role of reject (Section VI-B).
      out.send(slot.id(), slot.sendClose());
      break;
    case SlotEvent::oackReceived:
    case SlotEvent::descriptorReceived:
      // Can only mean the slot is somehow live; push it back down.
      if (isLive(slot.state())) out.send(slot.id(), slot.sendClose());
      break;
    case SlotEvent::closedByPeer:
    case SlotEvent::fullyClosed:
    case SlotEvent::selectorReceived:
    case SlotEvent::none:
    case SlotEvent::ignored:
      break;
  }
}

void CloseSlotGoal::refresh(SlotEndpoint& slot, Outbox& out) {
  if (isLive(slot.state())) {
    out.send(slot.id(), slot.sendClose());
  } else if (slot.state() == ProtocolState::closing) {
    out.send(slot.id(), slot.resendClose());
  }
}

bool CloseSlotGoal::converged(const SlotEndpoint& slot) const noexcept {
  return slot.state() == ProtocolState::closed;
}

void CloseSlotGoal::canonicalize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
}

// ---------------------------------------------------------------- holdSlot

void HoldSlotGoal::refresh(SlotEndpoint& slot, Outbox& out) {
  if (slot.state() == ProtocolState::opening) {
    // A holdslot never originates an open, so an in-flight one was
    // inherited from an earlier controller; under loss nothing will
    // resolve it. Retreat to closed — the stabilization-mode exception to
    // "a holdslot never sends close" (docs/FAULTS.md): the peer that
    // wants media will simply open again.
    out.send(slot.id(), slot.sendClose());
    return;
  }
  MediaGoal::refresh(slot, out);
}

void HoldSlotGoal::canonicalize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  canonicalizeMedia(w);
}

}  // namespace cmc
