// The single-slot goal primitives (paper Section IV-A).
//
// Application programmers manipulate media channels by annotating program
// states with *goals* for slots. A goal object reads all signals received
// from its slot and writes all signals sent to it:
//
//   openSlot(s, m)  open a media channel with medium m and push it to the
//                   flowing state; re-sends open if rejected. Emits open and
//                   oack, never close.
//   closeSlot(s)    get the slot to the closed state and keep it there;
//                   rejects incoming opens immediately. Emits close, never
//                   open or oack.
//   holdSlot(s)     accept a channel and push it to flowing, but only if the
//                   other end of the path requests it; if the other end
//                   closes, stay closed until it asks again. Emits oack,
//                   never open or close.
//
// closeSlot and holdSlot have no fixed initial state: a program can switch a
// slot to them at any point of the slot's life, and the object must proceed
// from whatever state the slot is in. (The model checker exploits this: its
// chaotic initial phases hand goals slots in every reachable state.)
//
// openSlot and holdSlot differ only in who starts a channel, so both build
// on one media core (MediaGoal below): the self-descriptor and its intent,
// accepting an offered channel, answering remote descriptors, re-asserting
// a live slot, and the mute, address and codec modifications. Each goal
// adds only its own half: openSlot opens, re-opens after a rejection and
// keeps its medium; holdSlot waits, and retreats from an inherited open
// under stabilization.
//
// All goals are value types stepped by the runtime; signals go out through
// an Outbox.
#pragma once

#include <optional>

#include "core/intent.hpp"
#include "core/outbox.hpp"
#include "protocol/slot_endpoint.hpp"

namespace cmc {

enum class GoalKind : std::uint8_t { openSlot, closeSlot, holdSlot, flowLink };

[[nodiscard]] std::string_view toString(GoalKind kind) noexcept;

// The media half that openSlot and holdSlot share: both are media
// endpoints under the unilateral rules of Section VI-B, so both describe
// themselves from their intent, answer every remote descriptor, accept an
// offered channel, re-assert a live one, and take the modify requests. A
// non-virtual base: the EndpointGoal variant dispatches on the concrete
// goal, and mediaGoalOf (core/goal.hpp) reaches this half of either.
class MediaGoal {
 public:
  // Wait for the peer: accept a channel it opens and re-assert one that is
  // already live. This is all of holdSlot's attach and onEvent.
  void attach(SlotEndpoint& slot, Outbox& out);
  void onEvent(SlotEndpoint& slot, SlotEvent event, Outbox& out);

  // User interface: the modify event of Fig. 5. Only media endpoints call
  // this; if the slot is flowing the change is signaled immediately.
  void setMute(bool mute_in, bool mute_out, SlotEndpoint& slot, Outbox& out);

  // Mid-channel modifications beyond muting (paper Section VI-B and
  // footnote 4): change this party's receive address (mobility) — a fresh
  // descriptor goes out in a describe; or unilaterally switch the codec we
  // send, which must be offered by the remote descriptor ("media sources
  // may wish to send using different codecs even within the same media
  // episode"). reselect returns false if the codec is not on offer.
  void setAddress(MediaAddress addr, SlotEndpoint& slot, Outbox& out);
  bool reselect(Codec codec, SlotEndpoint& slot, Outbox& out);

  // Stabilization (docs/FAULTS.md) of an opened, flowing or closing slot;
  // a closed or opening one is left to the goal.
  void refresh(SlotEndpoint& slot, Outbox& out);
  // Closed, or flowing with the media handshake settled.
  [[nodiscard]] bool converged(const SlotEndpoint& slot) const noexcept;

  [[nodiscard]] const MediaIntent& intent() const noexcept { return intent_; }
  // The self-description minted so far, if any.
  [[nodiscard]] const std::optional<Descriptor>& mintedDescriptor() const noexcept {
    return self_desc_;
  }

 protected:
  MediaGoal() = default;
  MediaGoal(MediaIntent intent, DescriptorFactory ids) noexcept
      : intent_(std::move(intent)), ids_(ids) {}

  [[nodiscard]] const Descriptor& selfDescriptor();
  // Intent, descriptor ids and self-descriptor, in that order.
  void canonicalizeMedia(ByteWriter& w) const;
  // The inverse of canonicalizeMedia. The self-descriptor is encoded by id
  // only: it is rebuilt from the decoded intent, which is what it was
  // minted from (every intent change that alters it resets it). An id the
  // factory has not handed out yet is rejected.
  [[nodiscard]] bool decodeMedia(ByteReader& r);

 private:
  void accept(SlotEndpoint& slot, Outbox& out);
  void answerRemote(SlotEndpoint& slot, Outbox& out);
  void refreshFlowing(SlotEndpoint& slot, Outbox& out);

  MediaIntent intent_;
  DescriptorFactory ids_;
  // Current self-description. Descriptors are idempotent, so re-sends reuse
  // the same descriptor (same id); a new one is minted only when the intent
  // changes. This also keeps the model checker's state space finite.
  std::optional<Descriptor> self_desc_;
};

class OpenSlotGoal : public MediaGoal {
 public:
  OpenSlotGoal() = default;
  OpenSlotGoal(Medium medium, MediaIntent intent, DescriptorFactory ids) noexcept
      : MediaGoal(std::move(intent), ids), medium_(medium) {}

  static constexpr GoalKind kind = GoalKind::openSlot;

  void attach(SlotEndpoint& slot, Outbox& out);
  void onEvent(SlotEndpoint& slot, SlotEvent event, Outbox& out);

  // After a rejection the openslot wants to send open again. The runtime
  // chooses when (timer-paced in real time, explicit action in the model
  // checker) and calls retry().
  [[nodiscard]] bool retryPending() const noexcept { return retry_pending_; }
  void retry(SlotEndpoint& slot, Outbox& out);

  // Stabilization (docs/FAULTS.md): re-assert whatever the goal still wants
  // from the slot after possible signal loss. Idempotent; only called by
  // fault-tolerant runtimes on stabilizing slots.
  void refresh(SlotEndpoint& slot, Outbox& out);
  // True when the goal is where it wants to be and a refresh would be noise.
  [[nodiscard]] bool converged(const SlotEndpoint& slot) const noexcept;

  [[nodiscard]] Medium medium() const noexcept { return medium_; }

  void canonicalize(ByteWriter& w) const;
  // Each goal's decode reads what its canonicalize writes after the kind
  // byte, which decode(EndpointGoal&, ByteReader&) (core/goal.hpp) reads to
  // choose the goal. Returns false on malformed bytes.
  [[nodiscard]] bool decode(ByteReader& r);

 private:
  Medium medium_ = Medium::audio;
  bool retry_pending_ = false;
};

class CloseSlotGoal {
 public:
  CloseSlotGoal() = default;

  static constexpr GoalKind kind = GoalKind::closeSlot;

  void attach(SlotEndpoint& slot, Outbox& out);
  void onEvent(SlotEndpoint& slot, SlotEvent event, Outbox& out);

  void refresh(SlotEndpoint& slot, Outbox& out);
  [[nodiscard]] bool converged(const SlotEndpoint& slot) const noexcept;

  void canonicalize(ByteWriter& w) const;
  [[nodiscard]] bool decode(ByteReader& r) { return r.ok(); }
};

// attach, onEvent and converged are the media core's.
class HoldSlotGoal : public MediaGoal {
 public:
  HoldSlotGoal() = default;
  HoldSlotGoal(MediaIntent intent, DescriptorFactory ids) noexcept
      : MediaGoal(std::move(intent), ids) {}

  static constexpr GoalKind kind = GoalKind::holdSlot;

  void refresh(SlotEndpoint& slot, Outbox& out);

  void canonicalize(ByteWriter& w) const;
  [[nodiscard]] bool decode(ByteReader& r) { return decodeMedia(r); }
};

}  // namespace cmc
