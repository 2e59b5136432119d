// The flowLink goal primitive (paper Sections IV-A and VII).
//
// A flowlink controls two slots of a box and coordinates their signals so
// that, to the rest of the signaling path, the box behaves as if the two
// tunnels were spliced into one: media flows end to end exactly when both
// path endpoints desire it and an unbroken chain of tunnels and flowlinks
// connects them.
//
// The primary organization is *state matching* over the slots' protocol
// states (Fig. 12): live = {opening, opened, flowing}, dead = {closed,
// closing}. From whichever superstate the environment puts it in (both
// live / both dead / mixed), the flowlink works toward one of the two goal
// substates, *both flowing* or *both closed* — with a bias toward media
// flow: a flowlink instantiated on a flowing slot and a closed slot opens
// the closed one rather than closing the flowing one.
//
// The secondary organization is descriptor bookkeeping (Section VII):
//   * cached descriptor of a slot — the most recent descriptor received on
//     it (maintained by the SlotEndpoint itself);
//   * described(s) — s is in the opened or flowing state and therefore has
//     a current descriptor;
//   * utd(s) ("up to date") — the other slot is described and s has been
//     sent that slot's most recent descriptor.
// In any live state the flowlink works to make both utd flags true, sending
// whichever signal the slot state permits: describe if flowing, oack if
// opened (accepting with the forwarded descriptor), open if closed.
//
// Selector handling needs no history (Section VII): only a selector
// answering the other slot's *current* descriptor is fresh; anything else
// is obsolete and dropped.
//
// Close handling: a close received on one slot is propagated to the other
// (tearing the path down transparently); while that teardown is under way
// the flowlink is in "closing mode" and suppresses its flow bias, so it
// does not immediately re-open what the environment just closed. A new
// incoming open clears closing mode.
#pragma once

#include <array>
#include <cstdint>

#include "core/goals.hpp"
#include "core/outbox.hpp"
#include "protocol/slot_endpoint.hpp"

namespace cmc {

class FlowLink {
 public:
  FlowLink() = default;

  static constexpr GoalKind kind = GoalKind::flowLink;

  // Put both slots under this flowlink's control. Precondition (paper
  // Section IV-A): if both slots have a medium defined, the media are the
  // same; violated preconditions throw std::logic_error.
  void attach(SlotEndpoint& a, SlotEndpoint& b, Outbox& out);

  // An event was delivered on slot `self` (the other slot is `other`).
  void onEvent(SlotEndpoint& self, SlotEndpoint& other, SlotEvent event,
               const Signal& signal, Outbox& out);

  // True once both slots sit in a goal substate of Fig. 12.
  [[nodiscard]] static bool matched(ProtocolState a, ProtocolState b) noexcept {
    return a == b && (a == ProtocolState::flowing || a == ProtocolState::closed);
  }
  [[nodiscard]] static bool matched(const SlotEndpoint& a, const SlotEndpoint& b) noexcept {
    return matched(a.state(), b.state());
  }

  [[nodiscard]] bool upToDate(const SlotEndpoint& slot) const noexcept;
  [[nodiscard]] bool closingMode() const noexcept { return closing_mode_; }

  // Stabilization (docs/FAULTS.md): re-assert the link after possible
  // signal loss — re-send stuck closes, re-propagate a teardown, and
  // distrust the utd bookkeeping (the forwarded signal may never have
  // arrived) so descriptors are forwarded again. Idempotent; requires
  // stabilizing slots.
  void stabilize(SlotEndpoint& a, SlotEndpoint& b, Outbox& out);
  // True when the link rests in a goal substate with nothing left to
  // forward; a stabilize() would send nothing useful.
  [[nodiscard]] bool converged(const SlotEndpoint& a,
                               const SlotEndpoint& b) const noexcept;

  // ABLATION KNOB (benchmarks only; defaults off): ignore closing mode, so
  // the flow bias applies even while a teardown initiated by the
  // environment is under way. bench_ablation demonstrates that without the
  // closing-mode rule the flowlink resurrects channels its environment just
  // closed and the ◇□ bothClosed specifications become unsatisfiable.
  bool ablation_ignore_closing_mode = false;

  void canonicalize(ByteWriter& w) const;

 private:
  // Work toward both-flowing: for each slot that is not up to date and
  // whose opposite is described, send the opposite's cached descriptor in
  // whatever signal the slot's state allows.
  void refresh(SlotEndpoint& a, SlotEndpoint& b, Outbox& out);
  void refreshOne(SlotEndpoint& target, SlotEndpoint& source, Outbox& out);
  void restabilizeOne(SlotEndpoint& target, SlotEndpoint& source, Outbox& out);

  [[nodiscard]] static bool described(const SlotEndpoint& slot) noexcept {
    return (slot.state() == ProtocolState::opened ||
            slot.state() == ProtocolState::flowing) &&
           slot.remoteDescriptor().has_value();
  }

  [[nodiscard]] bool& utd(const SlotEndpoint& slot) noexcept;

  // utd_[0] applies to the slot with the smaller SlotId, utd_[1] to the
  // other; the mapping is fixed at attach.
  std::array<SlotId, 2> slots_{};
  std::array<bool, 2> utd_{false, false};
  bool closing_mode_ = false;
};

}  // namespace cmc
