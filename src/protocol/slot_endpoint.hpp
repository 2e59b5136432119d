// Slot protocol endpoint: the finite-state machine of paper Fig. 9.
//
// Every slot (endpoint of a tunnel at a box) is a protocol endpoint. A
// SlotEndpoint sees all signals sent to and received from its slot, and from
// that complete view maintains the implementation-level state of the slot:
// protocol state, medium, and the most recent descriptor received in an
// open, oack, or describe signal (paper Section VII).
//
// Protocol states:
//   closed   no media channel, no request pending
//   opening  this end sent `open`, awaiting `oack` or `close`
//   opened   this end received `open`, has not yet answered
//   flowing  channel established; describe/select may flow both ways
//   closing  this end sent `close`, awaiting `closeack`
//
// Race handling (Section VI-B):
//   * open/open within a tunnel: the winner is the end that initiated setup
//     of the signaling channel. The winner ignores the incoming open; the
//     loser backs off and becomes the acceptor (footnote 6).
//   * close/close: each end answers the peer's close with closeack and
//     still waits for its own closeack.
//   * signals arriving in `closing` or `closed` other than close/closeack
//     are obsolete and ignored.
//
// The class is value-semantic and deterministic so the same code runs under
// the event-driven runtime, the simulator, and the model checker.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string_view>

#include "codec/descriptor_intern.hpp"
#include "protocol/signal.hpp"
#include "util/ids.hpp"

namespace cmc {

enum class ProtocolState : std::uint8_t {
  closed = 0,
  opening = 1,
  opened = 2,
  flowing = 3,
  closing = 4,
};

[[nodiscard]] std::string_view toString(ProtocolState state) noexcept;
std::ostream& operator<<(std::ostream& os, ProtocolState state);

// Live/dead classification used by flowlink state matching (paper Fig. 12):
// live = {opening, opened, flowing}, dead = {closed, closing}.
[[nodiscard]] constexpr bool isLive(ProtocolState s) noexcept {
  return s == ProtocolState::opening || s == ProtocolState::opened ||
         s == ProtocolState::flowing;
}
[[nodiscard]] constexpr bool isDead(ProtocolState s) noexcept { return !isLive(s); }

// What a received signal means to the goal object controlling the slot.
enum class SlotEvent : std::uint8_t {
  none = 0,            // nothing the goal needs to react to
  openReceived,        // peer requests a channel (state is now opened)
  oackReceived,        // peer accepted our open (state is now flowing);
                       //   protocol obliges the goal to answer with select
  closedByPeer,        // peer closed/rejected; closeack was auto-sent
  fullyClosed,         // our close was acknowledged (state is now closed)
  descriptorReceived,  // new describe arrived; goal must answer with select
  selectorReceived,    // selector arrived
  becameAcceptor,      // lost an open/open race; now in opened state
  ignored,             // obsolete or duplicate signal, dropped
};

// Result of delivering a received signal. If autoReply is set, the protocol
// requires that signal (always closeack) to be sent on the tunnel
// immediately; the runtime does so without goal involvement.
struct DeliverResult {
  SlotEvent event = SlotEvent::none;
  std::optional<Signal> autoReply;
};

class SlotEndpoint {
 public:
  SlotEndpoint() = default;
  SlotEndpoint(SlotId id, bool channel_initiator) noexcept
      : id_(id), channel_initiator_(channel_initiator) {}

  [[nodiscard]] SlotId id() const noexcept { return id_; }
  [[nodiscard]] bool channelInitiator() const noexcept { return channel_initiator_; }
  [[nodiscard]] ProtocolState state() const noexcept { return state_; }
  [[nodiscard]] std::optional<Medium> medium() const noexcept { return medium_; }

  // Most recent descriptor received in an open, oack, or describe signal.
  // Interned: the handle points into the process-wide DescriptorTable, so
  // caching a descriptor here never clones its codec list.
  [[nodiscard]] const InternedDescriptor& remoteDescriptor() const noexcept {
    return remote_descriptor_;
  }
  // Most recent selector received in a select signal.
  [[nodiscard]] const std::optional<Selector>& lastSelectorReceived() const noexcept {
    return last_selector_received_;
  }
  // Id of the most recent descriptor sent out on this slot (in open, oack,
  // or describe). Used to recognize selectors answering our current
  // descriptor (the Lenabled/Renabled machinery of Section V).
  [[nodiscard]] DescriptorId lastDescriptorSent() const noexcept {
    return last_descriptor_sent_;
  }
  // Most recent selector sent on this slot.
  [[nodiscard]] const std::optional<Selector>& lastSelectorSent() const noexcept {
    return last_selector_sent_;
  }

  // --- Sending. Each returns the signal to put on the tunnel. Illegal
  // sends (wrong protocol state) throw std::logic_error: goals are trusted
  // code and a bad send is a bug we want the model checker to surface.
  [[nodiscard]] Signal sendOpen(Medium medium, Descriptor descriptor);
  [[nodiscard]] Signal sendOack(Descriptor descriptor);
  [[nodiscard]] Signal sendClose();
  [[nodiscard]] Signal sendDescribe(Descriptor descriptor);
  [[nodiscard]] Signal sendSelect(Selector selector);

  // --- Stabilization (docs/FAULTS.md). On lossy channels a sent signal may
  // never arrive, so fault-tolerant runtimes re-assert in-flight requests.
  // Resends do not change protocol state; they repeat the signal the state
  // already implies. Only legal while stabilizing.
  [[nodiscard]] Signal resendOpen(Descriptor descriptor);  // state: opening
  [[nodiscard]] Signal resendOack(Descriptor descriptor);  // state: flowing
  [[nodiscard]] Signal resendClose();                      // state: closing
  // Close-probe from `closed`: a restarted box lost its slot state and must
  // force the peer (which may still be flowing) back to closed so both ends
  // re-converge. Transitions closed -> closing.
  [[nodiscard]] Signal probeClose();

  // Stabilizing endpoints additionally treat redundant open/oack signals as
  // refresh opportunities and answer stale flowing-only traffic with close
  // (see deliver()). Off by default: the baseline model-checker semantics
  // must not change when no faults are configured.
  void setStabilizing(bool on) noexcept { stabilizing_ = on; }
  [[nodiscard]] bool stabilizing() const noexcept { return stabilizing_; }

  // --- Receiving. Tolerant of obsolete signals (the network may deliver
  // them after a state change); truly impossible signals also map to
  // SlotEvent::ignored rather than failing, because a FIFO reliable channel
  // plus correct peers never produces them.
  DeliverResult deliver(const Signal& signal);

  // True if this slot can legally send a describe/select right now.
  [[nodiscard]] bool canModify() const noexcept {
    return state_ == ProtocolState::flowing;
  }

  // Canonical byte serialization of the endpoint state, for model-checker
  // state fingerprinting.
  void canonicalize(ByteWriter& w) const;
  // The inverse of canonicalize, into this slot: its id and stabilizing
  // flag are not encoded and stay as they are, and bytes naming the other
  // end as channel initiator, or an out-of-range protocol state or medium,
  // are rejected. Returns false on malformed bytes, leaving the slot valid
  // but unspecified.
  [[nodiscard]] bool decode(ByteReader& r);

 private:
  void reset() noexcept;

  SlotId id_;
  bool channel_initiator_ = false;
  bool stabilizing_ = false;
  ProtocolState state_ = ProtocolState::closed;
  std::optional<Medium> medium_;
  InternedDescriptor remote_descriptor_;
  std::optional<Selector> last_selector_received_;
  DescriptorId last_descriptor_sent_;
  std::optional<Selector> last_selector_sent_;
};

}  // namespace cmc
