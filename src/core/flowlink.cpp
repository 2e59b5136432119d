#include "core/flowlink.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace cmc {

namespace {

// utd bookkeeping changed for `slot` (v0 = new flag, v1 = closing mode).
inline void traceUtd(SlotId slot, bool now_utd, bool closing_mode) {
  if (obs::TraceRecorder* rec = obs::recorder()) {
    rec->record(obs::EventKind::flowlinkUpdate,
                now_utd ? "utd_set" : "utd_invalidated", obs::currentActor(),
                {}, slot.value(), now_utd ? 1 : 0, closing_mode ? 1 : 0);
  }
}

// The flowlink pushed the other side's cached descriptor out on `slot`.
inline void traceRefresh(SlotId slot, std::string_view via) {
  if (obs::TraceRecorder* rec = obs::recorder()) {
    rec->record(obs::EventKind::flowlinkUpdate, via, obs::currentActor(),
                "forward_descriptor", slot.value());
  }
  thread_local obs::CounterHandle forwards{"flowlink.descriptor_forwards"};
  if (obs::Counter* c = forwards.get()) c->add();
}

}  // namespace

void FlowLink::attach(SlotEndpoint& a, SlotEndpoint& b, Outbox& out) {
  if (a.medium() && b.medium() && *a.medium() != *b.medium()) {
    throw std::logic_error("flowLink precondition violated: media differ");
  }
  pairSlots(a, b);
  utd_ = {false, false};
  closing_mode_ = false;
  refresh(a, b, out);
}

void FlowLink::pairSlots(const SlotEndpoint& a, const SlotEndpoint& b) noexcept {
  slots_ = {a.id(), b.id()};
  if (slots_[1] < slots_[0]) std::swap(slots_[0], slots_[1]);
}

bool& FlowLink::utd(const SlotEndpoint& slot) noexcept {
  return slot.id() == slots_[0] ? utd_[0] : utd_[1];
}

bool FlowLink::upToDate(const SlotEndpoint& slot) const noexcept {
  return slot.id() == slots_[0] ? utd_[0] : utd_[1];
}

void FlowLink::onEvent(SlotEndpoint& self, SlotEndpoint& other, SlotEvent event,
                       const Signal& signal, Outbox& out) {
  CMC_PROF_SCOPE("flowlink.on_event");
  switch (event) {
    case SlotEvent::openReceived: {
      // A fresh request from self's far side. Its descriptor supersedes
      // whatever the other slot was last told, and whatever self was last
      // told is unrelated to this open.
      closing_mode_ = false;
      utd(self) = false;
      utd(other) = false;
      traceUtd(self.id(), false, closing_mode_);
      traceUtd(other.id(), false, closing_mode_);
      if (self.state() == ProtocolState::flowing && self.stabilizing() &&
          described(other)) {
        // Redundant open on an already-flowing slot (stabilization mode):
        // the re-opening peer is stuck in opening and lost our oack, so the
        // describe that refresh() would send will be ignored there. Answer
        // with the oack it is actually waiting for.
        out.send(self.id(), self.resendOack(*other.remoteDescriptor()));
        utd(self) = true;
        traceRefresh(self.id(), "re-oack");
      }
      refresh(self, other, out);
      break;
    }

    case SlotEvent::becameAcceptor: {
      // We sent open on `self` but lost the open/open race: our open (and
      // the descriptor it carried) is ignored by the peer; the incoming
      // open now governs, exactly as if it had found the slot closed.
      closing_mode_ = false;
      utd(self) = false;
      utd(other) = false;
      traceUtd(self.id(), false, closing_mode_);
      traceUtd(other.id(), false, closing_mode_);
      refresh(self, other, out);
      break;
    }

    case SlotEvent::oackReceived: {
      // Our open on `self` was accepted; the oack carries the far side's
      // descriptor, which the other slot has not seen.
      utd(other) = false;
      traceUtd(other.id(), false, closing_mode_);
      refresh(self, other, out);
      break;
    }

    case SlotEvent::descriptorReceived: {
      // New describe on self: the other slot is no longer up to date.
      utd(other) = false;
      traceUtd(other.id(), false, closing_mode_);
      refresh(self, other, out);
      break;
    }

    case SlotEvent::selectorReceived: {
      // Forward only fresh selectors: the selector must answer the other
      // slot's current descriptor, and the other slot must be in a state
      // that can carry a select (Section VII).
      const auto& selector = std::get<SelectSignal>(signal).selector;
      if (other.remoteDescriptor() &&
          selector.answersDescriptor == other.remoteDescriptor()->id &&
          other.canModify()) {
        out.send(other.id(), other.sendSelect(selector));
      }
      break;
    }

    case SlotEvent::closedByPeer: {
      // Tear the other side down transparently. Suppress the flow bias
      // until the environment asks to open again.
      closing_mode_ = true;
      utd_ = {false, false};
      traceUtd(self.id(), false, closing_mode_);
      traceUtd(other.id(), false, closing_mode_);
      if (isLive(other.state())) out.send(other.id(), other.sendClose());
      break;
    }

    case SlotEvent::fullyClosed: {
      // Our close on self was acknowledged. If this completes a teardown,
      // rest in both-closed; if the other side is live (the closeack ends
      // an old channel while new work arrived), resume matching.
      utd(self) = false;
      traceUtd(self.id(), false, closing_mode_);
      if (!closing_mode_) refresh(self, other, out);
      break;
    }

    case SlotEvent::none:
    case SlotEvent::ignored:
      break;
  }
}

void FlowLink::refresh(SlotEndpoint& a, SlotEndpoint& b, Outbox& out) {
  // Order matters only for signal emission order on distinct tunnels, which
  // is unconstrained; do a then b.
  refreshOne(a, b, out);
  refreshOne(b, a, out);
}

void FlowLink::refreshOne(SlotEndpoint& target, SlotEndpoint& source, Outbox& out) {
  if (upToDate(target) || !described(source)) return;
  const Descriptor& fresh = *source.remoteDescriptor();
  switch (target.state()) {
    case ProtocolState::flowing:
      out.send(target.id(), target.sendDescribe(fresh));
      utd(target) = true;
      traceRefresh(target.id(), "describe");
      break;
    case ProtocolState::opened:
      // Accept the pending open, forwarding the descriptor from the other
      // side of the link. Any selector owed by a previous descriptor is
      // made irrelevant: only fresh selectors matter.
      out.send(target.id(), target.sendOack(fresh));
      utd(target) = true;
      traceRefresh(target.id(), "oack");
      break;
    case ProtocolState::closed:
      if (!closing_mode_ || ablation_ignore_closing_mode) {
        // The flow bias of Fig. 12: extend the live side's channel.
        out.send(target.id(),
                 target.sendOpen(source.medium().value_or(Medium::audio), fresh));
        utd(target) = true;
        traceRefresh(target.id(), "open");
      }
      break;
    case ProtocolState::opening:
    case ProtocolState::closing:
      // In-flight; the answer (oack/close/closeack) will re-trigger refresh.
      break;
  }
}

void FlowLink::stabilize(SlotEndpoint& a, SlotEndpoint& b, Outbox& out) {
  // Closes stuck waiting for a lost closeack are re-sent in every mode.
  if (a.state() == ProtocolState::closing) out.send(a.id(), a.resendClose());
  if (b.state() == ProtocolState::closing) out.send(b.id(), b.resendClose());
  if (closing_mode_) {
    // Teardown under way: the propagated close may have been lost; push the
    // surviving side down again rather than re-opening anything.
    if (isLive(a.state())) out.send(a.id(), a.sendClose());
    if (isLive(b.state())) out.send(b.id(), b.sendClose());
    return;
  }
  // Distrust utd: a forwarded describe/oack/open may never have arrived.
  utd_ = {false, false};
  traceUtd(a.id(), false, closing_mode_);
  traceUtd(b.id(), false, closing_mode_);
  restabilizeOne(a, b, out);
  restabilizeOne(b, a, out);
  refresh(a, b, out);
}

void FlowLink::restabilizeOne(SlotEndpoint& target, SlotEndpoint& source,
                              Outbox& out) {
  // An open we sent may have been lost, leaving `target` stuck in opening
  // (refreshOne deliberately skips in-flight states). Re-assert it — or, if
  // the descriptor that justified it is gone, retreat to closed.
  if (target.state() != ProtocolState::opening) return;
  if (described(source)) {
    out.send(target.id(), target.resendOpen(*source.remoteDescriptor()));
    utd(target) = true;
    traceRefresh(target.id(), "re-open");
  } else {
    out.send(target.id(), target.sendClose());
  }
}

bool FlowLink::converged(const SlotEndpoint& a,
                         const SlotEndpoint& b) const noexcept {
  if (!matched(a, b)) return false;
  if (a.state() == ProtocolState::closed) return true;  // both closed
  return utd_[0] && utd_[1];  // both flowing, both told the latest
}

void FlowLink::canonicalize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.boolean(utd_[0]);
  w.boolean(utd_[1]);
  w.boolean(closing_mode_);
}

bool FlowLink::decode(ByteReader& r, const SlotEndpoint& a,
                      const SlotEndpoint& b, bool attached) {
  if (r.u8() != static_cast<std::uint8_t>(kind)) return false;
  if (attached) {
    pairSlots(a, b);
  } else {
    slots_ = {};
  }
  utd_[0] = r.boolean();
  utd_[1] = r.boolean();
  closing_mode_ = r.boolean();
  return r.ok();
}

}  // namespace cmc
