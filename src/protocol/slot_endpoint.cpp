#include "protocol/slot_endpoint.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace cmc {

std::string_view toString(ProtocolState state) noexcept {
  switch (state) {
    case ProtocolState::closed: return "closed";
    case ProtocolState::opening: return "opening";
    case ProtocolState::opened: return "opened";
    case ProtocolState::flowing: return "flowing";
    case ProtocolState::closing: return "closing";
  }
  return "?state";
}

std::ostream& operator<<(std::ostream& os, ProtocolState state) {
  return os << toString(state);
}

namespace {
[[noreturn]] void illegalSend(std::string_view what, ProtocolState state, SlotId id) {
  std::ostringstream oss;
  oss << "illegal send of " << what << " in state " << toString(state) << " on "
      << id;
  throw std::logic_error(oss.str());
}

// One relaxed load when tracing is off; the model checker drives millions
// of these per second, so nothing heavier may sit on this path.
inline void traceTransition(SlotId id, ProtocolState from, ProtocolState to) {
  if (from == to) return;
  if (obs::TraceRecorder* rec = obs::recorder()) {
    rec->record(obs::EventKind::slotTransition, toString(to),
                obs::currentActor(), toString(from), id.value());
  }
}

inline void countCacheRefresh() {
  thread_local obs::CounterHandle refreshes{"slot.descriptor_cache_refreshes"};
  if (obs::Counter* c = refreshes.get()) c->add();
}
}  // namespace

Signal SlotEndpoint::sendOpen(Medium medium, Descriptor descriptor) {
  if (state_ != ProtocolState::closed) illegalSend("open", state_, id_);
  state_ = ProtocolState::opening;
  traceTransition(id_, ProtocolState::closed, state_);
  medium_ = medium;
  last_descriptor_sent_ = descriptor.id;
  return OpenSignal{medium, std::move(descriptor)};
}

Signal SlotEndpoint::sendOack(Descriptor descriptor) {
  if (state_ != ProtocolState::opened) illegalSend("oack", state_, id_);
  state_ = ProtocolState::flowing;
  traceTransition(id_, ProtocolState::opened, state_);
  last_descriptor_sent_ = descriptor.id;
  return OackSignal{std::move(descriptor)};
}

Signal SlotEndpoint::sendClose() {
  if (state_ != ProtocolState::opening && state_ != ProtocolState::opened &&
      state_ != ProtocolState::flowing) {
    illegalSend("close", state_, id_);
  }
  const ProtocolState from = state_;
  state_ = ProtocolState::closing;
  traceTransition(id_, from, state_);
  return CloseSignal{};
}

Signal SlotEndpoint::resendOpen(Descriptor descriptor) {
  if (!stabilizing_ || state_ != ProtocolState::opening) {
    illegalSend("re-open", state_, id_);
  }
  last_descriptor_sent_ = descriptor.id;
  return OpenSignal{medium_.value_or(Medium::audio), std::move(descriptor)};
}

Signal SlotEndpoint::resendOack(Descriptor descriptor) {
  if (!stabilizing_ || state_ != ProtocolState::flowing) {
    illegalSend("re-oack", state_, id_);
  }
  last_descriptor_sent_ = descriptor.id;
  return OackSignal{std::move(descriptor)};
}

Signal SlotEndpoint::resendClose() {
  if (!stabilizing_ || state_ != ProtocolState::closing) {
    illegalSend("re-close", state_, id_);
  }
  return CloseSignal{};
}

Signal SlotEndpoint::probeClose() {
  if (!stabilizing_ || state_ != ProtocolState::closed) {
    illegalSend("close-probe", state_, id_);
  }
  state_ = ProtocolState::closing;
  traceTransition(id_, ProtocolState::closed, state_);
  return CloseSignal{};
}

Signal SlotEndpoint::sendDescribe(Descriptor descriptor) {
  if (state_ != ProtocolState::flowing) illegalSend("describe", state_, id_);
  last_descriptor_sent_ = descriptor.id;
  return DescribeSignal{std::move(descriptor)};
}

Signal SlotEndpoint::sendSelect(Selector selector) {
  if (state_ != ProtocolState::flowing) illegalSend("select", state_, id_);
  last_selector_sent_ = selector;
  return SelectSignal{std::move(selector)};
}

DeliverResult SlotEndpoint::deliver(const Signal& signal) {
  // Same cost discipline as traceTransition below: one thread-local load
  // when no profiler is installed; the model checker hammers this path.
  CMC_PROF_SCOPE("slot.deliver");
  switch (kindOf(signal)) {
    case SignalKind::open: {
      const auto& open = std::get<OpenSignal>(signal);
      if (state_ == ProtocolState::closed) {
        state_ = ProtocolState::opened;
        traceTransition(id_, ProtocolState::closed, state_);
        medium_ = open.medium;
        remote_descriptor_ = open.descriptor;
        countCacheRefresh();
        return {SlotEvent::openReceived, std::nullopt};
      }
      if (state_ == ProtocolState::opening) {
        // open/open race within the tunnel. The winner is the end that
        // initiated setup of the signaling channel (Section VI-B).
        if (channel_initiator_) {
          // We win: the peer will back off; its open is simply ignored.
          return {SlotEvent::ignored, std::nullopt};
        }
        // We lose: back off and become the acceptor. The peer ignores the
        // open we already sent; the incoming open now governs.
        state_ = ProtocolState::opened;
        traceTransition(id_, ProtocolState::opening, state_);
        medium_ = open.medium;
        remote_descriptor_ = open.descriptor;
        countCacheRefresh();
        return {SlotEvent::becameAcceptor, std::nullopt};
      }
      if (stabilizing_ && (state_ == ProtocolState::opened ||
                           state_ == ProtocolState::flowing)) {
        // Redundant open (duplicate, or a restarted peer re-opening). The
        // open is idempotent: adopt the freshest descriptor and let the
        // goal re-accept, which re-sends any oack/select the peer may have
        // lost.
        medium_ = open.medium;
        remote_descriptor_ = open.descriptor;
        countCacheRefresh();
        return {SlotEvent::openReceived, std::nullopt};
      }
      // open in opened/flowing/closing: obsolete or protocol misuse; drop.
      return {SlotEvent::ignored, std::nullopt};
    }

    case SignalKind::oack: {
      const auto& oack = std::get<OackSignal>(signal);
      if (state_ == ProtocolState::opening) {
        state_ = ProtocolState::flowing;
        traceTransition(id_, ProtocolState::opening, state_);
        remote_descriptor_ = oack.descriptor;
        countCacheRefresh();
        return {SlotEvent::oackReceived, std::nullopt};
      }
      if (stabilizing_ && state_ == ProtocolState::flowing) {
        // Duplicate oack, or the acceptor re-answering a re-sent open. The
        // descriptor may be fresher than the cached one; treat it like a
        // describe so the goal answers with a select the peer may lack.
        remote_descriptor_ = oack.descriptor;
        countCacheRefresh();
        return {SlotEvent::descriptorReceived, std::nullopt};
      }
      // oack while closing (we gave up) or in any other state: obsolete.
      return {SlotEvent::ignored, std::nullopt};
    }

    case SignalKind::close: {
      if (state_ == ProtocolState::closing) {
        // close/close cross: acknowledge the peer's close, keep waiting for
        // the acknowledgement of our own.
        return {SlotEvent::ignored, Signal{CloseAckSignal{}}};
      }
      if (state_ == ProtocolState::closed) {
        // Duplicate / very late close; acknowledge to keep the peer's FSM
        // moving, stay closed.
        return {SlotEvent::ignored, Signal{CloseAckSignal{}}};
      }
      // opening (our open was rejected), opened, or flowing.
      const ProtocolState from = state_;
      reset();
      traceTransition(id_, from, state_);
      return {SlotEvent::closedByPeer, Signal{CloseAckSignal{}}};
    }

    case SignalKind::closeack: {
      if (state_ == ProtocolState::closing) {
        reset();
        traceTransition(id_, ProtocolState::closing, state_);
        return {SlotEvent::fullyClosed, std::nullopt};
      }
      return {SlotEvent::ignored, std::nullopt};
    }

    case SignalKind::describe: {
      const auto& describe = std::get<DescribeSignal>(signal);
      if (state_ == ProtocolState::flowing) {
        remote_descriptor_ = describe.descriptor;
        countCacheRefresh();
        return {SlotEvent::descriptorReceived, std::nullopt};
      }
      if (stabilizing_ && state_ == ProtocolState::closed) {
        // The peer believes the channel is flowing while we are closed: we
        // lost volatile state (crash/restart) or its closeack went missing.
        // Force the peer down with a close so both ends re-converge.
        state_ = ProtocolState::closing;
        traceTransition(id_, ProtocolState::closed, state_);
        return {SlotEvent::ignored, Signal{CloseSignal{}}};
      }
      // describe racing with our close, or arriving before we answered an
      // open: in this protocol describes are only sent in flowing, so the
      // only legitimate case is racing a close; drop it.
      return {SlotEvent::ignored, std::nullopt};
    }

    case SignalKind::select: {
      const auto& select = std::get<SelectSignal>(signal);
      if (state_ == ProtocolState::flowing) {
        last_selector_received_ = select.selector;
        return {SlotEvent::selectorReceived, std::nullopt};
      }
      if (stabilizing_ && state_ == ProtocolState::closed) {
        // Same stale-flowing situation as describe-in-closed above.
        state_ = ProtocolState::closing;
        traceTransition(id_, ProtocolState::closed, state_);
        return {SlotEvent::ignored, Signal{CloseSignal{}}};
      }
      return {SlotEvent::ignored, std::nullopt};
    }
  }
  return {SlotEvent::ignored, std::nullopt};
}

void SlotEndpoint::reset() noexcept {
  state_ = ProtocolState::closed;
  medium_.reset();
  remote_descriptor_.reset();
  last_selector_received_.reset();
  last_descriptor_sent_ = DescriptorId{};
  last_selector_sent_.reset();
}

void SlotEndpoint::canonicalize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(state_));
  w.boolean(channel_initiator_);
  w.boolean(medium_.has_value());
  if (medium_) w.u8(static_cast<std::uint8_t>(*medium_));
  w.boolean(remote_descriptor_.has_value());
  if (remote_descriptor_) remote_descriptor_->serialize(w);
  w.boolean(last_selector_received_.has_value());
  if (last_selector_received_) last_selector_received_->serialize(w);
  w.u64(last_descriptor_sent_.value());
  w.boolean(last_selector_sent_.has_value());
  if (last_selector_sent_) last_selector_sent_->serialize(w);
}

namespace {

void decodeSelector(ByteReader& r, std::optional<Selector>& into) {
  if (r.boolean()) {
    into = Selector::deserialize(r);
  } else {
    into.reset();
  }
}

}  // namespace

bool SlotEndpoint::decode(ByteReader& r) {
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(ProtocolState::closing)) return false;
  state_ = static_cast<ProtocolState>(state);
  if (r.boolean() != channel_initiator_) return false;
  if (r.boolean()) {
    const std::uint8_t medium = r.u8();
    if (medium > static_cast<std::uint8_t>(Medium::data)) return false;
    medium_ = static_cast<Medium>(medium);
  } else {
    medium_.reset();
  }
  if (r.boolean()) {
    const Descriptor remote = Descriptor::deserialize(r);
    // Interning takes a table lock and keeps what it is given for the life
    // of the process: skip it when this slot already holds the descriptor,
    // as a scratch slot decoded state after state can, and never intern
    // what a bad read produced.
    if (!r.ok()) return false;
    if (!remote_descriptor_ || *remote_descriptor_ != remote) {
      remote_descriptor_ = remote;
    }
  } else {
    remote_descriptor_.reset();
  }
  decodeSelector(r, last_selector_received_);
  last_descriptor_sent_ = DescriptorId{r.u64()};
  decodeSelector(r, last_selector_sent_);
  return r.ok();
}

}  // namespace cmc
