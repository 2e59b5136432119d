#include "core/box.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace cmc {

namespace {

// Goal lifecycle event (posted/achieved/cancelled). One relaxed load each
// for the recorder and the registry when observability is off.
void traceGoal(obs::EventKind kind, const std::string& box, GoalKind goal,
               SlotId slot) {
  if (obs::TraceRecorder* rec = obs::recorder()) {
    rec->record(kind, toString(goal), box, {}, slot.value());
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    switch (kind) {
      case obs::EventKind::goalPosted: m->counter("goal.posted").add(); break;
      case obs::EventKind::goalAchieved: m->counter("goal.achieved").add(); break;
      case obs::EventKind::goalCancelled:
        m->counter("goal.cancelled").add();
        break;
      default: break;
    }
  }
}

}  // namespace

Box::Box(BoxId id, std::string name) : id_(id), name_(std::move(name)) {}

std::vector<SlotId> Box::addChannelEnd(ChannelId channel, std::uint32_t tunnels,
                                       bool initiator, const std::string& tag,
                                       BoxId peer, const std::string& peer_name) {
  ChannelEnd end;
  end.id = channel;
  end.initiator = initiator;
  end.peer = peer;
  for (std::uint32_t t = 0; t < tunnels; ++t) {
    const SlotId slot = slot_ids_.next();
    auto [it, inserted] = slots_.emplace(slot, SlotEndpoint{slot, initiator});
    it->second.setStabilizing(stabilization_enabled_);
    end.slots.push_back(slot);
  }
  std::vector<SlotId> created = end.slots;
  channels_.emplace(channel, std::move(end));
  if (!initiator) {
    onIncomingChannel(channel, peer_name);
  } else {
    onChannelUp(channel, tag);
  }
  return created;
}

void Box::removeChannel(ChannelId channel) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) return;
  for (SlotId slot : it->second.slots) {
    detachSlot(slot);
    slots_.erase(slot);
  }
  channels_.erase(it);
  onChannelDown(channel);
}

bool Box::hasChannel(ChannelId channel) const noexcept {
  return channels_.count(channel) != 0;
}

std::vector<SlotId> Box::slotsOf(ChannelId channel) const {
  auto it = channels_.find(channel);
  if (it == channels_.end()) return {};
  return it->second.slots;
}

ChannelId Box::channelOf(SlotId slot) const {
  for (const auto& [id, end] : channels_) {
    if (std::find(end.slots.begin(), end.slots.end(), slot) != end.slots.end()) {
      return id;
    }
  }
  return ChannelId{};
}

std::optional<SlotId> Box::slotAt(ChannelId channel,
                                  std::uint32_t tunnel) const {
  auto it = channels_.find(channel);
  if (it == channels_.end() || tunnel >= it->second.slots.size()) {
    return std::nullopt;
  }
  return it->second.slots[tunnel];
}

std::optional<BoxId> Box::peerOf(ChannelId channel) const {
  auto it = channels_.find(channel);
  if (it == channels_.end()) return std::nullopt;
  return it->second.peer;
}

void Box::setGoal(SlotId slot, EndpointGoal goal) {
  detachSlot(slot);
  auto [it, inserted] = single_goals_.emplace(slot, std::move(goal));
  traceGoal(obs::EventKind::goalPosted, name_, kindOf(it->second), slot);
  Outbox out;
  attach(it->second, slotRef(slot), out);
  flushOutbox(std::move(out));
  maybeRequestRetryTimer();
}

void Box::linkSlots(SlotId a, SlotId b) {
  if (auto it = link_of_.find(a); it != link_of_.end()) {
    LinkEntry* entry = it->second;
    if ((entry->a == a && entry->b == b) || (entry->a == b && entry->b == a)) {
      return;  // same annotation: the same goal object keeps control
    }
  }
  detachSlot(a);
  detachSlot(b);
  auto entry = std::make_unique<LinkEntry>();
  entry->a = a;
  entry->b = b;
  LinkEntry* raw = entry.get();
  links_.push_back(std::move(entry));
  link_of_[a] = raw;
  link_of_[b] = raw;
  traceGoal(obs::EventKind::goalPosted, name_, GoalKind::flowLink, a);
  Outbox out;
  raw->link.attach(slotRef(a), slotRef(b), out);
  flushOutbox(std::move(out));
}

void Box::clearGoal(SlotId slot) { detachSlot(slot); }

std::optional<GoalKind> Box::goalKind(SlotId slot) const {
  if (auto it = single_goals_.find(slot); it != single_goals_.end()) {
    return kindOf(it->second);
  }
  if (link_of_.count(slot) != 0) return GoalKind::flowLink;
  return std::nullopt;
}

void Box::fireRetries() {
  retry_timer_outstanding_ = false;
  for (auto& [slot, goal] : single_goals_) {
    if (retryPending(goal)) {
      Outbox out;
      retry(goal, slotRef(slot), out);
      if (!out.empty()) {
        if (obs::MetricsRegistry* m = obs::metrics()) {
          m->counter("goal.openslot_retries").add();
        }
      }
      flushOutbox(std::move(out));
    }
  }
  maybeRequestRetryTimer();
}

void Box::enableStabilization(bool on) {
  stabilization_enabled_ = on;
  for (auto& [id, slot] : slots_) slot.setStabilizing(on);
}

void Box::refreshGoals() {
  for (auto& [slot_id, goal] : single_goals_) {
    if (converged(goal, slotRef(slot_id))) continue;
    Outbox out;
    refresh(goal, slotRef(slot_id), out);
    if (!out.empty()) {
      if (obs::MetricsRegistry* m = obs::metrics()) {
        m->counter("goal.refreshes").add();
      }
    }
    flushOutbox(std::move(out));
  }
  for (auto& entry : links_) {
    if (entry->link.converged(slotRef(entry->a), slotRef(entry->b))) continue;
    Outbox out;
    entry->link.stabilize(slotRef(entry->a), slotRef(entry->b), out);
    if (!out.empty()) {
      if (obs::MetricsRegistry* m = obs::metrics()) {
        m->counter("goal.refreshes").add();
      }
    }
    flushOutbox(std::move(out));
  }
  maybeRequestRetryTimer();
}

bool Box::needsRefresh() const {
  for (const auto& [slot_id, goal] : single_goals_) {
    if (!converged(goal, slot(slot_id))) return true;
  }
  for (const auto& entry : links_) {
    if (!entry->link.converged(slot(entry->a), slot(entry->b))) return true;
  }
  return false;
}

void Box::crashRestart() {
  // Everything volatile dies with the process: undrained outputs and all
  // protocol endpoint state. Channel wiring and goal annotations survive
  // (configuration, not run-state).
  output_ = Output{};
  for (auto& [channel, end] : channels_) {
    for (SlotId slot_id : end.slots) {
      SlotEndpoint fresh{slot_id, end.initiator};
      fresh.setStabilizing(stabilization_enabled_);
      slots_[slot_id] = fresh;
    }
  }
  for (auto& [slot_id, goal] : single_goals_) {
    Outbox out;
    attach(goal, slotRef(slot_id), out);
    flushOutbox(std::move(out));
  }
  for (auto& entry : links_) {
    Outbox out;
    entry->link.attach(slotRef(entry->a), slotRef(entry->b), out);
    flushOutbox(std::move(out));
  }
  if (stabilization_enabled_) {
    // A peer may still be flowing on a tunnel we no longer remember; it has
    // no reason to ever signal first (it is converged from its own view).
    // Probe every still-closed goal-bound slot with a close so both ends
    // fall back to closed and re-converge from there.
    for (auto& [slot_id, slot] : slots_) {
      if (slot.state() != ProtocolState::closed) continue;
      if (single_goals_.count(slot_id) == 0 && link_of_.count(slot_id) == 0) {
        continue;
      }
      queueTunnel(slot_id, slot.probeClose());
    }
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->counter("box.crash_restarts").add();
  }
  maybeRequestRetryTimer();
  onCrashRestart();
}

bool Box::hasPendingRetries() const {
  for (const auto& [slot, goal] : single_goals_) {
    if (retryPending(goal)) return true;
  }
  return false;
}

const SlotEndpoint& Box::slot(SlotId slot) const {
  auto it = slots_.find(slot);
  if (it == slots_.end()) throw std::logic_error("unknown slot");
  return it->second;
}

bool Box::goalSatisfied(SlotId slot) const {
  if (auto it = single_goals_.find(slot); it != single_goals_.end()) {
    switch (kindOf(it->second)) {
      case GoalKind::openSlot:
      case GoalKind::holdSlot:
        return slotState(slot) == ProtocolState::flowing;
      case GoalKind::closeSlot:
        return slotState(slot) == ProtocolState::closed;
      case GoalKind::flowLink:
        break;  // unreachable: flowlinks are not single-slot goals
    }
    return false;
  }
  if (auto it = link_of_.find(slot); it != link_of_.end()) {
    return FlowLink::matched(this->slot(it->second->a), this->slot(it->second->b));
  }
  return false;
}

ProtocolState Box::slotState(SlotId slot) const { return this->slot(slot).state(); }

void Box::deliverTunnel(SlotId slot, const Signal& signal) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return;  // raced with channel teardown
  // Goal-achieved edges (posted goal first reaching its target state) are
  // only detectable across the delivery; evaluate the predicate on both
  // sides when observability is on.
  const bool observing =
      obs::recorder() != nullptr || obs::metrics() != nullptr;
  const bool satisfied_before = observing && goalSatisfied(slot);
  const DeliverResult result = it->second.deliver(signal);
  if (result.autoReply) {
    queueTunnel(slot, *result.autoReply);
  }
  dispatch(slot, result.event, signal);
  if (observing && !satisfied_before && goalSatisfied(slot)) {
    if (auto kind = goalKind(slot)) {
      traceGoal(obs::EventKind::goalAchieved, name_, *kind, slot);
    }
  }
  onSlotActivity(slot);
  maybeRequestRetryTimer();
}

void Box::deliverMeta(ChannelId channel, const MetaSignal& meta) {
  if (meta.kind == MetaKind::teardown) {
    removeChannel(channel);
    return;
  }
  onMeta(channel, meta);
}

void Box::fireTimer(const std::string& tag) {
  if (tag == kRetryTimerTag) {
    fireRetries();
    return;
  }
  onTimer(tag);
}

Box::Output Box::drainOutput() {
  Output out = std::move(output_);
  output_ = Output{};
  return out;
}

void Box::setSlotMute(SlotId slot, bool mute_in, bool mute_out) {
  auto it = single_goals_.find(slot);
  if (it == single_goals_.end()) return;
  Outbox out;
  setMute(it->second, mute_in, mute_out, slotRef(slot), out);
  flushOutbox(std::move(out));
}

void Box::setSlotAddress(SlotId slot, MediaAddress addr) {
  auto it = single_goals_.find(slot);
  if (it == single_goals_.end()) return;
  Outbox out;
  std::visit(
      [&](auto& goal) {
        using T = std::decay_t<decltype(goal)>;
        if constexpr (!std::is_same_v<T, CloseSlotGoal>) {
          goal.setAddress(addr, slotRef(slot), out);
        }
      },
      it->second);
  flushOutbox(std::move(out));
}

bool Box::reselectSlotCodec(SlotId slot, Codec codec) {
  auto it = single_goals_.find(slot);
  if (it == single_goals_.end()) return false;
  Outbox out;
  bool ok = false;
  std::visit(
      [&](auto& goal) {
        using T = std::decay_t<decltype(goal)>;
        if constexpr (!std::is_same_v<T, CloseSlotGoal>) {
          ok = goal.reselect(codec, slotRef(slot), out);
        }
      },
      it->second);
  flushOutbox(std::move(out));
  return ok;
}

void Box::sendMeta(ChannelId channel, MetaSignal meta) {
  if (auto peer = peerOf(channel)) {
    output_.meta.push_back(MetaOut{channel, *peer, std::move(meta)});
  }
}

void Box::requestChannel(std::string target, std::uint32_t tunnels,
                         std::string tag) {
  output_.channelRequests.push_back(
      ChannelRequest{std::move(target), tunnels, std::move(tag)});
}

void Box::destroyChannel(ChannelId channel) {
  auto peer = peerOf(channel);
  if (!peer) return;
  output_.teardowns.push_back(Teardown{channel, *peer});
  removeChannel(channel);
}

void Box::setTimer(SimDuration delay, std::string tag) {
  output_.timers.push_back(TimerRequest{delay, std::move(tag)});
}

SlotEndpoint& Box::slotRef(SlotId slot) {
  auto it = slots_.find(slot);
  if (it == slots_.end()) throw std::logic_error("unknown slot");
  return it->second;
}

void Box::queueTunnel(SlotId slot, Signal signal) {
  // The same lookup as channelOf, keeping the tunnel index it finds.
  for (const auto& [id, end] : channels_) {
    auto it = std::find(end.slots.begin(), end.slots.end(), slot);
    if (it == end.slots.end()) continue;
    const auto tunnel = static_cast<std::uint32_t>(it - end.slots.begin());
    output_.tunnel.push_back(
        TunnelOut{slot, id, tunnel, end.peer, std::move(signal)});
    return;
  }
  throw std::logic_error("slot on no channel at box " + name_);
}

void Box::dispatch(SlotId slot, SlotEvent event, const Signal& signal) {
  if (auto it = single_goals_.find(slot); it != single_goals_.end()) {
    Outbox out;
    onEvent(it->second, slotRef(slot), event, out);
    flushOutbox(std::move(out));
    return;
  }
  if (auto it = link_of_.find(slot); it != link_of_.end()) {
    LinkEntry* entry = it->second;
    const SlotId other = entry->a == slot ? entry->b : entry->a;
    Outbox out;
    entry->link.onEvent(slotRef(slot), slotRef(other), event, signal, out);
    flushOutbox(std::move(out));
    return;
  }
  // No goal bound: the slot absorbs the signal (protocol state still
  // advanced, auto-replies already queued). Feature code typically binds a
  // goal the moment it creates or learns of a slot.
  log::debug("box", name_, ": signal on unbound ", slot);
}

void Box::flushOutbox(Outbox&& out) {
  for (auto& item : out.take()) queueTunnel(item.slot, std::move(item.signal));
}

void Box::detachSlot(SlotId slot) {
  if (auto sit = single_goals_.find(slot); sit != single_goals_.end()) {
    traceGoal(obs::EventKind::goalCancelled, name_, kindOf(sit->second), slot);
    single_goals_.erase(sit);
  }
  auto it = link_of_.find(slot);
  if (it == link_of_.end()) return;
  LinkEntry* entry = it->second;
  traceGoal(obs::EventKind::goalCancelled, name_, GoalKind::flowLink, slot);
  link_of_.erase(entry->a);
  link_of_.erase(entry->b);
  links_.erase(std::remove_if(links_.begin(), links_.end(),
                              [entry](const auto& p) { return p.get() == entry; }),
               links_.end());
}

void Box::maybeRequestRetryTimer() {
  if (retry_timer_outstanding_ || !hasPendingRetries()) return;
  retry_timer_outstanding_ = true;
  setTimer(retryDelay, kRetryTimerTag);
}

}  // namespace cmc
