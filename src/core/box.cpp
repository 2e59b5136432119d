#include "core/box.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace cmc {

namespace {

// Goal counters, resolved once per registry on each thread.
thread_local obs::CounterHandle t_goals_posted{"goal.posted"};
thread_local obs::CounterHandle t_goals_achieved{"goal.achieved"};
thread_local obs::CounterHandle t_goals_cancelled{"goal.cancelled"};
thread_local obs::CounterHandle t_goal_refreshes{"goal.refreshes"};
thread_local obs::CounterHandle t_openslot_retries{"goal.openslot_retries"};
thread_local obs::CounterHandle t_crash_restarts{"box.crash_restarts"};

// Goal lifecycle event (posted/achieved/cancelled). One relaxed load each
// for the recorder and the registry when observability is off.
void traceGoal(obs::EventKind kind, const std::string& box, GoalKind goal,
               SlotId slot) {
  if (obs::TraceRecorder* rec = obs::recorder()) {
    rec->record(kind, toString(goal), box, {}, slot.value());
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    switch (kind) {
      case obs::EventKind::goalPosted: t_goals_posted.in(*m).add(); break;
      case obs::EventKind::goalAchieved: t_goals_achieved.in(*m).add(); break;
      case obs::EventKind::goalCancelled:
        t_goals_cancelled.in(*m).add();
        break;
      default: break;
    }
  }
}

// Row lookups over a box's rows, for const and mutable boxes alike. Slot
// rows are in SlotId order; the others are short, so they are scanned.
template <typename Rows>
auto* slotRowIn(Rows& rows, SlotId slot) {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), slot,
      [](const auto& row, SlotId id) { return row.slot.id() < id; });
  return it != rows.end() && it->slot.id() == slot ? &*it : nullptr;
}

template <typename Rows>
auto& slotIn(Rows& rows, SlotId slot) {
  auto* row = slotRowIn(rows, slot);
  if (row == nullptr) throw std::logic_error("unknown slot");
  return row->slot;
}

template <typename Rows>
auto* endIn(Rows& rows, ChannelId channel) {
  auto it = std::find_if(rows.begin(), rows.end(),
                         [channel](const auto& end) { return end.id == channel; });
  return it != rows.end() ? &*it : nullptr;
}

// The goal row controlling `slot`: its single-slot goal or its flowlink.
template <typename Rows>
auto* goalIn(Rows& rows, SlotId slot) {
  auto it = std::find_if(rows.begin(), rows.end(), [slot](const auto& row) {
    return row.a == slot || row.b == slot;
  });
  return it != rows.end() ? &*it : nullptr;
}

template <typename Rows>
auto* singleGoalIn(Rows& rows, SlotId slot) {
  auto* row = goalIn(rows, slot);
  return row != nullptr ? std::get_if<EndpointGoal>(&row->goal) : nullptr;
}

// The media core of the open or hold goal controlling `slot`, if any.
template <typename Rows>
MediaGoal* mediaGoalIn(Rows& rows, SlotId slot) {
  EndpointGoal* goal = singleGoalIn(rows, slot);
  return goal != nullptr ? mediaGoalOf(*goal) : nullptr;
}

}  // namespace

Box::Box(BoxId id, std::string name) : id_(id), name_(std::move(name)) {}

SlotIds Box::addChannelEnd(ChannelId channel, std::uint32_t tunnels,
                           bool initiator, const std::string& tag, BoxId peer,
                           const std::string& peer_name) {
  SlotIds created;
  for (std::uint32_t t = 0; t < tunnels; ++t) {
    const SlotId slot = slot_ids_.next();
    created.push_back(slot);
    SlotRow& row =
        slots_.emplace_back(SlotRow{SlotEndpoint{slot, initiator}, channel, t});
    row.slot.setStabilizing(stabilization_enabled_);
  }
  ends_.push_back(EndRow{channel, peer, created});
  if (!initiator) {
    onIncomingChannel(channel, peer_name);
  } else {
    onChannelUp(channel, tag);
  }
  return created;
}

void Box::removeChannel(ChannelId channel) {
  const EndRow* end = endIn(ends_, channel);
  if (end == nullptr) return;
  for (SlotId slot : end->slots) {
    detachSlot(slot);
    slots_.erase(slotRowIn(slots_, slot));
  }
  ends_.erase(end);
  onChannelDown(channel);
}

bool Box::hasChannel(ChannelId channel) const noexcept {
  return endIn(ends_, channel) != nullptr;
}

SlotIds Box::slotsOf(ChannelId channel) const {
  const EndRow* end = endIn(ends_, channel);
  return end != nullptr ? end->slots : SlotIds{};
}

ChannelId Box::channelOf(SlotId slot) const noexcept {
  const SlotRow* row = slotRowIn(slots_, slot);
  return row != nullptr ? row->channel : ChannelId{};
}

std::optional<SlotId> Box::slotAt(ChannelId channel,
                                  std::uint32_t tunnel) const noexcept {
  const EndRow* end = endIn(ends_, channel);
  if (end == nullptr || tunnel >= end->slots.size()) return std::nullopt;
  return end->slots[tunnel];
}

std::optional<BoxId> Box::peerOf(ChannelId channel) const noexcept {
  const EndRow* end = endIn(ends_, channel);
  if (end == nullptr) return std::nullopt;
  return end->peer;
}

void Box::setGoal(SlotId slot, EndpointGoal goal) {
  detachSlot(slot);
  SlotEndpoint& endpoint = slotIn(slots_, slot);
  EndpointGoal& bound = std::get<EndpointGoal>(
      goals_.emplace_back(GoalRow{slot, SlotId{}, std::move(goal)}).goal);
  traceGoal(obs::EventKind::goalPosted, name_, kindOf(bound), slot);
  Outbox out;
  attach(bound, endpoint, out);
  flushOutbox(std::move(out));
  maybeRequestRetryTimer();
}

void Box::linkSlots(SlotId a, SlotId b) {
  if (const GoalRow* row = goalIn(goals_, a);
      row != nullptr &&
      ((row->a == a && row->b == b) || (row->a == b && row->b == a))) {
    return;  // same annotation: the same goal object keeps control
  }
  detachSlot(a);
  detachSlot(b);
  SlotEndpoint& slot_a = slotIn(slots_, a);
  SlotEndpoint& slot_b = slotIn(slots_, b);
  FlowLink& link =
      std::get<FlowLink>(goals_.emplace_back(GoalRow{a, b, FlowLink{}}).goal);
  traceGoal(obs::EventKind::goalPosted, name_, GoalKind::flowLink, a);
  Outbox out;
  link.attach(slot_a, slot_b, out);
  flushOutbox(std::move(out));
}

void Box::clearGoal(SlotId slot) { detachSlot(slot); }

std::optional<GoalKind> Box::goalKind(SlotId slot) const {
  const GoalRow* row = goalIn(goals_, slot);
  if (row == nullptr) return std::nullopt;
  if (const auto* goal = std::get_if<EndpointGoal>(&row->goal)) {
    return kindOf(*goal);
  }
  return GoalKind::flowLink;
}

void Box::fireRetries() {
  retry_timer_outstanding_ = false;
  for (SlotRow& row : slots_) {
    EndpointGoal* goal = singleGoalIn(goals_, row.slot.id());
    if (goal == nullptr || !retryPending(*goal)) continue;
    Outbox out;
    retry(*goal, row.slot, out);
    flushOutbox(std::move(out), &t_openslot_retries);
  }
  maybeRequestRetryTimer();
}

void Box::enableStabilization(bool on) {
  stabilization_enabled_ = on;
  for (SlotRow& row : slots_) row.slot.setStabilizing(on);
}

void Box::refreshGoals() {
  // Single-slot goals in SlotId order (the slot rows'), then flowlinks in
  // creation order, as crashRestart and fireRetries do.
  for (SlotRow& row : slots_) {
    EndpointGoal* goal = singleGoalIn(goals_, row.slot.id());
    if (goal == nullptr || converged(*goal, row.slot)) continue;
    Outbox out;
    refresh(*goal, row.slot, out);
    flushOutbox(std::move(out), &t_goal_refreshes);
  }
  for (GoalRow& row : goals_) {
    auto* link = std::get_if<FlowLink>(&row.goal);
    if (link == nullptr) continue;
    SlotEndpoint& a = slotIn(slots_, row.a);
    SlotEndpoint& b = slotIn(slots_, row.b);
    if (link->converged(a, b)) continue;
    Outbox out;
    link->stabilize(a, b, out);
    flushOutbox(std::move(out), &t_goal_refreshes);
  }
  maybeRequestRetryTimer();
}

bool Box::needsRefresh() const {
  return std::any_of(goals_.begin(), goals_.end(), [this](const GoalRow& row) {
    if (const auto* goal = std::get_if<EndpointGoal>(&row.goal)) {
      return !converged(*goal, slot(row.a));
    }
    return !std::get<FlowLink>(row.goal).converged(slot(row.a), slot(row.b));
  });
}

void Box::crashRestart() {
  // Everything volatile dies with the process: undrained outputs and all
  // protocol endpoint state. Channel wiring and goal annotations survive
  // (configuration, not run-state).
  output_.clear();
  for (SlotRow& row : slots_) {
    row.slot = SlotEndpoint{row.slot.id(), row.slot.channelInitiator()};
    row.slot.setStabilizing(stabilization_enabled_);
  }
  for (SlotRow& row : slots_) {
    EndpointGoal* goal = singleGoalIn(goals_, row.slot.id());
    if (goal == nullptr) continue;
    Outbox out;
    attach(*goal, row.slot, out);
    flushOutbox(std::move(out));
  }
  for (GoalRow& row : goals_) {
    auto* link = std::get_if<FlowLink>(&row.goal);
    if (link == nullptr) continue;
    Outbox out;
    link->attach(slotIn(slots_, row.a), slotIn(slots_, row.b), out);
    flushOutbox(std::move(out));
  }
  if (stabilization_enabled_) {
    // A peer may still be flowing on a tunnel we no longer remember; it has
    // no reason to ever signal first (it is converged from its own view).
    // Probe every still-closed goal-bound slot with a close so both ends
    // fall back to closed and re-converge from there.
    for (SlotRow& row : slots_) {
      if (row.slot.state() != ProtocolState::closed) continue;
      if (goalIn(goals_, row.slot.id()) == nullptr) continue;
      queueTunnel(row.slot.id(), row.slot.probeClose());
    }
  }
  if (obs::Counter* restarts = t_crash_restarts.get()) restarts->add();
  maybeRequestRetryTimer();
  onCrashRestart();
}

bool Box::hasPendingRetries() const {
  return std::any_of(goals_.begin(), goals_.end(), [](const GoalRow& row) {
    const auto* goal = std::get_if<EndpointGoal>(&row.goal);
    return goal != nullptr && retryPending(*goal);
  });
}

const SlotEndpoint& Box::slot(SlotId slot) const { return slotIn(slots_, slot); }

bool Box::goalSatisfied(SlotId slot) const {
  const GoalRow* row = goalIn(goals_, slot);
  if (row == nullptr) return false;
  if (const auto* goal = std::get_if<EndpointGoal>(&row->goal)) {
    switch (kindOf(*goal)) {
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
  return FlowLink::matched(this->slot(row->a), this->slot(row->b));
}

ProtocolState Box::slotState(SlotId slot) const { return this->slot(slot).state(); }

void Box::deliverTunnel(SlotId slot, const Signal& signal) {
  SlotRow* row = slotRowIn(slots_, slot);
  if (row == nullptr) return;  // raced with channel teardown
  // Goal-achieved edges (posted goal first reaching its target state) are
  // only detectable across the delivery; evaluate the predicate on both
  // sides when observability is on.
  const bool observing =
      obs::recorder() != nullptr || obs::metrics() != nullptr;
  const bool satisfied_before = observing && goalSatisfied(slot);
  const DeliverResult result = row->slot.deliver(signal);
  if (result.autoReply) {
    queueTunnel(slot, *result.autoReply);
  }
  dispatch(row->slot, result.event, signal);
  if (observing && !satisfied_before && goalSatisfied(slot)) {
    if (auto kind = goalKind(slot)) {
      traceGoal(obs::EventKind::goalAchieved, name_, *kind, slot);
    }
  }
  // The hook may add or remove channels, which moves rows: `row` is not
  // used past this point.
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

void Box::drainOutput(Output& into) {
  into.clear();
  std::swap(into, output_);
}

void Box::setSlotMute(SlotId slot, bool mute_in, bool mute_out) {
  MediaGoal* goal = mediaGoalIn(goals_, slot);
  if (goal == nullptr) return;
  Outbox out;
  goal->setMute(mute_in, mute_out, slotIn(slots_, slot), out);
  flushOutbox(std::move(out));
}

void Box::setSlotAddress(SlotId slot, MediaAddress addr) {
  MediaGoal* goal = mediaGoalIn(goals_, slot);
  if (goal == nullptr) return;
  Outbox out;
  goal->setAddress(addr, slotIn(slots_, slot), out);
  flushOutbox(std::move(out));
}

bool Box::reselectSlotCodec(SlotId slot, Codec codec) {
  MediaGoal* goal = mediaGoalIn(goals_, slot);
  if (goal == nullptr) return false;
  Outbox out;
  const bool ok = goal->reselect(codec, slotIn(slots_, slot), out);
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

void Box::requestChannel(BoxId target, std::uint32_t tunnels, std::string tag) {
  output_.channelRequests.push_back(
      ChannelRequest{{}, tunnels, std::move(tag), target});
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

void Box::queueTunnel(SlotId slot, Signal signal) {
  const SlotRow* row = slotRowIn(slots_, slot);
  const EndRow* end = row != nullptr ? endIn(ends_, row->channel) : nullptr;
  if (end == nullptr) throw std::logic_error("slot on no channel at box " + name_);
  output_.tunnel.push_back(
      TunnelOut{slot, row->channel, row->tunnel, end->peer, std::move(signal)});
}

void Box::dispatch(SlotEndpoint& endpoint, SlotEvent event,
                   const Signal& signal) {
  const SlotId slot = endpoint.id();
  GoalRow* row = goalIn(goals_, slot);
  if (row == nullptr) {
    // No goal bound: the slot absorbs the signal (protocol state still
    // advanced, auto-replies already queued). Feature code typically binds
    // a goal the moment it creates or learns of a slot.
    log::debug("box", name_, ": signal on unbound ", slot);
    return;
  }
  Outbox out;
  if (auto* goal = std::get_if<EndpointGoal>(&row->goal)) {
    onEvent(*goal, endpoint, event, out);
  } else {
    const SlotId other = row->a == slot ? row->b : row->a;
    std::get<FlowLink>(row->goal)
        .onEvent(endpoint, slotIn(slots_, other), event, signal, out);
  }
  flushOutbox(std::move(out));
}

void Box::flushOutbox(Outbox&& out, obs::CounterHandle* counter) {
  if (counter != nullptr && !out.empty()) {
    if (obs::Counter* c = counter->get()) c->add();
  }
  for (auto& item : out.take()) queueTunnel(item.slot, std::move(item.signal));
}

void Box::detachSlot(SlotId slot) {
  const GoalRow* row = goalIn(goals_, slot);
  if (row == nullptr) return;
  const auto* goal = std::get_if<EndpointGoal>(&row->goal);
  traceGoal(obs::EventKind::goalCancelled, name_,
            goal != nullptr ? kindOf(*goal) : GoalKind::flowLink, slot);
  goals_.erase(row);
}

void Box::maybeRequestRetryTimer() {
  if (retry_timer_outstanding_ || !hasPendingRetries()) return;
  retry_timer_outstanding_ = true;
  setTimer(kRetryDelay, kRetryTimerTag);
}

}  // namespace cmc
