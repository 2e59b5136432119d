#include "sim/simulator.hpp"

#include <algorithm>
#include <string_view>
#include <type_traits>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace cmc {

namespace {

// Metric handles of the per-stimulus and fault paths, per thread.
thread_local obs::CounterHandle t_stimuli{"sim.stimuli"};
thread_local obs::GaugeHandle t_queue_depth{"sim.queue_depth"};
thread_local obs::CounterHandle t_busy_us{"sim.busy_us"};
// "sim.signal.<kind>" by SignalKind, each resolved at the first delivery of
// that kind, so the registry holds only the kinds that occurred.
thread_local obs::CounterHandle t_signals[] = {
    obs::CounterHandle{"sim.signal.open"},
    obs::CounterHandle{"sim.signal.oack"},
    obs::CounterHandle{"sim.signal.close"},
    obs::CounterHandle{"sim.signal.closeack"},
    obs::CounterHandle{"sim.signal.describe"},
    obs::CounterHandle{"sim.signal.select"},
};
static_assert(std::extent_v<decltype(t_signals)> ==
              static_cast<std::size_t>(SignalKind::select) + 1);
thread_local obs::CounterHandle t_faults_injected{"fault.injected"};
thread_local obs::CounterHandle t_faults_dropped{"fault.dropped"};
thread_local obs::CounterHandle t_faults_duplicated{"fault.duplicated"};
thread_local obs::CounterHandle t_faults_delayed{"fault.delayed"};
thread_local obs::CounterHandle t_dead_box_drops{"fault.dead_box_drops"};
thread_local obs::CounterHandle t_crashes{"fault.crashes"};

}  // namespace

Simulator::Simulator(TimingModel timing, std::uint64_t seed)
    : timing_(timing), rng_(seed) {}

Simulator::~Simulator() {
  if (attached_trace_ != nullptr) {
    // The recorder may outlive this simulator; its time source captures
    // `this` and must not dangle.
    attached_trace_->setTimeSource(nullptr);
    if (obs::recorder() == attached_trace_) obs::setRecorder(nullptr);
  }
  if (attached_metrics_ != nullptr && obs::metrics() == attached_metrics_) {
    obs::setMetrics(nullptr);
  }
  if (attached_flight_ != nullptr &&
      obs::flightRecorder() == attached_flight_) {
    obs::setFlightRecorder(nullptr);
  }
  if (owns_log_time_) log::setSimTimeSource(nullptr);
}

void Simulator::attachTrace(obs::TraceRecorder* rec) {
  if (rec != nullptr) {
    rec->setTimeSource([this]() { return nowUs(); });
  }
  obs::setRecorder(rec);
  attached_trace_ = rec;
}

void Simulator::attachMetrics(obs::MetricsRegistry* m) {
  obs::setMetrics(m);
  attached_metrics_ = m;
}

void Simulator::attachFlightRecorder(obs::FlightRecorder* fr) {
  if (fr != nullptr) {
    fr->setTrace(attached_trace_);
    fr->setMetrics(attached_metrics_);
    fr->setProbes(&probes_);
  }
  obs::setFlightRecorder(fr);
  attached_flight_ = fr;
}

void Simulator::useSimTimeForLogs() {
  log::setSimTimeSource([this]() { return nowUs(); });
  owns_log_time_ = true;
}

BoxId Simulator::findBox(std::string_view name) const {
  return box_names_.find(name, [this](BoxId id) -> std::string_view {
    return boxes_[id.value() - 1].box->name();
  });
}

BoxId Simulator::idOf(const std::string& name) const {
  const BoxId id = findBox(name);
  if (!id.valid()) throw std::logic_error("unknown box: " + name);
  return id;
}

Box& Simulator::box(const std::string& name) { return *entry(idOf(name)).box; }

void Simulator::retireBox(BoxId id) {
  BoxEntry& row = entry(id);
  if (row.box == nullptr) throw std::logic_error("box already retired");
  if (row.box->slotCount() != 0 || row.box->goalCount() != 0) {
    throw std::logic_error("retiring box " + row.box->name() +
                           " while it holds slots or goals");
  }
  box_names_.erase(row.box->name(), id);
  row.box.reset();
}

Box* Simulator::reach(BoxId id) {
  Box* box = entry(id).box.get();
  if (box == nullptr) ++retired_drops_;
  return box;
}

const std::string& Simulator::nameOf(BoxId id) {
  static const std::string kRetired;
  const Box* box = entry(id).box.get();
  return box != nullptr ? box->name() : kRetired;
}

BoxId Simulator::route(const ChannelRequest& request) const {
  if (request.target_id.valid()) {
    const BoxId to = request.target_id;
    if (to.value() >= 1 && to.value() <= boxes_.size() &&
        boxes_[to.value() - 1].box != nullptr) {
      return to;
    }
    log::warn("sim", "channel request to retired box ", to);
    return BoxId{};
  }
  const BoxId to = findBox(request.target);
  if (!to.valid()) {
    log::warn("sim", "channel request to unknown box ", request.target);
  }
  return to;
}

void Simulator::registerBox(std::unique_ptr<Box> box) {
  const BoxId id = box->id();
  if (findBox(box->name()).valid()) {
    throw std::logic_error("duplicate box: " + box->name());
  }
  if (fault_plan_ != nullptr) box->enableStabilization(true);
  BoxEntry& row = boxes_.emplace_back();
  row.box = std::move(box);
  row.fault_plan = fault_plan_;
  // Indexed once its row exists: the index reads the name from the row.
  box_names_.insert(row.box->name(), id);
  if (fault_plan_ != nullptr) scheduleRefreshTick(id);
}

ChannelId Simulator::connect(const std::string& a, const std::string& b,
                             std::uint32_t tunnels) {
  Box& box_a = box(a);
  Box& box_b = box(b);
  const ChannelId id{next_channel_id_++};
  box_a.addChannelEnd(id, tunnels, /*initiator=*/true, "", box_b.id(), b);
  box_b.addChannelEnd(id, tunnels, /*initiator=*/false, "", box_a.id(), a);
  // Static configuration happens before time starts; drain any goal signals
  // the hooks produced.
  drain(box_a);
  drain(box_b);
  return id;
}

void Simulator::inject(const std::string& box_name, std::function<void(Box&)> fn) {
  inject(idOf(box_name), std::move(fn));
}

void Simulator::inject(BoxId id, std::function<void(Box&)> fn) {
  loop_.schedule(SimDuration{0}, [this, id, fn = std::move(fn)]() mutable {
    Box* target = reach(id);
    if (target == nullptr) return;
    stimulate(id, [target, fn = std::move(fn)]() { fn(*target); });
  });
}

bool Simulator::run(SimDuration horizon) { return loop_.runUntilIdle(horizon); }

void Simulator::runFor(SimDuration d) { loop_.runUntil(loop_.now() + d); }

void Simulator::installFaultPlan(FaultPlan* plan) {
  fault_plan_ = plan;
  for (BoxEntry& row : boxes_) row.fault_plan = plan;
  if (plan == nullptr) return;
  // Name order, so same-instant refresh ticks fire in box-name order.
  std::vector<std::pair<std::string_view, BoxId>> by_name;
  for (const BoxEntry& row : boxes_) {
    if (row.box != nullptr) by_name.emplace_back(row.box->name(), row.box->id());
  }
  std::sort(by_name.begin(), by_name.end());
  for (const auto& [name, id] : by_name) {
    entry(id).box->enableStabilization(true);
    scheduleRefreshTick(id);
  }
  for (const CrashEvent& crash : plan->crashes()) {
    loop_.scheduleAt(crash.at, [this, crash]() { crashBox(crash); });
  }
  if (obs::TraceRecorder* rec = obs::recorder()) {
    rec->record(obs::EventKind::mark, "fault_plan_installed", {}, {}, 0,
                static_cast<std::int64_t>(plan->seed()));
  }
}

bool Simulator::boxDown(const std::string& name) const noexcept {
  const BoxId id = findBox(name);
  return id.valid() && isDown(boxes_[id.value() - 1]);
}

bool Simulator::droppedAtDeadBox(const BoxEntry& e) {
  if (!isDown(e)) return false;
  if (fault_plan_ != nullptr) ++fault_plan_->counters().dead_box_drops;
  if (obs::Counter* drops = t_dead_box_drops.get()) drops->add();
  return true;
}

void Simulator::crashBox(const CrashEvent& crash) {
  const BoxId id = findBox(crash.box);
  if (!id.valid()) return;
  const SimTime up_at = loop_.now() + crash.down_for;
  // Overlapping crashes: the box stays down until the later up-time.
  SimTime& down_until = entry(id).down_until;
  down_until = std::max(down_until, up_at);
  if (fault_plan_ != nullptr) ++fault_plan_->counters().crashes;
  if (obs::Counter* crashes = t_crashes.get()) crashes->add();
  if (obs::TraceRecorder* rec = obs::recorder()) {
    rec->record(obs::EventKind::mark, "crash", crash.box, {}, 0,
                crash.down_for.count());
  }
  loop_.scheduleAt(up_at, [this, id]() {
    // Overlapping crashes restart the box once, at the latest up-time: a
    // box still down belongs to a later crash's restart, and a box already
    // up was restarted by a crash ending at the same instant.
    SimTime& down = entry(id).down_until;
    if (down == kUp || loop_.now() < down) return;
    down = kUp;
    Box* target = reach(id);
    if (target == nullptr) return;
    if (obs::TraceRecorder* rec = obs::recorder()) {
      rec->record(obs::EventKind::mark, "restart", target->name());
    }
    stimulate(id, [target]() { target->crashRestart(); });
    scheduleRefreshTick(id);
  });
}

void Simulator::scheduleRefreshTick(BoxId id) {
  if (fault_plan_ == nullptr) return;
  BoxEntry& e = entry(id);
  if (e.refresh_armed) return;
  e.refresh_armed = true;
  loop_.schedule(e.fault_plan->spec().refresh_interval,
                 [this, id]() { refreshTick(id); });
}

void Simulator::refreshTick(BoxId id) {
  BoxEntry& e = entry(id);
  e.refresh_armed = false;
  if (fault_plan_ == nullptr) return;
  // A retired row's tick ends here. The tick is the simulator's own, not
  // an event addressed to the box, so ending it drops nothing.
  if (e.box == nullptr) return;
  if (isDown(e)) return;  // the restart handler re-arms
  Box& target = *e.box;
  if (target.needsRefresh()) {
    stimulate(id, [&target]() { target.refreshGoals(); });
  }
  // Keep ticking while the box's own plan may still hit it; once its
  // window is over, stimulus completions re-arm the tick whenever the box
  // is left unconverged, so a converged box stops ticking and the loop can
  // drain.
  const FaultPlan& plan = *e.fault_plan;
  if (plan.activeAt(loop_.now() + plan.spec().refresh_interval) ||
      target.needsRefresh()) {
    scheduleRefreshTick(id);
  }
}

template <typename Fn>
void Simulator::stimulate(BoxId id, Fn&& fn, obs::TraceContext cause) {
  // Serialize on the box: processing starts when the box frees up and takes
  // c; outputs appear at completion.
  SimTime& busy = entry(id).busy_until;
  const SimTime start = loop_.now() < busy ? busy : loop_.now();
  const SimTime done = start + timing_.processing;
  busy = done;
  if (obs::MetricsRegistry* m = obs::metrics()) {
    t_stimuli.in(*m).add();
    t_queue_depth.in(*m).set(static_cast<std::int64_t>(loop_.pending()));
    const auto busy_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             done - start)
                             .count();
    t_busy_us.in(*m).add(static_cast<std::uint64_t>(busy_us));
  }
  const std::int64_t start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(start.sinceStart())
          .count();
  // The body is captured as it is, so it is built once, in the event node.
  using Body = std::decay_t<Fn>;
  loop_.scheduleAt(done, [this, id, start_us, cause,
                          body = std::forward<Fn>(fn)]() mutable {
    runStimulus(id, start_us, cause, &body,
                [](void* b) { (*static_cast<Body*>(b))(); });
  });
}

void Simulator::runStimulus(BoxId id, std::int64_t start_us,
                            obs::TraceContext cause, void* body,
                            void (*run)(void*)) {
  Box* target = reach(id);
  if (target == nullptr) return;
  // A stimulus queued before a crash dies with the box's volatile state.
  if (droppedAtDeadBox(entry(id))) return;
  Box& box = *target;
  obs::TraceRecorder* rec = obs::recorder();
  // Span adoption: the stimulus becomes a child of the span that stamped
  // the triggering signal; a causeless stimulus roots a fresh trace.
  // Each delivery gets its own span id, so fault-injected duplicates and
  // retransmits show up as distinct spans under one trace.
  obs::TraceContext self{};
  if (rec != nullptr && rec->propagationEnabled()) {
    self.trace = cause.trace != 0 ? cause.trace : rec->newId();
    self.span = rec->newId();
  }
  {
    // Value-type instrumentation inside (SlotEndpoint transitions,
    // flowlink updates) attributes events to this box via the scope, and
    // to this stimulus's span via the context scope.
    obs::ActorScope scope(box.name());
    obs::ContextScope ctx_scope(self);
    CMC_PROF_SCOPE("sim.stimulus");
    run(body);
    drain(box);
  }
  if (rec != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::boxSpan;
    ev.name = "stimulus";
    ev.actor = box.name();
    ev.ts_us = start_us;
    const std::int64_t dur = nowUs() - start_us;
    ev.dur_us = dur > 0 ? dur : 1;  // zero-width spans vanish in viewers
    ev.trace_id = self.trace;
    ev.span_id = self.span;
    ev.parent_span = cause.span;
    rec->record(std::move(ev));
  }
  // Liveness under faults: any stimulus that leaves the box unconverged
  // (a lost answer, a stale signal) re-arms its refresh tick.
  if (fault_plan_ != nullptr && box.needsRefresh()) {
    scheduleRefreshTick(id);
  }
  if (!probes_.empty()) probes_.checkBox(id.value(), nowUs());
}

void Simulator::drain(Box& box) {
  // Processing outputs can trigger same-box hooks that enqueue more output
  // (e.g. onChannelUp when the box creates a channel); loop to fixpoint.
  for (int guard = 0; guard < 64; ++guard) {
    box.drainOutput(drained_);
    if (drained_.empty()) return;
    processOutput(box, drained_);
  }
  log::warn("sim", "box ", box.name(), " output did not quiesce");
}

void Simulator::processOutput(Box& sender, Box::Output& out) {
  CMC_PROF_SCOPE("sim.process_output");
  const BoxId from = sender.id();
  // Every output is stamped with the context of the stimulus that produced
  // it (empty when propagation is off or during static configuration), so
  // the receiving box's stimulus span can adopt it as its causal parent.
  const obs::TraceContext cause = obs::currentContext();

  for (auto& item : out.tunnel) {
    if (obs::TraceRecorder* trace = obs::recorder()) {
      trace->record(obs::EventKind::signalSend, toString(kindOf(item.signal)),
                    sender.name(), nameOf(item.peer), item.slot.value(),
                    static_cast<std::int64_t>(item.channel.value()),
                    item.tunnel);
    }
    const SimDuration latency = timing_.sampleNetwork(rng_);
    FaultDecision fate;  // default: deliver one copy, on time
    if (fault_plan_ != nullptr) {
      // The sender's own plan decides; the installed one still counts it.
      FaultPlan& plan = *entry(from).fault_plan;
      if (&plan != fault_plan_) ++fault_plan_->counters().considered;
      fate = plan.decide(loop_.now());
    }
    if (obs::MetricsRegistry* m = obs::metrics();
        m != nullptr && fault_plan_ != nullptr) {
      if (fate.drop || fate.copies > 1 || fate.extra.count() > 0) {
        t_faults_injected.in(*m).add();
      }
      if (fate.drop) t_faults_dropped.in(*m).add();
      if (fate.copies > 1) t_faults_duplicated.in(*m).add();
      if (fate.extra.count() > 0) t_faults_delayed.in(*m).add();
    }
    if (fate.drop) {
      if (obs::TraceRecorder* trace = obs::recorder()) {
        trace->record(obs::EventKind::mark, "fault_drop", sender.name(),
                      nameOf(item.peer), item.slot.value());
      }
      continue;
    }
    for (std::uint32_t copy = 0; copy < fate.copies; ++copy) {
      const SimDuration when = latency + fate.extra + fate.copy_spacing * copy;
      Signal signal_copy = item.signal;
      // Duplicates carry the same context: one trace id, one parent span;
      // each delivery then becomes its own span on the receiver. The event
      // carries the address, not box-name strings: with the codec list
      // inline in the descriptor, the whole capture fits the event node and
      // scheduling a delivery allocates nothing.
      loop_.schedule(when, [this, to = item.peer, channel = item.channel,
                            tunnel = item.tunnel, cause,
                            signal = std::move(signal_copy)]() mutable {
        deliverTunnelSignal(to, channel, tunnel, std::move(signal), cause);
      });
    }
  }

  // Everything below is call-lifecycle administration — meta signals,
  // timers, channel creation and teardown — which inherently allocates
  // (new protocol state, new channel ends). It runs under its own site so
  // sim.process_output measures the per-signal forwarding path alone; the
  // admin cost stays visible in profiles under sim.output_admin.
  CMC_PROF_SCOPE("sim.output_admin");

  for (auto& [channel, to, meta] : out.meta) {
    meta.ctx = cause;  // in-band provenance, mirrors the net frame encoding
    loop_.schedule(timing_.sampleNetwork(rng_),
                   [this, from, to, channel, meta = std::move(meta)]() {
                     Box* target = reach(to);
                     if (target == nullptr) return;
                     // Lost only once neither end holds the channel.
                     const Box* sender = entry(from).box.get();
                     if (!target->hasChannel(channel) &&
                         (sender == nullptr || !sender->hasChannel(channel))) {
                       return;
                     }
                     if (droppedAtDeadBox(entry(to))) return;
                     stimulate(to, [target, channel, meta]() {
                       target->deliverMeta(channel, meta);
                     }, meta.ctx);
                   });
  }

  for (auto& timer : out.timers) {
    // A timer continues the causal chain of the stimulus that armed it
    // (e.g. an openslot retry descends from the open that went unanswered).
    loop_.schedule(timer.delay, [this, from, cause,
                                 tag = std::move(timer.tag)]() {
      Box* target = reach(from);
      if (target == nullptr) return;
      // Timers are volatile: a crash forgets them (crashRestart re-arms
      // what its re-attached goals still need).
      if (droppedAtDeadBox(entry(from))) return;
      stimulate(from, [target, tag]() { target->fireTimer(tag); }, cause);
    });
  }

  for (auto& request : out.channelRequests) {
    const BoxId to = route(request);
    if (!to.valid()) continue;
    const ChannelId id{next_channel_id_++};
    const std::uint32_t tunnels = request.tunnels;
    sender.addChannelEnd(id, tunnels, /*initiator=*/true, request.tag, to,
                         nameOf(to));
    // The far end materializes one network latency later (setup meta). The
    // transport-level end registration is synchronous so that signals in
    // flight right behind the setup find the slots; the callee's feature
    // reaction to the new channel is charged one processing cost.
    loop_.schedule(timing_.sampleNetwork(rng_),
                   [this, id, tunnels, from, to, cause]() {
      // The caller let go of its end before the setup arrived.
      const Box* caller = entry(from).box.get();
      if (caller == nullptr || !caller->hasChannel(id)) return;
      Box* callee = reach(to);
      if (callee == nullptr) return;
      callee->addChannelEnd(id, tunnels, /*initiator=*/false, "", from,
                            caller->name());
      // Materialization mutates the callee's state (slots appear, goals may
      // attach in the incoming-channel hook) outside any stimulus, so
      // re-evaluate the callee's probes here: a quiescence predicate that
      // flips at this instant must record this instant, not the callee's
      // next stimulus one processing cost later.
      if (!probes_.empty()) probes_.checkBox(to.value(), nowUs());
      // Drain hook outputs after processing cost; causally the callee's
      // reaction descends from the stimulus that requested the channel.
      stimulate(to, []() {}, cause);
    });
  }

  for (const auto& [channel, to] : out.teardowns) {
    // A far end that never materialized, or already let go, is not told.
    const Box* peer = entry(to).box.get();
    if (peer == nullptr || !peer->hasChannel(channel)) continue;
    loop_.schedule(timing_.sampleNetwork(rng_), [this, channel, to, cause]() {
      Box* target = reach(to);
      if (target == nullptr) return;
      if (!target->hasChannel(channel)) return;  // it let go meanwhile
      stimulate(to, [target, channel]() {
        target->deliverMeta(channel, MetaSignal{MetaKind::teardown, "", ""});
      }, cause);
    });
  }
}

void Simulator::deliverTunnelSignal(BoxId to, ChannelId channel,
                                    std::uint32_t tunnel, Signal signal,
                                    obs::TraceContext ctx) {
  CMC_PROF_SCOPE("sim.deliver_tunnel");
  Box* to_box = reach(to);
  if (to_box == nullptr) return;
  Box& target = *to_box;
  // The destination end is gone: the signal is lost in the channel.
  const std::optional<SlotId> slot = target.slotAt(channel, tunnel);
  if (!slot) return;
  // The destination is crashed: the signal reaches a dead transport and is
  // lost, exactly like a drop fault.
  if (droppedAtDeadBox(entry(to))) return;
  ++signals_delivered_;
  if (obs::MetricsRegistry* m = obs::metrics()) {
    t_signals[static_cast<std::size_t>(kindOf(signal))].in(*m).add();
  }
  // The sender's name costs a channel lookup, so it is looked up only for
  // a trace or the delivery hook.
  if (obs::TraceRecorder* trace = obs::recorder()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::signalRecv;
    ev.name.assign(toString(kindOf(signal)));
    ev.actor = target.name();
    ev.aux = nameOf(*target.peerOf(channel));
    ev.id = slot->value();
    ev.v0 = static_cast<std::int64_t>(channel.value());
    ev.v1 = tunnel;
    // The arrival instant precedes the stimulus span (processing may queue
    // behind a busy box), so it records the carried context explicitly:
    // which trace it belongs to and which span caused it.
    ev.trace_id = ctx.trace;
    ev.parent_span = ctx.span;
    trace->record(std::move(ev));
  }
  if (onSignalDelivered) {
    onSignalDelivered(nameOf(*target.peerOf(channel)), target.name(), signal,
                      loop_.now());
  }
  stimulate(to, [&target, slot = *slot, signal = std::move(signal)]() {
    target.deliverTunnel(slot, signal);
  }, ctx);
}

}  // namespace cmc
