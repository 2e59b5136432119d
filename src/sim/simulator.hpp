// Simulator: hosts boxes, carries their signaling channels, and charges the
// paper's timing model (Section VIII-C).
//
// Every stimulus processed by a box — a tunnel signal, a meta-signal, a
// timer, an injected user action — costs the box `c` (TimingModel::
// processing); boxes are serial servers, so stimuli queue when they arrive
// faster than the box computes. Every signal put on a channel takes `n`
// (TimingModel::network) to reach the peer box. Outputs a box produces
// while processing a stimulus are emitted at the stimulus's completion
// time, which is exactly the accounting behind the paper's p*n + (p+1)*c
// latency law.
//
// The simulator also resolves ChannelRequests (configuration/routing being
// outside the paper's scope, feature boxes address each other by name; a
// host that created both boxes, like the load runtime, addresses them by
// BoxId and never looks a box up by name) and paces openslot retries
// through box timers. Names resolve through a flat index of (hash tag,
// BoxId) slots that reads each name from its box (sim/name_index.hpp), so
// registering and retiring a box allocates no string node.
//
// A channel is recorded once, at its two ends: each box's end row holds
// its slots and the far end's BoxId, and every output a box queues is
// already addressed from it. The simulator is the carrier between the two
// ends. It keeps no channel or route table, only the next channel id; an
// in-flight event holds BoxIds and resolves the destination's own end on
// arrival. Each event's handler, a stimulus body included, is built once,
// in its event-loop node, and runs there (sim/event_loop.hpp).
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/box.hpp"
#include "media/network.hpp"
#include "obs/context.hpp"
#include "obs/probes.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/name_index.hpp"
#include "sim/timing.hpp"

namespace cmc::obs {
class TraceRecorder;
class MetricsRegistry;
class FlightRecorder;
}  // namespace cmc::obs

namespace cmc {

class Simulator {
 public:
  explicit Simulator(TimingModel timing = TimingModel::paperDefaults(),
                     std::uint64_t seed = 1);
  ~Simulator();

  // Construct and register a box. The box's name must be unique; boxes
  // address channel requests to each other by name or by id.
  template <typename B, typename... Args>
  B& addBox(Args&&... args) {
    // Ids are handed out 1, 2, 3...: box `id` is row id - 1 of boxes_.
    auto box = std::make_unique<B>(BoxId{boxes_.size() + 1},
                                   std::forward<Args>(args)...);
    B& ref = *box;
    registerBox(std::move(box));
    return ref;
  }

  [[nodiscard]] Box& box(const std::string& name);

  // Free box `id` once it holds no slot and no goal (otherwise throws
  // std::logic_error). Its name is forgotten, so name lookups throw and
  // channel requests to it fail; its row stays, holding no box. Ids are
  // never reused, so an event still addressed to the row cannot reach a
  // newer box: it is dropped and counted in retiredDrops(). The row's
  // refresh tick ends.
  void retireBox(BoxId id);
  // Events that arrived for a retired box: stimuli, tunnel signals,
  // meta-signals, timers, channel setups and teardowns, restarts.
  [[nodiscard]] std::uint64_t retiredDrops() const noexcept {
    return retired_drops_;
  }

  // Statically connect two boxes with a signaling channel of `tunnels`
  // tunnels (both ends exist immediately; `a` is the initiator side).
  ChannelId connect(const std::string& a, const std::string& b,
                    std::uint32_t tunnels = 1);

  // Run `fn` on a box as a user stimulus (charges processing cost c). By
  // name, an unknown box throws; by id, a retired box drops the stimulus and
  // counts it in retiredDrops().
  void inject(const std::string& box_name, std::function<void(Box&)> fn);
  void inject(BoxId id, std::function<void(Box&)> fn);

  // Advance the simulation until idle (or the horizon). Returns true if the
  // event queue drained.
  bool run(SimDuration horizon = std::chrono::seconds(600));
  // Advance exactly `d` of simulated time, then stop.
  void runFor(SimDuration d);

  [[nodiscard]] SimTime now() const noexcept { return loop_.now(); }
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }
  // The media plane sharing this simulation's clock. Owned here so it
  // outlives the boxes whose media endpoints attach to it.
  [[nodiscard]] MediaNetwork& mediaNetwork() noexcept { return media_net_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }

  [[nodiscard]] std::uint64_t signalsDelivered() const noexcept {
    return signals_delivered_;
  }

  // ---------------------------------------------------------- observability
  // Virtual time since start in microseconds (the timebase every obs
  // artifact — traces, probes, metrics spans — is expressed in).
  [[nodiscard]] std::int64_t nowUs() const noexcept {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               loop_.now().sinceStart())
        .count();
  }

  // Install `rec` as the global trace recorder and retime it onto this
  // simulation's virtual clock, so exported traces are deterministic for a
  // fixed seed. Pass nullptr to detach. The destructor detaches whatever
  // this simulator installed.
  void attachTrace(obs::TraceRecorder* rec);
  // Install `m` as the global metrics registry (detached on destruction).
  void attachMetrics(obs::MetricsRegistry* m);
  // Install `fr` as the process-wide flight recorder and point it at this
  // simulation's probes plus whatever trace/metrics are attached, so a
  // probe timeout or flightAssert leaves a post-mortem dump behind. Pass
  // nullptr to detach (the destructor also detaches).
  void attachFlightRecorder(obs::FlightRecorder* fr);
  // Stamp log lines with this simulation's virtual time instead of the
  // wall clock (restored on destruction).
  void useSimTimeForLogs();

  // Convergence probes, capturing the exact virtual time a path quiesced.
  // After each completed stimulus of a box, and when a channel end
  // materializes on it, the probes watching that box are re-checked, plus
  // every probe armed without a watch set (obs/probes.hpp).
  [[nodiscard]] obs::ConvergenceProbes& probes() noexcept { return probes_; }

  // ------------------------------------------------------- fault injection
  // Install a fault plan (docs/FAULTS.md). Switches every box, registered
  // now or later, into stabilization mode, makes the plan decide for its
  // signals, schedules the plan's crashes, and starts the per-box refresh
  // tick that re-asserts unconverged goals. A box's tick lives while the
  // plan deciding for it is open or the box needs repair. The installed
  // plan also keeps the crash, dead-box-drop and considered counters. The
  // plan must outlive the simulator (or be detached with
  // installFaultPlan(nullptr)). Install before running.
  void installFaultPlan(FaultPlan* plan);
  // Let `plan` (non-null) decide for box `id`'s signals, and set its
  // refresh cadence and window, instead of the installed plan; a later
  // installFaultPlan resets every box. Decisions and ticks happen only
  // while a plan is installed. `plan` must outlive its use.
  void setBoxFaultPlan(BoxId id, FaultPlan* plan) {
    entry(id).fault_plan = plan;
  }

  // True while `name` is crashed (between a CrashEvent and its restart).
  [[nodiscard]] bool boxDown(const std::string& name) const noexcept;

  // Arm a convergence probe in the shared "stabilization_time" bucket —
  // the interval from now until `quiescent` first holds, i.e. how long the
  // path took to self-stabilize.
  // A positive `deadline_us` (absolute virtual time) makes the probe a
  // watchdog: missing it fails the probe and triggers the attached flight
  // recorder.
  void armStabilizationProbe(std::string name,
                             obs::ConvergenceProbes::Predicate quiescent,
                             std::int64_t deadline_us = 0) {
    probes_.arm(std::move(name), "stabilization_time", nowUs(),
                std::move(quiescent), deadline_us);
  }

  // Hook invoked on every tunnel-signal delivery (tracing/metrics).
  std::function<void(const std::string& from, const std::string& to,
                     const Signal&, SimTime)>
      onSignalDelivered;

 private:
  // `down_until` of a box that is up: no instant precedes it.
  static constexpr SimTime kUp{SimDuration::min()};
  // One row of the box table: the box and the four facts the timing and
  // fault models keep about it. A retired row keeps its slot and frees its
  // box.
  struct BoxEntry {
    std::unique_ptr<Box> box;  // null once retired
    SimTime busy_until;  // serial server: next instant the box is free
    SimTime down_until = kUp;  // from a crash to its restart: the up-time
    FaultPlan* fault_plan = nullptr;  // decides its signals and ticks; not owned
    bool refresh_armed = false;       // a refresh tick is pending
  };

  void registerBox(std::unique_ptr<Box> box);
  [[nodiscard]] BoxEntry& entry(BoxId id) { return boxes_[id.value() - 1]; }
  // The box an event for row `id` reaches: every handler resolves its
  // destination here. Null when the row is retired; the event is then
  // dropped and counted in retiredDrops().
  [[nodiscard]] Box* reach(BoxId id);
  // Box `id`'s name for traces and the delivery hook; empty once retired.
  [[nodiscard]] const std::string& nameOf(BoxId id);
  // The live box named `name`: findBox returns an invalid id when there is
  // none, idOf throws.
  [[nodiscard]] BoxId findBox(std::string_view name) const;
  [[nodiscard]] BoxId idOf(const std::string& name) const;
  // The live box a channel request addresses, by id or by name; invalid
  // (and logged) when there is none, and the request is dropped.
  [[nodiscard]] BoxId route(const ChannelRequest& request) const;
  [[nodiscard]] bool isDown(const BoxEntry& e) const noexcept {
    return loop_.now() < e.down_until;
  }
  // True when `e` is crashed: whatever was about to reach the box — a
  // queued stimulus, a meta-signal, a timer, a tunnel signal — is lost, and
  // counted once in both the plan's and the registry's dead_box_drops.
  bool droppedAtDeadBox(const BoxEntry& e);
  // Run `fn` as a stimulus on box `id` now: serialize on the box (busy
  // time), charge c, then execute and drain outputs. `cause` is the causal
  // parent (the context stamped on the signal/timer that triggered this
  // stimulus); empty for roots — user injections, refresh ticks, restarts —
  // which start a fresh trace when propagation is enabled. The body is
  // captured by the completion event itself, so it is built once, in the
  // event's node (the hot case, a Signal plus a slot and box reference,
  // fits EventLoop::kHandlerCapacity).
  template <typename Fn>
  void stimulate(BoxId id, Fn&& fn, obs::TraceContext cause = {});
  // The completion of a stimulus: run `run(body)` on box `id` under its
  // actor, context and profiler scopes, drain its outputs, record its span
  // and re-check its probes. Dropped when the box is retired or down.
  void runStimulus(BoxId id, std::int64_t start_us, obs::TraceContext cause,
                   void* body, void (*run)(void*));
  // Execute a scheduled CrashEvent: mark the box down, drop its queued
  // stimuli, and schedule the restart (Box::crashRestart) at the end of
  // the outage.
  void crashBox(const CrashEvent& crash);
  // Arm (if not already armed) one refresh tick for box `id`, firing its
  // own plan's refresh_interval from now.
  void scheduleRefreshTick(BoxId id);
  void refreshTick(BoxId id);
  void drain(Box& box);
  void processOutput(Box& box, Box::Output& out);
  // Deliver a tunnel signal scheduled by processOutput. The in-flight event
  // carries the address the sender queued it with (destination box,
  // channel, tunnel), so the capture is small and string-free. The slot is
  // read from the destination's own end on arrival: if that end is gone
  // (never materialized, torn down while in flight) the signal is lost,
  // before the dead-box check.
  void deliverTunnelSignal(BoxId to, ChannelId channel, std::uint32_t tunnel,
                           Signal signal, obs::TraceContext ctx);

  EventLoop loop_;
  MediaNetwork media_net_{loop_};  // before boxes_: endpoints detach on box death
  TimingModel timing_;
  Rng rng_;
  std::uint64_t next_channel_id_ = 1;
  // Every box drains into this one Output (Box::drainOutput), so the
  // storage of its lists is reused from stimulus to stimulus.
  Box::Output drained_;
  // The box table: boxes_[id - 1] is the box with that id. The name index
  // serves only callers that address boxes by name (apps, tests, fault
  // plans); the load runtime addresses its boxes by id. It holds no
  // strings: its slots read their names from the box rows.
  std::vector<BoxEntry> boxes_;
  BoxNameIndex box_names_;
  std::uint64_t signals_delivered_ = 0;
  std::uint64_t retired_drops_ = 0;
  obs::ConvergenceProbes probes_;
  FaultPlan* fault_plan_ = nullptr;  // the installed plan; not owned
  // Globals this simulator installed, cleared on destruction so a stale
  // pointer never outlives the run that owns it.
  obs::TraceRecorder* attached_trace_ = nullptr;
  obs::MetricsRegistry* attached_metrics_ = nullptr;
  obs::FlightRecorder* attached_flight_ = nullptr;
  bool owns_log_time_ = false;
};

}  // namespace cmc
