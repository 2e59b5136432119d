// Box: a peer module involved in media control (paper Sections III-A, VII).
//
// A box owns the slots of every signaling channel that ends at it, the
// paper's Maps object tying each slot to the one goal that controls it, and
// whatever application logic the feature needs. Both live in three flat
// rows, inline in the Box (docs/DESIGN.md §4.5): its channel ends, its slots
// in SlotId order, and its goals, single-slot goals and flowlinks alike, in
// creation order. The paper's implementation structure is preserved: the
// Box sees meta-signals and drives goals; Slot objects see every tunnel
// signal and maintain protocol state; Goal objects read all signals of
// their slots and write all signals to them (goalReceive).
//
// Box performs no I/O. Every entry point (deliverTunnel, deliverMeta,
// fireTimer, ...) appends to an Output that the hosting runtime drains:
// tunnel signals to put on channels, meta-signals, timer requests, channel
// create/destroy requests. This keeps feature code runnable under the
// simulator and over real TCP transports alike.
//
// Subclasses implement features by overriding the on* hooks and calling the
// protected helpers; the media-control heavy lifting is entirely in the
// goal primitives.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "channel/meta.hpp"
#include "core/goal.hpp"
#include "core/intent.hpp"
#include "util/small_vec.hpp"
#include "util/time.hpp"

namespace cmc::obs {
class Counter;
template <typename Metric>
class MetricHandle;
using CounterHandle = MetricHandle<Counter>;
}  // namespace cmc::obs

namespace cmc {

// A request to the runtime to create a new signaling channel from this box
// toward another box (configuration/routing is outside the paper's scope).
// Features address the far box by name, which the runtime resolves; a
// runtime that created both boxes may address it by id instead.
struct ChannelRequest {
  std::string target;  // by name, when `target_id` is invalid
  std::uint32_t tunnels = 1;
  std::string tag;  // echoed back in onChannelUp so the box can correlate
  BoxId target_id{};  // by id, when valid
};

// The slot ids of one channel end, one per tunnel, by value.
using SlotIds = SmallVec<SlotId, 2>;

class Box {
 public:
  Box(BoxId id, std::string name);
  virtual ~Box() = default;

  Box(const Box&) = delete;
  Box& operator=(const Box&) = delete;

  [[nodiscard]] BoxId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // ------------------------------------------------------------ wiring
  // Called by the runtime when a channel end is established at this box.
  // Returns the ids of the new slots (one per tunnel). `initiator` is true
  // on the side that created the channel (wins open/open races). `peer` is
  // the box at the far end: the end records it, and every output on the
  // channel is addressed to it. `peer_name` is passed to onIncomingChannel.
  SlotIds addChannelEnd(ChannelId channel, std::uint32_t tunnels,
                        bool initiator, const std::string& tag, BoxId peer,
                        const std::string& peer_name);
  // Called by the runtime when the channel is gone (local destroy or remote
  // teardown). Drops its slots and any goals over them.
  void removeChannel(ChannelId channel);

  [[nodiscard]] bool hasChannel(ChannelId channel) const noexcept;
  // Empty (invalid) when this box holds no such channel end (slot).
  [[nodiscard]] SlotIds slotsOf(ChannelId channel) const;
  [[nodiscard]] ChannelId channelOf(SlotId slot) const noexcept;
  // The delivery side of an end: the slot that is tunnel `tunnel` of
  // `channel`, and the box at the channel's far end. Empty when this box
  // holds no such end (never materialized, torn down, tunnel out of range).
  [[nodiscard]] std::optional<SlotId> slotAt(ChannelId channel,
                                             std::uint32_t tunnel) const noexcept;
  [[nodiscard]] std::optional<BoxId> peerOf(ChannelId channel) const noexcept;

  // ------------------------------------------------- goal management (Maps)
  // Bind a single-slot goal to a slot, detaching whatever controlled it.
  void setGoal(SlotId slot, EndpointGoal goal);
  // Bind both slots to one flowlink. If the same (unordered) pair is
  // already flowlinked, this is a no-op: the same goal object keeps
  // control, as the paper requires for unchanged annotations.
  void linkSlots(SlotId a, SlotId b);
  void clearGoal(SlotId slot);
  [[nodiscard]] std::optional<GoalKind> goalKind(SlotId slot) const;

  // Fire pending openslot retries (runtime-paced).
  void fireRetries();
  [[nodiscard]] bool hasPendingRetries() const;

  // ------------------------------------------------------- stabilization
  // Fault-tolerant runtimes (docs/FAULTS.md) mark every slot stabilizing:
  // endpoints then tolerate re-sent signals and goals may re-assert
  // themselves. Off by default — the baseline protocol semantics are
  // unchanged until a fault plan opts in.
  void enableStabilization(bool on);
  // Re-assert every goal that is not where it wants to be (idempotent;
  // runtime-paced, analogous to fireRetries).
  void refreshGoals();
  // True when some goal on this box is not converged and a refresh could
  // make progress toward it.
  [[nodiscard]] bool needsRefresh() const;
  // Crash/restart fault: lose all volatile slot state (protocol states,
  // descriptor caches, in-flight outputs) while keeping channels and goal
  // annotations, then rejoin the path — goals re-attach, and any slot still
  // closed afterwards sends a close-probe forcing its peer to re-converge.
  void crashRestart();

  // ------------------------------------------------------- slot predicates
  [[nodiscard]] const SlotEndpoint& slot(SlotId slot) const;
  [[nodiscard]] ProtocolState slotState(SlotId slot) const;
  // True when the goal controlling `slot` sits in its target quiescent
  // state: openSlot/holdSlot → flowing, closeSlot → closed, flowLink →
  // both slots matched (Fig. 12). Convergence probes build path-quiescence
  // predicates from this.
  [[nodiscard]] bool goalSatisfied(SlotId slot) const;
  [[nodiscard]] bool isClosed(SlotId s) const { return slotState(s) == ProtocolState::closed; }
  [[nodiscard]] bool isOpening(SlotId s) const { return slotState(s) == ProtocolState::opening; }
  [[nodiscard]] bool isOpened(SlotId s) const { return slotState(s) == ProtocolState::opened; }
  [[nodiscard]] bool isFlowing(SlotId s) const { return slotState(s) == ProtocolState::flowing; }

  // Live-resource counts, for leak auditing: after a call's channels are
  // torn down, every box that served it must be back to zero slots and zero
  // goals (single goals + flowlinks). The load runtime checks this per call.
  [[nodiscard]] std::size_t slotCount() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t goalCount() const noexcept { return goals_.size(); }

  // ------------------------------------------------- runtime entry points
  // Virtual so that bench_ablation's naive-forwarding box (the paper's
  // Fig. 2 pathology model) can bypass the goal machinery entirely.
  virtual void deliverTunnel(SlotId slot, const Signal& signal);
  void deliverMeta(ChannelId channel, const MetaSignal& meta);
  void fireTimer(const std::string& tag);

  // ------------------------------------------------------------- outputs
  // Every output on a channel is addressed when it is queued, from this
  // box's own end: the runtime reads where it goes from the output, not
  // from a table of its own. A signal queued on a slot whose channel the
  // same stimulus then destroys still goes out.
  struct TunnelOut {
    SlotId slot;
    ChannelId channel;
    std::uint32_t tunnel = 0;  // index of `slot` within the channel
    BoxId peer;
    Signal signal;
  };
  struct MetaOut {
    ChannelId channel;
    BoxId peer;
    MetaSignal meta;
  };
  struct Teardown {
    ChannelId channel;
    BoxId peer;
  };
  struct TimerRequest {
    SimDuration delay;
    std::string tag;
  };
  struct Output {
    std::vector<TunnelOut> tunnel;
    std::vector<MetaOut> meta;
    std::vector<TimerRequest> timers;
    std::vector<ChannelRequest> channelRequests;
    std::vector<Teardown> teardowns;

    [[nodiscard]] bool empty() const noexcept {
      return tunnel.empty() && meta.empty() && timers.empty() &&
             channelRequests.empty() && teardowns.empty();
    }
    // Empties every list and keeps its storage.
    void clear() noexcept {
      tunnel.clear();
      meta.clear();
      timers.clear();
      channelRequests.clear();
      teardowns.clear();
    }
  };
  // Drain everything the box decided to do since the last drain into
  // `into`, which is cleared first. The two swap buffers: a runtime that
  // drains every box into one Output keeps reusing the vectors' storage.
  void drainOutput(Output& into);

  // Endpoint modify passthroughs (mute change, address migration, and
  // unilateral codec re-selection); no-ops for slots without a single-slot
  // goal.
  void setSlotMute(SlotId slot, bool mute_in, bool mute_out);
  void setSlotAddress(SlotId slot, MediaAddress addr);
  bool reselectSlotCodec(SlotId slot, Codec codec);

 protected:
  // ------------------------------------------------------ subclass hooks
  // A meta-signal arrived on a channel.
  virtual void onMeta(ChannelId, const MetaSignal&) {}
  // A requested channel is up (tag correlates with requestChannel).
  virtual void onChannelUp(ChannelId, const std::string& /*tag*/) {}
  // A channel created by a peer reached this box.
  virtual void onIncomingChannel(ChannelId, const std::string& /*peer*/) {}
  // A channel went away (remote teardown or local destroy).
  virtual void onChannelDown(ChannelId) {}
  // A timer fired.
  virtual void onTimer(const std::string& /*tag*/) {}
  // A slot's protocol state may have changed (programs re-check guards).
  virtual void onSlotActivity(SlotId) {}
  // The box lost its volatile state in a crash and was restarted
  // (crashRestart); feature code re-syncs anything derived from slot state
  // (e.g. stops media that no longer has a flowing slot).
  virtual void onCrashRestart() {}

  // --------------------------------------------------- subclass helpers
  // sendMeta and destroyChannel on a channel this box no longer holds
  // queue nothing.
  void sendMeta(ChannelId channel, MetaSignal meta);
  void requestChannel(std::string target, std::uint32_t tunnels, std::string tag);
  void requestChannel(BoxId target, std::uint32_t tunnels, std::string tag);
  void destroyChannel(ChannelId channel);
  void setTimer(SimDuration delay, std::string tag);

 private:
  // This box's end of a channel; its slots record which side initiated it.
  struct EndRow {
    ChannelId id;
    BoxId peer;
    SlotIds slots;
  };

  // One slot; appending keeps SlotId order, as new slots take the largest ids.
  struct SlotRow {
    SlotEndpoint slot;
    ChannelId channel;
    std::uint32_t tunnel = 0;  // index of the slot within its channel
  };

  // One goal: a single-slot goal on `a` (`b` invalid), or a flowlink over
  // its slots in the (a, b) order it was attached in. Goals are not kept in
  // the slot rows: a relay's slots hold no single goal, and an endpoint's
  // spare slot row would carry empty goal storage.
  struct GoalRow {
    SlotId a;
    SlotId b;
    std::variant<EndpointGoal, FlowLink> goal;
  };

  // Queue `signal` on `slot`, addressed from the slot's channel end.
  void queueTunnel(SlotId slot, Signal signal);
  void dispatch(SlotEndpoint& endpoint, SlotEvent event, const Signal& signal);
  // Queue `out`, bumping a non-null `counter` once if it holds anything.
  void flushOutbox(Outbox&& out, obs::CounterHandle* counter = nullptr);
  void detachSlot(SlotId slot);
  void maybeRequestRetryTimer();

  BoxId id_;
  std::string name_;
  IdAllocator<SlotId> slot_ids_;
  // Ends and goals in creation order; capacities fit a relay's wiring.
  SmallVec<EndRow, 2> ends_;
  SmallVec<SlotRow, 2> slots_;
  SmallVec<GoalRow, 1> goals_;
  Output output_;
  bool retry_timer_outstanding_ = false;
  bool stabilization_enabled_ = false;

 public:
  // Pacing for openslot retries.
  static constexpr SimDuration kRetryDelay{200'000};  // 200 ms
  static constexpr const char* kRetryTimerTag = "__cmc_retry";
};

}  // namespace cmc
