// PathSystem: a complete signaling path as a single value.
//
// A signaling path (paper Section III-A) is a maximal chain of tunnels and
// flowlinks meeting at slots:
//
//   [L endpoint] ==ch0== [flowlink box] ==ch1== ... ==chF== [R endpoint]
//
// PathSystem holds every piece of such a path — the two endpoint goals, any
// number of flowlink boxes, and the FIFO channels between them — as one
// copyable, hashable value. Three clients share it:
//
//   * unit/integration tests step it deterministically and inspect states;
//   * the model checker (src/mc) enumerates its enabled actions and
//     fingerprints its canonical bytes;
//   * latency benchmarks replay its signal exchanges under the simulator's
//     timing model.
//
// Every mutation is an *action*: delivering the head-of-queue message of one
// channel direction, firing an openslot retry, a user modify event, a goal
// attach, or — before a party's goal attaches — an arbitrary legal "chaos"
// send (the nondeterministic initial phase of the paper's verification,
// Section VIII-A). Actions are deterministic; nondeterminism is only in
// which action fires next, which is exactly what the model checker explores.
//
// Parties are numbered along the path: party 0 is the left endpoint,
// parties 1..F are the flowlink boxes, party F+1 is the right endpoint.
// Channel i connects party i (its Side::A, the channel initiator) with
// party i+1 (its Side::B).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "core/goal.hpp"
#include "core/intent.hpp"

namespace cmc {

// Which end of the path.
enum class PathEnd : std::uint8_t { left = 0, right = 1 };

// One enabled action of the path system.
struct PathAction {
  enum class Kind : std::uint8_t {
    deliver,     // deliver channels[channel]'s head-of-queue toward `towards`
    retry,       // fire the pending openslot retry at endpoint party `party`
    modifyMute,  // user modify at endpoint `party`: set flags to (muteIn, muteOut)
    attach,      // attach party `party`'s goal (ends its chaotic phase)
    chaos,       // unattached party performs an arbitrary legal send
    dropHead,    // fault: lose channels[channel]'s head-of-queue toward `towards`
    dupHead,     // fault: duplicate that head-of-queue message in place
    refresh,     // stabilization: every party re-asserts its unconverged goals
  };

  Kind kind = Kind::deliver;
  std::uint32_t channel = 0;  // deliver
  Side towards = Side::B;     // deliver
  std::uint32_t party = 0;    // retry / modifyMute / attach / chaos
  bool muteIn = false;        // modifyMute
  bool muteOut = false;       // modifyMute
  std::uint8_t chaosSlot = 0; // chaos at a flowlink party: 0 = left, 1 = right
  SignalKind chaosSignal = SignalKind::open;
  std::uint8_t chaosVariant = 0;  // 0 = real media, 1 = muted/noMedia

  friend bool operator==(const PathAction&, const PathAction&) = default;

  [[nodiscard]] std::string toString() const;
};

class PathSystem {
 public:
  // A path with `flowlinks` interior flowlink boxes. Goals attach
  // immediately unless defer_attach is true (the model checker defers so
  // chaotic phases can run first).
  PathSystem(EndpointGoal left, EndpointGoal right, std::size_t flowlinks,
             bool defer_attach = false);

  // Conventional endpoint goal for tests/benches/model checking: address
  // 10.0.<end>.1, audio codecs {G.711u, G.726}, descriptor-id space = end.
  [[nodiscard]] static EndpointGoal makeGoal(GoalKind kind, PathEnd end,
                                             Medium medium = Medium::audio);

  // --- Introspection -----------------------------------------------------
  [[nodiscard]] std::size_t flowlinkCount() const noexcept { return links_.size(); }
  [[nodiscard]] std::size_t partyCount() const noexcept { return links_.size() + 2; }

  [[nodiscard]] const SlotEndpoint& endpointSlot(PathEnd end) const noexcept {
    return ends_[idx(end)].slot;
  }
  [[nodiscard]] const EndpointGoal& endpointGoal(PathEnd end) const noexcept {
    return ends_[idx(end)].goal;
  }
  [[nodiscard]] const FlowLink& flowlink(std::size_t i) const noexcept {
    return links_[i].link;
  }
  [[nodiscard]] const SlotEndpoint& flowlinkSlot(std::size_t i, Side side) const noexcept {
    return side == Side::A ? links_[i].left : links_[i].right;
  }
  [[nodiscard]] const ChannelState& channel(std::size_t i) const noexcept {
    return channels_[i];
  }
  [[nodiscard]] bool partyAttached(std::uint32_t party) const noexcept;

  // All in-flight messages drained.
  [[nodiscard]] bool quiescent() const noexcept;

  // --- Path-state predicates (paper Section V) ---------------------------
  // bothClosed: both endpoint slots closed.
  [[nodiscard]] bool bothClosed() const noexcept;
  // bothFlowing in the history-variable formulation used for model checking
  // (Section VIII-A): both endpoint slots flowing, each end has most
  // recently received the descriptor most recently sent by the other end,
  // and each end has received a selector answering its own most recent
  // descriptor.
  [[nodiscard]] bool bothFlowing() const noexcept;
  // Media is ready to travel from `sender` to the other end: sender's slot
  // is flowing and its latest selector answers the latest descriptor it
  // received, with a real codec.
  [[nodiscard]] bool mediaEnabled(PathEnd sender) const noexcept;

  // --- Actions ------------------------------------------------------------
  // Replaces the contents of `actions` with every enabled action, in a fixed
  // order. The caller owns the vector, so the explorer reuses one per worker
  // instead of allocating a list per state.
  void enabledActions(std::vector<PathAction>& actions) const;
  // Applies an action. Throws std::logic_error on a disabled action.
  void apply(const PathAction& action);

  // Convenience: deliver messages in FIFO order until quiescent or the step
  // budget runs out. Pending openslot retries are NOT fired (the
  // close-vs-open path would livelock); returns deliveries performed.
  std::size_t run(std::size_t max_steps = 100000);

  // Fire a pending retry at `end`, if any.
  void fireRetry(PathEnd end);

  // User modify at an endpoint.
  void setMute(PathEnd end, bool mute_in, bool mute_out);

  // Replace the goal at one end (models a box program changing state) and
  // attach the new goal, e.g. switching an end from holdSlot to openSlot.
  void replaceGoal(PathEnd end, EndpointGoal goal);

  // --- Model-checker support ----------------------------------------------
  // Budgets bounding environment nondeterminism: chaos sends are enabled
  // only before a party attaches and while its chaos budget lasts; modify
  // actions only after attach and while the modify budget lasts.
  void setChaosBudget(std::uint32_t steps);
  void setModifyBudget(std::uint32_t steps) noexcept {
    modify_budget_ = {steps, steps};
  }

  // --- Fault injection + stabilization (docs/FAULTS.md) -------------------
  // Budget bounding adversarial message faults (dropHead/dupHead actions).
  void setFaultBudget(std::uint32_t steps) noexcept { fault_budget_ = steps; }
  // Mark every slot stabilizing and enable the global refresh action. The
  // refresh is one action for the whole path (every party re-asserts at
  // once) and is enabled only in quiescent all-attached states where it
  // would actually emit something: per-party refresh actions would hand the
  // adversarial scheduler spurious no-op self-loops that read as livelocks
  // to the temporal checks.
  void enableStabilization(bool on);
  // Run one global refresh sweep now; returns true if anything was sent.
  // Tests use this directly as the self-stabilization oracle: alternate
  // stabilize()/run() until it returns false, then check the §V predicate.
  bool stabilize();

  void canonicalize(ByteWriter& w) const;
  // The inverse of canonicalize: overwrites this system's state with the
  // one `r` holds, which must share this system's skeleton. The skeleton is
  // not encoded: the party count, slot and channel ids, each slot's
  // initiator flag, each channel's tunnel count and the chaos descriptor
  // pool stay this system's, and bytes that disagree with them are
  // rejected. The explorer keeps its states as bytes and decodes each into
  // one scratch system copied from the model's initial system. Returns
  // false on malformed or mismatched bytes, leaving the system valid but
  // unspecified; it reads nothing past r's span, and does not require the
  // span to end where the state does (see ByteReader::atEnd).
  [[nodiscard]] bool decode(ByteReader& r);
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  struct End {
    SlotEndpoint slot;
    EndpointGoal goal;
    bool attached = false;
  };
  struct LinkBox {
    SlotEndpoint left;   // slot on the channel toward the left endpoint
    SlotEndpoint right;  // slot on the channel toward the right endpoint
    FlowLink link;
    bool attached = false;
  };

  [[nodiscard]] static std::size_t idx(PathEnd end) noexcept {
    return static_cast<std::size_t>(end);
  }
  [[nodiscard]] PathEnd endOfParty(std::uint32_t party) const noexcept {
    return party == 0 ? PathEnd::left : PathEnd::right;
  }
  [[nodiscard]] bool isEndpointParty(std::uint32_t party) const noexcept {
    return party == 0 || party == partyCount() - 1;
  }

  void attachParty(std::uint32_t party);
  [[nodiscard]] bool allAttached() const noexcept;
  [[nodiscard]] bool refreshWouldEmit() const;
  void applyChaos(const PathAction& action);
  void appendChaosActions(std::uint32_t party, std::vector<PathAction>& actions) const;
  void appendChaosSendsFor(const SlotEndpoint& slot, std::uint32_t party,
                           std::uint8_t chaos_slot,
                           std::vector<PathAction>& actions) const;
  void deliverInto(std::uint32_t channel_index, Side towards);
  void flush(Outbox&& out);
  void pushSignal(std::uint32_t channel_index, Side towards, Signal signal);

  // The slot a chaos action operates on.
  [[nodiscard]] SlotEndpoint& chaosTarget(std::uint32_t party, std::uint8_t chaos_slot);

  // Map a slot to the channel and direction its sends travel on.
  struct SlotRoute {
    std::uint32_t channel;
    Side towards;
  };
  [[nodiscard]] SlotRoute routeOf(SlotId slot) const;

  // Fixed descriptor pool for chaos sends: small and reused so the model
  // checker's state space stays bounded. Variant 0 offers real audio,
  // variant 1 is noMedia.
  [[nodiscard]] Descriptor chaosDescriptor(std::uint32_t party,
                                           std::uint8_t chaos_slot,
                                           std::uint8_t variant) const;

  std::array<End, 2> ends_;
  std::vector<LinkBox> links_;
  std::vector<ChannelState> channels_;
  IdAllocator<SlotId> slot_ids_;
  std::vector<std::uint32_t> chaos_budget_;  // per party
  std::array<std::uint32_t, 2> modify_budget_{0, 0};
  std::uint32_t fault_budget_ = 0;
  bool stabilize_ = false;
};

}  // namespace cmc
