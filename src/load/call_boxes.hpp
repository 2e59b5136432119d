// The boxes a generated call is built from, as programs (core/program.hpp).
//
// Each call instantiates two LoadEndpointBoxes (left and right parties, each
// carrying one of the §V endpoint goals) and, for 1-flowlink calls, one
// LoadRelayBox between them (the call-forwarding relay idiom: incoming
// channel on one side, a requested channel on the other, a flowlink joining
// the two slots). Each is a one- or two-state program whose def is built
// once and shared by every call; the classes below only add what the apps
// add too: binding the channel that reaches the box and, for the endpoint,
// the goal it posts. The load runtime thus stresses the production protocol
// stack and the production program evaluator, not a simplified stand-in.
//
// Determinism note: nothing in these boxes derives behavior from BoxId.
// BoxIds are allocated per simulator in registration order, which depends on
// how calls are sharded; goals instead use PathSystem::makeGoal's
// end-indexed descriptor spaces, so a call behaves identically whichever
// shard it lands on.
#pragma once

#include <string>
#include <utility>

#include "core/path.hpp"
#include "core/program.hpp"

namespace cmc::load {

// One party of a call: a single state whose annotation puts the party's
// goal on its one slot, `call`. The left party dials
// (`requestChannel(peer, 1, "call")`, which binds `call` when the channel
// is up) and hangs up (`destroyChannelOf(kCall)`); the right party binds
// the incoming channel.
class LoadEndpointBox : public ProgramBox {
 public:
  static constexpr Slot kCall = 0;

  LoadEndpointBox(BoxId id, std::string name, GoalKind kind, PathEnd end)
      : ProgramBox(id, std::move(name), program(kind)), kind_(kind), end_(end) {
    start("call");
  }

  // The goal the program annotates `call` with.
  [[nodiscard]] GoalKind goal() const noexcept { return kind_; }

 protected:
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    const SlotIds slots = slotsOf(channel);
    if (!slots.empty() && !isBound(kCall)) bind(kCall, slots.front());
  }

  // The path's end-indexed descriptor space, not one of the box's id: see
  // the determinism note above.
  [[nodiscard]] EndpointGoal makeGoal(const Annotation& a) const override {
    return PathSystem::makeGoal(a.kind, end_, a.medium);
  }

 private:
  static const ProgramDef& program(GoalKind kind) {
    const auto make = [](const Annotation& goal) {
      ProgramDef d({"call"});
      d.state("call", {goal});
      return d;
    };
    // Indexed by GoalKind.
    static const ProgramDef defs[] = {make(openSlot(kCall)),
                                      make(closeSlot(kCall)),
                                      make(holdSlot(kCall))};
    return defs[static_cast<std::size_t>(kind)];
  }

  GoalKind kind_;
  PathEnd end_;
};

// The 1-flowlink relay: accepts the caller's channel, opens a second leg to
// the far endpoint, and flowlinks the two slots once both legs are up, so
// signals and media negotiation pass through (paper Fig. 6 structure). The
// caller's slot has no goal until then. Either leg going down folds the
// other, propagating teardown along the path; a far leg that comes up after
// the caller left stays unlinked.
class LoadRelayBox : public ProgramBox {
 public:
  static constexpr Slot kIn = 0;
  static constexpr Slot kOut = 1;

  // `right` is the far endpoint's box, which the second leg dials by id.
  LoadRelayBox(BoxId id, std::string name, BoxId right)
      : ProgramBox(id, std::move(name), program()), right_(right) {
    start("idle");
  }

 protected:
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    const SlotIds slots = slotsOf(channel);
    if (slots.empty() || isBound(kIn)) return;
    bind(kIn, slots.front());
    requestChannel(right_, 1, "out");
  }

 private:
  static const ProgramDef& program() {
    static const ProgramDef def = [] {
      ProgramDef d({"in", "out"});
      d.state("idle", {});
      d.state("linked", {flowLink(kIn, kOut)});
      d.transition("idle", "linked", [](const ProgramBox& box, const Event&) {
        return box.isBound(kIn) && box.isBound(kOut);
      });
      d.transition("linked", "idle", onSlotLost(kIn), destroying({kOut}));
      d.transition("linked", "idle", onSlotLost(kOut), destroying({kIn}));
      return d;
    }();
    return def;
  }

  BoxId right_;
};

// A call path's §V rest state for its goal pair: any close goal (or a pure
// hold/hold pair) rests with both endpoint slots closed; otherwise — open
// against open or hold — it rests with both endpoint goals satisfied
// (flowing) and, through a relay, the flowlink matched. It reads the path's
// own boxes' bound slots and nothing else, so a probe on it watches exactly
// those.
inline bool pathAtRest(const LoadEndpointBox& left,
                       const LoadEndpointBox& right,
                       const LoadRelayBox* relay) {
  const SlotId l = left.bound(LoadEndpointBox::kCall);
  const SlotId r = right.bound(LoadEndpointBox::kCall);
  if (!l.valid() || !r.valid()) return false;
  if (relay != nullptr && (!relay->isBound(LoadRelayBox::kIn) ||
                           !relay->isBound(LoadRelayBox::kOut))) {
    return false;
  }
  const bool has_close =
      left.goal() == GoalKind::closeSlot || right.goal() == GoalKind::closeSlot;
  const bool has_open =
      left.goal() == GoalKind::openSlot || right.goal() == GoalKind::openSlot;
  if (has_open && !has_close) {
    bool ok = left.goalSatisfied(l) && right.goalSatisfied(r);
    if (ok && relay != nullptr) {
      ok = relay->goalSatisfied(relay->bound(LoadRelayBox::kIn)) &&
           relay->goalSatisfied(relay->bound(LoadRelayBox::kOut));
    }
    return ok;
  }
  return left.isClosed(l) && right.isClosed(r);
}

}  // namespace cmc::load
