// The state-oriented programming API (paper Section IV-A).
//
// "In each state of a box program, annotations or defaults give a static
// description of the programmer's goal for each slot while the program is
// in that state... If the external situation changes so that a slot should
// have a different goal, then the program must change to a state in which
// that slot is annotated differently."
//
// A program is a shared def plus a slim instance per box. The def
// (ProgramDef) is the state table: states with goal annotations
// (openSlot / closeSlot / holdSlot / flowLink over *symbolic* slots) plus
// guarded transitions and onEnter actions, with state and slot names
// resolved to dense indices as it is declared. It is built once; every box
// that runs the program points at the same def, which must outlive them.
// The instance (ProgramBox) holds the def pointer, the current state index
// and the slots bound to the def's symbolic slots.
//
// Guards are predicates over the box and the event being processed — the
// paper's isClosed/isOpening/isOpened/isFlowing slot predicates,
// meta-signal and timer events — evaluated when the program enters a state
// and again on every event, so a transition guarded by isFlowing(s) fires
// as soon as s is flowing, whenever that happens. Guards and actions take
// the box as an argument and capture no box, so one def serves them all.
//
// Annotation continuity matters (paper: "Because the annotation controlling
// slot 2a is the same in both states twoCalls and ringback, the object
// controlling 2a is also the same"): on a state change, slots whose
// annotation is unchanged keep their goal object untouched. Annotations
// apply in declaration order, so a state lists its goals in the order the
// program wants them posted.
//
// A channel requested with tag `t` binds its first slot to the symbolic
// slot named `t` when it comes up, and the current state's annotations are
// applied again so a pending annotation on `t` takes effect. A slot whose
// channel goes away is unbound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/box.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cmc {

class ProgramBox;

// The event a program's guards and actions see. It lives for one
// evaluation; nothing keeps it.
struct ProgramEvent {
  // `none`: state entry, or a re-evaluation after a transition fired.
  enum class Kind { none, slotActivity, meta, timer, channelUp, channelDown };
  Kind kind = Kind::none;
  ChannelId channel;
  const MetaSignal* meta = nullptr;  // Kind::meta
  std::string_view timer_tag;        // Kind::timer
};

class ProgramDef {
 public:
  using Slot = std::uint8_t;   // a symbolic slot, by declaration index
  using State = std::uint8_t;  // a state, by declaration index
  using Guard = std::function<bool(const ProgramBox&, const ProgramEvent&)>;
  using Action = std::function<void(ProgramBox&, const ProgramEvent&)>;

  struct Annotation {
    GoalKind kind = GoalKind::holdSlot;
    Slot slot = 0;
    Slot slot2 = 0;  // flowLink: the second slot
    Medium medium = Medium::audio;  // openSlot

    friend bool operator==(const Annotation&, const Annotation&) = default;
  };

  // The symbolic slots, in index order: slot i is named slots[i].
  explicit ProgramDef(std::initializer_list<std::string_view> slots)
      : slots_(slots.begin(), slots.end()) {}

  // Declaring. A transition or onEnter names states already declared; a
  // name never declared, or declared twice, or an annotation on a slot the
  // def does not have, throws std::invalid_argument.
  ProgramDef& state(std::string name, std::vector<Annotation> annotations) {
    // Indices are bytes, and a box marks "no state yet" with 0xff.
    const bool slots_declared = std::all_of(
        annotations.begin(), annotations.end(), [&](const Annotation& a) {
          return std::max(a.slot, a.slot2) < slots_.size();
        });
    if (!slots_declared || indexOf(name) < states_.size() ||
        states_.size() == 0xfe) {
      throw std::invalid_argument("program: cannot declare '" + name + "'");
    }
    states_.push_back({std::move(name), std::move(annotations), {}, {}});
    return *this;
  }
  // The same transition out of each state in `from`.
  ProgramDef& transition(std::initializer_list<std::string_view> from,
                         std::string_view to, const Guard& guard,
                         const Action& action = nullptr) {
    const State target = stateNamed(to);
    for (const std::string_view f : from) {
      states_[stateNamed(f)].transitions.push_back({target, guard, action});
    }
    return *this;
  }
  ProgramDef& transition(std::string_view from, std::string_view to,
                         const Guard& guard, const Action& action = nullptr) {
    return transition({from}, to, guard, action);
  }
  // Action run when a state is entered (after annotations are applied).
  ProgramDef& onEnter(std::string_view state, Action action) {
    states_[stateNamed(state)].on_enter = std::move(action);
    return *this;
  }

 private:
  friend class ProgramBox;

  struct Transition {
    State to = 0;
    Guard guard;  // empty: always
    Action action;
  };
  struct StateRow {
    std::string name;
    std::vector<Annotation> annotations;
    std::vector<Transition> transitions;  // in declaration order
    Action on_enter;
  };

  [[nodiscard]] State stateNamed(std::string_view name) const {
    const std::size_t i = indexOf(name);
    if (i == states_.size()) {
      throw std::invalid_argument("program: undeclared state '" +
                                  std::string(name) + "'");
    }
    return static_cast<State>(i);
  }
  // The index of the state named `name`, or the number of states.
  [[nodiscard]] std::size_t indexOf(std::string_view name) const {
    std::size_t i = 0;
    while (i < states_.size() && states_[i].name != name) ++i;
    return i;
  }

  std::vector<std::string> slots_;
  std::vector<StateRow> states_;
};

class ProgramBox : public Box {
 public:
  using Slot = ProgramDef::Slot;
  using Annotation = ProgramDef::Annotation;
  using Event = ProgramEvent;
  using Guard = ProgramDef::Guard;
  using Action = ProgramDef::Action;

  // `def` is shared and must outlive the box.
  ProgramBox(BoxId id, std::string name, const ProgramDef& def)
      : Box(id, std::move(name)), def_(&def) {
    while (bindings_.size() < def.slots_.size()) bindings_.push_back({});
  }

  // Annotation constructors, for declarative state tables.
  [[nodiscard]] static Annotation openSlot(Slot slot,
                                           Medium medium = Medium::audio) {
    return {GoalKind::openSlot, slot, 0, medium};
  }
  [[nodiscard]] static Annotation closeSlot(Slot slot) {
    return {GoalKind::closeSlot, slot};
  }
  [[nodiscard]] static Annotation holdSlot(Slot slot) {
    return {GoalKind::holdSlot, slot};
  }
  [[nodiscard]] static Annotation flowLink(Slot a, Slot b) {
    return {GoalKind::flowLink, a, b};
  }

  // Guard factories.
  [[nodiscard]] static Guard isFlowing(Slot slot) {
    return [slot](const ProgramBox& box, const Event&) {
      return box.flowing(slot);
    };
  }
  // A meta-signal of `kind` arrived on the channel of the slot bound to
  // `slot`.
  [[nodiscard]] static Guard onMetaKind(MetaKind kind, Slot slot) {
    return [kind, slot](const ProgramBox& box, const Event& event) {
      return event.kind == Event::Kind::meta && event.meta->kind == kind &&
             box.isBound(slot) &&
             event.channel == box.channelOf(box.bound(slot));
    };
  }
  // A channel went down and `slot` has no slot bound to it: the channel
  // was `slot`'s, or `slot` was never bound.
  [[nodiscard]] static Guard onSlotLost(Slot slot) {
    return [slot](const ProgramBox& box, const Event& event) {
      return event.kind == Event::Kind::channelDown && !box.isBound(slot);
    };
  }
  [[nodiscard]] static Guard onCustomMeta(std::string tag) {
    return [tag = std::move(tag)](const ProgramBox&, const Event& event) {
      return event.kind == Event::Kind::meta &&
             event.meta->kind == MetaKind::custom && event.meta->tag == tag;
    };
  }
  [[nodiscard]] static Guard onTimerTag(std::string tag) {
    return [tag = std::move(tag)](const ProgramBox&, const Event& event) {
      return event.kind == Event::Kind::timer && event.timer_tag == tag;
    };
  }

  // Action factory: destroy the channels of the slots bound to `slots`.
  [[nodiscard]] static Action destroying(std::initializer_list<Slot> slots) {
    return [slots = std::vector<Slot>(slots)](ProgramBox& box, const Event&) {
      for (const Slot slot : slots) box.destroyChannelOf(slot);
    };
  }

  // Enter `state` and fire whatever transitions hold there: the program's
  // initial state, or the target of an event from outside the box (a
  // click on a web page) that the program's own API turns into a move.
  void start(std::string_view state) {
    enterState(def_->stateNamed(state));
    evaluate(Event{});
  }

  // ---- runtime helpers for guards and actions ---------------------------
  [[nodiscard]] const ProgramDef& def() const noexcept { return *def_; }
  // Empty before the program starts.
  [[nodiscard]] const std::string& currentState() const {
    static const std::string kNone;
    return state_ != kNoState ? def_->states_[state_].name : kNone;
  }
  [[nodiscard]] bool inState(std::string_view name) const {
    return currentState() == name;
  }

  // The slot bound to `slot`; invalid when unbound.
  [[nodiscard]] SlotId bound(Slot slot) const noexcept {
    return bindings_[slot];
  }
  [[nodiscard]] bool isBound(Slot slot) const noexcept {
    return bindings_[slot].valid();
  }

  // The paper's slot predicates, over symbolic slots. An unbound slot is
  // closed.
  [[nodiscard]] bool flowing(Slot slot) const {
    return boundState(slot) == ProtocolState::flowing;
  }
  [[nodiscard]] bool closed(Slot slot) const {
    return boundState(slot) == ProtocolState::closed;
  }
  [[nodiscard]] bool opening(Slot slot) const {
    return boundState(slot) == ProtocolState::opening;
  }

  // Destroy the channel of the slot bound to `slot`, if any.
  void destroyChannelOf(Slot slot) {
    if (isBound(slot)) destroyChannel(channelOf(bound(slot)));
  }
  using Box::requestChannel;

 protected:
  // Bind `slot` to `real` and apply the current state's annotations again,
  // so a pending annotation on `slot` takes effect. Slots already under
  // their annotated goal kind are left untouched. Requested channels bind
  // by tag; a program binds the channels that reach it (onIncomingChannel)
  // itself.
  void bind(Slot slot, SlotId real) {
    bindings_[slot] = real;
    if (state_ != kNoState) {
      const auto& annotations = def_->states_[state_].annotations;
      applyAnnotations(annotations, annotations);
    }
  }

  // The goal an openSlot, closeSlot or holdSlot annotation posts. By
  // default an application server's: media goals carry a muted server
  // intent and a descriptor space of the box's own id.
  [[nodiscard]] virtual EndpointGoal makeGoal(const Annotation& a) const {
    const DescriptorFactory ids{id().value()};
    if (a.kind == GoalKind::openSlot) {
      return OpenSlotGoal{a.medium, MediaIntent::server(), ids};
    }
    if (a.kind == GoalKind::holdSlot) {
      return HoldSlotGoal{MediaIntent::server(), ids};
    }
    return CloseSlotGoal{};
  }

  // Box hooks feed the evaluator. Subclasses may override these further but
  // must call the ProgramBox versions.
  void onSlotActivity(SlotId) override {
    evaluate(Event{Event::Kind::slotActivity, {}, nullptr, {}});
  }
  void onMeta(ChannelId channel, const MetaSignal& meta) override {
    evaluate(Event{Event::Kind::meta, channel, &meta, {}});
  }
  void onTimer(const std::string& tag) override {
    evaluate(Event{Event::Kind::timer, {}, nullptr, tag});
  }
  void onChannelUp(ChannelId channel, const std::string& tag) override {
    const auto& names = def_->slots_;
    const auto it = std::find(names.begin(), names.end(), tag);
    if (const SlotIds slots = slotsOf(channel);
        !slots.empty() && it != names.end()) {
      bind(static_cast<Slot>(it - names.begin()), slots.front());
    }
    evaluate(Event{Event::Kind::channelUp, channel, nullptr, {}});
  }
  void onChannelDown(ChannelId channel) override {
    for (SlotId& real : bindings_) {
      if (!channelOf(real).valid()) real = SlotId{};
    }
    evaluate(Event{Event::Kind::channelDown, channel, nullptr, {}});
  }

 private:
  using State = ProgramDef::State;
  static constexpr State kNoState = 0xff;
  // Transitions that fire in a row on one event before the evaluator stops.
  static constexpr int kChainCap = 16;

  [[nodiscard]] ProtocolState boundState(Slot slot) const {
    const SlotId real = bound(slot);
    return real.valid() ? slotState(real) : ProtocolState::closed;
  }

  void applyAnnotations(const std::vector<Annotation>& previous,
                        const std::vector<Annotation>& next) {
    for (const Annotation& annotation : next) {
      const SlotId a = bound(annotation.slot);
      if (!a.valid()) continue;
      if (annotation.kind == GoalKind::flowLink) {
        const SlotId b = bound(annotation.slot2);
        if (b.valid()) linkSlots(a, b);  // no-op on the same pair
        continue;
      }
      // Annotation continuity: identical annotation -> same goal object.
      const bool unchanged = std::find(previous.begin(), previous.end(),
                                       annotation) != previous.end();
      if (unchanged && goalKind(a) == annotation.kind) continue;
      setGoal(a, makeGoal(annotation));
    }
  }

  void enterState(State state) {
    static const std::vector<Annotation> kNone;
    const auto& previous =
        state_ != kNoState ? def_->states_[state_].annotations : kNone;
    state_ = state;
    const ProgramDef::StateRow& row = def_->states_[state];
    applyAnnotations(previous, row.annotations);
    if (row.on_enter) row.on_enter(*this, Event{});
  }

  void evaluate(const Event& event) {
    if (state_ == kNoState || evaluating_) return;
    evaluating_ = true;
    // Chain transitions until quiescent; the event is consumed by the first
    // round (later rounds re-evaluate with no event).
    const Event none{};
    const Event* current = &event;
    bool fired = true;
    for (int depth = 0; depth < kChainCap && fired; ++depth, current = &none) {
      fired = false;
      for (const auto& transition : def_->states_[state_].transitions) {
        if (!transition.guard || transition.guard(*this, *current)) {
          if (transition.action) transition.action(*this, *current);
          enterState(transition.to);
          fired = true;
          break;
        }
      }
    }
    if (fired) {
      // The cap stopped a chain that was still firing: a transition loop.
      // The counter is registered on its first hit only, so a run that never
      // reaches the cap reports what it did before the counter existed.
      static thread_local obs::CounterHandle hits{"program.chain_cap_hits"};
      if (obs::TraceRecorder* rec = obs::recorder()) {
        rec->record(obs::EventKind::mark, "program.chain_cap", name(),
                    currentState());
      }
      if (obs::MetricsRegistry* m = obs::metrics()) hits.in(*m).add();
    }
    evaluating_ = false;
  }

  // First, so that they sit in the tail padding of the Box base.
  State state_ = kNoState;
  bool evaluating_ = false;
  const ProgramDef* def_;
  SmallVec<SlotId, 2> bindings_;  // indexed by the def's slots
};

}  // namespace cmc
