// The state-oriented programming API (paper Section IV-A).
//
// "In each state of a box program, annotations or defaults give a static
// description of the programmer's goal for each slot while the program is
// in that state... If the external situation changes so that a slot should
// have a different goal, then the program must change to a state in which
// that slot is annotated differently."
//
// ProgramBox turns that prose into an API: feature authors declare states
// with goal annotations (openSlot / closeSlot / holdSlot / flowLink over
// *symbolic* slot names, bound to real slots at runtime) plus guarded
// transitions. Guards are predicates over the program — the paper's
// isClosed/isOpening/isOpened/isFlowing slot predicates, meta-signal and
// timer events — evaluated when the program enters a state and again on
// every event, so a transition guarded by isFlowing(s) fires as soon as s
// is flowing, whenever that happens.
//
// Annotation continuity matters (paper: "Because the annotation controlling
// slot 2a is the same in both states twoCalls and ringback, the object
// controlling 2a is also the same"): on a state change, slots whose
// annotation is unchanged keep their goal object untouched. Annotations
// apply in declaration order, so a state lists its goals in the order the
// program wants them posted.
//
// A channel requested with tag `t` binds its first slot to the symbolic
// name `t` when it comes up, and the current state's annotations are
// applied again so a pending annotation on `t` takes effect. A slot whose
// channel goes away is unbound.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/box.hpp"

namespace cmc {

class ProgramBox : public Box {
 public:
  struct Annotation {
    GoalKind kind = GoalKind::holdSlot;
    std::string slot;   // symbolic slot name
    std::string slot2;  // flowLink: the second slot
    Medium medium = Medium::audio;  // openSlot

    friend bool operator==(const Annotation&, const Annotation&) = default;
  };

  // Annotation constructors, for declarative state tables.
  [[nodiscard]] static Annotation openSlot(std::string slot,
                                           Medium medium = Medium::audio) {
    return Annotation{GoalKind::openSlot, std::move(slot), "", medium};
  }
  [[nodiscard]] static Annotation closeSlot(std::string slot) {
    return Annotation{GoalKind::closeSlot, std::move(slot), "", Medium::audio};
  }
  [[nodiscard]] static Annotation holdSlot(std::string slot) {
    return Annotation{GoalKind::holdSlot, std::move(slot), "", Medium::audio};
  }
  [[nodiscard]] static Annotation flowLink(std::string a, std::string b) {
    return Annotation{GoalKind::flowLink, std::move(a), std::move(b),
                      Medium::audio};
  }

  // The event being processed while guards run.
  struct Event {
    enum class Kind {
      none,         // state entry / re-evaluation
      slotActivity,
      meta,
      timer,
      channelUp,
      channelDown,
    };
    Kind kind = Kind::none;
    ChannelId channel;
    MetaSignal meta;
    std::string timerTag;
  };

  using Guard = std::function<bool(ProgramBox&)>;
  using Action = std::function<void(ProgramBox&)>;

  ProgramBox(BoxId id, std::string name) : Box(id, std::move(name)) {
    ids_ = DescriptorFactory{id.value()};
  }

  // ---- program definition (before start) -------------------------------
  ProgramBox& addState(std::string name, std::vector<Annotation> annotations) {
    states_[std::move(name)] = std::move(annotations);
    return *this;
  }
  ProgramBox& addTransition(std::string from, std::string to, Guard guard,
                            Action action = nullptr) {
    transitions_.push_back(Transition{std::move(from), std::move(to),
                                      std::move(guard), std::move(action)});
    return *this;
  }
  // Action run when a state is entered (after annotations are applied).
  ProgramBox& onEnter(const std::string& state, Action action) {
    on_enter_[state] = std::move(action);
    return *this;
  }

  // Enter `state` and fire whatever transitions hold there: the program's
  // initial state, or the target of an event from outside the box (a
  // click on a web page) that the program's own API turns into a move.
  void start(const std::string& state) {
    enterState(state);
    evaluate();
  }

  // ---- runtime helpers for guards and actions ---------------------------
  [[nodiscard]] const std::string& currentState() const noexcept {
    return current_;
  }
  [[nodiscard]] bool inState(const std::string& name) const noexcept {
    return current_ == name;
  }
  [[nodiscard]] const Event& event() const noexcept { return event_; }

  [[nodiscard]] bool isBound(const std::string& name) const {
    return slotNamed(name).valid();
  }
  [[nodiscard]] SlotId slotNamed(const std::string& name) const {
    auto it = bindings_.find(name);
    return it == bindings_.end() ? SlotId{} : it->second;
  }

  // The paper's slot predicates, over symbolic names. An unbound name is
  // closed.
  [[nodiscard]] bool flowing(const std::string& name) const {
    return boundState(name) == ProtocolState::flowing;
  }
  [[nodiscard]] bool closed(const std::string& name) const {
    return boundState(name) == ProtocolState::closed;
  }
  [[nodiscard]] bool opening(const std::string& name) const {
    return boundState(name) == ProtocolState::opening;
  }
  [[nodiscard]] bool opened(const std::string& name) const {
    return boundState(name) == ProtocolState::opened;
  }

  // Guard factories.
  [[nodiscard]] static Guard isFlowing(std::string slot) {
    return [slot](ProgramBox& box) { return box.flowing(slot); };
  }
  // A meta-signal of `kind` arrived on the channel of the slot bound to
  // `slot`.
  [[nodiscard]] static Guard onMetaKind(MetaKind kind, std::string slot) {
    return [kind, slot](ProgramBox& box) {
      return box.event().kind == Event::Kind::meta &&
             box.event().meta.kind == kind && box.isBound(slot) &&
             box.event().channel == box.channelOf(box.slotNamed(slot));
    };
  }
  // A channel went down and `slot` has no slot bound to it: the channel
  // was `slot`'s, or `slot` was never bound.
  [[nodiscard]] static Guard onSlotLost(std::string slot) {
    return [slot](ProgramBox& box) {
      return box.event().kind == Event::Kind::channelDown && !box.isBound(slot);
    };
  }
  [[nodiscard]] static Guard onCustomMeta(std::string tag) {
    return [tag](ProgramBox& box) {
      return box.event().kind == Event::Kind::meta &&
             box.event().meta.kind == MetaKind::custom &&
             box.event().meta.tag == tag;
    };
  }
  [[nodiscard]] static Guard onTimerTag(std::string tag) {
    return [tag](ProgramBox& box) {
      return box.event().kind == Event::Kind::timer &&
             box.event().timerTag == tag;
    };
  }

  // Action helpers usable inside transitions.
  // Destroy the channel of the slot bound to `name`, if any.
  void destroyChannelOf(const std::string& name) {
    if (isBound(name)) destroyChannel(channelOf(slotNamed(name)));
  }
  using Box::requestChannel;

 protected:
  // Bind the symbolic name `name` to `slot` and apply the current state's
  // annotations again, so a pending annotation on `name` takes effect.
  // Slots already under their annotated goal kind are left untouched.
  // Requested channels bind by tag; a program binds the channels that
  // reach it (onIncomingChannel) itself.
  void bind(const std::string& name, SlotId slot) {
    bindings_[name] = slot;
    if (const auto it = states_.find(current_); it != states_.end()) {
      applyAnnotations(it->second, it->second);
    }
  }

  // Box hooks feed the evaluator. Subclasses may override these further but
  // must call the ProgramBox versions.
  void onSlotActivity(SlotId) override {
    event_ = Event{};
    event_.kind = Event::Kind::slotActivity;
    evaluate();
  }
  void onMeta(ChannelId channel, const MetaSignal& meta) override {
    event_ = Event{};
    event_.kind = Event::Kind::meta;
    event_.channel = channel;
    event_.meta = meta;
    evaluate();
  }
  void onTimer(const std::string& tag) override {
    event_ = Event{};
    event_.kind = Event::Kind::timer;
    event_.timerTag = tag;
    evaluate();
  }
  void onChannelUp(ChannelId channel, const std::string& tag) override {
    if (const SlotIds slots = slotsOf(channel); !slots.empty()) {
      bind(tag, slots.front());
    }
    event_ = Event{};
    event_.kind = Event::Kind::channelUp;
    event_.channel = channel;
    evaluate();
  }
  void onChannelDown(ChannelId channel) override {
    for (auto& [name, slot] : bindings_) {
      if (!channelOf(slot).valid()) slot = SlotId{};
    }
    event_ = Event{};
    event_.kind = Event::Kind::channelDown;
    event_.channel = channel;
    evaluate();
  }

 private:
  struct Transition {
    std::string from;
    std::string to;
    Guard guard;
    Action action;
  };

  [[nodiscard]] ProtocolState boundState(const std::string& name) const {
    const SlotId slot = slotNamed(name);
    return slot.valid() ? slotState(slot) : ProtocolState::closed;
  }

  void applyAnnotations(const std::vector<Annotation>& previous,
                        const std::vector<Annotation>& next) {
    for (const Annotation& annotation : next) {
      // Annotation continuity: identical annotation -> same goal object.
      bool unchanged = false;
      for (const Annotation& old : previous) {
        if (old == annotation) {
          unchanged = true;
          break;
        }
      }
      const SlotId a = slotNamed(annotation.slot);
      if (!a.valid()) continue;
      if (annotation.kind == GoalKind::flowLink) {
        const SlotId b = slotNamed(annotation.slot2);
        if (!b.valid()) continue;
        linkSlots(a, b);  // no-op on the same pair by Box contract
        continue;
      }
      if (unchanged && goalKind(a).has_value() &&
          *goalKind(a) == annotation.kind) {
        continue;
      }
      switch (annotation.kind) {
        case GoalKind::openSlot:
          setGoal(a, OpenSlotGoal{annotation.medium, MediaIntent::server(),
                                  ids_});
          break;
        case GoalKind::closeSlot:
          setGoal(a, CloseSlotGoal{});
          break;
        case GoalKind::holdSlot:
          setGoal(a, HoldSlotGoal{MediaIntent::server(), ids_});
          break;
        case GoalKind::flowLink:
          break;
      }
    }
  }

  void enterState(const std::string& name) {
    const auto previous =
        states_.count(current_) ? states_[current_] : std::vector<Annotation>{};
    current_ = name;
    applyAnnotations(previous, states_[name]);
    if (auto it = on_enter_.find(name); it != on_enter_.end() && it->second) {
      it->second(*this);
    }
  }

  void evaluate() {
    if (current_.empty() || evaluating_) return;
    evaluating_ = true;
    // Chain transitions until quiescent; events are consumed by the first
    // round (subsequent rounds see Kind::none re-evaluation).
    for (int depth = 0; depth < 16; ++depth) {
      bool fired = false;
      for (const Transition& transition : transitions_) {
        if (transition.from != current_) continue;
        if (!transition.guard || transition.guard(*this)) {
          if (transition.action) transition.action(*this);
          enterState(transition.to);
          fired = true;
          break;
        }
      }
      event_ = Event{};  // consumed
      if (!fired) break;
    }
    evaluating_ = false;
  }

  DescriptorFactory ids_;
  std::map<std::string, std::vector<Annotation>> states_;
  std::vector<Transition> transitions_;
  std::map<std::string, Action> on_enter_;
  std::map<std::string, SlotId> bindings_;
  std::string current_;
  Event event_;
  bool evaluating_ = false;
};

}  // namespace cmc
