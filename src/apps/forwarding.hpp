// CallForwardingBox: a classic DFC-style feature box.
//
// The paper's motivation for compositionality comes from DFC (Section
// II-B): features as independent modules in a signaling pipeline, so each
// can stay simple and features chain freely. Call forwarding is the
// canonical example: the box sits in front of a served user; incoming
// calls are spliced through to the user, and if the user is unavailable
// (or the feature is set to forward unconditionally) the call is re-routed
// to the forward target instead — by relinking, not by touching the caller.
//
// Because control is a flowlink, the caller's media follows wherever the
// call lands, across any number of chained forwarding boxes, with no
// feature aware of the others. Whichever leg dies first, the box releases
// the other one.
#pragma once

#include "core/program.hpp"

namespace cmc {

class CallForwardingBox : public ProgramBox {
 public:
  enum class Mode { onUnavailable, always };

  CallForwardingBox(BoxId id, std::string name, std::string served_user,
                    std::string forward_target,
                    Mode mode = Mode::onUnavailable)
      : ProgramBox(id, std::move(name)),
        served_user_(std::move(served_user)),
        forward_target_(std::move(forward_target)),
        mode_(mode) {
    // Hold the caller until the outgoing leg is up, then splice the two.
    addState("idle", {});
    addState("calling", {holdSlot("in")});
    addState("serving", {flowLink("in", "out")});
    addState("forwarding", {holdSlot("in")});
    addState("forwarded", {flowLink("in", "out")});

    for (const char* from : {"calling", "serving", "forwarding", "forwarded"}) {
      // The caller went away: fold the outgoing leg too.
      addTransition(from, "idle", onSlotLost("in"),
                    [this](ProgramBox&) { destroyChannelOf("out"); });
      // The callee hung up: release the caller.
      addTransition(from, "idle", onSlotLost("out"),
                    [this](ProgramBox&) { destroyChannelOf("in"); });
    }
    const Guard out_up = [](ProgramBox& box) { return box.isBound("out"); };
    addTransition("calling", "serving", out_up);
    addTransition("forwarding", "forwarded", out_up);
    // The served user is unavailable: re-route the leg.
    addTransition("serving", "forwarding",
                  onMetaKind(MetaKind::unavailable, "out"), [this](ProgramBox&) {
                    destroyChannelOf("out");
                    requestChannel(forward_target_, 1, "out");
                  });
    start("idle");
  }

  [[nodiscard]] bool forwarded() const noexcept {
    return inState("forwarding") || inState("forwarded");
  }

 protected:
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    const SlotIds slots = slotsOf(channel);
    if (slots.empty() || isBound("in")) return;  // one call at a time
    const bool always = mode_ == Mode::always;
    start(always ? "forwarding" : "calling");
    bind("in", slots.front());
    requestChannel(always ? forward_target_ : served_user_, 1, "out");
  }

 private:
  std::string served_user_;
  std::string forward_target_;
  Mode mode_;
};

}  // namespace cmc
