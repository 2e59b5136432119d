// PrepaidCardBox: the PC server of the paper's running example
// (Sections II-A, II-C, Figs. 2 and 3).
//
// A prepaid caller (C) reaches the feature; the feature places the real
// call onward (toward A, possibly through A's PBX) and supervises talk
// time. Its two program states are exactly the paper's:
//
//   talking:     flowLink(c, a), holdSlot(v)   — caller talks to callee
//   collecting:  flowLink(c, v), holdSlot(a)   — funds ran out; caller is
//                connected to the voice resource V, which prompts for more
//                funds over audio signaling
//
// A talk-time timer moves talking -> collecting; the custom meta-signal
// "paid" from V moves collecting -> talking. Note what the feature does
// NOT do: it never signals A's device directly about C's media — it only
// rearranges its own flowlinks, and the protocol machinery does the rest
// correctly even when A's PBX acts concurrently. If the caller's channel
// dies, the feature folds back to idle.
#pragma once

#include "core/program.hpp"

namespace cmc {

class PrepaidCardBox : public ProgramBox {
 public:
  PrepaidCardBox(BoxId id, std::string name, std::string callee_target,
                 std::string voice_resource, SimDuration talk_time)
      : ProgramBox(id, std::move(name)),
        callee_target_(std::move(callee_target)),
        voice_resource_(std::move(voice_resource)) {
    // Hold the caller until the call legs exist; the flowlink re-matches.
    addState("idle", {holdSlot("c")});
    addState("talking", {holdSlot("v"), flowLink("c", "a")});
    addState("collecting", {holdSlot("a"), flowLink("c", "v")});

    for (const char* from : {"idle", "talking", "collecting"}) {
      addTransition(from, "idle", onSlotLost("c"), [this](ProgramBox&) {
        destroyChannelOf("a");
        destroyChannelOf("v");
      });
    }
    addTransition("idle", "talking", [](ProgramBox& box) {
      return box.isBound("a") && box.isBound("v");
    });
    addTransition("talking", "collecting", onTimerTag("funds"),
                  [this](ProgramBox&) { ++times_collected_; });
    addTransition("collecting", "talking", onCustomMeta("paid"));
    onEnter("talking", [this, talk_time](ProgramBox&) {
      setTimer(talk_time, "funds");
    });
    start("idle");
  }

  [[nodiscard]] int timesCollected() const noexcept { return times_collected_; }

 protected:
  // The prepaid caller C arrived. Set up the far side and the voice
  // resource; both legs up starts `talking`.
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    const SlotIds slots = slotsOf(channel);
    if (slots.empty() || isBound("c")) return;
    bind("c", slots.front());
    requestChannel(callee_target_, 1, "a");
    requestChannel(voice_resource_, 1, "v");
  }

 private:
  std::string callee_target_;
  std::string voice_resource_;
  int times_collected_ = 0;
};

}  // namespace cmc
