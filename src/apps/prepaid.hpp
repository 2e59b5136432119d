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
      : ProgramBox(id, std::move(name), program()),
        callee_target_(std::move(callee_target)),
        voice_resource_(std::move(voice_resource)),
        talk_time_(talk_time) {
    start("idle");
  }

  [[nodiscard]] int timesCollected() const noexcept { return times_collected_; }

 protected:
  // The prepaid caller C arrived. Set up the far side and the voice
  // resource; both legs up starts `talking`.
  void onIncomingChannel(ChannelId channel, const std::string&) override {
    const SlotIds slots = slotsOf(channel);
    if (slots.empty() || isBound(kC)) return;
    bind(kC, slots.front());
    requestChannel(callee_target_, 1, "a");
    requestChannel(voice_resource_, 1, "v");
  }

 private:
  enum : Slot { kC, kA, kV };

  static const ProgramDef& program() {
    static const ProgramDef def = [] {
      ProgramDef d({"c", "a", "v"});
      // Hold the caller until the call legs exist; the flowlink re-matches.
      d.state("idle", {holdSlot(kC)});
      d.state("talking", {holdSlot(kV), flowLink(kC, kA)});
      d.state("collecting", {holdSlot(kA), flowLink(kC, kV)});

      d.transition({"idle", "talking", "collecting"}, "idle", onSlotLost(kC),
                   destroying({kA, kV}));
      d.transition("idle", "talking", [](const ProgramBox& box, const Event&) {
        return box.isBound(kA) && box.isBound(kV);
      });
      d.transition("talking", "collecting", onTimerTag("funds"),
                   [](ProgramBox& box, const Event&) {
                     ++self(box).times_collected_;
                   });
      d.transition("collecting", "talking", onCustomMeta("paid"));
      d.onEnter("talking", [](ProgramBox& box, const Event&) {
        self(box).setTimer(self(box).talk_time_, "funds");
      });
      return d;
    }();
    return def;
  }

  static PrepaidCardBox& self(ProgramBox& box) {
    return static_cast<PrepaidCardBox&>(box);
  }

  std::string callee_target_;
  std::string voice_resource_;
  SimDuration talk_time_;
  int times_collected_ = 0;
};

}  // namespace cmc
