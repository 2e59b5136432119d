// ClickToDialBox: the paper's Fig. 6 example, as its state table.
//
//   start ----click----> oneCall    openSlot(1a, audio)
//   oneCall --flowing--> twoCalls   openSlot(1a), openSlot(2a)
//   twoCalls -unavail--> busyTone   flowLink(1a, Ta)
//   twoCalls --avail---> ringback   flowLink(1a, Ta), openSlot(2a)
//   ringback -flowing2-> connected  flowLink(1a, 2a)
//   oneCall --timeout--> done       (destroy channel 1)
//
// The box is an application server: its openslots are muted masquerades
// (server intent). Tones come from a tone-generator resource, because the
// caller's device will not generate tones while playing the called-party
// role (footnote 3). The final transition destroys the tone channel and
// flowlinks two already-flowing slots; the flowlink implementation then
// reconfigures addresses and codecs so user 1 and user 2 talk directly.
// If user 1's channel dies, the feature folds entirely.
#pragma once

#include "core/program.hpp"

namespace cmc {

class ClickToDialBox : public ProgramBox {
 public:
  ClickToDialBox(BoxId id, std::string name, std::string tone_resource,
                 SimDuration answer_timeout = std::chrono::seconds(30))
      : ProgramBox(id, std::move(name), program()),
        tone_resource_(std::move(tone_resource)),
        answer_timeout_(answer_timeout) {
    start("start");
  }

  // The user clicked a "click-to-dial" link on a web page.
  void click(const std::string& user1_device, const std::string& user2_device) {
    if (!inState("start")) return;
    user2_ = user2_device;
    requestChannel(user1_device, 1, "1a");
    setTimer(answer_timeout_, "answer");
    start("oneCall");
  }

 private:
  enum : Slot { k1a, k2a, kTa };

  static const ProgramDef& program() {
    static const ProgramDef def = [] {
      ProgramDef d({"1a", "2a", "Ta"});
      d.state("start", {});
      d.state("oneCall", {openSlot(k1a)});
      d.state("twoCalls", {openSlot(k1a), openSlot(k2a)});
      d.state("busyTone", {flowLink(k1a, kTa)});
      d.state("ringback", {flowLink(k1a, kTa), openSlot(k2a)});
      d.state("connected", {flowLink(k1a, k2a)});
      d.state("done", {});

      d.transition({"oneCall", "twoCalls", "busyTone", "ringback", "connected"},
                   "done", onSlotLost(k1a), destroying({k2a, kTa}));
      d.transition("oneCall", "twoCalls", isFlowing(k1a),
                   [](ProgramBox& box, const Event&) {
                     box.requestChannel(self(box).user2_, 1, "2a");
                   });
      // User 1 never picked up.
      d.transition("oneCall", "done", onTimerTag("answer"), destroying({k1a}));
      // User 2's device is ringing: play ringback while 2a keeps trying.
      d.transition("twoCalls", "ringback", onMetaKind(MetaKind::available, k2a),
                   [](ProgramBox& box, const Event&) {
                     box.requestChannel(self(box).tone_resource_, 1, "Ta");
                   });
      d.transition({"twoCalls", "ringback"}, "busyTone",
                   onMetaKind(MetaKind::unavailable, k2a),
                   [](ProgramBox& box, const Event&) {
                     box.destroyChannelOf(k2a);
                     if (!box.isBound(kTa)) {
                       box.requestChannel(self(box).tone_resource_, 1, "Ta");
                     }
                   });
      // User 2 answered: drop the tone and connect the two users.
      d.transition({"twoCalls", "ringback"}, "connected", isFlowing(k2a),
                   destroying({kTa}));
      return d;
    }();
    return def;
  }

  static ClickToDialBox& self(ProgramBox& box) {
    return static_cast<ClickToDialBox&>(box);
  }

  std::string tone_resource_;
  SimDuration answer_timeout_;
  std::string user2_;
};

}  // namespace cmc
