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
      : ProgramBox(id, std::move(name)),
        tone_resource_(std::move(tone_resource)),
        answer_timeout_(answer_timeout) {
    addState("start", {});
    addState("oneCall", {openSlot("1a")});
    addState("twoCalls", {openSlot("1a"), openSlot("2a")});
    addState("busyTone", {flowLink("1a", "Ta")});
    addState("ringback", {flowLink("1a", "Ta"), openSlot("2a")});
    addState("connected", {flowLink("1a", "2a")});
    addState("done", {});

    for (const char* from :
         {"oneCall", "twoCalls", "busyTone", "ringback", "connected"}) {
      addTransition(from, "done", onSlotLost("1a"), [this](ProgramBox&) {
        destroyChannelOf("2a");
        destroyChannelOf("Ta");
      });
    }
    addTransition("oneCall", "twoCalls", isFlowing("1a"),
                  [this](ProgramBox&) { requestChannel(user2_, 1, "2a"); });
    // User 1 never picked up.
    addTransition("oneCall", "done", onTimerTag("answer"),
                  [this](ProgramBox&) { destroyChannelOf("1a"); });
    // User 2's device is ringing: play ringback while 2a keeps trying.
    addTransition("twoCalls", "ringback",
                  onMetaKind(MetaKind::available, "2a"), [this](ProgramBox&) {
                    requestChannel(tone_resource_, 1, "Ta");
                  });
    for (const char* from : {"twoCalls", "ringback"}) {
      addTransition(from, "busyTone", onMetaKind(MetaKind::unavailable, "2a"),
                    [this](ProgramBox&) {
                      destroyChannelOf("2a");
                      if (!isBound("Ta")) requestChannel(tone_resource_, 1, "Ta");
                    });
      // User 2 answered: drop the tone and connect the two users.
      addTransition(from, "connected", isFlowing("2a"),
                    [this](ProgramBox&) { destroyChannelOf("Ta"); });
    }
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
  std::string tone_resource_;
  SimDuration answer_timeout_;
  std::string user2_;
};

}  // namespace cmc
