// Outbox: signals a goal object decided to send, in order.
//
// Goal objects are pure state machines: they never perform I/O. Every step
// appends (slot, signal) pairs to an Outbox and the surrounding runtime
// (simulator, TCP loop, or model checker) moves them onto the tunnels.
// Order within the outbox is the order signals must appear on the wire.
// A step sends one or two signals in the common case (an oack and its
// select), so those live inside the outbox and sending them allocates
// nothing; a longer step spills.
#pragma once

#include <utility>

#include "protocol/signal.hpp"
#include "util/ids.hpp"
#include "util/small_vec.hpp"

namespace cmc {

struct OutSignal {
  SlotId slot;
  Signal signal;
};

class Outbox {
 public:
  using Signals = SmallVec<OutSignal, 2>;

  void send(SlotId slot, Signal signal) {
    signals_.push_back(OutSignal{slot, std::move(signal)});
  }

  [[nodiscard]] const Signals& signals() const noexcept { return signals_; }
  [[nodiscard]] Signals take() noexcept { return std::move(signals_); }
  [[nodiscard]] bool empty() const noexcept { return signals_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return signals_.size(); }

 private:
  Signals signals_;
};

}  // namespace cmc
