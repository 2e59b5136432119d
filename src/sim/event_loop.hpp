// Discrete-event loop: the simulator's beating heart.
//
// Events are (time, sequence) ordered; equal-time events fire in scheduling
// order, which keeps simulations deterministic for a fixed seed. Virtual
// time only advances when the loop runs — there is no wall-clock coupling,
// so a simulated hour of signaling finishes in milliseconds of CPU.
//
// Storage is a slab + free list: event nodes are pooled per loop and the
// priority queue orders slab indices, so steady-state scheduling performs
// no heap allocation — a node is recycled the moment its handler starts.
// Handlers are InlineFn, not std::function: captures up to kHandlerCapacity
// bytes (every simulator hot-path lambda) live inside the node itself
// (DESIGN.md §4.5). Delivery is batched: one wakeup drains the whole run of
// equal-timestamp events, so a burst of same-tunnel signals costs one
// queue-depth sample and one batch record, not one per signal.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "util/inline_fn.hpp"
#include "util/time.hpp"

namespace cmc {

class EventLoop {
 public:
  // Sized for the largest hot-path capture (delivery lambda: Signal +
  // trace context + destination box, channel and tunnel). Bigger captures
  // still work — they take the one-allocation fallback inside InlineFn.
  static constexpr std::size_t kHandlerCapacity = 192;
  using Handler = InlineFn<kHandlerCapacity>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  // Schedule `handler` to run `delay` after the current time. The callable
  // is constructed directly into a pooled node; no per-event allocation as
  // long as it fits kHandlerCapacity.
  template <typename F>
  void schedule(SimDuration delay, F&& handler) {
    push(now_ + delay, Handler(std::forward<F>(handler)));
  }

  template <typename F>
  void scheduleAt(SimTime when, F&& handler) {
    push(when < now_ ? now_ : when, Handler(std::forward<F>(handler)));
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  // Events executed since construction (observability: event-loop
  // throughput = executed() / wall time).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }
  // Widest the queue has ever been.
  [[nodiscard]] std::size_t peakPending() const noexcept { return peak_pending_; }

  // Run one event; returns false if none pending.
  bool step() {
    if (heap_.empty()) return false;
    if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
    CMC_PROF_VALUE("loop.queue_depth", static_cast<std::int64_t>(heap_.size()));
    stepOne();
    return true;
  }

  // Run until idle or the horizon passes. Returns true if the loop drained
  // (idle); false if it stopped at the horizon with work left. The horizon
  // is relative to now(): each call grants `horizon` more virtual time, so
  // repeated calls keep making progress after the first horizon expires.
  // Everything here — now_, the horizon limit, the queue — is instance
  // state: a process may run one loop per shard and each keeps its own
  // virtual clock. (When the horizon expires, now_ stays at the last
  // executed event rather than jumping to the limit, so the caller's next
  // grant resumes exactly where this one stopped.)
  bool runUntilIdle(SimDuration horizon = std::chrono::seconds(600)) {
    const SimTime limit = now_ + horizon;
    while (!heap_.empty()) {
      if (slab_[heap_.front()].when > limit) return false;
      drainBatch(slab_[heap_.front()].when);
    }
    return true;
  }

  // Run events up to and including `until`, leaving later events queued.
  void runUntil(SimTime until) {
    while (!heap_.empty() && slab_[heap_.front()].when <= until) {
      drainBatch(slab_[heap_.front()].when);
    }
    if (now_ < until) now_ = until;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    SimTime when;
    std::uint64_t seq = 0;
    Handler handler;
    std::uint32_t next_free = kNil;
  };

  // (when, seq) strict ordering: earlier time first, FIFO within a time.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const noexcept {
    const Node& na = slab_[a];
    const Node& nb = slab_[b];
    if (na.when != nb.when) return na.when < nb.when;
    return na.seq < nb.seq;
  }

  void push(SimTime when, Handler handler) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = slab_[idx].next_free;
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    Node& node = slab_[idx];
    node.when = when;
    node.seq = next_seq_++;
    node.handler = std::move(handler);
    heap_.push_back(idx);
    siftUp(heap_.size() - 1);
  }

  // Pop the top node, recycle it, run its handler. The handler is moved out
  // first: it may schedule new events, which can reuse the freed node or
  // grow the slab.
  void stepOne() {
    const std::uint32_t idx = heap_.front();
    popTop();
    Node& node = slab_[idx];
    now_ = node.when;
    Handler handler = std::move(node.handler);
    node.handler.reset();
    node.next_free = free_head_;
    free_head_ = idx;
    ++executed_;
    {
      CMC_PROF_SCOPE("loop.dispatch");
      handler();
    }
  }

  // One wakeup: drain the full run of events at timestamp `when`, including
  // any scheduled *during* the batch for the same instant (they carry later
  // sequence numbers, so ordering is unchanged). One queue-depth sample and
  // one batch record per wakeup instead of one per event.
  void drainBatch(SimTime when) {
    if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
    CMC_PROF_VALUE("loop.queue_depth", static_cast<std::int64_t>(heap_.size()));
    std::int64_t batch = 0;
    while (!heap_.empty() && slab_[heap_.front()].when == when) {
      stepOne();
      ++batch;
    }
    CMC_PROF_VALUE("loop.batch", batch);
  }

  void popTop() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0);
  }

  void siftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void siftDown(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && before(heap_[l], heap_[best])) best = l;
      if (r < n && before(heap_[r], heap_[best])) best = r;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Node> slab_;            // pooled event nodes, recycled in place
  std::vector<std::uint32_t> heap_;   // binary heap of slab indices
  std::uint32_t free_head_ = kNil;    // head of the free-node chain
  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace cmc
