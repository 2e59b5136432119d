// Discrete-event loop: the simulator's beating heart.
//
// Events are (time, sequence) ordered; equal-time events fire in scheduling
// order, which keeps simulations deterministic for a fixed seed. Virtual
// time only advances when the loop runs — there is no wall-clock coupling,
// so a simulated hour of signaling finishes in milliseconds of CPU.
//
// Storage (DESIGN.md §4.5): the priority queue is a 4-ary heap of small
// entries that carry their own (when, seq) key and the index of the event's
// node, so ordering never touches a node. Nodes hold only the handler and
// live in fixed-size chunks that never move: a handler is built directly in
// its node when scheduled, runs there, and is destroyed there, so an event
// costs no handler relocation and steady-state scheduling performs no heap
// allocation. A node returns to the free list once its handler has run;
// events the handler schedules meanwhile take other nodes, and the next
// event's node is prefetched while the current handler runs. Handlers are
// InlineFn, not std::function: captures up to kHandlerCapacity bytes (every
// simulator hot-path lambda) live inside the node itself. Delivery is
// batched: one wakeup drains the whole run of equal-timestamp events, so a
// burst of same-tunnel signals costs one queue-depth sample and one batch
// record, not one per signal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "util/inline_fn.hpp"
#include "util/time.hpp"

namespace cmc {

class EventLoop {
 public:
  // Sized for the largest hot-path capture (a stimulus: the box's id, its
  // start time, the causal context and a delivery body holding a Signal).
  // Bigger captures still work — they take the one-allocation fallback
  // inside InlineFn.
  static constexpr std::size_t kHandlerCapacity = 192;
  using Handler = InlineFn<kHandlerCapacity>;
  // Event nodes per storage chunk.
  static constexpr std::uint32_t kChunkNodes = 256;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  // Schedule `handler` to run `delay` after the current time. The callable
  // is constructed directly into a pooled node; no per-event allocation as
  // long as it fits kHandlerCapacity.
  template <typename F>
  void schedule(SimDuration delay, F&& handler) {
    push(now_ + delay, std::forward<F>(handler));
  }

  template <typename F>
  void scheduleAt(SimTime when, F&& handler) {
    push(when < now_ ? now_ : when, std::forward<F>(handler));
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
      if (heap_.front().when > limit) return false;
      drainBatch(heap_.front().when);
    }
    return true;
  }

  // Run events up to and including `until`, leaving later events queued.
  void runUntil(SimTime until) {
    while (!heap_.empty() && heap_.front().when <= until) {
      drainBatch(heap_.front().when);
    }
    if (now_ < until) now_ = until;
  }

 private:
  // Children per heap entry. A 4-ary heap is half as deep as a binary one,
  // and an entry's four children are 96 contiguous bytes; it measured
  // faster than 2-ary (DESIGN.md §4.5).
  static constexpr std::size_t kArity = 4;

  // One queued event: its key and its node.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t node;
  };

  // (when, seq) strict ordering: earlier time first, FIFO within a time.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  [[nodiscard]] Handler& node(std::uint32_t idx) noexcept {
    return chunks_[idx / kChunkNodes][idx % kChunkNodes];
  }

  // A free node: the most recently released one, else a fresh one (a new
  // chunk when the last is full; existing chunks stay where they are).
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    if (nodes_ == chunks_.size() * kChunkNodes) {
      chunks_.push_back(std::make_unique<Handler[]>(kChunkNodes));
      // Room to release every node without allocating (stepOne releases
      // from a destructor).
      free_.reserve(chunks_.size() * kChunkNodes);
    }
    return nodes_++;
  }

  template <typename F>
  void push(SimTime when, F&& handler) {
    const std::uint32_t idx = acquire();
    node(idx).emplace(std::forward<F>(handler));
    heap_.emplace_back();
    siftUp(heap_.size() - 1, Entry{when, next_seq_++, idx});
  }

  // Pop the top entry and run its handler in its node. The node is
  // released only after the handler returns (or throws), so whatever the
  // handler schedules lands in other nodes and its own captures stay put.
  void stepOne() {
    const Entry top = heap_.front();
    popTop();
    prefetchTop();
    now_ = top.when;
    ++executed_;
    struct Release {
      EventLoop& loop;
      std::uint32_t idx;
      ~Release() {
        loop.node(idx).reset();
        loop.free_.push_back(idx);
      }
    } release{*this, top.node};
    {
      CMC_PROF_SCOPE("loop.dispatch");
      node(top.node)();
    }
  }

  // Start loading the next event's node while this one runs. With many
  // calls in flight the nodes are scattered, and a node the handler reads
  // cold costs a cache miss per line.
  void prefetchTop() noexcept {
    if (heap_.empty()) return;
    const auto* bytes = reinterpret_cast<const char*>(&node(heap_.front().node));
    for (std::size_t at = 0; at < sizeof(Handler); at += 64) {
      __builtin_prefetch(bytes + at);
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
    while (!heap_.empty() && heap_.front().when == when) {
      stepOne();
      ++batch;
    }
    CMC_PROF_VALUE("loop.batch", batch);
  }

  // Both sifts move a hole instead of swapping: each level copies one
  // entry, and the moving entry is written once, where it stops.
  void siftUp(std::size_t hole, const Entry& entry) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!before(entry, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  void popTop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }

  std::vector<std::unique_ptr<Handler[]>> chunks_;  // event nodes; never move
  std::vector<std::uint32_t> free_;  // released nodes, reused last-in first
  std::vector<Entry> heap_;          // kArity-ary min-heap on (when, seq)
  std::uint32_t nodes_ = 0;          // nodes handed out so far
  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace cmc
