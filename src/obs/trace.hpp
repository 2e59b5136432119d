// Structured tracing: sim-timestamped events in a bounded ring buffer.
//
// A TraceRecorder captures the observable life of a running system — signal
// send/receive per tunnel, SlotEndpoint FSM transitions, goal lifecycle,
// flowlink descriptor bookkeeping, box stimulus-processing spans, frames on
// the wire — as small structured events. The buffer is bounded: overflow
// drops the *oldest* events and counts what was dropped, so a long run
// always retains the most recent window.
//
// Recording is disabled by default and must stay branch-cheap when off:
// instrumentation sites do one relaxed atomic load (`obs::recorder()`) and
// skip everything on nullptr. That keeps the model checker's hot loop and
// the deterministic-trace guarantees of the explorer untouched.
//
// Timestamps come from an injectable time source (the Simulator installs
// its virtual clock); without one, events are stamped with a monotonic
// wall-clock offset. Exports: Chrome trace-event JSON (load in Perfetto or
// chrome://tracing) via chromeTraceJson(). The export is a pure function
// of the buffered events, so identical runs yield byte-identical traces.
// Causal propagation (opt-in on top of recording, see obs/context.hpp):
// with setPropagation(true), the recorder also allocates trace and span
// ids, events adopt the thread-local TraceContext of the stimulus that
// produced them, and chromeTraceJson() emits Perfetto flow arrows for
// every cross-actor parent->child link. With propagation off, all id
// fields stay zero and the export is byte-identical to the pre-causal
// format.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"

namespace cmc::obs {

enum class EventKind : std::uint8_t {
  signalSend = 0,   // name=signal kind, actor=sender box, aux=receiver box
  signalRecv = 1,   // name=signal kind, actor=receiver box, aux=sender box
  slotTransition,   // name=new state, aux=old state, id=slot
  goalPosted,       // name=goal kind, actor=box, id=slot
  goalAchieved,     // name=goal kind, actor=box, id=slot
  goalCancelled,    // name=goal kind, actor=box, id=slot
  flowlinkUpdate,   // name=refresh action or "utd", id=slot, v0/v1=utd flags
  boxSpan,          // name="stimulus", actor=box, dur_us=processing time
  frame,            // name="frame_out"/"frame_in", v0=bytes
  mark,             // free-form instant
};

[[nodiscard]] std::string_view toString(EventKind kind) noexcept;

struct TraceEvent {
  std::int64_t ts_us = 0;   // virtual (or fallback wall) microseconds
  std::int64_t dur_us = 0;  // spans only; 0 for instants
  EventKind kind = EventKind::mark;
  std::uint64_t id = 0;     // slot/channel id when meaningful
  std::int64_t v0 = 0;      // kind-specific numeric args
  std::int64_t v1 = 0;
  // Causal linkage (all zero unless propagation is enabled): the trace this
  // event belongs to, the span it is (boxSpan) or sits inside (instants),
  // and — for boxSpan and signalRecv — the causing parent span.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::string name;         // what happened (signal kind, state, goal kind)
  std::string actor;        // which box (maps to a trace "thread")
  std::string aux;          // peer box / previous state / cause
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  // Install the virtual clock. Without one, events use a monotonic
  // wall-clock offset from recorder construction.
  void setTimeSource(std::function<std::int64_t()> now_us);

  // Stamp and buffer one event. Thread-safe. Only events that carry their
  // own timestamp or causal ids (box spans, signal receives) are built as a
  // TraceEvent; every other site records through the overload below.
  void record(TraceEvent event);

  // One instant, stamped now.
  void record(EventKind kind, std::string_view name, std::string_view actor,
              std::string_view aux = {}, std::uint64_t id = 0,
              std::int64_t v0 = 0, std::int64_t v1 = 0);

  // Buffered events, oldest first. Takes the lock; not for hot paths.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  [[nodiscard]] std::uint64_t recorded() const noexcept;  // total ever seen
  [[nodiscard]] std::uint64_t dropped() const noexcept;   // overflowed out
  [[nodiscard]] std::size_t size() const;                 // buffered now
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void clear();

  // ------------------------------------------------------ causal propagation
  // Opt-in: when enabled, stimuli get span ids, signals carry TraceContext
  // in-band, and events without explicit ids adopt the current context.
  // Off by default so plain tracing stays byte-compatible with PR 2.
  void setPropagation(bool on) noexcept {
    propagation_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool propagationEnabled() const noexcept {
    return propagation_.load(std::memory_order_relaxed);
  }

  // Deterministic id allocation: a single monotonic counter shared by trace
  // and span ids. Single-threaded hosts (the simulator) therefore produce
  // identical ids for identical seeds, which keeps exports byte-identical.
  [[nodiscard]] std::uint64_t newId() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Chrome trace-event JSON: {"traceEvents":[...]} with one "thread" per
  // actor (first-appearance order) and a metadata record of drop counts.
  [[nodiscard]] std::string chromeTraceJson() const;

 private:
  [[nodiscard]] std::int64_t stamp() const;

  mutable std::mutex mutex_;
  std::atomic<bool> propagation_{false};
  std::atomic<std::uint64_t> next_id_{1};  // 0 means "no id"
  std::function<std::int64_t()> now_us_;
  std::int64_t wall_epoch_us_ = 0;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;       // ring write cursor
  std::uint64_t total_ = 0;    // events ever recorded
};

// ------------------------------------------------------- global installation
// The process-wide recorder used by instrumentation sites. nullptr (the
// default) disables all recording at the cost of one relaxed load.
//
// Sharded hosts (src/load) run one simulation per worker thread; a single
// process-wide recorder would interleave their events. A thread may
// therefore install its own recorder with setThreadRecorder(): recorder()
// resolves the thread-local override first and falls back to the process-
// wide pointer, so single-threaded hosts are unaffected. The override is
// plain thread-local state — the installing thread must clear it (pass
// nullptr) before the recorder dies.
[[nodiscard]] TraceRecorder* recorder() noexcept;
void setRecorder(TraceRecorder* recorder) noexcept;
void setThreadRecorder(TraceRecorder* recorder) noexcept;

// -------------------------------------------------------------- actor scope
// Some instrumentation sites (SlotEndpoint, FlowLink) are value types with
// no idea which box they live in. The runtime brackets their execution with
// an ActorScope so their events land on the right trace thread.
[[nodiscard]] std::string_view currentActor() noexcept;

class ActorScope {
 public:
  explicit ActorScope(const std::string& name) noexcept;
  ~ActorScope();

  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  const std::string* prev_;
};

}  // namespace cmc::obs
