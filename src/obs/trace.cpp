#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "obs/metrics.hpp"

namespace cmc::obs {

namespace {

std::atomic<TraceRecorder*> g_recorder{nullptr};
thread_local TraceRecorder* t_recorder = nullptr;
thread_local const std::string* t_actor = nullptr;
thread_local TraceContext t_context{};

std::int64_t wallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view toString(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::signalSend: return "signal_send";
    case EventKind::signalRecv: return "signal_recv";
    case EventKind::slotTransition: return "slot_transition";
    case EventKind::goalPosted: return "goal_posted";
    case EventKind::goalAchieved: return "goal_achieved";
    case EventKind::goalCancelled: return "goal_cancelled";
    case EventKind::flowlinkUpdate: return "flowlink_update";
    case EventKind::boxSpan: return "box_span";
    case EventKind::frame: return "frame";
    case EventKind::mark: return "mark";
  }
  return "?event";
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      wall_epoch_us_(wallMicros()) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void TraceRecorder::setTimeSource(std::function<std::int64_t()> now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  now_us_ = std::move(now_us);
}

std::int64_t TraceRecorder::stamp() const {
  if (now_us_) return now_us_();
  return wallMicros() - wall_epoch_us_;
}

void TraceRecorder::record(TraceEvent event) {
  // Causal adoption: an event recorded while a stimulus is executing (slot
  // transition, goal action, flowlink forward, signal send) belongs to that
  // stimulus's span unless the site set explicit ids.
  if (event.trace_id == 0 && event.span_id == 0 &&
      propagation_.load(std::memory_order_relaxed)) {
    event.trace_id = t_context.trace;
    event.span_id = t_context.span;
  }
  bool overflowed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (event.ts_us == 0 && event.dur_us == 0) event.ts_us = stamp();
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[next_] = std::move(event);
      next_ = (next_ + 1) % capacity_;
      overflowed = true;
    }
    ++total_;
  }
  // Surface ring overflow in the metrics namespace so dashboards see it
  // without polling the recorder. The counter is created lazily on the
  // first actual drop, so drop-free runs keep their metrics dump (and the
  // sharded rollup) byte-identical to pre-telemetry builds. Bumped outside
  // the ring lock: the registry has its own lock.
  if (overflowed) {
    if (MetricsRegistry* m = metrics()) m->counter("trace.dropped").add(1);
  }
}

void TraceRecorder::record(EventKind kind, std::string_view name,
                           std::string_view actor, std::string_view aux,
                           std::uint64_t id, std::int64_t v0, std::int64_t v1) {
  TraceEvent ev;
  ev.kind = kind;
  ev.name.assign(name);
  ev.actor.assign(actor);
  ev.aux.assign(aux);
  ev.id = id;
  ev.v0 = v0;
  ev.v1 = v1;
  record(std::move(ev));
}

void TraceRecorder::recordSpan(std::string_view name, std::string_view actor,
                               std::int64_t start_us, std::int64_t dur_us) {
  TraceEvent ev;
  ev.kind = EventKind::boxSpan;
  ev.name.assign(name);
  ev.actor.assign(actor);
  ev.ts_us = start_us;
  ev.dur_us = dur_us > 0 ? dur_us : 1;  // zero-width spans vanish in viewers
  record(std::move(ev));
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest first: once wrapped, next_ points at the oldest slot.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceRecorder::recorded() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::uint64_t TraceRecorder::dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
  // Restart id allocation so a cleared recorder reproduces the ids of a
  // fresh one (two same-seed runs through one recorder stay comparable).
  next_id_.store(1, std::memory_order_relaxed);
}

void TraceRecorder::exportChromeTrace(std::ostream& os) const {
  os << chromeTraceJson();
}

std::string TraceRecorder::chromeTraceJson() const {
  const std::vector<TraceEvent> events = snapshot();
  std::uint64_t drops;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drops = total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  // Assign tids per actor in first-appearance order so identical runs get
  // identical exports.
  std::map<std::string, int> tid_of;
  std::vector<std::string> actors;
  for (const TraceEvent& ev : events) {
    const std::string& actor = ev.actor.empty() ? std::string("(system)") : ev.actor;
    if (tid_of.emplace(actor, 0).second) actors.push_back(actor);
  }
  int tid = 1;
  for (const std::string& actor : actors) tid_of[actor] = tid++;

  std::string out;
  out.reserve(events.size() * 128 + 512);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&]() {
    if (!first) out += ',';
    first = false;
  };
  char buf[96];
  for (const std::string& actor : actors) {
    comma();
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"",
                  tid_of[actor]);
    out += buf;
    appendJsonEscaped(out, actor);
    out += "\"}}";
  }
  for (const TraceEvent& ev : events) {
    comma();
    const std::string& actor = ev.actor.empty() ? std::string("(system)") : ev.actor;
    out += "{\"pid\":1,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%d,\"ts\":%lld,", tid_of[actor],
                  static_cast<long long>(ev.ts_us));
    out += buf;
    if (ev.kind == EventKind::boxSpan) {
      std::snprintf(buf, sizeof(buf), "\"ph\":\"X\",\"dur\":%lld,",
                    static_cast<long long>(ev.dur_us));
      out += buf;
    } else {
      out += "\"ph\":\"i\",\"s\":\"t\",";
    }
    out += "\"cat\":\"";
    out += toString(ev.kind);
    out += "\",\"name\":\"";
    switch (ev.kind) {
      case EventKind::signalSend:
        appendJsonEscaped(out, "send " + ev.name);
        break;
      case EventKind::signalRecv:
        appendJsonEscaped(out, "recv " + ev.name);
        break;
      case EventKind::slotTransition:
        appendJsonEscaped(out, ev.aux + "->" + ev.name);
        break;
      default:
        appendJsonEscaped(out, ev.name);
    }
    out += "\",\"args\":{";
    bool first_arg = true;
    auto arg_comma = [&]() {
      if (!first_arg) out += ',';
      first_arg = false;
    };
    if (!ev.aux.empty()) {
      arg_comma();
      out += "\"aux\":\"";
      appendJsonEscaped(out, ev.aux);
      out += '"';
    }
    if (ev.id != 0) {
      arg_comma();
      std::snprintf(buf, sizeof(buf), "\"id\":%llu",
                    static_cast<unsigned long long>(ev.id));
      out += buf;
    }
    if (ev.v0 != 0 || ev.v1 != 0) {
      arg_comma();
      std::snprintf(buf, sizeof(buf), "\"v0\":%lld,\"v1\":%lld",
                    static_cast<long long>(ev.v0),
                    static_cast<long long>(ev.v1));
      out += buf;
    }
    // Causal ids, present only under propagation so the prior export shape
    // is preserved bit-for-bit when the feature is off.
    if (ev.trace_id != 0 || ev.span_id != 0 || ev.parent_span != 0) {
      arg_comma();
      std::snprintf(buf, sizeof(buf),
                    "\"trace\":%llu,\"span\":%llu,\"parent\":%llu",
                    static_cast<unsigned long long>(ev.trace_id),
                    static_cast<unsigned long long>(ev.span_id),
                    static_cast<unsigned long long>(ev.parent_span));
      out += buf;
    }
    out += "}}";
  }
  // Perfetto flow arrows: one s/f pair per cross-span parent->child link,
  // so traces render as connected causal chains instead of disjoint
  // slices. The arrow leaves the parent span at its end (the instant the
  // sender's outputs were emitted) and lands at the child span's start.
  {
    std::map<std::uint64_t, const TraceEvent*> span_of;
    for (const TraceEvent& ev : events) {
      if (ev.kind == EventKind::boxSpan && ev.span_id != 0) {
        span_of.emplace(ev.span_id, &ev);
      }
    }
    for (const TraceEvent& ev : events) {
      if (ev.kind != EventKind::boxSpan || ev.parent_span == 0) continue;
      auto pit = span_of.find(ev.parent_span);
      if (pit == span_of.end()) continue;  // parent fell out of the ring
      const TraceEvent& parent = *pit->second;
      const std::string& pactor =
          parent.actor.empty() ? std::string("(system)") : parent.actor;
      const std::string& cactor =
          ev.actor.empty() ? std::string("(system)") : ev.actor;
      comma();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"s\",\"pid\":1,\"tid\":%d,\"ts\":%lld,"
                    "\"cat\":\"flow\",\"name\":\"causal\",\"id\":%llu}",
                    tid_of[pactor],
                    static_cast<long long>(parent.ts_us + parent.dur_us),
                    static_cast<unsigned long long>(ev.span_id));
      out += buf;
      comma();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%lld,\"cat\":\"flow\",\"name\":\"causal\","
                    "\"id\":%llu}",
                    tid_of[cactor], static_cast<long long>(ev.ts_us),
                    static_cast<unsigned long long>(ev.span_id));
      out += buf;
    }
  }
  out += "],\"otherData\":{";
  std::snprintf(buf, sizeof(buf), "\"dropped_events\":%llu",
                static_cast<unsigned long long>(drops));
  out += buf;
  out += "}}";
  return out;
}

TraceRecorder* recorder() noexcept {
  if (t_recorder != nullptr) return t_recorder;
  return g_recorder.load(std::memory_order_relaxed);
}

void setRecorder(TraceRecorder* recorder) noexcept {
  g_recorder.store(recorder, std::memory_order_release);
}

void setThreadRecorder(TraceRecorder* recorder) noexcept {
  t_recorder = recorder;
}

std::string_view currentActor() noexcept {
  return t_actor != nullptr ? std::string_view(*t_actor) : std::string_view{};
}

ActorScope::ActorScope(const std::string& name) noexcept : prev_(t_actor) {
  t_actor = &name;
}

ActorScope::~ActorScope() { t_actor = prev_; }

TraceContext currentContext() noexcept { return t_context; }

ContextScope::ContextScope(const TraceContext& ctx) noexcept
    : prev_(t_context) {
  t_context = ctx;
}

ContextScope::~ContextScope() { t_context = prev_; }

}  // namespace cmc::obs
