#include "obs/probes.hpp"

#include <algorithm>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cmc::obs {

ConvergenceProbes::Id ConvergenceProbes::arm(std::string name,
                                             std::string_view bucket,
                                             std::int64_t now_us,
                                             Predicate quiescent,
                                             std::int64_t deadline_us,
                                             Watch watch) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(probes_.size());
    probes_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Probe& probe = probes_[slot];
  probe.name = std::move(name);
  probe.bucket = bucketOf(bucket);
  probe.start_us = now_us;
  probe.deadline_us = deadline_us;
  probe.quiescent = std::move(quiescent);
  probe.seq = next_seq_++;
  if (TraceRecorder* rec = recorder()) {
    rec->record(EventKind::mark, "probe_armed:" + probe.name, /*actor=*/{});
  }
  for (std::uint64_t box : watch) {
    const bool listed = std::any_of(probe.watch.begin(), probe.watch.end(),
                                    [box](const Link& l) { return l.box == box; });
    if (listed) continue;
    if (box >= heads_.size()) heads_.resize(box + 1, 0);
    probe.watch.push_back(Link{box, heads_[box]});
    heads_[box] = slot + 1;
  }
  if (probe.watch.empty()) {
    probe.unwatched_at = static_cast<std::uint32_t>(unwatched_.size());
    unwatched_.push_back(slot);
  }
  if (deadline_us > 0) {
    deadlines_.push_back(Deadline{deadline_us, probe.seq, slot});
    std::push_heap(deadlines_.begin(), deadlines_.end(), Deadline::later);
  }
  ++armed_;
  return Id{slot, probe.seq};
}

std::size_t ConvergenceProbes::checkBox(std::uint64_t box, std::int64_t now_us) {
  for (std::uint32_t slot : unwatched_) queue(slot);
  if (box < heads_.size()) {
    for (std::uint32_t at = heads_[box]; at != 0; at = linkOf(at - 1, box).next) {
      queue(at - 1);
    }
  }
  return evaluateDue(now_us);
}

std::size_t ConvergenceProbes::check(Id id, std::int64_t now_us) {
  if (live(id.slot, id.seq)) queue(id.slot);
  return evaluateDue(now_us);
}

std::size_t ConvergenceProbes::evaluateDue(std::int64_t now_us) {
  while (!deadlines_.empty() && deadlines_.front().at_us <= now_us) {
    const Deadline d = deadlines_.front();
    std::pop_heap(deadlines_.begin(), deadlines_.end(), Deadline::later);
    deadlines_.pop_back();
    // Entries of probes that already converged or were disarmed are stale.
    if (live(d.slot, d.seq)) due_.push_back(Due{d.seq, d.slot});
  }
  if (due_.empty()) return 0;
  // Walk a swapped-out list: a failure handler may check again, and that
  // inner check must not touch the list this loop is reading.
  std::vector<Due> due;
  due.swap(due_);
  // Arm order, each probe once (a probe can be both watched and expired).
  std::sort(due.begin(), due.end(),
            [](const Due& a, const Due& b) { return a.seq < b.seq; });
  std::size_t fired = 0;
  std::uint64_t last = 0;
  for (const Due& d : due) {
    if (d.seq == last || !live(d.slot, d.seq)) continue;
    last = d.seq;
    ++evaluations_;
    const std::int64_t deadline_us = probes_[d.slot].deadline_us;
    const Predicate& quiescent = probes_[d.slot].quiescent;
    if (quiescent && quiescent()) {
      converge(d.slot, now_us);
      ++fired;
    } else if (deadline_us > 0 && now_us >= deadline_us) {
      fail(d.slot, now_us);
    }
  }
  // Hand the buffer back so the next check allocates nothing.
  due.clear();
  due_.swap(due);
  return fired;
}

std::uint32_t ConvergenceProbes::bucketOf(std::string_view bucket) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].name == bucket) return static_cast<std::uint32_t>(i);
  }
  buckets_.emplace_back(bucket);
  return static_cast<std::uint32_t>(buckets_.size() - 1);
}

void ConvergenceProbes::converge(std::uint32_t slot, std::int64_t now_us) {
  Probe& probe = probes_[slot];
  const std::int64_t latency = now_us - probe.start_us;
  Bucket& bucket = buckets_[probe.bucket];
  // Recorded as it happens, so a live sampler sees per-window setup
  // latency mid-run. Written unconditionally (sampler or not): per-call
  // latencies are deterministic, so this keeps the rollup byte-identical
  // whether or not anyone is watching.
  if (Histogram* h = bucket.histogram.get()) h->observe(latency);
  if (TraceRecorder* rec = recorder()) {
    rec->record(EventKind::mark, "probe_converged:" + probe.name, /*actor=*/{},
                bucket.name, /*id=*/0, /*v0=*/latency);
  }
  unlink(slot);
  // The slot keeps the name and the latency until the result is taken.
  probe.latency_us = latency;
  probe.converged_at = ++converged_;
}

void ConvergenceProbes::fail(std::uint32_t slot, std::int64_t now_us) {
  // Watchdog expired: this is a failed convergence. Capture the
  // post-mortem first — the retained trace window still holds the
  // stalled causal chain — then surface the failure.
  Probe& probe = probes_[slot];
  const std::string name = std::move(probe.name);
  failed_.push_back(name);
  if (TraceRecorder* rec = recorder()) {
    rec->record(EventKind::mark, "probe_failed:" + name, /*actor=*/{},
                buckets_[probe.bucket].name, /*id=*/0,
                /*v0=*/now_us - probe.start_us);
  }
  unlink(slot);
  release(slot);
  if (FlightRecorder* fr = flightRecorder()) {
    fr->dump("probe_timeout:" + name);
  }
  if (on_failure_) on_failure_(name, now_us);
}

ConvergenceProbes::Link& ConvergenceProbes::linkOf(std::uint32_t slot,
                                                   std::uint64_t box) noexcept {
  Link* link = probes_[slot].watch.begin();
  while (link->box != box) ++link;
  return *link;
}

void ConvergenceProbes::unlink(std::uint32_t slot) {
  Probe& probe = probes_[slot];
  for (const Link& link : probe.watch) {
    std::uint32_t* at = &heads_[link.box];
    while (*at != slot + 1) at = &linkOf(*at - 1, link.box).next;
    *at = link.next;
  }
  if (probe.watch.empty()) {
    const std::uint32_t moved = unwatched_.back();
    unwatched_[probe.unwatched_at] = moved;
    probes_[moved].unwatched_at = probe.unwatched_at;
    unwatched_.pop_back();
  }
  probe.watch.clear();
  probe.quiescent = nullptr;  // frees what the predicate captured
  --armed_;
}

void ConvergenceProbes::release(std::uint32_t slot) {
  probes_[slot] = Probe{};
  free_.push_back(slot);
}

bool ConvergenceProbes::disarm(Id id) {
  if (!live(id.slot, id.seq)) return false;
  unlink(id.slot);
  release(id.slot);
  return true;
}

std::optional<std::int64_t> ConvergenceProbes::latencyUs(
    std::string_view name) const {
  const Probe* latest = nullptr;
  for (const Probe& probe : probes_) {
    if (probe.converged_at == 0 || probe.name != name) continue;
    if (latest == nullptr || probe.converged_at > latest->converged_at) {
      latest = &probe;
    }
  }
  if (latest == nullptr) return std::nullopt;
  return latest->latency_us;
}

std::optional<std::int64_t> ConvergenceProbes::takeLatencyUs(Id id) {
  if (!holds(id.slot, id.seq) || probes_[id.slot].converged_at == 0) {
    return std::nullopt;
  }
  const std::int64_t latency = probes_[id.slot].latency_us;
  release(id.slot);
  return latency;
}

}  // namespace cmc::obs
