#include "obs/probes.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cmc::obs {

void ConvergenceProbes::arm(std::string name, std::string bucket,
                            std::int64_t now_us, Predicate quiescent,
                            std::int64_t deadline_us) {
  Armed probe;
  probe.name = std::move(name);
  probe.bucket = std::move(bucket);
  probe.start_us = now_us;
  probe.deadline_us = deadline_us;
  probe.quiescent = std::move(quiescent);
  if (TraceRecorder* rec = recorder()) {
    rec->record(EventKind::mark, "probe_armed:" + probe.name, /*actor=*/{});
  }
  armed_.push_back(std::move(probe));
}

std::size_t ConvergenceProbes::check(std::int64_t now_us) {
  std::size_t fired = 0;
  for (std::size_t i = 0; i < armed_.size();) {
    Armed& probe = armed_[i];
    if (!probe.quiescent || !probe.quiescent()) {
      if (probe.deadline_us > 0 && now_us >= probe.deadline_us) {
        // Watchdog expired: this is a failed convergence. Capture the
        // post-mortem first — the retained trace window still holds the
        // stalled causal chain — then surface the failure.
        const std::string name = probe.name;
        failed_.push_back(name);
        if (TraceRecorder* rec = recorder()) {
          rec->record(EventKind::mark, "probe_failed:" + name, /*actor=*/{},
                      probe.bucket, /*id=*/0, /*v0=*/now_us - probe.start_us);
        }
        armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
        if (FlightRecorder* fr = flightRecorder()) {
          fr->dump("probe_timeout:" + name);
        }
        if (on_failure_) on_failure_(name, now_us);
        continue;
      }
      ++i;
      continue;
    }
    const std::int64_t latency = now_us - probe.start_us;
    // Recorded as it happens, so a live sampler sees per-window setup
    // latency mid-run. Written unconditionally (sampler or not): per-call
    // latencies are deterministic, so this keeps the rollup byte-identical
    // whether or not anyone is watching.
    if (MetricsRegistry* m = metrics()) {
      m->histogram("probe." + probe.bucket + "_us").observe(latency);
    }
    results_[probe.name] = latency;
    if (TraceRecorder* rec = recorder()) {
      rec->record(EventKind::mark, "probe_converged:" + probe.name, /*actor=*/{},
                  probe.bucket, /*id=*/0, /*v0=*/latency);
    }
    ++converged_;
    ++fired;
    armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return fired;
}

bool ConvergenceProbes::disarm(const std::string& name) {
  for (std::size_t i = 0; i < armed_.size(); ++i) {
    if (armed_[i].name != name) continue;
    armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

std::optional<std::int64_t> ConvergenceProbes::latencyUs(
    const std::string& name) const {
  auto it = results_.find(name);
  if (it == results_.end()) return std::nullopt;
  return it->second;
}

}  // namespace cmc::obs
