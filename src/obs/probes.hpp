// Convergence probes: virtual-time latency from a goal change to path
// quiescence.
//
// The paper's latency law (§VIII-C) says: after the last flowlink of a
// signaling path initializes, media setup toward the farther endpoint takes
// p*n + (p+1)*c. A probe captures exactly that interval empirically: arm it
// at the moment of the goal change with a predicate describing the target
// quiescent condition (bothFlowing along the path, media audible, both
// closed, ...); the hosting Simulator re-evaluates armed probes after every
// box stimulus completes, and the first time a predicate holds the probe
// records `now - armed_at` into the registry histogram "probe.<bucket>_us"
// (when a metrics registry is installed) and disarms.
//
// Predicates run only while at least one probe is armed, so an idle probe
// set costs one `empty()` check per stimulus. Probes are owned by a single
// simulation thread; they are not thread-safe by design. All timestamps —
// arm instants and watchdog deadlines — are in the hosting loop's virtual
// time, and the deadline path resolves the flight recorder through
// obs::flightRecorder(), which honors the calling thread's override: in a
// sharded runtime a deadline miss therefore dumps the shard that armed the
// probe, never a sibling shard's recorder.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cmc::obs {

class ConvergenceProbes {
 public:
  using Predicate = std::function<bool()>;
  using FailureHandler =
      std::function<void(const std::string& name, std::int64_t now_us)>;

  // Arm a probe. `bucket` names the registry histogram the latency lands
  // in, "probe.<bucket>_us" (several probes — e.g. runs with different
  // seeds — may share one bucket);
  // `name` identifies this single measurement. A positive `deadline_us`
  // turns the probe into a watchdog: if it has not converged by that
  // virtual instant, the next check() marks it failed, disarms it, and
  // triggers the installed flight recorder (obs/flight_recorder.hpp).
  void arm(std::string name, std::string bucket, std::int64_t now_us,
           Predicate quiescent, std::int64_t deadline_us = 0);

  // Evaluate armed probes; satisfied ones record and disarm, expired ones
  // fail (post-mortem dump + onFailure). Returns the number of probes that
  // converged in this call.
  std::size_t check(std::int64_t now_us);

  // Drop the armed probe named `name` without recording a result either
  // way. Returns true if it was armed. Call-churn hosts disarm a call's
  // setup probe at teardown: once the call's boxes close, its quiescence
  // predicate can never hold, and an abandoned probe would be re-evaluated
  // on every later stimulus for the life of the shard.
  bool disarm(const std::string& name);

  // Called for every probe that blows its deadline, after the flight-
  // recorder dump; hosts use it to abort or log.
  void setOnFailure(FailureHandler handler) { on_failure_ = std::move(handler); }

  [[nodiscard]] bool empty() const noexcept { return armed_.empty(); }
  [[nodiscard]] std::size_t armedCount() const noexcept { return armed_.size(); }
  [[nodiscard]] std::size_t convergedCount() const noexcept { return converged_; }
  [[nodiscard]] std::size_t failedCount() const noexcept {
    return failed_.size();
  }
  [[nodiscard]] const std::vector<std::string>& failed() const noexcept {
    return failed_;
  }

  // Latency of a named measurement, once converged.
  [[nodiscard]] std::optional<std::int64_t> latencyUs(const std::string& name) const;

 private:
  struct Armed {
    std::string name;
    std::string bucket;
    std::int64_t start_us = 0;
    std::int64_t deadline_us = 0;  // 0 = no watchdog
    Predicate quiescent;
  };

  std::vector<Armed> armed_;
  std::map<std::string, std::int64_t> results_;
  std::vector<std::string> failed_;
  FailureHandler on_failure_;
  std::size_t converged_ = 0;
};

}  // namespace cmc::obs
