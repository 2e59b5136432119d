// Fault injection for the discrete-event simulator (docs/FAULTS.md).
//
// A FaultPlan is a seeded, deterministic schedule of message faults and box
// crashes applied to a Simulator's signal-delivery path:
//
//   drop        — an in-flight tunnel signal vanishes;
//   duplicate   — a signal is delivered twice (copies spaced apart);
//   reorder     — a signal is held back up to `reorder_window`, letting
//                 later signals on the same tunnel overtake it;
//   crash       — a box loses all volatile slot state and rejoins the path
//                 after `down_for` (Box::crashRestart).
//
// A plan is a plain value. The simulator's box table records which plan
// decides for each box's signals: the installed plan by default, or a plan
// of the box's own (Simulator::setBoxFaultPlan), so one shard can run every
// faulty call under its own seeded plan.
//
// The plan owns its own Rng, separate from the simulator's jitter Rng, so
// installing a plan never perturbs the latency stream: a run with a given
// (sim seed, fault seed) pair replays byte-identically, and the same sim
// seed without faults behaves exactly as before. Faults are injected only
// while `activeAt(now)` holds (the `active_for` after the plan's start
// instant); afterwards the path must self-stabilize, which is what the
// stabilization probes and the property suite measure.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace cmc {

// Per-signal fault probabilities and shaping parameters.
struct FaultSpec {
  double drop_rate = 0.0;       // P(signal vanishes)
  double duplicate_rate = 0.0;  // P(signal delivered twice)
  double reorder_rate = 0.0;    // P(signal held back for a random slice
                                //   of reorder_window)
  SimDuration reorder_window{120'000};  // max hold-back (µs)
  // Injection window: faults fire only in the first `active_for` after the
  // plan's start. Zero means "never stop" (for pure-churn experiments).
  SimDuration active_for{5'000'000};
  // Cadence of the stabilization refresh tick (goal/flowlink re-assertion;
  // see Box::refreshGoals) of each box this plan decides for. The tick
  // lives while the plan is active or the box needs repair.
  SimDuration refresh_interval{300'000};
};

// A scheduled crash: at `at`, `box` loses its volatile slot state and stays
// unreachable until `at + down_for`, when it restarts and re-attaches its
// goals (Box::crashRestart).
struct CrashEvent {
  std::string box;
  SimTime at;
  SimDuration down_for{1'000'000};
};

// What the plan decided for one signal emission.
struct FaultDecision {
  bool drop = false;
  std::uint32_t copies = 1;       // 1 = normal, 2 = duplicated
  SimDuration extra{0};           // added to the sampled network latency
  SimDuration copy_spacing{0};    // gap between duplicate deliveries
};

class FaultPlan {
 public:
  // `start` opens the injection window: a plan made for a call that
  // arrives at t=40s injects over [40s, 40s + active_for).
  explicit FaultPlan(std::uint64_t seed, FaultSpec spec = {},
                     SimTime start = {})
      : seed_(seed), spec_(std::move(spec)), start_(start), rng_(seed) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  void addCrash(CrashEvent crash) { crashes_.push_back(std::move(crash)); }
  [[nodiscard]] const std::vector<CrashEvent>& crashes() const noexcept {
    return crashes_;
  }

  [[nodiscard]] bool activeAt(SimTime now) const noexcept {
    return spec_.active_for.count() == 0 || now < start_ + spec_.active_for;
  }

  // Decide the fate of one signal emitted at `now`. Consumes this plan's
  // Rng stream; with a deterministic event loop the call sequence — and
  // thus every decision — replays exactly per seed.
  [[nodiscard]] FaultDecision decide(SimTime now);

  struct Counters {
    std::uint64_t considered = 0;  // signals emitted while plan installed
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t crashes = 0;         // maintained by the simulator
    std::uint64_t dead_box_drops = 0;  // deliveries to a crashed box
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] Counters& counters() noexcept { return counters_; }

 private:
  std::uint64_t seed_;
  FaultSpec spec_;
  SimTime start_;
  Rng rng_;
  std::vector<CrashEvent> crashes_;
  Counters counters_;
};

}  // namespace cmc
