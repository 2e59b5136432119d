// Fault injection for the discrete-event simulator (docs/FAULTS.md).
//
// A FaultPlan is a seeded, deterministic schedule of message faults and box
// crashes applied to a Simulator's signal-delivery path:
//
//   drop        — an in-flight tunnel signal vanishes;
//   duplicate   — a signal is delivered twice (copies spaced apart);
//   reorder     — a signal is held back up to `reorder_window`, letting
//                 later signals on the same tunnel overtake it;
//   burst delay — every signal sent inside a scheduled burst window incurs
//                 a fixed extra delay (models transient congestion);
//   crash       — a box loses all volatile slot state and rejoins the path
//                 after `down_for` (Box::crashRestart).
//
// The plan owns its own Rng, separate from the simulator's jitter Rng, so
// installing a plan never perturbs the latency stream: a run with a given
// (sim seed, fault seed) pair replays byte-identically, and the same sim
// seed without faults behaves exactly as before. Faults are injected only
// while `activeAt(now)` holds (the first `active_for` of virtual time);
// afterwards the path must self-stabilize, which is what the stabilization
// probes and the property suite measure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace cmc {

// Per-tunnel fault probabilities and shaping parameters.
struct FaultSpec {
  double drop_rate = 0.0;       // P(signal vanishes)
  double duplicate_rate = 0.0;  // P(signal delivered twice)
  double reorder_rate = 0.0;    // P(signal held back for a random slice
                                //   of reorder_window)
  SimDuration reorder_window{120'000};  // max hold-back (µs)
  // Injection window: faults fire only in the first `active_for` of virtual
  // time. Zero means "never stop" (for pure-churn experiments).
  SimDuration active_for{5'000'000};
  // Cadence of the stabilization refresh tick the simulator runs on every
  // box while a plan is installed (goal/flowlink re-assertion; see
  // Box::refreshGoals).
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

// A burst window: signals sent in [at, at + duration) get `extra` delay.
struct BurstWindow {
  SimTime at;
  SimDuration duration{500'000};
  SimDuration extra{250'000};
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
  explicit FaultPlan(std::uint64_t seed, FaultSpec spec = {})
      : seed_(seed), spec_(std::move(spec)), rng_(seed) {}
  // decide() and activeAt() are virtual so that composite plans can route
  // per-signal decisions to sub-plans — the sharded load runtime gives
  // every call its own seeded plan (src/load/fault_router.hpp), keeping
  // each call's fault stream independent of what else shares its shard.
  virtual ~FaultPlan() = default;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  // Override the fault spec for one direction of one box pair (the tunnel
  // from `from` to `to`); all other traffic keeps the default spec.
  void tunnelOverride(const std::string& from, const std::string& to,
                      FaultSpec spec) {
    overrides_[from + "\x1f" + to] = std::move(spec);
  }

  void addCrash(CrashEvent crash) { crashes_.push_back(std::move(crash)); }
  [[nodiscard]] const std::vector<CrashEvent>& crashes() const noexcept {
    return crashes_;
  }

  void addBurst(BurstWindow burst) { bursts_.push_back(std::move(burst)); }

  [[nodiscard]] virtual bool activeAt(SimTime now) const noexcept {
    return spec_.active_for.count() == 0 || now.sinceStart() < spec_.active_for;
  }

  // Decide the fate of one signal from `from` to `to` emitted at `now`.
  // Consumes this plan's Rng stream; with a deterministic event loop the
  // call sequence — and thus every decision — replays exactly per seed.
  [[nodiscard]] virtual FaultDecision decide(const std::string& from,
                                             const std::string& to,
                                             SimTime now);

  struct Counters {
    std::uint64_t considered = 0;  // signals emitted while plan installed
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t burst_delayed = 0;
    std::uint64_t crashes = 0;         // maintained by the simulator
    std::uint64_t dead_box_drops = 0;  // deliveries to a crashed box
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] Counters& counters() noexcept { return counters_; }

 private:
  [[nodiscard]] const FaultSpec& specFor(const std::string& from,
                                         const std::string& to) const {
    auto it = overrides_.find(from + "\x1f" + to);
    return it == overrides_.end() ? spec_ : it->second;
  }

  std::uint64_t seed_;
  FaultSpec spec_;
  Rng rng_;
  std::map<std::string, FaultSpec> overrides_;
  std::vector<CrashEvent> crashes_;
  std::vector<BurstWindow> bursts_;
  Counters counters_;
};

}  // namespace cmc
