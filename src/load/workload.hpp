// Workload generation for the sharded load runtime (docs/LOAD.md).
//
// A WorkloadGenerator expands a WorkloadSpec — master seed, call count,
// arrival rate, hold-time range, flowlink and fault fractions — into a
// deterministic vector of CallSpecs. Every random draw flows through one
// Rng seeded from the master seed, in a fixed per-call order (type,
// flowlink, hold, faulty, call seed), so the same spec always yields the
// same call set regardless of how many shards later execute it. Each call
// also carries its own derived seed: everything stochastic about the call
// at run time (its fault plan) is keyed off that seed, never off shared
// shard state, which is what makes a workload's outcome invariant under
// re-sharding (see ShardedRuntime).
//
// The six call types are the six goal-pair path types of the paper's §V
// analysis: close/close, close/hold, close/open, open/open, open/hold,
// hold/hold. A call optionally routes through one relay box carrying a
// flowlink (the paper's 0- vs 1-flowlink path variants).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/goal.hpp"
#include "sim/fault.hpp"
#include "util/time.hpp"

namespace cmc::load {

// One of the §V goal-pair path types.
struct CallType {
  GoalKind left;
  GoalKind right;
  const char* name;  // stable label for metrics/trace filtering
};

// The six distinct unordered goal pairs over {close, hold, open}.
[[nodiscard]] const std::vector<CallType>& callTypes();

struct WorkloadSpec {
  std::uint64_t master_seed = 1;
  std::size_t calls = 100;
  // Mean call arrival rate (calls per simulated second); interarrivals are
  // exponential, so the churn has realistic burstiness.
  double arrivals_per_s = 50.0;
  // Uniform hold-time range: how long a call stays up after its setup
  // grace before the caller hangs up.
  SimDuration hold_min{500'000};
  SimDuration hold_max{2'000'000};
  // Fraction of calls routed through one relay/flowlink box.
  double flowlink_fraction = 0.5;
  // Fraction of calls that run under an individual fault plan.
  double fault_fraction = 0.0;
  // Fault shape for faulty calls. Each faulty call's plan starts at the
  // call's arrival, so every faulty call sees the same fault window over
  // its own lifetime.
  FaultSpec fault_spec = defaultCallFaults();

  [[nodiscard]] static FaultSpec defaultCallFaults() {
    FaultSpec spec;
    spec.drop_rate = 0.15;
    spec.duplicate_rate = 0.05;
    spec.reorder_rate = 0.05;
    spec.active_for = SimDuration{2'000'000};
    return spec;
  }
};

// One call, fully determined at generation time.
struct CallSpec {
  std::uint64_t id = 0;
  GoalKind left = GoalKind::closeSlot;
  GoalKind right = GoalKind::closeSlot;
  std::size_t flowlinks = 0;  // 0 or 1 relay boxes on the path
  SimTime arrival;
  SimDuration hold{0};
  std::uint64_t seed = 0;  // per-call seed (fault plan etc.)
  bool faulty = false;
  const char* type_name = "";

  // Box names are "c<id>.L" / "c<id>.F" / "c<id>.R": the call id prefix is
  // how trace filtering finds a call's boxes.
  [[nodiscard]] std::string leftName() const { return prefix() + ".L"; }
  [[nodiscard]] std::string relayName() const { return prefix() + ".F"; }
  [[nodiscard]] std::string rightName() const { return prefix() + ".R"; }
  [[nodiscard]] std::string probeName() const { return prefix(); }
  [[nodiscard]] std::string prefix() const { return "c" + std::to_string(id); }
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadSpec spec) : spec_(std::move(spec)) {}

  // Expand the spec into its call set; pure function of the spec.
  [[nodiscard]] std::vector<CallSpec> generate() const;

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }

 private:
  WorkloadSpec spec_;
};

}  // namespace cmc::load
