#include "load/workload.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace cmc::load {

const std::vector<CallType>& callTypes() {
  static const std::vector<CallType> kTypes = {
      {GoalKind::closeSlot, GoalKind::closeSlot, "close_close"},
      {GoalKind::closeSlot, GoalKind::holdSlot, "close_hold"},
      {GoalKind::closeSlot, GoalKind::openSlot, "close_open"},
      {GoalKind::openSlot, GoalKind::openSlot, "open_open"},
      {GoalKind::openSlot, GoalKind::holdSlot, "open_hold"},
      {GoalKind::holdSlot, GoalKind::holdSlot, "hold_hold"},
  };
  return kTypes;
}

std::vector<CallSpec> WorkloadGenerator::generate() const {
  const auto& types = callTypes();
  std::vector<CallSpec> calls;
  calls.reserve(spec_.calls);
  Rng rng(spec_.master_seed);
  std::uint64_t seed_stream = spec_.master_seed ^ 0x10adc0dedULL;
  SimTime arrival;
  const double rate =
      spec_.arrivals_per_s > 0.0 ? spec_.arrivals_per_s : 1.0;
  const std::int64_t hold_lo = spec_.hold_min.count();
  const std::int64_t hold_hi =
      spec_.hold_max.count() < hold_lo ? hold_lo : spec_.hold_max.count();
  for (std::size_t i = 0; i < spec_.calls; ++i) {
    // Fixed draw order per call — type, flowlink, hold, faulty, interarrival
    // — so the call set is a pure function of the master seed.
    CallSpec call;
    call.id = static_cast<std::uint64_t>(i);
    const CallType& type = types[rng.below(types.size())];
    call.left = type.left;
    call.right = type.right;
    call.type_name = type.name;
    call.flowlinks = rng.chance(spec_.flowlink_fraction) ? 1 : 0;
    call.hold = SimDuration{rng.range(hold_lo, hold_hi)};
    // Always consume the fault draw, even at fraction 0: two specs differing
    // only in fault_fraction must yield the same calls otherwise — that is
    // what lets tests compare a call's clean and faulty runs directly.
    const bool fault_draw = rng.chance(spec_.fault_fraction);
    call.faulty = spec_.fault_fraction > 0.0 && fault_draw;
    call.seed = splitmix64(seed_stream);
    call.arrival = arrival;
    const double dt_s = -std::log(1.0 - rng.uniform01()) / rate;
    arrival = arrival + SimDuration{static_cast<std::int64_t>(dt_s * 1e6)};
    calls.push_back(call);
  }
  return calls;
}

}  // namespace cmc::load
