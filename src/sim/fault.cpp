#include "sim/fault.hpp"

namespace cmc {

FaultDecision FaultPlan::decide(const std::string& from, const std::string& to,
                                SimTime now) {
  FaultDecision decision;
  ++counters_.considered;
  if (!activeAt(now)) return decision;
  const FaultSpec& spec = specFor(from, to);
  // One Rng draw per fault class per signal keeps the stream layout stable:
  // adding a burst window (no draws) never shifts drop/dup/reorder
  // decisions for a given seed.
  const bool drop = rng_.chance(spec.drop_rate);
  const bool duplicate = rng_.chance(spec.duplicate_rate);
  const bool reorder = rng_.chance(spec.reorder_rate);
  const auto hold = static_cast<SimDuration::rep>(
      rng_.below(static_cast<std::uint64_t>(
          spec.reorder_window.count() > 0 ? spec.reorder_window.count() : 1)));
  if (drop) {
    decision.drop = true;
    ++counters_.dropped;
    return decision;
  }
  if (duplicate) {
    decision.copies = 2;
    // Space the copy out far enough that it is a distinct stimulus, close
    // enough that it lands while the first copy's effect is fresh.
    decision.copy_spacing = SimDuration{spec.reorder_window.count() / 2 + 1};
    ++counters_.duplicated;
  }
  if (reorder) {
    decision.extra += SimDuration{hold};
    ++counters_.reordered;
  }
  for (const BurstWindow& burst : bursts_) {
    if (now >= burst.at && now < burst.at + burst.duration) {
      decision.extra += burst.extra;
      ++counters_.burst_delayed;
      break;
    }
  }
  return decision;
}

}  // namespace cmc
