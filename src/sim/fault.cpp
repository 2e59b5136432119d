#include "sim/fault.hpp"

namespace cmc {

FaultDecision FaultPlan::decide(SimTime now) {
  FaultDecision decision;
  ++counters_.considered;
  if (!activeAt(now)) return decision;
  // One Rng draw per fault class per signal keeps the stream layout stable:
  // whatever a signal's fate, the next signal sees the same Rng position.
  const bool drop = rng_.chance(spec_.drop_rate);
  const bool duplicate = rng_.chance(spec_.duplicate_rate);
  const bool reorder = rng_.chance(spec_.reorder_rate);
  const auto hold = static_cast<SimDuration::rep>(
      rng_.below(static_cast<std::uint64_t>(
          spec_.reorder_window.count() > 0 ? spec_.reorder_window.count()
                                           : 1)));
  if (drop) {
    decision.drop = true;
    ++counters_.dropped;
    return decision;
  }
  if (duplicate) {
    decision.copies = 2;
    // Space the copy out far enough that it is a distinct stimulus, close
    // enough that it lands while the first copy's effect is fresh.
    decision.copy_spacing = SimDuration{spec_.reorder_window.count() / 2 + 1};
    ++counters_.duplicated;
  }
  if (reorder) {
    decision.extra += SimDuration{hold};
    ++counters_.reordered;
  }
  return decision;
}

}  // namespace cmc
