// EndpointGoal: whichever of the three single-slot primitives controls a
// path endpoint, with uniform dispatch. (flowLink controls two slots and is
// handled separately.)
#pragma once

#include <variant>

#include "core/flowlink.hpp"
#include "core/goals.hpp"

namespace cmc {

using EndpointGoal = std::variant<OpenSlotGoal, CloseSlotGoal, HoldSlotGoal>;

[[nodiscard]] inline GoalKind kindOf(const EndpointGoal& goal) noexcept {
  return std::visit([](const auto& g) { return g.kind; }, goal);
}

inline void attach(EndpointGoal& goal, SlotEndpoint& slot, Outbox& out) {
  std::visit([&](auto& g) { g.attach(slot, out); }, goal);
}

inline void onEvent(EndpointGoal& goal, SlotEndpoint& slot, SlotEvent event,
                    Outbox& out) {
  std::visit([&](auto& g) { g.onEvent(slot, event, out); }, goal);
}

// The media core of an open or hold goal; null for closeSlot, which has no
// media to modify.
[[nodiscard]] inline MediaGoal* mediaGoalOf(EndpointGoal& goal) noexcept {
  if (auto* open = std::get_if<OpenSlotGoal>(&goal)) return open;
  return std::get_if<HoldSlotGoal>(&goal);
}

[[nodiscard]] inline bool retryPending(const EndpointGoal& goal) noexcept {
  const auto* open = std::get_if<OpenSlotGoal>(&goal);
  return open != nullptr && open->retryPending();
}

inline void retry(EndpointGoal& goal, SlotEndpoint& slot, Outbox& out) {
  if (auto* open = std::get_if<OpenSlotGoal>(&goal)) open->retry(slot, out);
}

// Stabilization (docs/FAULTS.md): re-assert the goal against the slot after
// possible signal loss. Idempotent; fault-tolerant runtimes only.
inline void refresh(EndpointGoal& goal, SlotEndpoint& slot, Outbox& out) {
  std::visit([&](auto& g) { g.refresh(slot, out); }, goal);
}

// True when a refresh of this goal would send nothing useful.
[[nodiscard]] inline bool converged(const EndpointGoal& goal,
                                    const SlotEndpoint& slot) noexcept {
  return std::visit([&](const auto& g) { return g.converged(slot); }, goal);
}

inline void canonicalize(const EndpointGoal& goal, ByteWriter& w) {
  std::visit([&](const auto& g) { g.canonicalize(w); }, goal);
}

// The inverse of canonicalize: reads the kind byte, switches `goal` to that
// goal if it holds another, and decodes the rest into it. A kind that is not
// an endpoint goal, and malformed bytes, return false.
[[nodiscard]] inline bool decode(EndpointGoal& goal, ByteReader& r) {
  const std::uint8_t kind = r.u8();
  if (!r.ok()) return false;
  switch (static_cast<GoalKind>(kind)) {
    case GoalKind::openSlot:
      if (!std::holds_alternative<OpenSlotGoal>(goal)) goal.emplace<OpenSlotGoal>();
      return std::get<OpenSlotGoal>(goal).decode(r);
    case GoalKind::closeSlot:
      if (!std::holds_alternative<CloseSlotGoal>(goal)) goal.emplace<CloseSlotGoal>();
      return std::get<CloseSlotGoal>(goal).decode(r);
    case GoalKind::holdSlot:
      if (!std::holds_alternative<HoldSlotGoal>(goal)) goal.emplace<HoldSlotGoal>();
      return std::get<HoldSlotGoal>(goal).decode(r);
    case GoalKind::flowLink:
      break;
  }
  return false;
}

}  // namespace cmc
