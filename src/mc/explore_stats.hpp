// Observability surface of the explorer: the one record of an explore()
// run's counters and phase timings, filled in by every run and cheap enough
// to always collect. snapshot() turns it into an obs::MetricsSnapshot, so
// the explorer's machine-readable output goes through the same serializer
// (MetricsSnapshot::json) as every other metrics view in the repo.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/snapshot.hpp"

namespace cmc {

struct ExploreStats {
  std::size_t threads = 1;          // worker threads used
  std::size_t states = 0;           // distinct states discovered
  std::size_t transitions = 0;      // edges recorded (terminal stutters included)
  std::size_t terminals = 0;
  std::size_t dedup_hits = 0;       // successor insertions resolved to an existing state
  std::size_t collisions = 0;       // fingerprint collisions caught by byte verification
  std::size_t bytes_retained = 0;   // canonical bytes held in the seen-set
  std::size_t frontier_depth = 0;   // BFS levels processed
  std::size_t peak_frontier = 0;    // widest BFS level
  bool truncated = false;
  double expand_seconds = 0;        // wall time in worker expansion
  double merge_seconds = 0;         // wall time merging per-level worker output
  double seconds = 0;               // total wall time

  [[nodiscard]] double statesPerSecond() const noexcept {
    return seconds > 0 ? static_cast<double>(states) / seconds : 0.0;
  }

  // Fraction of successor insertions that were duplicates of a known state.
  [[nodiscard]] double dedupRatio() const noexcept {
    const double total = static_cast<double>(dedup_hits + states);
    return total > 0 ? static_cast<double>(dedup_hits) / total : 0.0;
  }

  // The record as metrics: every count and timing (in whole microseconds)
  // under an `mc.*` counter, the thread count and widest level as gauges.
  [[nodiscard]] obs::MetricsSnapshot snapshot() const {
    auto us = [](double s) {
      return static_cast<std::uint64_t>(s * 1e6 + 0.5);
    };
    obs::MetricsSnapshot out;
    out.counters = {
        {"mc.states", states},
        {"mc.transitions", transitions},
        {"mc.terminals", terminals},
        {"mc.dedup_hits", dedup_hits},
        {"mc.collisions", collisions},
        {"mc.bytes_retained", bytes_retained},
        {"mc.frontier_depth", frontier_depth},
        {"mc.truncated", truncated ? 1u : 0u},
        {"mc.expand_us", us(expand_seconds)},
        {"mc.merge_us", us(merge_seconds)},
        {"mc.explore_us", us(seconds)},
    };
    auto gauge = [](std::size_t v) {
      const auto value = static_cast<std::int64_t>(v);
      return obs::GaugeSample{value, value};
    };
    out.gauges = {
        {"mc.threads", gauge(threads)},
        {"mc.peak_frontier", gauge(peak_frontier)},
    };
    return out;
  }
};

}  // namespace cmc
