// Experiment E2 (paper Section VIII-A): cost of verifying flowlinks.
//
// Paper: "adding a flowlink causes the memory to grow by a factor of 300 on
// the average, and the time to grow by a factor of 1000 on the average",
// which is why paths with two flowlinks were out of reach (projected 900 GB
// / 300 hours). This bench measures the same growth factors on our checker:
// the multiplicative blow-up per flowlink is the reproduced shape.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "mc/verification.hpp"

int main() {
  using namespace cmc;
  bench::banner(
      "E2: state-space growth per flowlink (Section VIII-A)",
      "one flowlink multiplies memory ~300x and time ~1000x on average; "
      "two flowlinks were projected infeasible (~900 GB, ~300 h)");

  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 0;  // keep the 1-link runs quick
  limits.max_states = 4'000'000;

  const auto suite = paperVerificationSuite();
  std::printf("  %-22s %12s %12s %12s %10s\n", "path type", "states(0fl)",
              "states(1fl)", "state growth", "time growth");

  double geo_state_growth = 1, geo_time_growth = 1;
  int rows = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& flat_config = suite[i];
    const auto& linked_config = suite[i + 6];
    const auto flat = explorePath(flat_config.left, flat_config.right, 0, limits);
    const auto linked =
        explorePath(linked_config.left, linked_config.right, 1, limits);
    const double sgrowth = static_cast<double>(linked.states()) /
                           static_cast<double>(flat.states());
    const double tgrowth =
        linked.stats.seconds > 0 && flat.stats.seconds > 0
            ? linked.stats.seconds / std::max(flat.stats.seconds, 1e-6)
            : 0.0;
    std::printf("  %-10s/%-11s %12zu %12zu %11.1fx %9.1fx\n",
                std::string(toString(flat_config.left)).c_str(),
                std::string(toString(flat_config.right)).c_str(), flat.states(),
                linked.states(), sgrowth, tgrowth);
    geo_state_growth *= sgrowth;
    geo_time_growth *= std::max(tgrowth, 1.0);
    ++rows;
  }
  const double mean_state = std::pow(geo_state_growth, 1.0 / rows);
  const double mean_time = std::pow(geo_time_growth, 1.0 / rows);
  bench::row("geometric-mean state growth per flowlink", 300.0, mean_state, "x");
  bench::row("geometric-mean time growth per flowlink", 1000.0, mean_time, "x");
  bench::note(
      "absolute factors depend on model granularity; the reproduced claim "
      "is the multiplicative explosion that makes >=2 flowlinks infeasible");
  bench::verdict(mean_state > 10.0,
                 "adding one flowlink inflates the state space by >10x");

  // --- parallel explorer scaling on the largest configuration -------------
  // openSlot/openSlot with one flowlink is the biggest model of the suite;
  // run it at 1/2/4/8 workers. Counts and verdicts must be identical at
  // every thread count (the parallel explorer visits the same reachable
  // graph); wall-clock speedup tracks the machine's real core count.
  std::printf("\n  parallel explorer scaling, openSlot/openSlot + 1 flowlink "
              "(hardware threads: %u)\n",
              std::thread::hardware_concurrency());
  std::printf("  %-8s %12s %12s %10s %9s %8s\n", "threads", "states",
              "transitions", "states/s", "time(s)", "speedup");
  double baseline_seconds = 0;
  std::size_t baseline_states = 0, baseline_transitions = 0;
  bool counts_ok = true;
  double speedup_at_8 = 0.0;
  double peak_rss_per_state = 0;
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ExploreLimits plimits = limits;
    plimits.modify_budget = 1;  // E1's full budget: the real largest model
    plimits.threads = threads;
    const auto graph = explorePath(GoalKind::openSlot, GoalKind::openSlot, 1,
                                   plimits);
    if (threads == 1) {
      baseline_seconds = graph.stats.seconds;
      baseline_states = graph.states();
      baseline_transitions = graph.transitions;
      // The process's high-water mark so far: the growth table above ran
      // only models far smaller than this one.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_per_state = static_cast<double>(usage.ru_maxrss) * 1024.0 /
                           static_cast<double>(graph.states());
    } else {
      counts_ok = counts_ok && graph.states() == baseline_states &&
                  graph.transitions == baseline_transitions;
    }
    const double speedup =
        graph.stats.seconds > 0 ? baseline_seconds / graph.stats.seconds : 0.0;
    if (threads == 8) speedup_at_8 = speedup;
    std::printf("  %-8zu %12zu %12zu %10.0f %9.2f %7.2fx\n", threads,
                graph.states(), graph.transitions,
                graph.stats.statesPerSecond(), graph.stats.seconds, speedup);
    bench::jsonLine("EXPLORE_STATS[statespace_growth:openSlot/openSlot/1]",
                    graph.stats.snapshot().json());
  }
  std::printf("  peak RSS per state, 1 thread: %.0f B/state\n",
              peak_rss_per_state);
  bench::verdict(counts_ok,
                 "identical state/transition counts at every thread count");
  if (std::thread::hardware_concurrency() >= 4) {
    bench::verdict(speedup_at_8 >= 2.0,
                   ">=2x speedup at 8 workers over the sequential explorer");
  } else {
    bench::note("speedup verdict skipped: fewer than 4 hardware threads");
  }
  return counts_ok ? 0 : 1;
}
