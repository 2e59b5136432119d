// Extension beyond the paper: verification of paths with TWO flowlinks.
//
// Paper Section VIII-A: "checking a path with two flowlinks might take
// something like 900 Gb of memory and 300 hours... these numbers are still
// forbidding", and Section VIII-B proposes (as future work) an inductive
// proof built from segments with at most one interior flowlink.
//
// Our state encoding is leaner than the paper's Promela model, so the
// two-flowlink configurations become directly checkable: this bench runs
// all six path types with two flowlink boxes and the same chaotic initial
// phases as E1 (modify perturbations dropped to keep the run under a
// minute).
#include <cstdio>

#include "bench_util.hpp"
#include "mc/verification.hpp"

int main() {
  using namespace cmc;
  bench::banner(
      "EXT: verification of 2-flowlink paths (paper: projected infeasible)",
      "paper projected ~900 GB / ~300 h for one such check in Spin; the "
      "leaner direct-C++ encoding brings them into reach");

  ExploreLimits limits;
  limits.chaos_budget = 1;   // full chaotic initial phases, as in E1
  limits.modify_budget = 0;  // drop user perturbations to stay in seconds
  limits.max_states = 8'000'000;

  std::printf("  %-10s %-10s %-34s %10s %12s %8s %7s %6s\n", "left", "right",
              "specification", "states", "transitions", "time(s)", "safety",
              "spec");
  bool all_ok = true;
  const auto suite = paperVerificationSuite();
  for (std::size_t i = 0; i < 6; ++i) {
    VerificationCase config = suite[i];
    config.flowlinks = 2;
    const VerificationOutcome o = verifyPath(config, limits);
    all_ok = all_ok && o.ok();
    std::printf("  %-10s %-10s %-34s %10zu %12zu %8.2f %7s %6s\n",
                std::string(toString(config.left)).c_str(),
                std::string(toString(config.right)).c_str(),
                std::string(toString(o.spec)).c_str(), o.stats.states,
                o.stats.transitions, o.stats.seconds,
                o.safety_ok ? "pass" : "FAIL", o.spec_ok ? "pass" : "FAIL");
    if (!o.failure.empty()) std::printf("      %s\n", o.failure.c_str());
  }
  bench::verdict(all_ok, "all six 2-flowlink models pass safety + spec");
  return all_ok ? 0 : 1;
}
