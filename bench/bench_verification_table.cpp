// Experiment E1 (paper Section VIII-A): the 12-model verification table.
//
// The paper model-checked 12 signaling paths — the six path types with no
// flowlink and the same six with one flowlink — against a safety property
// and their Section V temporal specifications, starting from chaotic
// initial phases. This bench re-runs that campaign with our explicit-state
// checker over the real C++ goal objects and prints one row per model.
//
// Absolute state counts differ from the paper's Spin runs (different
// modeling granularity, descriptor domains, machine); what must reproduce
// is: every model passes both checks, and one flowlink inflates the state
// space by orders of magnitude (see bench_statespace_growth).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "mc/verification.hpp"

namespace {

using namespace cmc;

// One table row, its counterexample if any, and the run's EXPLORE_STATS
// line tagged with the bench and model label (`suffix` marks the column).
void printRow(const VerificationCase& config, const VerificationOutcome& o,
              const char* suffix) {
  const std::string left(toString(config.left));
  const std::string right(toString(config.right));
  std::printf("  %-10s %-10s %-6zu %-34s %10zu %12zu %9.1f %8.2f %7s %6s\n",
              left.c_str(), right.c_str(), config.flowlinks,
              std::string(toString(o.spec)).c_str(), o.stats.states,
              o.stats.transitions,
              static_cast<double>(o.stats.bytes_retained) / (1024.0 * 1024.0),
              o.stats.seconds, o.safety_ok ? "pass" : "FAIL",
              o.spec_ok ? "pass" : "FAIL");
  if (!o.failure.empty()) {
    std::printf("      counterexample: %s\n", o.failure.c_str());
  }
  const std::string label = left + "/" + right + "/" +
                            std::to_string(config.flowlinks) + suffix;
  bench::jsonLine("EXPLORE_STATS[verification_table:" + label + "]",
                  o.stats.snapshot().json());
}

}  // namespace

int main() {
  bench::banner(
      "E1: verification of the 12 path models (Section VIII-A)",
      "all six path types, with 0 and 1 flowlinks, satisfy safety and "
      "their <>[] / []<> specifications from every chaotic initial state");

  ExploreLimits limits;
  limits.chaos_budget = 1;   // chaotic prefix actions per goal object
  limits.modify_budget = 1;  // user mute perturbations after attach
  limits.max_states = 4'000'000;
  // Verdicts and counts are thread-count invariant, so use every core.
  limits.threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("  explorer threads: %zu\n", limits.threads);

  std::printf(
      "  %-10s %-10s %-6s %-34s %10s %12s %9s %8s %7s %6s\n", "left", "right",
      "links", "specification", "states", "transitions", "MB(canon)", "time(s)",
      "safety", "spec");

  bool all_ok = true;
  for (const auto& config : paperVerificationSuite()) {
    const VerificationOutcome o = verifyPath(config, limits);
    all_ok = all_ok && o.ok();
    printRow(config, o, "");
  }
  bench::verdict(all_ok,
                 "all 12 models pass safety + specification (paper: same)");

  // Faulty column (docs/FAULTS.md): the same 12 models re-verified with an
  // adversarial message-fault budget — the scheduler may drop or duplicate
  // two in-flight signals anywhere along the path, and the parties run in
  // stabilization mode. Because the remaining budget is part of the
  // canonical state, every cycle the temporal checks examine is fault-free:
  // a pass means "after injection ceases, the path self-stabilizes to its
  // Section V specification". Chaos/modify budgets are zeroed so the column
  // isolates the fault dimension.
  std::printf("\n  faulty column: fault_budget=2, chaos=0, modify=0\n");
  ExploreLimits faulty;
  faulty.chaos_budget = 0;
  faulty.modify_budget = 0;
  faulty.fault_budget = 2;
  faulty.max_states = 4'000'000;
  faulty.threads = limits.threads;

  bool faulty_ok = true;
  for (const auto& config : paperVerificationSuite()) {
    const VerificationOutcome o = verifyPath(config, faulty);
    faulty_ok = faulty_ok && o.ok();
    printRow(config, o, "/faulty");
  }
  bench::verdict(faulty_ok,
                 "all 12 models self-stabilize under a 2-fault budget");
  return (all_ok && faulty_ok) ? 0 : 1;
}
