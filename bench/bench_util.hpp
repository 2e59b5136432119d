// Shared table-printing helpers for the experiment benches. Every bench
// regenerates one evaluation claim of the paper and prints paper-vs-measured
// rows; EXPERIMENTS.md records the outputs. Machine-readable payloads
// (explorer stats, metrics dumps, convergence histograms) all go through
// jsonLine() so harnesses can scrape one uniform "  TAG {json}" shape.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace cmc::bench {

inline void banner(const std::string& experiment, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void row(const std::string& label, double paper, double measured,
                const std::string& unit) {
  std::printf("  %-44s paper=%10.1f %-4s  measured=%10.1f %-4s  ratio=%5.2f\n",
              label.c_str(), paper, unit.c_str(), measured, unit.c_str(),
              paper > 0 ? measured / paper : 0.0);
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

inline void verdict(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "OK " : "FAIL", what.c_str());
}

// Every jsonLine() payload is also appended as one {"tag":...,"data":...}
// JSONL record to CMC_BENCH_RESULTS (default "bench_results.json" in the
// working directory — build/ when the benches run from there, which is the
// file CI uploads as an artifact). Set CMC_BENCH_RESULTS="" to disable.
inline void appendResult(const std::string& tag, const std::string& json) {
  static FILE* out = []() -> FILE* {
    const char* path = std::getenv("CMC_BENCH_RESULTS");
    if (path != nullptr && *path == '\0') return nullptr;
    return std::fopen(path != nullptr ? path : "bench_results.json", "a");
  }();
  if (out == nullptr) return;
  std::fprintf(out, "{\"tag\":\"%s\",\"data\":%s}\n", tag.c_str(), json.c_str());
  std::fflush(out);
}

// One machine-readable line: two-space indent, TAG, one JSON object.
inline void jsonLine(const std::string& tag, const std::string& json) {
  std::printf("  %s %s\n", tag.c_str(), json.c_str());
  appendResult(tag, json);
}

}  // namespace cmc::bench
