// DistWorker: one rank of a distributed load run.
//
// A worker dials the driver, introduces itself (HELLO), receives the full
// WorkloadSpec plus its rank, fleet size and shard count (SPEC),
// acknowledges with the spec hash it recomputed (SPEC_ACK), and on START
// regenerates the ENTIRE call set from the spec — WorkloadGenerator is a
// pure function — computes the workload-wide fault horizon over all calls,
// and runs only the slice id % worker_count == rank on a local
// ShardedRuntime. The rollup snapshot, placement-free outcomes, and summary
// stats go back as one ROLLUP frame; SHUTDOWN ends the conversation.
//
// Every read from the driver is one step that expects a verb (SPEC, START,
// SHUTDOWN). A SHUTDOWN in place of SPEC or START means the fleet aborted
// before this rank was needed, and the worker exits cleanly.
//
// Regenerating instead of shipping call lists keeps the SPEC frame O(1) in
// workload size and makes it structurally impossible for the driver to
// hand two workers inconsistent call sets: the only thing that can differ
// is the spec itself, and that is what the hash handshake pins.
//
// The same class backs the cmc_load_worker executable and the in-process
// worker threads of tests/dist_test.cpp — the protocol surface is
// identical either way.
#pragma once

#include <cstdint>
#include <string>

namespace cmc::load::dist {

struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;      // driver's listen port
  std::uint32_t rank = 0;
  // Bounds every read from the driver. Generous by default: while this
  // worker waits for SHUTDOWN the driver is legitimately waiting on the
  // slowest sibling's ROLLUP.
  std::int64_t io_timeout_ms = 120'000;
};

class DistWorker {
 public:
  explicit DistWorker(WorkerConfig config) : config_(std::move(config)) {}

  // Run the whole conversation. Returns 0 after a SHUTDOWN (early or at the
  // end), 1 on any failure (error() says what happened). Failures the worker itself
  // detects — spec-hash mismatch, a shard throwing — are also reported to
  // the driver as an ERROR frame before giving up.
  [[nodiscard]] int run();

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  WorkerConfig config_;
  std::string error_;
};

}  // namespace cmc::load::dist
