// Wire protocol of the distributed load plane (docs/LOAD.md §Distributed).
//
// One driver commands N worker processes over loopback framed TCP
// (net/framing.hpp raw frames; net/framed_rpc.hpp connections), in the
// daemon/worker RPC shape of Nix remote stores. Frame body = u8 verb +
// verb-specific payload (util/bytes.hpp encoding):
//
//   HELLO     worker → driver   magic, protocol version, rank
//   SPEC      driver → worker   rank, fleet size, shards, progress period,
//                               WorkloadSpec blob + its hash
//   SPEC_ACK  worker → driver   rank + the hash the worker recomputed
//   START     driver → worker   begin executing the assigned slice
//   PROGRESS  worker → driver   rank, tick, merged MetricsSnapshot
//   ROLLUP    worker → driver   rank, hash, wall time, signals, outcomes,
//                               rollup snapshot
//   SHUTDOWN  driver → worker   conversation over, exit cleanly
//   ERROR     either direction  human-readable failure, link is dead
//
// The determinism contract extends PR 5's: the driver sends every worker
// the SAME WorkloadSpec; each worker regenerates the full call set
// (WorkloadGenerator is a pure function), computes the workload-wide fault
// horizon over ALL calls, then executes only the slice id % workers ==
// rank. Rollups merge additively in rank order, so the merged result is
// byte-identical to a single-process run of the same spec at any
// worker × shard split. CallOutcome.shard is placement-dependent and is
// deliberately absent from DistOutcome and the outcome digest.
//
// Every parse here is strict: unknown verbs, truncated payloads, wrong
// magic, and trailing bytes all fail, and failures surface as explicit
// ERROR frames or dropped links — never as a hang (tests/dist_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "obs/snapshot.hpp"
#include "util/bytes.hpp"

namespace cmc::load::dist {

inline constexpr std::uint32_t kMagic = 0x434d4344;  // "CMCD"
// The driver rejects a HELLO of any other version.
inline constexpr std::uint32_t kVersion = 2;

enum class Verb : std::uint8_t {
  hello = 1,
  spec = 2,
  specAck = 3,
  start = 4,
  progress = 5,
  rollup = 6,
  shutdown = 7,
  error = 8,
};

struct Hello {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t rank = 0;
};

// Everything a worker needs to run its slice, and only what varies from
// run to run: the call lifecycle graces are fixed constants of the
// runtime (load/sharded_runtime.hpp), and dist runs set no per-call
// setup deadline, so none of those travel. The workload travels as a
// serialized blob whose FNV-1a hash rides along; the worker recomputes the
// hash over the bytes it received and echoes it in SPEC_ACK, so a
// corrupted-but-parseable spec can never silently split the fleet across
// two different workloads.
struct SpecAssignment {
  WorkloadSpec workload;
  std::uint32_t rank = 0;
  std::uint32_t worker_count = 1;
  std::uint32_t shards = 1;  // per worker
  std::int64_t progress_ms = 0;  // 0 = no PROGRESS stream
  std::uint64_t spec_hash = 0;   // filled by encodeSpec / parseSpec
};

struct SpecAck {
  std::uint32_t rank = 0;
  std::uint64_t spec_hash = 0;
};

struct Progress {
  std::uint32_t rank = 0;
  std::uint64_t tick = 0;
  obs::MetricsSnapshot snapshot;
};

// A CallOutcome minus its placement: `shard` differs across worker × shard
// splits by construction, so it must not enter the cross-process digest.
struct DistOutcome {
  std::uint64_t id = 0;
  bool converged = false;
  bool clean_teardown = false;
  std::int64_t setup_latency_us = -1;
  std::uint64_t faults_injected = 0;
};

struct Rollup {
  std::uint32_t rank = 0;
  std::uint64_t spec_hash = 0;
  double wall_seconds = 0.0;
  std::uint64_t signals_delivered = 0;
  std::vector<DistOutcome> outcomes;   // this worker's slice, id order
  obs::MetricsSnapshot rollup;         // additive: counters + histograms
};

// encode* return a complete frame body (verb byte first), ready for
// FramedConn::sendFrame.
[[nodiscard]] std::vector<std::uint8_t> encodeHello(const Hello& hello);
[[nodiscard]] std::vector<std::uint8_t> encodeSpec(const SpecAssignment& spec);
[[nodiscard]] std::vector<std::uint8_t> encodeSpecAck(const SpecAck& ack);
[[nodiscard]] std::vector<std::uint8_t> encodeStart();
[[nodiscard]] std::vector<std::uint8_t> encodeProgress(const Progress& p);
[[nodiscard]] std::vector<std::uint8_t> encodeRollup(const Rollup& rollup);
[[nodiscard]] std::vector<std::uint8_t> encodeShutdown();
[[nodiscard]] std::vector<std::uint8_t> encodeErrorMsg(
    const std::string& message);

// Verb of a frame body; nullopt for an empty body or a value outside the
// verb table.
[[nodiscard]] std::optional<Verb> peekVerb(
    const std::vector<std::uint8_t>& body);

// parse* take the whole frame body (verb byte included) and return nullopt
// on wrong verb, truncation, bad magic, or trailing bytes. parseSpec
// additionally recomputes the hash of the received workload blob into
// SpecAssignment::spec_hash — callers compare it against what they expect.
[[nodiscard]] std::optional<Hello> parseHello(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<SpecAssignment> parseSpec(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<SpecAck> parseSpecAck(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<Progress> parseProgress(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<Rollup> parseRollup(
    const std::vector<std::uint8_t>& body);
[[nodiscard]] std::optional<std::string> parseErrorMsg(
    const std::vector<std::uint8_t>& body);

// WorkloadSpec wire form (doubles as IEEE-754 bit patterns, durations in
// integer µs) and its canonical hash: FNV-1a over the serialized bytes.
void serializeWorkload(const WorkloadSpec& spec, ByteWriter& out);
[[nodiscard]] std::optional<WorkloadSpec> deserializeWorkload(ByteReader& in);
[[nodiscard]] std::uint64_t workloadHash(const WorkloadSpec& spec);

[[nodiscard]] DistOutcome toDistOutcome(const CallOutcome& outcome);
// FNV-1a over the placement-free fields of every outcome, in the order
// given. Callers sort by id first; then the digest is split-invariant.
[[nodiscard]] std::uint64_t digestOutcomes(
    const std::vector<DistOutcome>& outcomes);

}  // namespace cmc::load::dist
