#include "load/dist/worker.hpp"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "load/dist/protocol.hpp"
#include "load/sharded_runtime.hpp"
#include "net/framed_rpc.hpp"

namespace cmc::load::dist {

namespace {

std::string describeRead(net::FramedConn::ReadStatus status) {
  switch (status) {
    case net::FramedConn::ReadStatus::timeout:
      return "timed out waiting for driver";
    case net::FramedConn::ReadStatus::poisoned:
      return "driver stream lost framing sync";
    default:
      return "driver closed the connection";
  }
}

// The worker's one read step: the driver's next frame if it is `want`.
// Otherwise the conversation is over — nullopt, with `error` left empty
// when the driver sent SHUTDOWN early (the fleet aborted before this rank
// was needed), or saying what went wrong.
std::optional<std::vector<std::uint8_t>> expect(net::FramedConn& conn,
                                                Verb want, const char* name,
                                                std::string& error) {
  auto frame = conn.readFrame();
  if (!frame) {
    error = describeRead(conn.lastRead()) + " (awaiting " + name + ")";
    return std::nullopt;
  }
  const auto verb = peekVerb(*frame);
  if (verb == want) return frame;
  if (verb == Verb::error) {
    auto message = parseErrorMsg(*frame);
    error = "driver reported: " +
            (message ? *message : std::string("unparseable error"));
  } else if (verb != Verb::shutdown) {
    error = std::string("expected ") + name;
  }
  return std::nullopt;
}

}  // namespace

int DistWorker::run() {
  auto conn =
      net::FramedConn::connect(config_.host, config_.port, config_.io_timeout_ms);
  if (!conn) {
    error_ = "could not connect to driver at " + config_.host + ":" +
             std::to_string(config_.port);
    return 1;
  }
  auto fail = [this](std::string why) {
    error_ = std::move(why);
    return 1;
  };
  auto over = [this]() { return error_.empty() ? 0 : 1; };

  if (!conn->sendFrame(encodeHello(Hello{kMagic, kVersion, config_.rank}))) {
    return fail("could not send HELLO");
  }

  auto frame = expect(*conn, Verb::spec, "SPEC", error_);
  if (!frame) return over();
  auto spec = parseSpec(*frame);
  if (!spec) return fail("malformed SPEC frame");
  if (spec->rank != config_.rank) {
    conn->sendFrame(encodeErrorMsg("SPEC addressed to wrong rank"));
    return fail("SPEC addressed to rank " + std::to_string(spec->rank));
  }
  // Echo the hash recomputed over the received blob bytes. A spec that was
  // corrupted in a parseable way diverges here, and the driver aborts the
  // fleet instead of merging rollups of two different workloads.
  const std::uint64_t local_hash = workloadHash(spec->workload);
  if (local_hash != spec->spec_hash) {
    conn->sendFrame(encodeErrorMsg("spec hash mismatch at rank " +
                                   std::to_string(config_.rank)));
    return fail("spec hash mismatch");
  }
  if (!conn->sendFrame(encodeSpecAck(SpecAck{config_.rank, local_hash}))) {
    return fail("could not send SPEC_ACK");
  }

  if (!expect(*conn, Verb::start, "START", error_)) return over();

  // The full call set and ITS horizon — then our slice of it. See header.
  const std::vector<CallSpec> all_calls =
      WorkloadGenerator(spec->workload).generate();
  const SimTime horizon = faultHorizon(all_calls, spec->workload);
  std::vector<CallSpec> slice;
  slice.reserve(all_calls.size() / spec->worker_count + 1);
  for (const CallSpec& call : all_calls) {
    if (call.id % spec->worker_count == config_.rank) slice.push_back(call);
  }

  LoadConfig load;
  load.shards = spec->shards;
  ShardedRuntime* runtime_ptr = nullptr;  // bound before run() starts ticking
  if (spec->progress_ms > 0) {
    load.sample_ms = spec->progress_ms;
    // Streamed from the sampler thread while run() blocks below; sends are
    // serialized by FramedConn, so PROGRESS frames cannot tear the ROLLUP.
    load.on_sample = [this, &conn, &runtime_ptr](const TelemetryTick& tick) {
      if (runtime_ptr == nullptr || runtime_ptr->telemetry() == nullptr) return;
      Progress p;
      p.rank = config_.rank;
      p.tick = tick.index;
      // latestMerged() sees the snapshot this tick just pushed.
      p.snapshot = runtime_ptr->telemetry()->latestMerged();
      conn->sendFrame(encodeProgress(p));
    };
  }
  auto runtime = std::make_unique<ShardedRuntime>(load);
  runtime_ptr = runtime.get();
  try {
    runtime->run(slice, spec->workload, horizon);
  } catch (const std::exception& e) {
    conn->sendFrame(encodeErrorMsg("rank " + std::to_string(config_.rank) +
                                   " failed: " + e.what()));
    return fail(std::string("run failed: ") + e.what());
  }

  Rollup rollup;
  rollup.rank = config_.rank;
  rollup.spec_hash = local_hash;
  rollup.wall_seconds = runtime->wallSeconds();
  rollup.signals_delivered = runtime->signalsDelivered();
  rollup.outcomes.reserve(runtime->outcomes().size());
  for (const CallOutcome& outcome : runtime->outcomes()) {
    rollup.outcomes.push_back(toDistOutcome(outcome));
  }
  rollup.rollup = runtime->metrics();
  if (!conn->sendFrame(encodeRollup(rollup))) {
    return fail("could not send ROLLUP");
  }

  return expect(*conn, Verb::shutdown, "SHUTDOWN", error_) ? 0 : 1;
}

}  // namespace cmc::load::dist
