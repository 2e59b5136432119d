#include "load/dist/protocol.hpp"

#include <bit>

namespace cmc::load::dist {

namespace {

void writeF64(ByteWriter& out, double v) {
  out.u64(std::bit_cast<std::uint64_t>(v));
}

double readF64(ByteReader& in) {
  return std::bit_cast<double>(in.u64());
}

void writeI64(ByteWriter& out, std::int64_t v) {
  out.u64(static_cast<std::uint64_t>(v));
}

std::int64_t readI64(ByteReader& in) {
  return static_cast<std::int64_t>(in.u64());
}

// Strip and check the verb byte; returns a reader over the payload only
// when the verb matches.
std::optional<ByteReader> payloadReader(const std::vector<std::uint8_t>& body,
                                        Verb expected) {
  if (body.empty() || body[0] != static_cast<std::uint8_t>(expected)) {
    return std::nullopt;
  }
  return ByteReader(body.data() + 1, body.size() - 1);
}

}  // namespace

std::vector<std::uint8_t> encodeHello(const Hello& hello) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(Verb::hello));
  out.u32(hello.magic);
  out.u32(hello.version);
  out.u32(hello.rank);
  return out.take();
}

std::optional<Hello> parseHello(const std::vector<std::uint8_t>& body) {
  auto in = payloadReader(body, Verb::hello);
  if (!in) return std::nullopt;
  Hello hello;
  hello.magic = in->u32();
  hello.version = in->u32();
  hello.rank = in->u32();
  if (!in->ok() || !in->atEnd() || hello.magic != kMagic) return std::nullopt;
  return hello;
}

std::vector<std::uint8_t> encodeSpec(const SpecAssignment& spec) {
  ByteWriter blob;
  serializeWorkload(spec.workload, blob);
  const std::uint64_t hash = fnv1a(blob.bytes());
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(Verb::spec));
  out.u32(spec.rank);
  out.u32(spec.worker_count);
  out.u32(spec.shards);
  writeI64(out, spec.progress_ms);
  out.u32(static_cast<std::uint32_t>(blob.size()));
  for (std::uint8_t b : blob.bytes()) out.u8(b);
  out.u64(hash);
  return out.take();
}

std::optional<SpecAssignment> parseSpec(const std::vector<std::uint8_t>& body) {
  auto in = payloadReader(body, Verb::spec);
  if (!in) return std::nullopt;
  SpecAssignment spec;
  spec.rank = in->u32();
  spec.worker_count = in->u32();
  spec.shards = in->u32();
  spec.progress_ms = readI64(*in);
  const std::uint32_t blob_len = in->u32();
  if (!in->ok() || in->remaining() < blob_len) return std::nullopt;
  // Hash the blob bytes as they arrived — this is the integrity check the
  // worker echoes back, independent of whether the blob also parses.
  const std::size_t blob_off = body.size() - in->remaining();
  spec.spec_hash = fnv1a(body.data() + blob_off, blob_len);
  ByteReader blob(body.data() + blob_off, blob_len);
  auto workload = deserializeWorkload(blob);
  if (!workload || !blob.atEnd()) return std::nullopt;
  spec.workload = std::move(*workload);
  for (std::uint32_t i = 0; i < blob_len; ++i) (void)in->u8();
  (void)in->u64();  // sender's hash; trusted ends compare via SPEC_ACK
  if (!in->ok() || !in->atEnd() || spec.worker_count == 0 || spec.shards == 0 ||
      spec.rank >= spec.worker_count) {
    return std::nullopt;
  }
  return spec;
}

std::vector<std::uint8_t> encodeSpecAck(const SpecAck& ack) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(Verb::specAck));
  out.u32(ack.rank);
  out.u64(ack.spec_hash);
  return out.take();
}

std::optional<SpecAck> parseSpecAck(const std::vector<std::uint8_t>& body) {
  auto in = payloadReader(body, Verb::specAck);
  if (!in) return std::nullopt;
  SpecAck ack;
  ack.rank = in->u32();
  ack.spec_hash = in->u64();
  if (!in->ok() || !in->atEnd()) return std::nullopt;
  return ack;
}

std::vector<std::uint8_t> encodeStart() {
  return {static_cast<std::uint8_t>(Verb::start)};
}

std::vector<std::uint8_t> encodeProgress(const Progress& p) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(Verb::progress));
  out.u32(p.rank);
  out.u64(p.tick);
  obs::serializeSnapshot(p.snapshot, out);
  return out.take();
}

std::optional<Progress> parseProgress(const std::vector<std::uint8_t>& body) {
  auto in = payloadReader(body, Verb::progress);
  if (!in) return std::nullopt;
  Progress p;
  p.rank = in->u32();
  p.tick = in->u64();
  auto snapshot = obs::deserializeSnapshot(*in);
  if (!snapshot || !in->ok() || !in->atEnd()) return std::nullopt;
  p.snapshot = std::move(*snapshot);
  return p;
}

std::vector<std::uint8_t> encodeRollup(const Rollup& rollup) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(Verb::rollup));
  out.u32(rollup.rank);
  out.u64(rollup.spec_hash);
  writeF64(out, rollup.wall_seconds);
  out.u64(rollup.signals_delivered);
  out.u32(static_cast<std::uint32_t>(rollup.outcomes.size()));
  for (const DistOutcome& o : rollup.outcomes) {
    out.u64(o.id);
    out.boolean(o.converged);
    out.boolean(o.clean_teardown);
    writeI64(out, o.setup_latency_us);
    out.u64(o.faults_injected);
  }
  obs::serializeSnapshot(rollup.rollup, out);
  return out.take();
}

std::optional<Rollup> parseRollup(const std::vector<std::uint8_t>& body) {
  auto in = payloadReader(body, Verb::rollup);
  if (!in) return std::nullopt;
  Rollup rollup;
  rollup.rank = in->u32();
  rollup.spec_hash = in->u64();
  rollup.wall_seconds = readF64(*in);
  rollup.signals_delivered = in->u64();
  const std::uint32_t n = in->u32();
  if (!in->ok()) return std::nullopt;
  rollup.outcomes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DistOutcome o;
    o.id = in->u64();
    o.converged = in->boolean();
    o.clean_teardown = in->boolean();
    o.setup_latency_us = readI64(*in);
    o.faults_injected = in->u64();
    if (!in->ok()) return std::nullopt;
    rollup.outcomes.push_back(o);
  }
  auto snapshot = obs::deserializeSnapshot(*in);
  if (!snapshot || !in->ok() || !in->atEnd()) return std::nullopt;
  rollup.rollup = std::move(*snapshot);
  return rollup;
}

std::vector<std::uint8_t> encodeShutdown() {
  return {static_cast<std::uint8_t>(Verb::shutdown)};
}

std::vector<std::uint8_t> encodeErrorMsg(const std::string& message) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(Verb::error));
  out.str(message);
  return out.take();
}

std::optional<std::string> parseErrorMsg(
    const std::vector<std::uint8_t>& body) {
  auto in = payloadReader(body, Verb::error);
  if (!in) return std::nullopt;
  std::string message = in->str();
  if (!in->ok() || !in->atEnd()) return std::nullopt;
  return message;
}

std::optional<Verb> peekVerb(const std::vector<std::uint8_t>& body) {
  if (body.empty()) return std::nullopt;
  const std::uint8_t v = body[0];
  if (v < static_cast<std::uint8_t>(Verb::hello) ||
      v > static_cast<std::uint8_t>(Verb::error)) {
    return std::nullopt;
  }
  return static_cast<Verb>(v);
}

void serializeWorkload(const WorkloadSpec& spec, ByteWriter& out) {
  out.u64(spec.master_seed);
  out.u64(static_cast<std::uint64_t>(spec.calls));
  writeF64(out, spec.arrivals_per_s);
  writeI64(out, spec.hold_min.count());
  writeI64(out, spec.hold_max.count());
  writeF64(out, spec.flowlink_fraction);
  writeF64(out, spec.fault_fraction);
  writeF64(out, spec.fault_spec.drop_rate);
  writeF64(out, spec.fault_spec.duplicate_rate);
  writeF64(out, spec.fault_spec.reorder_rate);
  writeI64(out, spec.fault_spec.reorder_window.count());
  writeI64(out, spec.fault_spec.active_for.count());
  writeI64(out, spec.fault_spec.refresh_interval.count());
}

std::optional<WorkloadSpec> deserializeWorkload(ByteReader& in) {
  WorkloadSpec spec;
  spec.master_seed = in.u64();
  spec.calls = static_cast<std::size_t>(in.u64());
  spec.arrivals_per_s = readF64(in);
  spec.hold_min = SimDuration{readI64(in)};
  spec.hold_max = SimDuration{readI64(in)};
  spec.flowlink_fraction = readF64(in);
  spec.fault_fraction = readF64(in);
  spec.fault_spec.drop_rate = readF64(in);
  spec.fault_spec.duplicate_rate = readF64(in);
  spec.fault_spec.reorder_rate = readF64(in);
  spec.fault_spec.reorder_window = SimDuration{readI64(in)};
  spec.fault_spec.active_for = SimDuration{readI64(in)};
  spec.fault_spec.refresh_interval = SimDuration{readI64(in)};
  if (!in.ok()) return std::nullopt;
  return spec;
}

std::uint64_t workloadHash(const WorkloadSpec& spec) {
  ByteWriter out;
  serializeWorkload(spec, out);
  return fnv1a(out.bytes());
}

DistOutcome toDistOutcome(const CallOutcome& outcome) {
  DistOutcome o;
  o.id = outcome.spec.id;
  o.converged = outcome.converged;
  o.clean_teardown = outcome.clean_teardown;
  o.setup_latency_us = outcome.setup_latency_us;
  o.faults_injected = outcome.faults_injected;
  return o;
}

std::uint64_t digestOutcomes(const std::vector<DistOutcome>& outcomes) {
  ByteWriter out;
  for (const DistOutcome& o : outcomes) {
    out.u64(o.id);
    out.boolean(o.converged);
    out.boolean(o.clean_teardown);
    writeI64(out, o.setup_latency_us);
    out.u64(o.faults_injected);
  }
  return fnv1a(out.bytes());
}

}  // namespace cmc::load::dist
