// Distributed load plane tests (src/load/dist/): the cross-process
// equivalence battery — 1×8 ≡ 2×4 ≡ 4×2 worker×shard splits produce
// byte-identical merged rollups and outcome digests, clean and under
// seeded faults — plus the protocol-abuse and failure-path suite: every
// malformed frame, hostile length, version mismatch, duplicate rank, and
// mid-run worker death must end in a fast, attributed failure, never a
// hang. Wire-format strictness (snapshot and workload round-trips,
// malformed-payload rejection) is covered here too, since the equivalence
// guarantee is only as strong as the codec underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "load/dist/driver.hpp"
#include "load/dist/protocol.hpp"
#include "load/dist/worker.hpp"
#include "load/sharded_runtime.hpp"
#include "net/framed_rpc.hpp"
#include "net/framing.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "util/bytes.hpp"

namespace cmc::load {
namespace {

using Clock = std::chrono::steady_clock;

WorkloadSpec smallWorkload(std::uint64_t seed, double fault_fraction = 0.0) {
  WorkloadSpec workload;
  workload.master_seed = seed;
  workload.calls = 48;
  workload.arrivals_per_s = 120.0;
  workload.flowlink_fraction = 0.5;
  workload.fault_fraction = fault_fraction;
  return workload;
}

struct LocalRun {
  std::string rollup_json;
  std::uint64_t digest = 0;
  std::size_t converged = 0;
  std::size_t clean = 0;
};

// Single-process reference at 8 shards; by the PR 5 contract its rollup is
// what ANY shard count — and so any worker × shard split — must reproduce.
LocalRun runLocal(const WorkloadSpec& workload) {
  LoadConfig config;
  config.shards = 8;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  LocalRun out;
  out.rollup_json = runtime.metricsJson();
  std::vector<dist::DistOutcome> outcomes;
  outcomes.reserve(runtime.outcomes().size());
  for (const CallOutcome& outcome : runtime.outcomes()) {
    outcomes.push_back(dist::toDistOutcome(outcome));
  }
  out.digest = dist::digestOutcomes(outcomes);
  out.converged = runtime.convergedCount();
  out.clean = runtime.cleanTeardownCount();
  return out;
}

// Drive a full distributed run with in-process DistWorker threads speaking
// the real TCP protocol against the driver's ephemeral port.
dist::DistResult runDistributed(const WorkloadSpec& workload,
                                std::size_t workers, std::size_t shards,
                                dist::DriverConfig cfg = {}) {
  cfg.workers = workers;
  cfg.shards = shards;
  dist::DistDriver driver(std::move(cfg));
  EXPECT_TRUE(driver.ok());
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t rank = 0; rank < workers; ++rank) {
    threads.emplace_back([port = driver.port(), rank]() {
      dist::WorkerConfig wc;
      wc.port = port;
      wc.rank = static_cast<std::uint32_t>(rank);
      dist::DistWorker worker(wc);
      EXPECT_EQ(worker.run(), 0) << "rank " << rank << ": " << worker.error();
    });
  }
  dist::DistResult result = driver.run(workload);
  for (std::thread& t : threads) t.join();
  return result;
}

void expectMatchesLocal(const dist::DistResult& result, const LocalRun& local) {
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.rollup_json, local.rollup_json);
  EXPECT_EQ(result.outcome_digest, local.digest);
  EXPECT_EQ(result.converged, local.converged);
  EXPECT_EQ(result.clean_teardowns, local.clean);
}

// ------------------------------------------------------- snapshot wire form

obs::MetricsSnapshot sampleSnapshot() {
  obs::MetricsRegistry reg;
  reg.counter("load.calls").add(7);
  reg.counter("load.converged").add(6);
  reg.gauge("depth").set(9);
  reg.gauge("depth").set(3);
  reg.histogram("load.call_setup_us").observe(120);
  reg.histogram("load.call_setup_us").observe(340'000);
  return obs::MetricsSnapshot::capture(reg, /*wall_ms=*/17);
}

TEST(SnapshotWire, RoundTripReserializesByteIdentical) {
  const obs::MetricsSnapshot snapshot = sampleSnapshot();
  ByteWriter first;
  obs::serializeSnapshot(snapshot, first);
  ByteReader reader(first.bytes());
  auto parsed = obs::deserializeSnapshot(reader);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(reader.atEnd());
  EXPECT_EQ(parsed->wall_ms, 17);
  EXPECT_EQ(parsed->counter("load.calls"), 7u);
  EXPECT_EQ(parsed->gauges.at("depth").value, 3);
  EXPECT_EQ(parsed->gauges.at("depth").max, 9);
  ASSERT_NE(parsed->histogram("load.call_setup_us"), nullptr);
  EXPECT_EQ(parsed->histogram("load.call_setup_us")->count, 2u);
  // Canonical encoding: parse → re-serialize reproduces the bytes.
  ByteWriter second;
  obs::serializeSnapshot(*parsed, second);
  EXPECT_EQ(first.bytes(), second.bytes());
  // And the JSON view (the CI byte-compare surface) survives the trip.
  EXPECT_EQ(parsed->json(), snapshot.json());
}

TEST(SnapshotWire, TruncationAnywhereIsRejected) {
  const obs::MetricsSnapshot snapshot = sampleSnapshot();
  ByteWriter out;
  obs::serializeSnapshot(snapshot, out);
  const std::vector<std::uint8_t>& wire = out.bytes();
  // Every proper prefix must fail — this sweeps truncations inside the
  // histogram bucket array as well as mid-name and mid-header cuts.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    ByteReader reader(wire.data(), len);
    EXPECT_FALSE(obs::deserializeSnapshot(reader).has_value())
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(SnapshotWire, NameCollisionsAndDisorderAreRejected) {
  auto counters = [](std::initializer_list<const char*> names) {
    ByteWriter out;
    out.u64(0);  // wall_ms
    out.u32(static_cast<std::uint32_t>(names.size()));
    for (const char* name : names) {
      out.str(name);
      out.u64(1);
    }
    out.u32(0);  // gauges
    out.u32(0);  // histograms
    return out;
  };
  ByteWriter dup = counters({"load.calls", "load.calls"});
  ByteReader dup_reader(dup.bytes());
  EXPECT_FALSE(obs::deserializeSnapshot(dup_reader).has_value());

  ByteWriter unsorted = counters({"b.second", "a.first"});
  ByteReader unsorted_reader(unsorted.bytes());
  EXPECT_FALSE(obs::deserializeSnapshot(unsorted_reader).has_value());

  ByteWriter sorted = counters({"a.first", "b.second"});
  ByteReader sorted_reader(sorted.bytes());
  EXPECT_TRUE(obs::deserializeSnapshot(sorted_reader).has_value());
}

TEST(SnapshotWire, WrongBucketCountIsRejected) {
  ByteWriter out;
  out.u64(0);
  out.u32(0);  // counters
  out.u32(0);  // gauges
  out.u32(1);  // one histogram...
  out.str("h");
  out.u64(1);                             // count
  out.u64(64);                            // sum
  out.u64(64);                            // min
  out.u64(64);                            // max
  out.u32(obs::Histogram::kBuckets - 1);  // ...declaring too few buckets
  for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) out.u64(0);
  ByteReader reader(out.bytes());
  EXPECT_FALSE(obs::deserializeSnapshot(reader).has_value());
}

TEST(SnapshotWire, HostileNamesStayValidJson) {
  // A worker's ROLLUP or PROGRESS frame may carry any name bytes; the JSON
  // view must escape them rather than splice them into the document.
  ByteWriter out;
  out.u64(0);  // wall_ms
  out.u32(1);  // one counter...
  out.str("evil\"name\\\x01");
  out.u64(1);
  out.u32(0);  // gauges
  out.u32(0);  // histograms
  ByteReader reader(out.bytes());
  auto parsed = obs::deserializeSnapshot(reader);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->json(),
            "{\"counters\":{\"evil\\\"name\\\\\\u0001\":1},"
            "\"gauges\":{},\"histograms\":{}}");
}

// ---------------------------------------------------------- workload + verbs

TEST(DistCodec, WorkloadRoundTripsAndHashPinsEveryField) {
  WorkloadSpec spec = smallWorkload(99, 0.25);
  spec.fault_spec.drop_rate = 0.33;
  ByteWriter out;
  dist::serializeWorkload(spec, out);
  ByteReader in(out.bytes());
  auto parsed = dist::deserializeWorkload(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(in.atEnd());
  EXPECT_EQ(parsed->master_seed, spec.master_seed);
  EXPECT_EQ(parsed->calls, spec.calls);
  EXPECT_EQ(parsed->arrivals_per_s, spec.arrivals_per_s);
  EXPECT_EQ(parsed->fault_fraction, spec.fault_fraction);
  EXPECT_EQ(parsed->fault_spec.drop_rate, spec.fault_spec.drop_rate);
  EXPECT_EQ(dist::workloadHash(*parsed), dist::workloadHash(spec));

  WorkloadSpec tweaked = spec;
  tweaked.fault_spec.refresh_interval = SimDuration{1};
  EXPECT_NE(dist::workloadHash(tweaked), dist::workloadHash(spec));
}

TEST(DistCodec, HelloRejectsBadMagicAndTrailingBytes) {
  const dist::Hello hello{dist::kMagic, dist::kVersion, 3};
  auto body = dist::encodeHello(hello);
  auto parsed = dist::parseHello(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rank, 3u);

  auto bad_magic = body;
  bad_magic[1] ^= 0xFF;
  EXPECT_FALSE(dist::parseHello(bad_magic).has_value());

  auto trailing = body;
  trailing.push_back(0);
  EXPECT_FALSE(dist::parseHello(trailing).has_value());

  EXPECT_FALSE(dist::peekVerb({}).has_value());
  EXPECT_FALSE(dist::peekVerb({0x7F}).has_value());
}

TEST(DistCodec, SpecRoundTripCarriesShapeAndRecomputedHash) {
  dist::SpecAssignment spec;
  spec.workload = smallWorkload(5, 0.1);
  spec.rank = 1;
  spec.worker_count = 4;
  spec.shards = 2;
  spec.progress_ms = 25;
  const auto body = dist::encodeSpec(spec);
  auto parsed = dist::parseSpec(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rank, 1u);
  EXPECT_EQ(parsed->worker_count, 4u);
  EXPECT_EQ(parsed->shards, 2u);
  EXPECT_EQ(parsed->progress_ms, 25);
  EXPECT_EQ(parsed->spec_hash, dist::workloadHash(spec.workload));
  EXPECT_EQ(parsed->workload.master_seed, 5u);

  auto truncated = body;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(dist::parseSpec(truncated).has_value());
}

// ------------------------------------------------------- equivalence battery

TEST(DistEquivalence, OneWorkerTimesEightShardsMatchesSingleProcess) {
  const WorkloadSpec workload = smallWorkload(21);
  expectMatchesLocal(runDistributed(workload, 1, 8), runLocal(workload));
}

TEST(DistEquivalence, TwoWorkersTimesFourShardsMatchesSingleProcess) {
  const WorkloadSpec workload = smallWorkload(21);
  const dist::DistResult result = runDistributed(workload, 2, 4);
  expectMatchesLocal(result, runLocal(workload));
  ASSERT_EQ(result.workers.size(), 2u);
  for (const dist::WorkerReport& report : result.workers) {
    EXPECT_TRUE(report.rolled_up);
    EXPECT_TRUE(report.error.empty()) << report.error;
  }
}

TEST(DistEquivalence, FourWorkersTimesTwoShardsMatchesSingleProcess) {
  const WorkloadSpec workload = smallWorkload(21);
  expectMatchesLocal(runDistributed(workload, 4, 2), runLocal(workload));
}

TEST(DistEquivalence, HoldsUnderSeededFaults) {
  const WorkloadSpec workload = smallWorkload(77, 0.3);
  const LocalRun local = runLocal(workload);
  expectMatchesLocal(runDistributed(workload, 2, 4), local);
  expectMatchesLocal(runDistributed(workload, 4, 2), local);
}

TEST(DistEquivalence, ProgressStreamIsReadOnlyForTheRollup) {
  const WorkloadSpec workload = smallWorkload(21);
  std::atomic<std::uint64_t> progress_frames{0};
  dist::DriverConfig cfg;
  cfg.progress_ms = 1;
  cfg.on_progress = [&progress_frames](const dist::Progress& p) {
    EXPECT_LT(p.rank, 2u);
    ++progress_frames;
  };
  const dist::DistResult result = runDistributed(workload, 2, 4, cfg);
  // Streaming PROGRESS every millisecond must not perturb the rollup —
  // the sampler is read-only, exactly as in the single-process contract.
  expectMatchesLocal(result, runLocal(workload));
  EXPECT_GE(progress_frames.load(), 1u);
  ASSERT_EQ(result.workers.size(), 2u);
  EXPECT_EQ(progress_frames.load(), result.workers[0].progress_frames +
                                        result.workers[1].progress_frames);
}

TEST(DistEquivalence, SpawnedSubprocessWorkersMatchSingleProcess) {
  const std::string binary = dist::findWorkerBinary();
  if (binary.empty()) {
    GTEST_SKIP() << "cmc_load_worker binary not found next to the test";
  }
  const WorkloadSpec workload = smallWorkload(33, 0.2);
  dist::DriverConfig cfg;
  cfg.workers = 3;
  cfg.shards = 2;
  cfg.worker_binary = binary;
  dist::DistDriver driver(std::move(cfg));
  ASSERT_TRUE(driver.ok());
  expectMatchesLocal(driver.run(workload), runLocal(workload));
}

// --------------------------------------------- failure paths + protocol abuse

// A driver running in a background thread, so the test thread can speak
// raw (mis)framed protocol at its port.
struct DriverHarness {
  explicit DriverHarness(dist::DriverConfig cfg) : driver(std::move(cfg)) {
    EXPECT_TRUE(driver.ok());
  }
  void start(const WorkloadSpec& workload) {
    thread = std::thread([this, workload]() { result = driver.run(workload); });
  }
  dist::DistResult finish() {
    thread.join();
    return result;
  }
  dist::DistDriver driver;
  std::thread thread;
  dist::DistResult result;
};

std::unique_ptr<net::FramedConn> connectTo(const DriverHarness& harness) {
  auto conn = net::FramedConn::connect("127.0.0.1", harness.driver.port());
  EXPECT_NE(conn, nullptr);
  return conn;
}

std::thread realWorker(const DriverHarness& harness, std::uint32_t rank,
                       int expected_rc = 0) {
  return std::thread([port = harness.driver.port(), rank, expected_rc]() {
    dist::WorkerConfig wc;
    wc.port = port;
    wc.rank = rank;
    dist::DistWorker worker(wc);
    const int rc = worker.run();
    if (expected_rc >= 0) {
      EXPECT_EQ(rc, expected_rc) << "rank " << rank << ": " << worker.error();
    }
  });
}

TEST(DistFailure, WorkerThatNeverHellosFailsTheRunFast) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  cfg.hello_timeout_ms = 400;
  DriverHarness harness(std::move(cfg));
  auto mute = connectTo(harness);  // connects, then says nothing
  const auto started = Clock::now();
  harness.start(smallWorkload(3));
  const dist::DistResult result = harness.finish();
  const auto elapsed = Clock::now() - started;
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("HELLO"), std::string::npos) << result.error;
  ASSERT_EQ(result.workers.size(), 1u);
  EXPECT_FALSE(result.workers[0].connected);
  EXPECT_EQ(result.workers[0].error, "never sent HELLO");
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "failure was not fast";
}

TEST(DistFailure, VersionMismatchIsRejectedWithoutPoisoningTheRun) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto old_client = connectTo(harness);
  ASSERT_NE(old_client, nullptr);
  old_client->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion + 41, 0}));
  auto frame = old_client->readFrame();
  ASSERT_TRUE(frame.has_value());
  auto message = dist::parseErrorMsg(*frame);
  ASSERT_TRUE(message.has_value());
  EXPECT_NE(message->find("version"), std::string::npos) << *message;

  // The listener and the rank table survived: a correct worker completes.
  std::thread worker = realWorker(harness, 0);
  const dist::DistResult result = harness.finish();
  worker.join();
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(DistFailure, DuplicateHelloIsRejectedAndDyingClaimantIsAttributed) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  cfg.ack_timeout_ms = 2'000;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto claimant = connectTo(harness);
  ASSERT_NE(claimant, nullptr);
  claimant->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 0}));
  // Receiving SPEC proves rank 0 is claimed before the imposter speaks.
  auto spec_frame = claimant->readFrame();
  ASSERT_TRUE(spec_frame.has_value());
  EXPECT_EQ(dist::peekVerb(*spec_frame), dist::Verb::spec);

  auto imposter = connectTo(harness);
  ASSERT_NE(imposter, nullptr);
  imposter->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 0}));
  auto rejection = imposter->readFrame();
  ASSERT_TRUE(rejection.has_value());
  auto message = dist::parseErrorMsg(*rejection);
  ASSERT_TRUE(message.has_value());
  EXPECT_NE(message->find("duplicate HELLO"), std::string::npos) << *message;

  // The claimant dies instead of acking; the run fails with rank attribution.
  claimant->close();
  const dist::DistResult result = harness.finish();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("rank 0"), std::string::npos) << result.error;
  ASSERT_EQ(result.workers.size(), 1u);
  EXPECT_FALSE(result.workers[0].error.empty());
}

TEST(DistFailure, WorkerReportedSpecHashMismatchAbortsTheFleet) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto worker = connectTo(harness);
  ASSERT_NE(worker, nullptr);
  worker->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 0}));
  auto spec_frame = worker->readFrame();
  ASSERT_TRUE(spec_frame.has_value());
  worker->sendFrame(dist::encodeErrorMsg("spec hash mismatch at rank 0"));
  const dist::DistResult result = harness.finish();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("spec hash mismatch"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("rank 0"), std::string::npos) << result.error;
}

TEST(DistFailure, AckWithWrongHashAbortsTheFleet) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto worker = connectTo(harness);
  ASSERT_NE(worker, nullptr);
  worker->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 0}));
  auto spec_frame = worker->readFrame();
  ASSERT_TRUE(spec_frame.has_value());
  auto spec = dist::parseSpec(*spec_frame);
  ASSERT_TRUE(spec.has_value());
  worker->sendFrame(
      dist::encodeSpecAck(dist::SpecAck{0, spec->spec_hash ^ 0xDEAD}));
  const dist::DistResult result = harness.finish();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("spec hash"), std::string::npos) << result.error;
  ASSERT_EQ(result.workers.size(), 1u);
  EXPECT_FALSE(result.workers[0].acked);
}

TEST(DistFailure, WorkerDyingAfterStartFailsWithAttribution) {
  dist::DriverConfig cfg;
  cfg.workers = 2;
  cfg.shards = 2;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));
  // Rank 0 is a real worker (it may complete or be shut down mid-protocol
  // once the fleet aborts — either exit is legitimate, so don't assert it).
  std::thread survivor = realWorker(harness, 0, /*expected_rc=*/-1);

  auto doomed = connectTo(harness);
  ASSERT_NE(doomed, nullptr);
  doomed->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 1}));
  auto spec_frame = doomed->readFrame();
  ASSERT_TRUE(spec_frame.has_value());
  auto spec = dist::parseSpec(*spec_frame);
  ASSERT_TRUE(spec.has_value());
  doomed->sendFrame(dist::encodeSpecAck(dist::SpecAck{1, spec->spec_hash}));
  auto start_frame = doomed->readFrame();
  ASSERT_TRUE(start_frame.has_value());
  EXPECT_EQ(dist::peekVerb(*start_frame), dist::Verb::start);
  doomed->close();  // crash after START, before any ROLLUP

  const dist::DistResult result = harness.finish();
  survivor.join();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("rank 1"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("died"), std::string::npos) << result.error;
  ASSERT_EQ(result.workers.size(), 2u);
  EXPECT_FALSE(result.workers[1].rolled_up);
}

// Collect-phase abuse: rank 0 is a real worker, rank 1 speaks the protocol
// by hand through START and then misbehaves instead of sending its ROLLUP.
dist::DistResult runWithBadCollector(
    const std::function<void(net::FramedConn&, std::uint64_t spec_hash)>&
        misbehave) {
  dist::DriverConfig cfg;
  cfg.workers = 2;
  cfg.shards = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));
  std::thread survivor = realWorker(harness, 0, /*expected_rc=*/-1);

  auto rank1 = connectTo(harness);
  if (rank1 != nullptr) {
    rank1->sendFrame(
        dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 1}));
    auto spec_frame = rank1->readFrame();
    auto spec = spec_frame ? dist::parseSpec(*spec_frame) : std::nullopt;
    EXPECT_TRUE(spec.has_value());
    if (spec) {
      rank1->sendFrame(dist::encodeSpecAck(dist::SpecAck{1, spec->spec_hash}));
      auto start_frame = rank1->readFrame();
      EXPECT_TRUE(start_frame && dist::peekVerb(*start_frame) == dist::Verb::start);
      misbehave(*rank1, spec->spec_hash);
    }
  }
  dist::DistResult result = harness.finish();
  survivor.join();
  return result;
}

void expectBlamesRank1(const dist::DistResult& result,
                       const std::string& needle) {
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("rank 1"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find(needle), std::string::npos) << result.error;
  ASSERT_EQ(result.workers.size(), 2u);
  EXPECT_EQ(result.workers[1].error, result.error);
  EXPECT_FALSE(result.workers[1].rolled_up);
  EXPECT_TRUE(result.workers[0].error.empty()) << result.workers[0].error;
}

TEST(DistFailure, ErrorFrameAfterStartIsAttributed) {
  expectBlamesRank1(runWithBadCollector([](net::FramedConn& conn,
                                           std::uint64_t) {
                      conn.sendFrame(dist::encodeErrorMsg("disk on fire"));
                    }),
                    "reported: disk on fire");
}

TEST(DistFailure, UnexpectedVerbAfterStartBreaksProtocol) {
  expectBlamesRank1(
      runWithBadCollector([](net::FramedConn& conn, std::uint64_t hash) {
        conn.sendFrame(dist::encodeSpecAck(dist::SpecAck{1, hash}));
      }),
      "broke protocol");
}

TEST(DistFailure, RollupForAnotherRankIsRejected) {
  expectBlamesRank1(
      runWithBadCollector([](net::FramedConn& conn, std::uint64_t hash) {
        dist::Rollup rollup;
        rollup.rank = 0;
        rollup.spec_hash = hash;
        conn.sendFrame(dist::encodeRollup(rollup));
      }),
      "ROLLUP");
}

TEST(DistFailure, RollupWithWrongSpecHashIsRejected) {
  expectBlamesRank1(
      runWithBadCollector([](net::FramedConn& conn, std::uint64_t hash) {
        dist::Rollup rollup;
        rollup.rank = 1;
        rollup.spec_hash = hash ^ 0xBEEF;
        conn.sendFrame(dist::encodeRollup(rollup));
      }),
      "ROLLUP");
}

TEST(DistFailure, MalformedProgressIsRejected) {
  expectBlamesRank1(
      runWithBadCollector([](net::FramedConn& conn, std::uint64_t) {
        dist::Progress progress;
        progress.rank = 1;
        auto body = dist::encodeProgress(progress);
        body.pop_back();  // truncated snapshot
        conn.sendFrame(body);
      }),
      "PROGRESS");
}

TEST(DistFailure, CorruptFrameIsSkippedAsLossNotAProtocolError) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto worker = connectTo(harness);
  ASSERT_NE(worker, nullptr);
  std::vector<std::uint8_t> torn = net::encodeRawFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 0}));
  torn.back() ^= 0xFF;  // fails its checksum: line noise, not malice
  worker->sendBytes(torn);
  worker->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 0}));
  // The link skipped the corrupt frame and accepted the retry: SPEC arrives.
  auto spec_frame = worker->readFrame();
  ASSERT_TRUE(spec_frame.has_value());
  EXPECT_EQ(dist::peekVerb(*spec_frame), dist::Verb::spec);
  worker->sendFrame(dist::encodeErrorMsg("bailing out"));
  const dist::DistResult result = harness.finish();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("bailing out"), std::string::npos)
      << result.error;
}

TEST(DistFailure, HostileLengthDropsTheConnectionButTheRunSurvives) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto hostile = connectTo(harness);
  ASSERT_NE(hostile, nullptr);
  ByteWriter header;
  header.u32(net::RawFrameDecoder::kMaxFrame + 1);
  header.u32(0);
  hostile->sendBytes(header.bytes());
  // The driver hangs up on the poisoned stream...
  auto nothing = hostile->readFrame();
  EXPECT_FALSE(nothing.has_value());
  EXPECT_EQ(hostile->lastRead(), net::FramedConn::ReadStatus::closed);

  // ...while the listener keeps serving: a real worker completes the run.
  std::thread worker = realWorker(harness, 0);
  const dist::DistResult result = harness.finish();
  worker.join();
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(DistFailure, VerbBeforeHelloIsRejected) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto confused = connectTo(harness);
  ASSERT_NE(confused, nullptr);
  confused->sendFrame(dist::encodeStart());  // reordered: START before HELLO
  auto rejection = confused->readFrame();
  ASSERT_TRUE(rejection.has_value());
  auto message = dist::parseErrorMsg(*rejection);
  ASSERT_TRUE(message.has_value());
  EXPECT_NE(message->find("expected HELLO"), std::string::npos) << *message;

  std::thread worker = realWorker(harness, 0);
  const dist::DistResult result = harness.finish();
  worker.join();
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(DistFailure, RankOutOfRangeIsRejected) {
  dist::DriverConfig cfg;
  cfg.workers = 1;
  DriverHarness harness(std::move(cfg));
  harness.start(smallWorkload(3));

  auto outsider = connectTo(harness);
  ASSERT_NE(outsider, nullptr);
  outsider->sendFrame(
      dist::encodeHello(dist::Hello{dist::kMagic, dist::kVersion, 7}));
  auto rejection = outsider->readFrame();
  ASSERT_TRUE(rejection.has_value());
  auto message = dist::parseErrorMsg(*rejection);
  ASSERT_TRUE(message.has_value());
  EXPECT_NE(message->find("out of range"), std::string::npos) << *message;

  std::thread worker = realWorker(harness, 0);
  const dist::DistResult result = harness.finish();
  worker.join();
  EXPECT_TRUE(result.ok) << result.error;
}

}  // namespace
}  // namespace cmc::load
