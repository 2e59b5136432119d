// Live telemetry plane tests: raw framing, windowed snapshots/deltas, SLO
// watchdogs, and the ops endpoint's robustness contract (malformed input
// produces error responses or a dropped connection — never a crash or hang).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/framed_rpc.hpp"
#include "net/framing.hpp"
#include "obs/metrics.hpp"
#include "obs/ops_server.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/snapshot.hpp"
#include "util/bytes.hpp"

namespace cmc {
namespace {

std::vector<std::uint8_t> bytesOf(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// ---------------------------------------------------------------- raw frames

TEST(RawFrameTest, RoundTripsBodies) {
  net::RawFrameDecoder decoder;
  const std::vector<std::uint8_t> body = bytesOf("hello frames");
  const std::vector<std::uint8_t> wire = net::encodeRawFrame(body);
  decoder.feed(wire.data(), wire.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, body);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(RawFrameTest, ReassemblesAcrossArbitrarySplits) {
  const std::vector<std::uint8_t> body = bytesOf("split me finely");
  const std::vector<std::uint8_t> wire = net::encodeRawFrame(body);
  net::RawFrameDecoder decoder;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(decoder.next().has_value()) << "frame completed early at " << i;
    decoder.feed(&wire[i], 1);
  }
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, body);
}

TEST(RawFrameTest, CorruptFrameIsSkippedAndCounted) {
  std::vector<std::uint8_t> bad = net::encodeRawFrame(bytesOf("first"));
  bad.back() ^= 0xFF;  // break the checksum
  const std::vector<std::uint8_t> good = net::encodeRawFrame(bytesOf("second"));
  net::RawFrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  decoder.feed(good.data(), good.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, bytesOf("second"));
  EXPECT_EQ(decoder.corruptFrames(), 1u);
  EXPECT_FALSE(decoder.error());
}

TEST(RawFrameTest, AbsurdLengthPoisonsTheStream) {
  ByteWriter header;
  header.u32(net::RawFrameDecoder::kMaxFrame + 1);
  header.u32(0);
  net::RawFrameDecoder decoder;
  decoder.feed(header.bytes().data(), header.bytes().size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.error());
  // A poisoned decoder stays poisoned even for valid follow-up bytes.
  const std::vector<std::uint8_t> good = net::encodeRawFrame(bytesOf("x"));
  decoder.feed(good.data(), good.size());
  EXPECT_FALSE(decoder.next().has_value());
}

// ---------------------------------------------------------- snapshots/deltas

TEST(SnapshotTest, CapturesCountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.gauge("g").set(7);
  reg.gauge("g").set(4);
  reg.histogram("h").observe(100);
  reg.histogram("h").observe(200);
  const auto shot = obs::MetricsSnapshot::capture(reg, /*wall_ms=*/42);
  EXPECT_EQ(shot.wall_ms, 42);
  EXPECT_EQ(shot.counter("c"), 3u);
  ASSERT_EQ(shot.gauges.count("g"), 1u);
  EXPECT_EQ(shot.gauges.at("g").value, 4);
  EXPECT_EQ(shot.gauges.at("g").max, 7);
  const obs::HistogramSample* h = shot.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 300);
  EXPECT_EQ(h->min, 100);
  EXPECT_EQ(h->max, 200);
}

TEST(SnapshotTest, EmptyWindowDeltaIsAllZeroes) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.histogram("h").observe(64);
  const auto a = obs::MetricsSnapshot::capture(reg, 100);
  const auto b = obs::MetricsSnapshot::capture(reg, 350);
  const obs::MetricsDelta d = obs::delta(a, b);
  EXPECT_EQ(d.window_ms, 250);
  EXPECT_EQ(d.counter("c"), 0u);
  const obs::HistogramSample* h = d.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(d.counterRate("c"), 0.0);
}

TEST(SnapshotTest, CounterDeltasNeverUnderflow) {
  // A counter that reads lower in the later snapshot (restarted source)
  // must clamp to a quiet window, not wrap to ~2^64.
  obs::MetricsSnapshot prev;
  prev.wall_ms = 0;
  prev.counters["c"] = 10;
  obs::MetricsSnapshot curr;
  curr.wall_ms = 1000;
  curr.counters["c"] = 4;
  const obs::MetricsDelta d = obs::delta(prev, curr);
  EXPECT_EQ(d.counter("c"), 0u);
}

TEST(SnapshotTest, WindowedQuantilesComeFromBucketDiffs) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 100; ++i) reg.histogram("h").observe(10);
  const auto before = obs::MetricsSnapshot::capture(reg, 0);
  // The new window holds only large observations; a cumulative quantile
  // would be dominated by the 100 old ones.
  for (int i = 0; i < 20; ++i) reg.histogram("h").observe(10'000);
  const auto after = obs::MetricsSnapshot::capture(reg, 1000);
  const obs::MetricsDelta d = obs::delta(before, after);
  const obs::HistogramSample* h = d.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 20u);
  EXPECT_GT(h->quantile(0.50), 1000.0);
  // The cumulative view still says "mostly small".
  const obs::HistogramSample* cumulative = after.histogram("h");
  ASSERT_NE(cumulative, nullptr);
  EXPECT_LT(cumulative->quantile(0.50), 100.0);
}

TEST(SnapshotTest, MergeSumsAndKeepsZeroCountHistograms) {
  obs::MetricsRegistry a;
  a.counter("c").add(2);
  a.gauge("g").set(3);
  a.histogram("h").observe(50);
  (void)a.histogram("unobserved");
  obs::MetricsRegistry b;
  b.counter("c").add(5);
  b.gauge("g").set(4);
  b.histogram("h").observe(70);
  auto merged = obs::MetricsSnapshot::capture(a, 0);
  merged.mergeFrom(obs::MetricsSnapshot::capture(b, 0));
  EXPECT_EQ(merged.counter("c"), 7u);
  EXPECT_EQ(merged.gauges.at("g").value, 7);  // fleet total
  ASSERT_NE(merged.histogram("h"), nullptr);
  EXPECT_EQ(merged.histogram("h")->count, 2u);
  EXPECT_EQ(merged.histogram("h")->min, 50);
  EXPECT_EQ(merged.histogram("h")->max, 70);

  // A created-but-unobserved histogram survives the merge, as a zero
  // counter does, whichever side it is on.
  obs::MetricsSnapshot empty_first;
  empty_first.mergeFrom(obs::MetricsSnapshot::capture(a, 0));
  for (const obs::MetricsSnapshot* snap : {&merged, &empty_first}) {
    const std::string json = snap->json();
    EXPECT_NE(json.find("\"unobserved\":{\"count\":0,\"sum\":0,\"min\":0,"
                        "\"max\":0,"),
              std::string::npos)
        << json;
  }
}

TEST(SnapshotTest, HostileNamesStayValidJson) {
  // A metric name may hold any bytes; the JSON view must escape them
  // rather than splice them into the document.
  obs::MetricsRegistry reg;
  reg.counter("evil\"name\\\x01").add(1);
  EXPECT_EQ(obs::MetricsSnapshot::capture(reg, 0).json(),
            "{\"counters\":{\"evil\\\"name\\\\\\u0001\":1},"
            "\"gauges\":{},\"histograms\":{}}");
}

TEST(SnapshotTest, SeriesIsBoundedAndTracksWindows) {
  obs::SnapshotSeries series(/*capacity=*/3);
  obs::MetricsRegistry reg;
  for (int i = 0; i < 5; ++i) {
    reg.counter("c").add(2);
    series.push(obs::MetricsSnapshot::capture(reg, i * 100));
  }
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.pushed(), 5u);
  ASSERT_NE(series.latest(), nullptr);
  EXPECT_EQ(series.latest()->counter("c"), 10u);
  ASSERT_NE(series.latestWindow(), nullptr);
  EXPECT_EQ(series.latestWindow()->counter("c"), 2u);
  EXPECT_EQ(series.latestWindow()->window_ms, 100);
  const std::string json = series.json(/*last_n=*/2);
  EXPECT_NE(json.find("\"windows\":["), std::string::npos);
  EXPECT_NE(json.find("\"evicted\":2"), std::string::npos);
}

TEST(SnapshotTest, PrometheusExpositionShape) {
  obs::MetricsRegistry reg;
  reg.counter("load.calls").add(12);
  reg.gauge("queue.depth").set(3);
  reg.histogram("probe.call_setup_us").observe(5);
  const auto shot = obs::MetricsSnapshot::capture(reg, 0);
  const std::string text = obs::prometheusText(shot);
  EXPECT_NE(text.find("# TYPE cmc_load_calls_total counter"), std::string::npos);
  EXPECT_NE(text.find("cmc_load_calls_total 12"), std::string::npos);
  EXPECT_NE(text.find("cmc_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("cmc_queue_depth_max 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cmc_probe_call_setup_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("cmc_probe_call_setup_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cmc_probe_call_setup_us_sum 5"), std::string::npos);
  EXPECT_NE(text.find("cmc_probe_call_setup_us_count 1"), std::string::npos);
}

// ------------------------------------------------------------ SLO watchdogs

obs::MetricsDelta windowWith(std::uint64_t counter_inc,
                             std::vector<std::int64_t> observations = {}) {
  obs::MetricsRegistry reg;
  const auto before = obs::MetricsSnapshot::capture(reg, 0);
  reg.counter("fault.dropped").add(counter_inc);
  for (std::int64_t v : observations) {
    reg.histogram("probe.call_setup_us").observe(v);
  }
  return obs::delta(before, obs::MetricsSnapshot::capture(reg, 1000));
}

TEST(SloTest, LatencyLawMatchesPaperConstants) {
  // §VIII-C, p = 2 hops with the paper's n = 34ms and c = 20ms.
  EXPECT_EQ(obs::latencyLawUs(2, 34'000, 20'000), 2 * 34'000 + 3 * 20'000);
}

TEST(SloTest, CounterRuleFiresOncePerExcursion) {
  obs::SloRule rule;
  rule.name = "fault_ceiling";
  rule.counter = "fault.dropped";
  rule.max_value = 2.0;
  obs::SloWatchdog dog({rule});
  int fires = 0;
  dog.setOnBreach([&](const obs::SloStatus&) { ++fires; });

  EXPECT_TRUE(dog.healthy());
  dog.evaluate(windowWith(1));
  EXPECT_TRUE(dog.healthy());
  dog.evaluate(windowWith(5));  // breach entry
  EXPECT_FALSE(dog.healthy());
  EXPECT_EQ(fires, 1);
  dog.evaluate(windowWith(9));  // still in breach: no re-fire
  EXPECT_EQ(fires, 1);
  dog.evaluate(windowWith(0));  // recovery re-arms
  EXPECT_TRUE(dog.healthy());
  dog.evaluate(windowWith(7));  // second excursion
  EXPECT_EQ(fires, 2);
  EXPECT_TRUE(dog.everBreached());
  EXPECT_EQ(dog.breaches(), 2u);
}

TEST(SloTest, HistogramRuleSkipsTinyWindows) {
  obs::SloRule rule;
  rule.name = "setup_p99";
  rule.histogram = "probe.call_setup_us";
  rule.max_value = 100.0;
  rule.min_count = 3;
  obs::SloWatchdog dog({rule});

  // Two huge samples: below min_count, verdict carried (healthy).
  dog.evaluate(windowWith(0, {50'000, 60'000}));
  EXPECT_TRUE(dog.healthy());
  EXPECT_FALSE(dog.last()[0].evaluated);
  // Three huge samples: evaluated, breached.
  dog.evaluate(windowWith(0, {50'000, 60'000, 70'000}));
  EXPECT_FALSE(dog.healthy());
  EXPECT_TRUE(dog.last()[0].evaluated);
  // A quiet window carries the breach verdict rather than silently healing.
  dog.evaluate(windowWith(0, {}));
  EXPECT_FALSE(dog.healthy());
  EXPECT_NE(dog.statusText().find("breached=1"), std::string::npos);
}

// ------------------------------------------------------------- ops endpoint

class OpsEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<obs::OpsServer>(/*port=*/0);
    ASSERT_TRUE(server_->ok());
    server_->handle("ping", "text/plain",
                    [](const std::string& args) { return "pong:" + args; });
    server_->handle("boom", "text/plain", [](const std::string&) -> std::string {
      throw std::runtime_error("kaboom");
    });
    server_->start();
  }

  std::unique_ptr<obs::OpsClient> client() {
    auto c = obs::OpsClient::connect("127.0.0.1", server_->port());
    EXPECT_NE(c, nullptr);
    return c;
  }

  std::unique_ptr<obs::OpsServer> server_;
};

TEST_F(OpsEndpointTest, RoundTripsVerbs) {
  auto c = client();
  auto r = c->request("ping", "abc");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->content_type, "text/plain");
  EXPECT_EQ(r->body, "pong:abc");
  // Same connection serves many requests.
  auto r2 = c->request("ping");
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->body, "pong:");
}

TEST_F(OpsEndpointTest, UnknownVerbIsAnErrorResponse) {
  auto c = client();
  auto r = c->request("nonsense");
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok);
  EXPECT_NE(r->body.find("unknown verb"), std::string::npos);
  EXPECT_GE(server_->errorsServed(), 1u);
}

TEST_F(OpsEndpointTest, MalformedBodyIsAnErrorResponse) {
  auto c = client();
  // A valid frame whose body is not str(verb)+str(args).
  ASSERT_TRUE(c->sendRaw(net::encodeRawFrame(bytesOf("\xFF\xFF garbage"))));
  auto r = c->readResponse();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok);
  EXPECT_NE(r->body.find("malformed"), std::string::npos);
  // The connection survives for well-formed follow-ups.
  auto ok = c->request("ping", "x");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);
}

TEST_F(OpsEndpointTest, TrailingBytesAfterRequestAreMalformed) {
  ByteWriter body;
  body.str("ping");
  body.str("args");
  body.u8(0xEE);  // one stray byte after a well-formed request
  auto c = client();
  ASSERT_TRUE(c->sendRaw(net::encodeRawFrame(body.bytes())));
  auto r = c->readResponse();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok);
}

TEST_F(OpsEndpointTest, CorruptFrameIsDiscardedThenConnectionStillWorks) {
  ByteWriter body;
  body.str("ping");
  body.str("lost");
  std::vector<std::uint8_t> wire = net::encodeRawFrame(body.bytes());
  wire.back() ^= 0x55;  // fails the checksum: discarded as loss, no response
  auto c = client();
  ASSERT_TRUE(c->sendRaw(wire));
  auto r = c->request("ping", "after");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->body, "pong:after");
}

TEST_F(OpsEndpointTest, TruncatedFrameCompletesLater) {
  ByteWriter body;
  body.str("ping");
  body.str("slow");
  const std::vector<std::uint8_t> wire = net::encodeRawFrame(body.bytes());
  auto c = client();
  ASSERT_TRUE(c->sendRaw({wire.begin(), wire.begin() + 5}));
  ASSERT_TRUE(c->sendRaw({wire.begin() + 5, wire.end()}));
  auto r = c->readResponse();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
  EXPECT_EQ(r->body, "pong:slow");
}

TEST_F(OpsEndpointTest, HostileLengthKillsConnectionButNotListener) {
  ByteWriter header;
  header.u32(0xFFFFFFFF);  // absurd length: stream is unrecoverable
  header.u32(0);
  auto victim = client();
  ASSERT_TRUE(victim->sendRaw(header.bytes()));
  EXPECT_FALSE(victim->readResponse().has_value());  // server dropped us
  // A fresh connection is served normally.
  auto fresh = client();
  auto r = fresh->request("ping", "alive");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->body, "pong:alive");
}

TEST_F(OpsEndpointTest, BareFramedConnSpeaksTheOpsProtocol) {
  // OpsClient is a thin layer over net::FramedConn. A bare FramedConn
  // speaking hand-built request frames must get the same service, which
  // pins the shared codepath: one framing implementation under the verbs.
  auto conn = net::FramedConn::connect("127.0.0.1", server_->port());
  ASSERT_NE(conn, nullptr);
  ByteWriter request;
  request.str("ping");
  request.str("rpc");
  ASSERT_TRUE(conn->sendFrame(request.bytes()));
  auto frame = conn->readFrame();
  ASSERT_TRUE(frame.has_value());
  ByteReader in(*frame);
  EXPECT_EQ(in.u8(), 0);  // status: ok
  EXPECT_EQ(in.str(), "text/plain");
  EXPECT_EQ(in.str(), "pong:rpc");
  EXPECT_TRUE(in.ok() && in.atEnd());
}

// ------------------------------------------------------------- profile verb
// The `profile` verb is registered the same way LiveTelemetry registers it:
// obs::profileResponse over a real report. It gets the full hostile-input
// treatment of the suites above — malformed frames, bad sub-verbs, and
// corruption must produce error responses or silent discards, never a dead
// listener.

class ProfileVerbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setThreadProfiler(&table_);
    {
      CMC_PROF_SCOPE("serve");
      { CMC_PROF_SCOPE("nested"); }
    }
    obs::setThreadProfiler(nullptr);
    report_ = table_.report();

    server_ = std::make_unique<obs::OpsServer>(/*port=*/0);
    ASSERT_TRUE(server_->ok());
    server_->handle("profile", "application/json",
                    [this](const std::string& args) {
                      return obs::profileResponse(report_, args);
                    });
    server_->start();
  }

  std::unique_ptr<obs::OpsClient> client() {
    auto c = obs::OpsClient::connect("127.0.0.1", server_->port());
    EXPECT_NE(c, nullptr);
    return c;
  }

  obs::ProfileTable table_{"ops_test"};
  obs::ProfileReport report_;
  std::unique_ptr<obs::OpsServer> server_;
};

TEST_F(ProfileVerbTest, ServesJsonAndCollapsed) {
  auto c = client();
  auto json = c->request("profile");
  ASSERT_TRUE(json.has_value());
  EXPECT_TRUE(json->ok);
  EXPECT_EQ(json->content_type, "application/json");
  EXPECT_EQ(json->body, report_.json());
  auto collapsed = c->request("profile", "collapsed");
  ASSERT_TRUE(collapsed.has_value());
  EXPECT_TRUE(collapsed->ok);
  EXPECT_NE(collapsed->body.find("serve;nested"), std::string::npos);
}

TEST_F(ProfileVerbTest, UnknownSubVerbIsAnErrorResponse) {
  auto c = client();
  // speedscope reads the collapsed stacks; it has no sub-verb of its own.
  for (const char* args : {"xml", "speedscope"}) {
    auto r = c->request("profile", args);
    ASSERT_TRUE(r.has_value()) << args;
    EXPECT_FALSE(r->ok) << args;
    EXPECT_NE(r->body.find("unknown profile sub-verb"), std::string::npos)
        << args;
    // Same connection keeps working.
    auto ok = c->request("profile", "json");
    ASSERT_TRUE(ok.has_value()) << args;
    EXPECT_TRUE(ok->ok) << args;
  }
}

TEST_F(ProfileVerbTest, CorruptFrameThenProfileStillServes) {
  ByteWriter body;
  body.str("profile");
  body.str("collapsed");
  std::vector<std::uint8_t> wire = net::encodeRawFrame(body.bytes());
  wire.back() ^= 0x55;  // checksum failure: discarded as loss, no response
  auto c = client();
  ASSERT_TRUE(c->sendRaw(wire));
  auto r = c->request("profile", "collapsed");
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok);
}

TEST_F(ProfileVerbTest, MalformedArgsBodyIsAnErrorResponse) {
  // A well-formed verb string followed by an args string whose declared
  // length runs past the frame: the request fails to decode.
  ByteWriter body;
  body.str("profile");
  body.u32(0xFFFF);  // args length with no bytes behind it
  auto c = client();
  ASSERT_TRUE(c->sendRaw(net::encodeRawFrame(body.bytes())));
  auto r = c->readResponse();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok);
  // Listener survives for a fresh connection too.
  auto fresh = client();
  auto ok = fresh->request("profile");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);
}

TEST_F(OpsEndpointTest, ThrowingHandlerBecomesErrorResponse) {
  auto c = client();
  auto r = c->request("boom");
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok);
  EXPECT_NE(r->body.find("kaboom"), std::string::npos);
  // Server is still healthy afterwards.
  auto ok = c->request("ping", "still-up");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);
}

}  // namespace
}  // namespace cmc
