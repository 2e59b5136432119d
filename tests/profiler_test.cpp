// Hot-path profiler tests: CCT structure, self/total accounting, allocation
// attribution, value sites, deterministic merge, export formats, and — the
// load-bearing contract — transparency: a profiled run computes exactly what
// the unprofiled run computes (mc state graphs and load rollups are
// byte-identical with the profiler on or off).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/state_graph.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ops_server.hpp"
#include "obs/profiler.hpp"

namespace cmc {
namespace {

// Every test installs/uninstalls the thread profiler; keep the thread clean
// even when an assertion fails mid-test.
class ProfilerTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::setThreadProfiler(nullptr); }
};

const obs::ProfileNode* findNode(const obs::ProfileReport& report,
                                 const std::string& site) {
  for (const obs::ProfileNode& n : report.nodes()) {
    if (n.site == site) return &n;
  }
  return nullptr;
}

TEST_F(ProfilerTest, OffModeIsInert) {
  EXPECT_EQ(obs::threadProfiler(), nullptr);
  {
    CMC_PROF_SCOPE("nobody.listens");
    CMC_PROF_VALUE("nobody.counts", 42);
  }
  obs::ProfileTable table("idle");
  EXPECT_TRUE(table.report().empty());
}

TEST_F(ProfilerTest, BuildsCallingContextTree) {
  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  EXPECT_EQ(obs::threadProfiler(), &table);
  for (int i = 0; i < 3; ++i) {
    CMC_PROF_SCOPE("outer");
    { CMC_PROF_SCOPE("inner"); }
    { CMC_PROF_SCOPE("inner"); }
  }
  {
    CMC_PROF_SCOPE("inner");  // different parent (root): a distinct node
  }
  obs::setThreadProfiler(nullptr);

  const obs::ProfileReport report = table.report();
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.nodes()[0].site, "root");

  const obs::ProfileNode* outer = findNode(report, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 3u);
  EXPECT_EQ(outer->parent, 0);
  EXPECT_EQ(outer->depth, 1u);

  // "inner" appears twice: once under outer (6 calls), once under root.
  std::size_t inner_nodes = 0;
  for (std::size_t i = 0; i < report.nodes().size(); ++i) {
    const obs::ProfileNode& n = report.nodes()[i];
    if (n.site != "inner") continue;
    ++inner_nodes;
    if (report.nodes()[static_cast<std::size_t>(n.parent)].site == "outer") {
      EXPECT_EQ(n.calls, 6u);
      EXPECT_EQ(n.depth, 2u);
    } else {
      EXPECT_EQ(n.calls, 1u);
      EXPECT_EQ(n.depth, 1u);
    }
  }
  EXPECT_EQ(inner_nodes, 2u);
}

TEST_F(ProfilerTest, SelfTimeExcludesChildTime) {
  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  {
    CMC_PROF_SCOPE("parent");
    for (int i = 0; i < 200; ++i) {
      CMC_PROF_SCOPE("child");
      volatile int sink = 0;
      for (int j = 0; j < 50; ++j) sink = sink + j;
    }
  }
  obs::setThreadProfiler(nullptr);

  const obs::ProfileReport report = table.report();
  const obs::ProfileNode* parent = findNode(report, "parent");
  const obs::ProfileNode* child = findNode(report, "child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_GE(parent->total_ns, parent->self_ns);
  EXPECT_GE(parent->total_ns, child->total_ns);
  EXPECT_GE(child->min_ns, 0);
  EXPECT_GE(child->max_ns, child->min_ns);
  // total = self + sum(child totals) within calibration slack per span.
  const std::int64_t slack =
      (table.overheadNs() + 1) * static_cast<std::int64_t>(child->calls + 1);
  EXPECT_NEAR(static_cast<double>(parent->total_ns),
              static_cast<double>(parent->self_ns + child->total_ns),
              static_cast<double>(slack) + 0.25 *
                  static_cast<double>(parent->total_ns));
}

TEST_F(ProfilerTest, AttributesAllocationsToInnermostSite) {
  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  {
    CMC_PROF_SCOPE("quiet");
    {
      CMC_PROF_SCOPE("allocating");
      auto* p = new std::vector<char>(10'000);
      delete p;
    }
  }
  obs::setThreadProfiler(nullptr);

  const obs::ProfileReport report = table.report();
  const obs::ProfileNode* site = findNode(report, "allocating");
  ASSERT_NE(site, nullptr);
  EXPECT_GE(site->allocs, 2u);  // the vector object + its buffer
  EXPECT_GE(site->alloc_bytes, 10'000u);
  EXPECT_GE(site->frees, 2u);
  EXPECT_GE(site->free_bytes, 10'000u);  // sized deletes report bytes
  // The enclosing site sees only the profiler's own node-creation
  // allocations (charged to the node open when enter() runs), never the
  // 10KB attributed to the inner site.
  const obs::ProfileNode* quiet = findNode(report, "quiet");
  ASSERT_NE(quiet, nullptr);
  EXPECT_LT(quiet->alloc_bytes, 10'000u);
}

TEST_F(ProfilerTest, ValueSitesRecordDistributionsNotTime) {
  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  CMC_PROF_VALUE("depth", 3);
  CMC_PROF_VALUE("depth", 9);
  CMC_PROF_VALUE("depth", 1);
  {
    CMC_PROF_SCOPE("span");
  }
  obs::setThreadProfiler(nullptr);

  const obs::ProfileReport report = table.report();
  const obs::ProfileNode* depth = findNode(report, "depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_TRUE(depth->is_value);
  EXPECT_EQ(depth->calls, 3u);
  EXPECT_EQ(depth->total_ns, 13);  // sum of values
  EXPECT_EQ(depth->self_ns, 0);
  EXPECT_EQ(depth->min_ns, 1);
  EXPECT_EQ(depth->max_ns, 9);
  // Value sites are excluded from the span totals.
  const obs::ProfileTotals totals = report.totals();
  EXPECT_EQ(totals.span_calls, 1u);
}

TEST_F(ProfilerTest, MergeIsDeterministicAndAdditive) {
  obs::ProfileTable a("shard0");
  obs::setThreadProfiler(&a);
  {
    CMC_PROF_SCOPE("run");
    { CMC_PROF_SCOPE("zeta"); }
    { CMC_PROF_SCOPE("alpha"); }
  }
  obs::setThreadProfiler(nullptr);

  // Same shape grown in a different order, plus one extra child.
  obs::ProfileTable b("shard1");
  obs::setThreadProfiler(&b);
  {
    CMC_PROF_SCOPE("run");
    { CMC_PROF_SCOPE("alpha"); }
    { CMC_PROF_SCOPE("zeta"); }
    { CMC_PROF_SCOPE("mid"); }
  }
  obs::setThreadProfiler(nullptr);

  const obs::ProfileReport merged = obs::mergeTables({&a, &b});
  const obs::ProfileNode* run = findNode(merged, "run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->calls, 2u);

  // Children of "run" come out sorted by site name regardless of creation
  // order, so the merged structure is identical run to run.
  std::vector<std::string> kids;
  for (std::size_t i = 0; i < merged.nodes().size(); ++i) {
    const obs::ProfileNode& n = merged.nodes()[i];
    if (n.parent >= 0 &&
        merged.nodes()[static_cast<std::size_t>(n.parent)].site == "run") {
      kids.push_back(n.site);
    }
  }
  EXPECT_EQ(kids, (std::vector<std::string>{"alpha", "mid", "zeta"}));

  // Structure (sites, parents, kinds) is byte-stable under merge order of
  // equal tables: merging [a,b] twice gives identical JSON.
  EXPECT_EQ(obs::mergeTables({&a, &b}).json(), merged.json());
}

TEST_F(ProfilerTest, ExportsAreWellFormed) {
  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  {
    CMC_PROF_SCOPE("a");
    {
      CMC_PROF_SCOPE("b");
      volatile int sink = 0;
      for (int j = 0; j < 1000; ++j) sink = sink + j;
    }
  }
  CMC_PROF_VALUE("v", 7);
  obs::setThreadProfiler(nullptr);
  const obs::ProfileReport report = table.report();

  const std::string json = report.json();
  EXPECT_NE(json.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(json.find("\"site\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"value\""), std::string::npos);

  // Collapsed stacks: "a;b self_ns" lines, no root, no value sites.
  const std::string collapsed = report.collapsed();
  std::istringstream lines(collapsed);
  std::string line;
  bool saw_nested = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find("root"), std::string::npos) << line;
    EXPECT_EQ(line.find('v'), std::string::npos) << line;
    EXPECT_GT(std::stoll(line.substr(space + 1)), 0) << line;
    if (line.compare(0, space, "a;b") == 0) saw_nested = true;
  }
  EXPECT_TRUE(saw_nested) << collapsed;

  const std::string speedscope = report.speedscope("unit");
  EXPECT_NE(speedscope.find("speedscope.app/file-format-schema.json"),
            std::string::npos);
  EXPECT_NE(speedscope.find("\"type\":\"sampled\""), std::string::npos);
  EXPECT_NE(speedscope.find("\"unit\":\"nanoseconds\""), std::string::npos);

  const std::string attribution = report.attributionJson(1'000'000);
  EXPECT_NE(attribution.find("\"coverage\":"), std::string::npos);
  EXPECT_NE(attribution.find("\"ns_per_call\":"), std::string::npos);
  EXPECT_NE(attribution.find("\"allocs_per_call\":"), std::string::npos);

  // The ops-verb payload shares these exact serializations.
  EXPECT_EQ(obs::profileResponse(report, ""), json);
  EXPECT_EQ(obs::profileResponse(report, "json"), json);
  EXPECT_EQ(obs::profileResponse(report, "collapsed"), collapsed);
  EXPECT_EQ(obs::profileResponse(report, "speedscope"),
            report.speedscope("cmc"));
  EXPECT_THROW((void)obs::profileResponse(report, "bogus"),
               std::runtime_error);
}

// ------------------------------------------------------------- transparency

TEST_F(ProfilerTest, ExplorerComputesIdenticalGraphProfiled) {
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 0;

  const ExploreResult plain =
      explorePath(GoalKind::openSlot, GoalKind::openSlot, 1, limits);

  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  const ExploreResult profiled =
      explorePath(GoalKind::openSlot, GoalKind::openSlot, 1, limits);
  obs::setThreadProfiler(nullptr);

  EXPECT_EQ(profiled.states(), plain.states());
  EXPECT_EQ(profiled.transitions, plain.transitions);
  EXPECT_EQ(profiled.stats.terminals, plain.stats.terminals);
  std::multiset<std::uint32_t> plain_obs, profiled_obs;
  for (const StateBits& s : plain.bits) plain_obs.insert(s.observable());
  for (const StateBits& s : profiled.bits) profiled_obs.insert(s.observable());
  EXPECT_EQ(profiled_obs, plain_obs);

  // And the profiled run actually attributed the explorer's hot sites.
  const obs::ProfileReport report = table.report();
  EXPECT_NE(findNode(report, "mc.expand"), nullptr);
  EXPECT_NE(findNode(report, "mc.canonicalize"), nullptr);
  EXPECT_NE(findNode(report, "mc.fingerprint"), nullptr);
}

TEST_F(ProfilerTest, LoadRollupByteIdenticalWithProfilingOn) {
  load::WorkloadSpec workload;
  workload.master_seed = 11;
  workload.calls = 48;
  workload.arrivals_per_s = 400.0;
  workload.flowlink_fraction = 0.5;

  auto rollup = [&](std::size_t shards, bool profile) {
    load::LoadConfig config;
    config.shards = shards;
    config.profile = profile;
    load::ShardedRuntime runtime(config);
    runtime.run(workload);
    EXPECT_EQ(runtime.convergedCount(), workload.calls);
    return runtime.metricsJson();
  };

  const std::string plain_1 = rollup(1, false);
  EXPECT_EQ(rollup(1, true), plain_1);
  EXPECT_EQ(rollup(8, true), plain_1);
  EXPECT_EQ(rollup(8, false), plain_1);
}

TEST_F(ProfilerTest, ProfiledLoadRunAttributesShardSites) {
  load::WorkloadSpec workload;
  workload.master_seed = 11;
  workload.calls = 32;
  workload.arrivals_per_s = 400.0;
  workload.flowlink_fraction = 0.5;

  load::LoadConfig config;
  config.shards = 2;
  config.profile = true;
  load::ShardedRuntime runtime(config);
  runtime.run(workload);

  ASSERT_TRUE(runtime.profiled());
  const obs::ProfileReport& report = runtime.profileReport();
  ASSERT_FALSE(report.empty());
  const obs::ProfileNode* run = findNode(report, "shard.run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->calls, 2u);  // one per shard, merged rank-order
  EXPECT_NE(findNode(report, "shard.schedule"), nullptr);
  EXPECT_NE(findNode(report, "shard.drain"), nullptr);
  EXPECT_NE(findNode(report, "loop.dispatch"), nullptr);
  EXPECT_NE(findNode(report, "slot.deliver"), nullptr);
  EXPECT_NE(findNode(report, "loop.queue_depth"), nullptr);
}

TEST_F(ProfilerTest, ProfileDirWritesAllThreeExports) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cmc_profiler_test_exports";
  std::filesystem::remove_all(dir);

  load::WorkloadSpec workload;
  workload.master_seed = 3;
  workload.calls = 16;
  workload.arrivals_per_s = 400.0;

  load::LoadConfig config;
  config.shards = 2;
  config.profile_dir = dir.string();  // implies profile
  load::ShardedRuntime runtime(config);
  runtime.run(workload);
  EXPECT_TRUE(runtime.profiled());

  for (const char* name :
       {"profile.json", "profile.collapsed", "profile.speedscope.json"}) {
    const std::filesystem::path file = dir / name;
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    EXPECT_GT(std::filesystem::file_size(file), 0u) << file;
  }
  std::ifstream json(dir / "profile.json");
  std::string body((std::istreambuf_iterator<char>(json)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"site\":\"shard.run\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(ProfilerTest, FlightDumpCarriesProfileSection) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cmc_profiler_test_flight";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  obs::ProfileTable table;
  obs::setThreadProfiler(&table);
  {
    CMC_PROF_SCOPE("work");
  }
  obs::setThreadProfiler(nullptr);

  obs::FlightRecorder recorder(
      obs::FlightRecorder::Config{dir.string(), "prof", 4});
  recorder.setProfileSource([&table]() { return table.report().json(); });
  const std::string path = recorder.dump("test");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"profile\":{"), std::string::npos);
  EXPECT_NE(body.find("\"site\":\"work\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(ProfilerTest, ProfileVerbServesMergedReportEndToEnd) {
  load::WorkloadSpec workload;
  workload.master_seed = 5;
  workload.calls = 16;
  workload.arrivals_per_s = 400.0;

  load::LoadConfig config;
  config.shards = 2;
  config.profile = true;
  config.ops_port = 0;
  load::ShardedRuntime runtime(config);
  ASSERT_NE(runtime.telemetry(), nullptr);
  ASSERT_TRUE(runtime.telemetry()->ok());
  runtime.run(workload);

  // The endpoint serves the retained merged profile after the run drains.
  auto client = obs::OpsClient::connect("127.0.0.1", runtime.opsPort());
  ASSERT_NE(client, nullptr);
  auto json = client->request("profile");
  ASSERT_TRUE(json.has_value());
  EXPECT_TRUE(json->ok);
  EXPECT_EQ(json->content_type, "application/json");
  EXPECT_NE(json->body.find("\"site\":\"shard.run\""), std::string::npos);
  EXPECT_EQ(json->body, runtime.profileReport().json());

  auto collapsed = client->request("profile", "collapsed");
  ASSERT_TRUE(collapsed.has_value());
  EXPECT_TRUE(collapsed->ok);
  EXPECT_NE(collapsed->body.find("shard.run"), std::string::npos);

  auto speedscope = client->request("profile", "speedscope");
  ASSERT_TRUE(speedscope.has_value());
  EXPECT_TRUE(speedscope->ok);
  EXPECT_NE(speedscope->body.find("speedscope.app"), std::string::npos);

  // Unknown sub-verb: error response, connection and listener survive.
  auto bad = client->request("profile", "flamethrower");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->ok);
  auto again = client->request("profile", "json");
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->ok);
}

TEST_F(ProfilerTest, ProfileVerbWithoutProfilerIsErrorResponse) {
  load::WorkloadSpec workload;
  workload.master_seed = 5;
  workload.calls = 8;
  workload.arrivals_per_s = 400.0;

  load::LoadConfig config;
  config.shards = 1;
  config.ops_port = 0;  // telemetry on, profiler off
  load::ShardedRuntime runtime(config);
  ASSERT_NE(runtime.telemetry(), nullptr);
  runtime.run(workload);

  auto client = obs::OpsClient::connect("127.0.0.1", runtime.opsPort());
  ASSERT_NE(client, nullptr);
  auto r = client->request("profile");
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok);
  EXPECT_NE(r->body.find("no profiler"), std::string::npos);
}

}  // namespace
}  // namespace cmc
