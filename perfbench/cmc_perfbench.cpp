// Benchmark runner: runs ONE workload of the repo benchmark in this process
// and prints one JSON result as its last stdout line (perfbench/README.md).
//
//   cmc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--pin-offset <k>] [--out-dir <dir>]
//                 [--source-id <id>]
//
// The program is driven only through its public entry points:
// load::WorkloadGenerator::generate, load::ShardedRuntime (constructor,
// run, metricsJson, shardStats, outcomes, setupLatency), cmc::explorePath
// and cmc::checkSpec, plus the simulator/probe calls of the §VIII-C latency
// law. Every timing and span is taken here, around those calls.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics from the existing profiler and writes this run's spans to
// <out-dir>/spans-<workload>-s<seed>.json. A failed correctness check
// reports the failures and no timing, and exits 1.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "endpoints/user_device.hpp"
#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/state_graph.hpp"
#include "mc/verification.hpp"
#include "obs/profiler.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cmc;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ------------------------------------------------------------- host speed
//
// A shared VM's speed moves by 15-40% over seconds as co-tenants come and
// go, which is more than any bound a change could be held to. While a
// timed call runs, a helper thread therefore times a short slice of a
// fixed kernel that calls nothing under src/ every 20 ms, and end-to-end
// times are reported in reference seconds:
//
//   t_ref = t_wall * kSliceRefSeconds / median slice time during the call
//
// kSliceRefSeconds is the slice's time on a quiet reference host
// (perfbench/README.md, "Host-speed normalization").

constexpr double kSliceRefSeconds = 0.0010;

std::uint64_t kernelMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One kernel slice: hash-map inserts and lookups over small heap strings,
// the same mix of hashing, allocation and pointer chasing as the
// simulator.
double kernelSlice() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::unordered_map<std::uint64_t, std::string> map;
  for (int i = 0; i < 4'000; ++i) {
    map.emplace(kernelMix(x) & 0xffff,
                std::string(40, static_cast<char>('a' + i % 26)));
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < 16'000; ++i) {
    const auto it = map.find(kernelMix(x) & 0xffff);
    if (it != map.end()) sum += it->second.size();
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
  return secondsSince(start);
}

// Times the kernel slice every 20 ms between begin() and end() on its own
// thread; end() returns the median slice time. Constructed after
// pinToCurrentCpu(), the thread shares the measured thread's core. It
// lives as long as the sampler, so its allocator arena and stack cost the
// same memory in every run.
class SpeedSampler {
 public:
  SpeedSampler() : thread_([this](std::stop_token stop) { sample(stop); }) {}

  void begin() {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
    active_ = true;
    wake_.notify_all();
  }

  double end() {
    std::vector<double> samples;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      active_ = false;
      samples.swap(samples_);
    }
    wake_.notify_all();
    if (samples.empty()) samples.push_back(kernelSlice());  // a very short call
    return median(std::move(samples));
  }

 private:
  void sample(const std::stop_token& stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (wake_.wait(lock, stop, [this] { return active_; })) {
      lock.unlock();
      const double slice = kernelSlice();
      lock.lock();
      if (!active_) continue;
      samples_.push_back(slice);
      wake_.wait_for(lock, stop, std::chrono::milliseconds(20),
                     [this] { return !active_; });
    }
  }

  std::mutex mutex_;
  std::condition_variable_any wake_;
  bool active_ = false;          // guarded by mutex_
  std::vector<double> samples_;  // guarded by mutex_
  std::jthread thread_;          // last: joins before the members above die
};

// Pin the calling thread, and every thread it creates from now on, to the
// core it is running on.
void pinToCurrentCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(std::max(0, sched_getcpu()), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double referenceSeconds(double wall_s, double slice_s) {
  return wall_s * kSliceRefSeconds / slice_s;
}

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          // self-test size: tiny inputs, same checks
  std::int64_t pin_offset = 0;  // self-test hook: shifts every count pin
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

std::optional<Options> parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (!(v = value())) return std::nullopt;
    if (arg == "--workload") {
      o.workload = *v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v->c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = *v == "1";
    } else if (arg == "--pin-offset") {
      o.pin_offset = std::strtoll(v->c_str(), nullptr, 10);
    } else if (arg == "--out-dir") {
      o.out_dir = *v;
    } else if (arg == "--source-id") {
      o.source_id = *v;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || o.seconds <= 0) return std::nullopt;
  return o;
}

// ------------------------------------------------------------- host stamp

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string hostJson(const Options& o, bool& comparable) {
  const std::string build = CMC_BENCH_BUILD_TYPE;
  const std::string sanitize = CMC_BENCH_SANITIZE;
  const bool optimized =
      build == "Release" || build == "RelWithDebInfo" || build == "MinSizeRel";
  comparable = optimized && sanitize.empty();
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":\"" << jsonEscape(cpuModel()) << "\",\"compiler\":\""
      << jsonEscape(CMC_BENCH_COMPILER) << "\",\"build_type\":\""
      << jsonEscape(build) << "\",\"sanitize\":\"" << jsonEscape(sanitize)
      << "\",\"source\":\"" << jsonEscape(o.source_id)
      << "\",\"comparable\":" << (comparable ? "true" : "false") << "}";
  return out.str();
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double currentRssBytes() {
  std::ifstream in("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ------------------------------------------------------------------- spans

// In-memory span log around the public calls, written out at exit. One
// run id per workload run; parent 0 means "no parent".
class SpanLog {
 public:
  SpanLog(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = log_.spans_.size();
      log_.spans_.push_back(Span{log_.spans_.size() + 1,
                                 log_.open_.empty() ? 0 : log_.open_.back(),
                                 name, log_.nowNs(), 0});
      log_.open_.push_back(log_.spans_[index_].id);
    }
    ~Scope() {
      if (!log_.enabled_) return;
      log_.spans_[index_].end_ns = log_.nowNs();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_ = 0;
  };

  bool write(const std::string& path, const std::string& header) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{" << header << ",\"run_id\":\"" << jsonEscape(run_id_)
        << "\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"run\":\""
          << jsonEscape(run_id_) << "\",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;
};

// ------------------------------------------------------------------ result

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void fail(std::uint64_t count, std::string why) {
    failed += count;
    problems.push_back(std::move(why));
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  [[nodiscard]] bool correct() const noexcept {
    return failed == 0 && problems.empty();
  }
};

void printResult(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  r.attempted, 1)),
              static_cast<unsigned long long>(r.failed));
  if (r.correct()) {  // a failed check produces no timing
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const auto& [name, m] = r.metrics[i];
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), num(m.first).c_str(),
                  m.second.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------- §VIII-C latency law gate

// Media-setup latency after the last flowlink of a k-box chain initializes,
// measured exactly as bench_latency_path_length does: devices A and B at
// the ends, every box but the one next to A pre-linked, a convergence
// probe armed at the instant that box links its slots.
std::optional<std::int64_t> lawLatencyUs(std::size_t k) {
  using namespace cmc::literals;
  Simulator sim(TimingModel::paperDefaults(), 3);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.9.0.2", 5000));
  std::vector<Box*> patches;
  for (std::size_t i = 0; i < k; ++i) {
    patches.push_back(&sim.addBox<Box>("P" + std::to_string(i + 1)));
  }
  std::vector<ChannelId> channels;
  channels.push_back(sim.connect("A", "P1"));
  for (std::size_t i = 0; i + 1 < k; ++i) {
    channels.push_back(
        sim.connect("P" + std::to_string(i + 1), "P" + std::to_string(i + 2)));
  }
  channels.push_back(sim.connect("P" + std::to_string(k), "B"));
  DescriptorFactory hold_ids{77};
  for (std::size_t i = 0; i < k; ++i) {
    Box& box = *patches[i];
    const SlotId left = box.slotsOf(channels[i]).front();
    const SlotId right = box.slotsOf(channels[i + 1]).front();
    if (i == 0) {
      box.setGoal(left, HoldSlotGoal{MediaIntent::server(), hold_ids});
      box.setGoal(right, HoldSlotGoal{MediaIntent::server(), hold_ids});
    } else {
      box.linkSlots(left, right);
    }
  }
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.inject("B", [](Box& bx) { static_cast<UserDeviceBox&>(bx).callOnLine(); });
  sim.runFor(20_s);

  const MediaAddress a_addr =
      static_cast<UserDeviceBox&>(sim.box("A")).media().address();
  const std::string probe = "path_p" + std::to_string(k);
  sim.probes().arm(probe, probe, sim.nowUs(), [&b, a_addr]() {
    const auto& st = b.media().sendingState();
    return st && st->target == a_addr && !isNoMedia(st->codec);
  });
  sim.inject("P1", [&channels](Box& bx) {
    bx.linkSlots(bx.slotsOf(channels[0]).front(),
                 bx.slotsOf(channels[1]).front());
  });
  sim.runFor(30_s);
  return sim.probes().latencyUs(probe);
}

// Residual of the law p*n + (p+1)*c for p = 1..4; every one must be 0 µs.
void checkLatencyLaw(Result& result) {
  const TimingModel timing = TimingModel::paperDefaults();
  const std::int64_t n =
      std::chrono::duration_cast<std::chrono::microseconds>(timing.network)
          .count();
  const std::int64_t c =
      std::chrono::duration_cast<std::chrono::microseconds>(timing.processing)
          .count();
  std::string line = "LAW {\"residual_us\":[";
  for (std::size_t p = 1; p <= 4; ++p) {
    const auto pi = static_cast<std::int64_t>(p);
    const std::optional<std::int64_t> got = lawLatencyUs(p);
    const std::int64_t expected = pi * n + (pi + 1) * c;
    if (p > 1) line += ',';
    line += got ? std::to_string(*got - expected) : "null";
    if (!got || *got != expected) {
      result.fail(1, "latency law residual nonzero at p=" + std::to_string(p));
    }
  }
  std::printf("%s]}\n", line.c_str());
}

// ------------------------------------------------------- profiler readout

struct SiteAgg {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  std::uint64_t allocs = 0;
};

// Per-site totals over every calling context, as attributionJson sums them.
std::map<std::string, SiteAgg> siteTable(const obs::ProfileReport& report) {
  std::map<std::string, SiteAgg> sites;
  for (const obs::ProfileNode& n : report.nodes()) {
    if (n.is_value || n.depth == 0) continue;
    SiteAgg& agg = sites[n.site];
    agg.calls += n.calls;
    agg.self_ns += n.self_ns;
    agg.allocs += n.allocs;
  }
  return sites;
}

// ------------------------------------------------------------ load plane

struct LoadShape {
  const char* name;
  double arrivals_per_s;
  double fault_fraction;
  std::size_t calls;       // part of the workload's definition
  std::size_t tiny_calls;  // self-test size
};

constexpr LoadShape kLoadShapes[] = {
    {"calls_low_conc", 100.0, 0.0, 20'000, 400},
    {"calls_high_conc", 2000.0, 0.0, 16'000, 800},
    {"calls_faulty", 500.0, 0.25, 8'000, 400},
};

// Reference input for the load layers on a workload that leaves them idle
// (explore_1t's traced run), so every traced run reports every layer.
constexpr LoadShape kLoadReference = {"load_reference", 100.0, 0.0, 2'000,
                                      200};

load::WorkloadSpec workloadSpec(const LoadShape& shape, const Options& o) {
  load::WorkloadSpec spec;
  spec.master_seed = o.seed;
  spec.calls = o.tiny ? shape.tiny_calls : shape.calls;
  spec.arrivals_per_s = shape.arrivals_per_s;
  spec.fault_fraction = shape.fault_fraction;
  return spec;
}

load::LoadConfig loadConfig(bool profile) {
  load::LoadConfig config;
  config.shards = 1;  // calls/s per core
  config.profile = profile;
  return config;
}

// Correctness gate for one finished run: every call converged and tore
// down clean, and the setup histogram holds one sample per call. Returns
// the number of failed calls (at least 1 when a pin does not hold).
std::uint64_t loadFailures(const load::ShardedRuntime& rt, std::size_t calls,
                           std::int64_t pin_offset) {
  const auto expected = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(calls) + pin_offset);
  std::uint64_t bad = 0;
  for (const load::CallOutcome& out : rt.outcomes()) {
    if (!out.converged || !out.clean_teardown) ++bad;
  }
  const bool pins_hold = rt.outcomes().size() == expected &&
                         rt.convergedCount() == expected &&
                         rt.cleanTeardownCount() == expected &&
                         rt.setupLatency().count() == expected;
  return pins_hold ? bad : std::max<std::uint64_t>(bad, 1);
}

struct LoadRun {
  double run_s = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::uint64_t signals = 0;
  std::size_t peak_queue = 0;
  std::uint64_t faults = 0;
  std::size_t faulty_calls = 0;
  double setup_p50_us = 0;
  double setup_p99_us = 0;
  std::uint64_t setup_samples = 0;
  std::size_t rollup_bytes = 0;
  double rollup_json_s = 0;
  obs::ProfileReport profile;
};

LoadRun runLoadOnce(const std::vector<load::CallSpec>& calls,
                    const load::WorkloadSpec& spec, bool profile,
                    std::int64_t pin_offset, SpanLog& spans) {
  LoadRun out;
  auto rt = std::make_unique<load::ShardedRuntime>(loadConfig(profile));
  {
    SpanLog::Scope span(spans, "load.run");
    const auto start = Clock::now();
    rt->run(calls, spec);
    out.run_s = secondsSince(start);
  }
  {
    SpanLog::Scope span(spans, "obs.metrics_json");
    const auto start = Clock::now();
    out.rollup_bytes = rt->metricsJson().size();
    out.rollup_json_s = secondsSince(start);
  }
  SpanLog::Scope span(spans, "gate");
  out.failed = loadFailures(*rt, calls.size(), pin_offset);
  for (const load::ShardStats& s : rt->shardStats()) {
    out.events += s.events_executed;
    out.signals += s.signals_delivered;
    out.peak_queue = std::max(out.peak_queue, s.peak_pending);
  }
  for (const load::CallOutcome& o : rt->outcomes()) {
    if (!o.spec.faulty) continue;
    ++out.faulty_calls;
    out.faults += o.faults_injected;
  }
  out.setup_p50_us = rt->setupLatency().quantile(0.50);
  out.setup_p99_us = rt->setupLatency().quantile(0.99);
  out.setup_samples = rt->setupLatency().count();
  if (profile) out.profile = rt->profileReport();
  return out;
}

// Load set-up: generate the call set, construct a runtime, and warm up on
// the first kWarmupCalls calls, so descriptor interning, codec tables and
// allocator free lists fill here rather than in the timed runs. Timed
// `reps` times; returns the last generated call set.
constexpr std::size_t kWarmupCalls = 1'000;

std::vector<load::CallSpec> loadSetup(const load::WorkloadSpec& spec, int reps,
                                      std::vector<double>& setup_s,
                                      std::vector<double>& generate_s,
                                      Result& result, SpanLog& spans) {
  std::vector<load::CallSpec> calls;
  for (int r = 0; r < reps; ++r) {
    SpanLog::Scope span(spans, "setup");
    const auto start = Clock::now();
    {
      SpanLog::Scope gen(spans, "load.generate");
      calls = load::WorkloadGenerator(spec).generate();
    }
    generate_s.push_back(secondsSince(start));
    SpanLog::Scope warm_span(spans, "load.warmup");
    const std::vector<load::CallSpec> warm(
        calls.begin(),
        calls.begin() + static_cast<std::ptrdiff_t>(
                            std::min(kWarmupCalls, calls.size())));
    load::ShardedRuntime rt(loadConfig(false));
    rt.run(warm, spec);
    setup_s.push_back(secondsSince(start));
    result.attempted += warm.size();
    if (const std::uint64_t bad = loadFailures(rt, warm.size(), 0)) {
      result.fail(bad, "warm-up calls failed");
    }
  }
  return calls;
}

// ------------------------------------------------------------ explorer

struct ExploreShape {
  GoalKind left;
  GoalKind right;
  std::size_t flowlinks;
  std::size_t states;
  std::size_t transitions;
};
// The explore_1t model, and the 0-flowlink openSlot/openSlot model (the
// explorer warm-up, the self-test model and the reference input for the mc
// layer on load workloads). Counts from EXPERIMENTS.md E1 (chaos budget 1,
// modify budget 1).
constexpr ExploreShape kModelWorkload = {GoalKind::closeSlot,
                                         GoalKind::openSlot, 1, 114'132,
                                         321'288};
constexpr ExploreShape kModelSmall = {GoalKind::openSlot, GoalKind::openSlot,
                                      0, 13'470, 31'607};

struct ExploreRun {
  double explore_s = 0;
  double check_s = 0;
  std::uint64_t failed = 0;
  ExploreStats stats;
  std::size_t canonical_bytes = 0;
};

// explorePath + checkSpec on one thread, and the pins on the result.
ExploreRun exploreOnce(const ExploreShape& model, std::int64_t pin_offset,
                       SpanLog& spans) {
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  limits.max_states = 4'000'000;
  ExploreRun out;
  ExploreResult graph;
  {
    SpanLog::Scope span(spans, "mc.explore");
    const auto start = Clock::now();
    graph = explorePath(model.left, model.right, model.flowlinks, limits);
    out.explore_s = secondsSince(start);
  }
  std::optional<TemporalViolation> violation;
  {
    SpanLog::Scope span(spans, "mc.check");
    const auto start = Clock::now();
    violation = checkSpec(graph, specFor(model.left, model.right));
    out.check_s = secondsSince(start);
  }
  out.stats = graph.stats;
  out.canonical_bytes = graph.bytes_canonical;
  const auto expected_states = static_cast<std::size_t>(
      static_cast<std::int64_t>(model.states) + pin_offset);
  if (graph.states() != expected_states ||
      graph.transitions != model.transitions || graph.truncated ||
      violation.has_value()) {
    out.failed = 1;
    std::printf("GATE {\"states\":%zu,\"transitions\":%zu,\"truncated\":%s,"
                "\"violation\":%s}\n",
                graph.states(), graph.transitions,
                graph.truncated ? "true" : "false",
                violation ? "true" : "false");
  }
  return out;
}

// Explorer set-up: the small 0-flowlink model (descriptor interning,
// allocator free lists), timed `reps` times.
void exploreSetup(int reps, std::vector<double>& setup_s, Result& result,
                  SpanLog& spans) {
  for (int r = 0; r < reps; ++r) {
    SpanLog::Scope span(spans, "setup");
    const auto start = Clock::now();
    const ExploreRun warm = exploreOnce(kModelSmall, 0, spans);
    setup_s.push_back(secondsSince(start));
    if (warm.failed) result.fail(warm.failed, "explorer warm-up pin failed");
  }
}

// A traced explore with a ProfileTable installed on this thread.
ExploreRun exploreTraced(const ExploreShape& model, std::int64_t pin_offset,
                         obs::ProfileReport& profile, SpanLog& spans) {
  obs::ProfileTable table("perfbench");
  obs::setThreadProfiler(&table);
  ExploreRun out = exploreOnce(model, pin_offset, spans);
  obs::setThreadProfiler(nullptr);
  profile.mergeFrom(table.report());
  return out;
}

// ------------------------------------------------------------ per-layer

constexpr const char* kSites[] = {
    "loop.dispatch",  "shard.schedule",   "shard.drain",
    "shard.finalize", "sim.stimulus",     "sim.output_admin",
    "sim.process_output", "sim.deliver_tunnel", "slot.deliver",
    "flowlink.on_event", "mc.expand_state", "mc.canonicalize",
    "mc.fingerprint", "mc.merge",
};

// Site metrics: from the workload's own traced run where it visited the
// site, else from the reference run of the layer it leaves idle.
void siteMetrics(const obs::ProfileReport& own,
                 const obs::ProfileReport& reference, Result& result) {
  const auto own_sites = siteTable(own);
  const auto ref_sites = siteTable(reference);
  std::string from_reference;
  for (const char* site : kSites) {
    SiteAgg agg;
    if (auto it = own_sites.find(site);
        it != own_sites.end() && it->second.calls > 0) {
      agg = it->second;
    } else if (auto ref = ref_sites.find(site); ref != ref_sites.end()) {
      agg = ref->second;
      from_reference += std::string(from_reference.empty() ? "" : ",") +
                        "\"" + site + "\"";
    }
    const double calls = agg.calls > 0 ? static_cast<double>(agg.calls) : 1.0;
    result.metric(std::string(site) + ".self_ns_per_op",
                  static_cast<double>(agg.self_ns) / calls, "ns");
    if (std::strcmp(site, "shard.drain") != 0 &&
        std::strcmp(site, "shard.finalize") != 0) {
      result.metric(std::string(site) + ".allocs_per_op",
                    static_cast<double>(agg.allocs) / calls, "allocs/op");
    }
  }
  std::printf("LAYER_SOURCE {\"from_reference_run\":[%s]}\n",
              from_reference.c_str());
}

struct LoadLayers {
  LoadRun untraced;
  double traced_s = 0;
  double generate_s = 0;
  std::size_t calls = 0;
};

void loadLayerMetrics(const LoadLayers& l, Result& result) {
  const double calls = static_cast<double>(std::max<std::size_t>(l.calls, 1));
  const LoadRun& u = l.untraced;
  result.metric("sim.events_per_call", static_cast<double>(u.events) / calls,
                "events/call");
  result.metric("sim.ns_per_event",
                u.run_s * 1e9 /
                    static_cast<double>(std::max<std::uint64_t>(u.events, 1)),
                "ns");
  result.metric("sim.signals_per_call", static_cast<double>(u.signals) / calls,
                "signals/call");
  result.metric("sim.faults_per_faulty_call",
                u.faulty_calls > 0 ? static_cast<double>(u.faults) /
                                         static_cast<double>(u.faulty_calls)
                                   : 0.0,
                "faults/call");
  result.metric("sim.peak_queue", static_cast<double>(u.peak_queue), "events");
  result.metric("load.generate_s", l.generate_s, "s");
  result.metric("load.run_s", u.run_s, "s");
  result.metric("load.setup_p50_us", u.setup_p50_us, "us");
  result.metric("load.setup_p99_us", u.setup_p99_us, "us");
  result.metric("load.setup_samples", static_cast<double>(u.setup_samples),
                "count");
  result.metric("obs.rollup_bytes", static_cast<double>(u.rollup_bytes),
                "bytes");
  result.metric("obs.rollup_json_s", u.rollup_json_s, "s");
}

struct ExploreLayers {
  ExploreRun untraced;
  double rss_bytes_per_state = 0;
};

void exploreLayerMetrics(const ExploreLayers& l, Result& result) {
  const ExploreStats& s = l.untraced.stats;
  const double states = static_cast<double>(std::max<std::size_t>(s.states, 1));
  result.metric("mc.explore_s", l.untraced.explore_s, "s");
  result.metric("mc.expand_s", s.expand_seconds, "s");
  result.metric("mc.merge_s", s.merge_seconds, "s");
  result.metric("mc.check_s", l.untraced.check_s, "s");
  result.metric("mc.states_per_s", s.statesPerSecond(), "1/s");
  result.metric("mc.peak_frontier", static_cast<double>(s.peak_frontier),
                "states");
  result.metric("mc.dedup_ratio", s.dedupRatio(), "ratio");
  result.metric("mc.canonical_bytes_per_state",
                static_cast<double>(l.untraced.canonical_bytes) / states,
                "bytes");
  result.metric("mc.rss_bytes_per_state", l.rss_bytes_per_state, "bytes");
}

// Untraced run with the RSS growth it causes per state.
ExploreLayers exploreLayers(const ExploreShape& model, std::int64_t pin_offset,
                            Result& result, SpanLog& spans) {
  ExploreLayers l;
  const double rss_before = currentRssBytes();
  l.untraced = exploreOnce(model, pin_offset, spans);
  const double states = static_cast<double>(
      std::max<std::size_t>(l.untraced.stats.states, 1));
  l.rss_bytes_per_state =
      std::max(0.0, peakRssMb() * 1024.0 * 1024.0 - rss_before) / states;
  if (l.untraced.failed) result.fail(l.untraced.failed, "explorer pin failed");
  ++result.attempted;
  return l;
}

// -------------------------------------------------------------- workloads

constexpr int kSetupReps = 9;

// Set-up time in reference seconds: the median repetition, normalized by
// the slices sampled across all repetitions.
double setupReferenceSeconds(const std::vector<double>& setup_s,
                             double slice_s) {
  std::string reps;
  for (const double v : setup_s) reps += (reps.empty() ? "" : ",") + num(v);
  std::printf("SETUP {\"reps_s\":[%s],\"slice_s\":%s}\n", reps.c_str(),
              num(slice_s).c_str());
  return referenceSeconds(median(setup_s), slice_s);
}

// Keep starting iterations while the next one (as long as the longest so
// far) still fits in the measurement window; always at least one.
class Window {
 public:
  explicit Window(double seconds) : seconds_(seconds) {}
  [[nodiscard]] bool more(double longest) const {
    return secondsSince(start_) + longest <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
};

void runLoadWorkload(const LoadShape& shape, const Options& o,
                     SpeedSampler& speed, Result& result, SpanLog& spans) {
  const load::WorkloadSpec spec = workloadSpec(shape, o);
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  speed.begin();
  const auto calls =
      loadSetup(spec, kSetupReps, setup_s, generate_s, result, spans);
  const double setup_ref_s = setupReferenceSeconds(setup_s, speed.end());

  auto account = [&](const LoadRun& run) {
    result.attempted += calls.size();
    if (run.failed) {
      result.fail(run.failed, std::to_string(run.failed) + " calls failed");
    }
  };

  if (!o.trace) {
    // Peak RSS is read after the first iteration: later ones add only
    // allocator fragmentation, which varies from run to run.
    std::vector<double> work_per_s;
    double peak_rss_mb = 0;
    double longest = 0;
    Window window(o.seconds);
    do {
      SpanLog::Scope span(spans, "iteration");
      const auto start = Clock::now();
      speed.begin();
      const LoadRun run = runLoadOnce(calls, spec, false, o.pin_offset, spans);
      const double slice_s = speed.end();
      account(run);
      const double ref_s = referenceSeconds(run.run_s, slice_s);
      const double n = static_cast<double>(calls.size());
      work_per_s.push_back(n / ref_s);
      if (work_per_s.size() == 1) peak_rss_mb = peakRssMb();
      std::printf(
          "ITER {\"calls\":%zu,\"calls_per_s\":%.1f,\"calls_per_ref_s\":%.1f,"
          "\"run_s\":%.4f,\"slice_s\":%.7f,\"setup_p50_us\":%.1f,"
          "\"setup_p99_us\":%.1f,\"samples\":%llu,\"call_fail_frac\":%.6f,"
          "\"events\":%llu}\n",
          calls.size(), n / run.run_s, n / ref_s, run.run_s, slice_s,
          run.setup_p50_us, run.setup_p99_us,
          static_cast<unsigned long long>(run.setup_samples),
          static_cast<double>(run.failed) / n,
          static_cast<unsigned long long>(run.events));
      longest = std::max(longest, secondsSince(start));
    } while (window.more(longest));
    result.metric("norm_work_per_s", median(work_per_s), "1/s");
    result.metric("peak_rss_mb", peak_rss_mb, "MB");
    result.metric("setup_s", setup_ref_s, "s");
    return;
  }

  // Traced: untraced/traced pairs on the same call set give the trace
  // overhead; the traced runs' profiles merge into one report.
  LoadLayers layers;
  layers.calls = calls.size();
  layers.generate_s = median(generate_s);
  obs::ProfileReport profile;
  std::vector<double> overhead;
  double longest = 0;
  Window window(o.seconds);
  do {
    SpanLog::Scope span(spans, "iteration");
    const auto start = Clock::now();
    LoadRun plain = runLoadOnce(calls, spec, false, o.pin_offset, spans);
    LoadRun traced = runLoadOnce(calls, spec, true, o.pin_offset, spans);
    account(plain);
    account(traced);
    overhead.push_back(traced.run_s / plain.run_s);
    profile.mergeFrom(traced.profile);
    if (overhead.size() == 1) layers.untraced = std::move(plain);
    longest = std::max(longest, secondsSince(start));
  } while (window.more(longest));

  // Reference run of the mc layer, which this workload leaves idle.
  obs::ProfileReport mc_profile;
  ExploreLayers mc;
  {
    SpanLog::Scope span(spans, "reference.explore");
    mc = exploreLayers(kModelSmall, 0, result, spans);
    const ExploreRun traced = exploreTraced(kModelSmall, 0, mc_profile, spans);
    ++result.attempted;
    if (traced.failed) result.fail(traced.failed, "reference explore failed");
  }
  siteMetrics(profile, mc_profile, result);
  loadLayerMetrics(layers, result);
  exploreLayerMetrics(mc, result);
  result.metric("obs.trace_overhead", median(overhead), "ratio");
}

void runExploreWorkload(const Options& o, SpeedSampler& speed, Result& result,
                        SpanLog& spans) {
  const ExploreShape& model = o.tiny ? kModelSmall : kModelWorkload;
  std::vector<double> setup_s;
  speed.begin();
  exploreSetup(kSetupReps, setup_s, result, spans);
  const double setup_ref_s = setupReferenceSeconds(setup_s, speed.end());

  if (!o.trace) {
    // Peak RSS is read after the first iteration: later ones add only
    // allocator fragmentation, which varies from run to run.
    std::vector<double> work_per_s;
    double peak_rss_mb = 0;
    double longest = 0;
    Window window(o.seconds);
    do {
      SpanLog::Scope span(spans, "iteration");
      const auto start = Clock::now();
      speed.begin();
      const ExploreRun run = exploreOnce(model, o.pin_offset, spans);
      const double slice_s = speed.end();
      ++result.attempted;
      if (run.failed) result.fail(run.failed, "explorer pin failed");
      const double verify_s = run.explore_s + run.check_s;
      const double ref_s = referenceSeconds(verify_s, slice_s);
      const double states = static_cast<double>(run.stats.states);
      work_per_s.push_back(states / ref_s);
      if (work_per_s.size() == 1) peak_rss_mb = peakRssMb();
      std::printf("ITER {\"verify_s\":%.4f,\"verify_ref_s\":%.4f,"
                  "\"explore_s\":%.4f,\"check_s\":%.4f,\"slice_s\":%.7f,"
                  "\"states\":%zu}\n",
                  verify_s, ref_s, run.explore_s, run.check_s, slice_s,
                  run.stats.states);
      longest = std::max(longest, secondsSince(start));
    } while (window.more(longest));
    result.metric("norm_work_per_s", median(work_per_s), "1/s");
    result.metric("peak_rss_mb", peak_rss_mb, "MB");
    result.metric("setup_s", setup_ref_s, "s");
    return;
  }

  // Traced: counters and RSS growth from one untraced run, then untraced/
  // traced pairs for the profile and the trace overhead.
  const ExploreLayers layers =
      exploreLayers(model, o.pin_offset, result, spans);
  obs::ProfileReport profile;
  std::vector<double> overhead;
  double longest = 0;
  Window window(o.seconds);
  do {
    SpanLog::Scope span(spans, "iteration");
    const auto start = Clock::now();
    const ExploreRun plain = exploreOnce(model, o.pin_offset, spans);
    const ExploreRun traced = exploreTraced(model, o.pin_offset, profile, spans);
    result.attempted += 2;
    if (plain.failed + traced.failed) {
      result.fail(plain.failed + traced.failed, "explorer pin failed");
    }
    overhead.push_back((traced.explore_s + traced.check_s) /
                       (plain.explore_s + plain.check_s));
    longest = std::max(longest, secondsSince(start));
  } while (window.more(longest));

  // Reference run of the load layers, which this workload leaves idle.
  LoadLayers load_layers;
  obs::ProfileReport load_profile;
  {
    SpanLog::Scope span(spans, "reference.load");
    Options ref = o;
    ref.pin_offset = 0;
    const load::WorkloadSpec spec = workloadSpec(kLoadReference, ref);
    std::vector<double> setup_s_ref;
    std::vector<double> generate_s;
    const auto calls =
        loadSetup(spec, 1, setup_s_ref, generate_s, result, spans);
    load_layers.calls = calls.size();
    load_layers.generate_s = median(generate_s);
    load_layers.untraced = runLoadOnce(calls, spec, false, 0, spans);
    LoadRun traced = runLoadOnce(calls, spec, true, 0, spans);
    load_profile = std::move(traced.profile);
    result.attempted += 2 * calls.size();
    const std::uint64_t failed = load_layers.untraced.failed + traced.failed;
    if (failed) result.fail(failed, "reference load run failed");
  }
  siteMetrics(profile, load_profile, result);
  loadLayerMetrics(load_layers, result);
  exploreLayerMetrics(layers, result);
  result.metric("obs.trace_overhead", median(overhead), "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parseOptions(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: cmc_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] [--pin-offset <k>] "
                 "[--out-dir <dir>] [--source-id <id>]\n");
    return 2;
  }
  const Options& o = *parsed;
  const LoadShape* shape = nullptr;
  for (const LoadShape& s : kLoadShapes) {
    if (o.workload == s.name) shape = &s;
  }
  if (shape == nullptr && o.workload != "explore_1t") {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  bool comparable = false;
  const std::string host = hostJson(o, comparable);
  std::printf("HOST %s\n", host.c_str());
  if (!comparable) {
    std::fprintf(stderr, "warning: sanitizer or unoptimised build; numbers "
                         "are not comparable with optimised builds\n");
  }
  std::printf("WORKLOAD {\"name\":\"%s\",\"seed\":%llu,\"seeded\":%s,"
              "\"tiny\":%s}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              shape != nullptr ? "true" : "false", o.tiny ? "true" : "false");

  SpanLog spans(o.trace, o.workload + "-s" + std::to_string(o.seed) + "-p" +
                             std::to_string(getpid()));
  // Every workload runs on one core (one shard, one explorer thread),
  // beside its speed sampler.
  pinToCurrentCpu();
  SpeedSampler speed;
  Result result;
  {
    SpanLog::Scope root(spans, "workload");
    {
      SpanLog::Scope span(spans, "gate.latency_law");
      checkLatencyLaw(result);
    }
    if (result.correct()) {
      try {
        if (shape != nullptr) {
          runLoadWorkload(*shape, o, speed, result, spans);
        } else {
          runExploreWorkload(o, speed, result, spans);
        }
      } catch (const std::exception& e) {
        result.fail(1, std::string("exception: ") + e.what());
      }
    }
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  if (o.trace) {
    const std::string path =
        o.out_dir + "/spans-" + o.workload + "-s" + std::to_string(o.seed) +
        ".json";
    if (!spans.write(path, "\"host\":" + host + ",\"workload\":\"" +
                               o.workload + "\"")) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("SPANS %s\n", path.c_str());
  }
  printResult(result);
  return result.correct() ? 0 : 1;
}
