#include "load/live_telemetry.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cmc::load {

namespace {

std::size_t parseCount(const std::string& args) {
  if (args.empty()) return 0;  // 0 = all retained
  return static_cast<std::size_t>(std::strtoull(args.c_str(), nullptr, 10));
}

double windowQuantile(const obs::MetricsDelta* window, std::string_view name,
                      double q) {
  if (window == nullptr) return -1.0;
  const obs::HistogramSample* h = window->histogram(name);
  if (h == nullptr || h->count == 0) return -1.0;
  return h->quantile(q);
}

}  // namespace

LiveTelemetry::LiveTelemetry(Config config)
    : config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()),
      series_(kSeriesCapacity),
      watchdog_(config_.slos) {
  if (config_.ops_port >= 0) {
    server_ = std::make_unique<obs::OpsServer>(
        static_cast<std::uint16_t>(config_.ops_port));
  }
  if (!config_.flight_dir.empty()) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        obs::FlightRecorder::Config{config_.flight_dir, "slo", 16});
  }
  watchdog_.setOnBreach([this](const obs::SloStatus& status) {
    // Sampler thread, hub lock held: dump only hub-owned state. This tick's
    // merged snapshot was pushed just before evaluate() ran.
    if (flight_ != nullptr) {
      flight_->dump("slo_breach:" + status.rule, series_.latest());
    }
  });
  registerVerbs();
  if (server_ != nullptr && server_->ok()) server_->start();
}

LiveTelemetry::~LiveTelemetry() {
  finish();
  if (server_ != nullptr) server_->stop();
}

bool LiveTelemetry::ok() const noexcept {
  return server_ == nullptr || server_->ok();
}

std::uint16_t LiveTelemetry::port() const noexcept {
  return server_ != nullptr ? server_->port() : 0;
}

void LiveTelemetry::attach(std::vector<const obs::MetricsRegistry*> shards) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (attached_) return;
    attached_ = true;
    registries_ = std::move(shards);
    shard_series_.clear();
    // shardsText() reads only each shard's latest snapshot and window.
    for (std::size_t i = 0; i < registries_.size(); ++i) {
      shard_series_.emplace_back(1);
    }
  }
  sampler_ = std::thread([this]() { samplerLoop(); });
}

void LiveTelemetry::attachProfiles(
    std::vector<const obs::ProfileTable*> profiles) {
  std::lock_guard<std::mutex> lock(mutex_);
  profiles_ = std::move(profiles);
  if (flight_ != nullptr) {
    // The breach hook dumps with the hub lock held, so the source reads the
    // live tables directly (their counters are relaxed atomics) and never
    // touches hub state.
    flight_->setProfileSource(
        [tables = profiles_]() { return obs::mergeTables(tables).json(); });
  }
}

void LiveTelemetry::finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!attached_ || finished_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  // One last window so the served state reflects the drained run, then drop
  // the borrowed registry pointers — the shards are about to be destroyed,
  // and the endpoint keeps serving the retained snapshots.
  sampleOnce();
  std::lock_guard<std::mutex> lock(mutex_);
  // Same retention discipline for the profile: merge once while the shard
  // tables are still alive, serve the retained report afterwards.
  if (!profiles_.empty()) {
    retained_profile_ = obs::mergeTables(profiles_);
    profile_retained_ = true;
    profiles_.clear();
    if (flight_ != nullptr) {
      const std::string retained_json = retained_profile_.json();
      flight_->setProfileSource([retained_json]() { return retained_json; });
    }
  }
  registries_.clear();
  finished_ = true;
}

void LiveTelemetry::samplerLoop() {
  const auto period = std::chrono::milliseconds(
      config_.sample_ms > 0 ? config_.sample_ms : 250);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (cv_.wait_for(lock, period, [this]() { return stop_; })) break;
    lock.unlock();
    sampleOnce();
    lock.lock();
  }
}

void LiveTelemetry::sampleOnce() {
  TelemetryTick tick;
  std::function<void(const TelemetryTick&)> callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (registries_.empty()) return;
    const std::int64_t wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count();
    obs::MetricsSnapshot merged;
    merged.wall_ms = wall_ms;
    for (std::size_t i = 0; i < registries_.size(); ++i) {
      obs::MetricsSnapshot shot =
          obs::MetricsSnapshot::capture(*registries_[i], wall_ms);
      merged.mergeFrom(shot);
      shard_series_[i].push(std::move(shot));
    }

    series_.push(std::move(merged));
    const obs::MetricsDelta* window = series_.latestWindow();
    if (window != nullptr) watchdog_.evaluate(*window);
    ++ticks_;

    const obs::MetricsSnapshot* latest = series_.latest();
    tick.index = ticks_ - 1;
    tick.wall_ms = wall_ms;
    tick.window_ms = window != nullptr ? window->window_ms : 0;
    tick.arrivals = latest->counter("load.call_arrivals");
    tick.teardowns = latest->counter("load.call_teardowns");
    auto armed = latest->gauges.find("load.armed_probes");
    tick.armed_probes = armed != latest->gauges.end() ? armed->second.value : 0;
    tick.setup_p99_us = windowQuantile(window, "probe.call_setup_us", 0.99);
    tick.healthy = watchdog_.healthy();
    tick.breaches = watchdog_.breaches();
    callback = config_.on_sample;
  }
  // Outside the lock: the callback (and anything it triggers, like an ops
  // request from a test) may need hub state. The final tick fires it too —
  // a run shorter than one period still reports once.
  if (callback) callback(tick);
}

std::uint64_t LiveTelemetry::ticks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ticks_;
}

bool LiveTelemetry::healthy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watchdog_.healthy();
}

bool LiveTelemetry::everBreached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watchdog_.everBreached();
}

std::uint64_t LiveTelemetry::breaches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watchdog_.breaches();
}

std::uint64_t LiveTelemetry::sloDumps() const {
  return flight_ != nullptr ? flight_->dumps() : 0;
}

std::string LiveTelemetry::lastDumpPath() const {
  return flight_ != nullptr ? flight_->lastPath() : std::string{};
}

std::string LiveTelemetry::shardsText() const {
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < shard_series_.size(); ++i) {
    const obs::MetricsSnapshot* latest = shard_series_[i].latest();
    if (latest == nullptr) continue;
    const obs::MetricsDelta* window = shard_series_[i].latestWindow();
    std::int64_t armed = 0;
    auto it = latest->gauges.find("load.armed_probes");
    if (it != latest->gauges.end()) armed = it->second.value;
    const double rate =
        window != nullptr ? window->counterRate("load.call_arrivals") : 0.0;
    std::snprintf(
        buf, sizeof(buf),
        "shard=%zu arrivals=%llu teardowns=%llu armed=%lld "
        "arrivals_per_s=%.1f setup_p50_us=%.0f setup_p99_us=%.0f "
        "faults=%llu trace_dropped=%llu\n",
        i, static_cast<unsigned long long>(latest->counter("load.call_arrivals")),
        static_cast<unsigned long long>(latest->counter("load.call_teardowns")),
        static_cast<long long>(armed), rate,
        windowQuantile(window, "probe.call_setup_us", 0.50),
        windowQuantile(window, "probe.call_setup_us", 0.99),
        static_cast<unsigned long long>(latest->counter("fault.dropped") +
                                        latest->counter("fault.duplicated") +
                                        latest->counter("fault.delayed")),
        static_cast<unsigned long long>(latest->counter("trace.dropped")));
    out += buf;
  }
  return out;
}

std::string LiveTelemetry::healthText() const {
  std::string out = "health=";
  if (ticks_ == 0) {
    out += "starting";
  } else {
    out += watchdog_.healthy() ? "ok" : "degraded";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " ticks=%llu breaches=%llu ever_breached=%d final=%d\n",
                static_cast<unsigned long long>(ticks_),
                static_cast<unsigned long long>(watchdog_.breaches()),
                watchdog_.everBreached() ? 1 : 0, finished_ ? 1 : 0);
  out += buf;
  out += watchdog_.statusText();
  return out;
}

void LiveTelemetry::registerVerbs() {
  if (server_ == nullptr || !server_->ok()) return;
  server_->handle("metrics", "application/json", [this](const std::string&) {
    std::lock_guard<std::mutex> lock(mutex_);
    const obs::MetricsSnapshot* latest = series_.latest();
    return latest != nullptr ? latest->json() : std::string("{}");
  });
  server_->handle("prom", "text/plain", [this](const std::string&) {
    std::lock_guard<std::mutex> lock(mutex_);
    const obs::MetricsSnapshot* latest = series_.latest();
    return latest != nullptr ? obs::prometheusText(*latest) : std::string{};
  });
  server_->handle("series", "application/json", [this](const std::string& args) {
    std::lock_guard<std::mutex> lock(mutex_);
    return series_.json(parseCount(args));
  });
  server_->handle("shards", "text/plain", [this](const std::string&) {
    std::lock_guard<std::mutex> lock(mutex_);
    return shardsText();
  });
  server_->handle("health", "text/plain", [this](const std::string&) {
    std::lock_guard<std::mutex> lock(mutex_);
    return healthText();
  });
  server_->handle("profile", "application/json", [this](const std::string& args) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (profile_retained_) {
      return obs::profileResponse(retained_profile_, args);
    }
    if (profiles_.empty()) {
      throw std::runtime_error("no profiler attached (run with profiling on)");
    }
    return obs::profileResponse(obs::mergeTables(profiles_), args);
  });
  server_->handle("flight", "text/plain", [this](const std::string& args) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (flight_ == nullptr) {
      throw std::runtime_error("no flight recorder configured");
    }
    const obs::MetricsSnapshot* latest = series_.latest();
    if (latest == nullptr) throw std::runtime_error("no sample captured yet");
    const std::string path =
        flight_->dump(args.empty() ? "ops_request" : "ops:" + args, latest);
    if (path.empty()) throw std::runtime_error("dump failed (budget or io)");
    return path;
  });
}

}  // namespace cmc::load
