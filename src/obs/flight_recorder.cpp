#include "obs/flight_recorder.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>

#include "obs/critical_path.hpp"
#include "obs/probes.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace cmc::obs {

namespace {

std::atomic<FlightRecorder*> g_flight{nullptr};
thread_local FlightRecorder* t_flight = nullptr;

// Reasons become part of the filename; keep them filesystem-safe.
std::string slugify(std::string_view reason) {
  std::string slug;
  slug.reserve(reason.size());
  for (char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    slug += ok ? c : '_';
    if (slug.size() >= 48) break;
  }
  return slug.empty() ? std::string("unspecified") : slug;
}

}  // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config config) : config_(std::move(config)) {}

void FlightRecorder::setTrace(TraceRecorder* trace) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_ = trace;
}

void FlightRecorder::setMetrics(const MetricsRegistry* metrics) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
}

void FlightRecorder::setProbes(const ConvergenceProbes* probes) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  probes_ = probes;
}

void FlightRecorder::setProfileSource(
    std::function<std::string()> source) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  profile_source_ = std::move(source);
}

std::string FlightRecorder::dump(std::string_view reason,
                                 const MetricsSnapshot* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dumps_ >= config_.max_dumps) return {};
  const std::uint64_t seq = dumps_++;

  std::string body = "{\"reason\":\"";
  appendJsonEscaped(body, reason);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\",\"seq\":%llu",
                static_cast<unsigned long long>(seq));
  body += buf;
  if (trace_ != nullptr) {
    const std::vector<TraceEvent> window = trace_->snapshot();
    std::snprintf(buf, sizeof(buf), ",\"events_retained\":%zu", window.size());
    body += buf;
    std::snprintf(buf, sizeof(buf), ",\"events_dropped\":%llu",
                  static_cast<unsigned long long>(trace_->dropped()));
    body += buf;
    std::snprintf(buf, sizeof(buf), ",\"events_capacity\":%zu",
                  trace_->capacity());
    body += buf;
    body += ",\"critical_path\":";
    body += criticalPath(window).json();
    body += ",\"trace\":";
    body += trace_->chromeTraceJson();
  }
  if (probes_ != nullptr) {
    std::snprintf(buf, sizeof(buf), ",\"probes_armed\":%zu,\"probes_failed\":%zu",
                  probes_->armedCount(), probes_->failedCount());
    body += buf;
  }
  if (metrics != nullptr || metrics_ != nullptr) {
    body += ",\"metrics\":";
    body += metrics != nullptr ? metrics->json()
                               : MetricsSnapshot::capture(*metrics_).json();
  }
  if (profile_source_) {
    const std::string profile = profile_source_();
    if (!profile.empty()) {
      body += ",\"profile\":";
      body += profile;
    }
  }
  body += "}";

  std::string path = config_.directory;
  if (!path.empty() && path.back() != '/') path += '/';
  path += config_.prefix;
  std::snprintf(buf, sizeof(buf), "_%llu_", static_cast<unsigned long long>(seq));
  path += buf;
  path += slugify(reason);
  path += ".json";

  std::ofstream out(path, std::ios::trunc);
  if (!out) return {};
  out << body;
  out.close();
  last_path_ = path;
  return path;
}

std::uint64_t FlightRecorder::dumps() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumps_;
}

std::string FlightRecorder::lastPath() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_path_;
}

FlightRecorder* flightRecorder() noexcept {
  if (t_flight != nullptr) return t_flight;
  return g_flight.load(std::memory_order_relaxed);
}

void setFlightRecorder(FlightRecorder* recorder) noexcept {
  g_flight.store(recorder, std::memory_order_release);
}

void setThreadFlightRecorder(FlightRecorder* recorder) noexcept {
  t_flight = recorder;
}

bool flightAssert(bool ok, std::string_view what) {
  if (!ok) {
    if (FlightRecorder* fr = flightRecorder()) {
      fr->dump(std::string("assert:") + std::string(what));
    }
  }
  return ok;
}

}  // namespace cmc::obs
