#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cmc::obs {

namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};
thread_local MetricsRegistry* t_metrics = nullptr;
std::atomic<std::uint64_t> g_registry_serial{0};

void raiseMax(std::atomic<std::int64_t>& slot, std::int64_t value) noexcept {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void lowerMin(std::atomic<std::int64_t>& slot, std::int64_t value) noexcept {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

double Histogram::bucketLo(std::size_t i) noexcept {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double Histogram::bucketHi(std::size_t i) noexcept {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
}

void Histogram::observe(std::int64_t value) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  lowerMin(min_, value);
  raiseMax(max_, value);
  buckets_[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::mergeFrom(const Histogram& other) noexcept {
  const std::uint64_t n = other.count_.load(std::memory_order_relaxed);
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  lowerMin(min_, other.min_.load(std::memory_order_relaxed));
  raiseMax(max_, other.max_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t b = other.buckets_[i].load(std::memory_order_relaxed);
    if (b != 0) buckets_[i].fetch_add(b, std::memory_order_relaxed);
  }
}

std::int64_t Histogram::min() const noexcept {
  const std::int64_t v = min_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<std::int64_t>::max() ? 0 : v;
}

std::int64_t Histogram::max() const noexcept {
  const std::int64_t v = max_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<std::int64_t>::min() ? 0 : v;
}

HistogramSample Histogram::sample() const noexcept {
  HistogramSample s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  for (std::size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double Histogram::mean() const noexcept { return sample().mean(); }

double Histogram::quantile(double q) const noexcept {
  return sample().quantile(q);
}

double HistogramSample::mean() const noexcept {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

double HistogramSample::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= target) {
      const double frac = (target - cumulative) / in_bucket;
      const double lo = Histogram::bucketLo(i);
      const double estimate = lo + (Histogram::bucketHi(i) - lo) * frac;
      if (min <= max) {
        return std::clamp(estimate, static_cast<double>(min),
                          static_cast<double>(max));
      }
      return estimate;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::findCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

MetricsRegistry::MetricsRegistry() noexcept
    : serial_(g_registry_serial.fetch_add(1, std::memory_order_relaxed) + 1) {}

const Histogram* MetricsRegistry::findHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

MetricsRegistry* metrics() noexcept {
  if (t_metrics != nullptr) return t_metrics;
  return g_metrics.load(std::memory_order_relaxed);
}

void setMetrics(MetricsRegistry* registry) noexcept {
  g_metrics.store(registry, std::memory_order_release);
}

void setThreadMetrics(MetricsRegistry* registry) noexcept {
  t_metrics = registry;
}

void appendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace cmc::obs
