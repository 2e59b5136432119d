// Metrics registry: named counters, gauges, and histograms. Read it whole
// through MetricsSnapshot::capture (obs/snapshot.hpp), whose json() is the
// one metrics serializer.
//
// Metrics are always safe to hammer from multiple threads (atomics all the
// way down); the registry itself hands out stable references, so hot paths
// can resolve a metric once and increment forever. Like tracing, the global
// registry is disabled by default: instrumentation sites do one relaxed
// load (`obs::metrics()`) and skip on nullptr.
//
// Histograms use base-2 exponential buckets over non-negative integer
// observations (we feed them latencies in microseconds): bucket i counts
// values in [2^(i-1), 2^i), bucket 0 counts zero. Quantiles are estimated
// by linear interpolation within the winning bucket — coarse, but stable
// and allocation-free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace cmc::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
    // Track the high-water mark (e.g. peak queue depth).
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
  void add(std::int64_t delta) noexcept {
    // A load/set pair would lose concurrent deltas; fetch_add keeps the
    // running value exact under contention, and the CAS loop raises the
    // high-water mark to the value this call produced.
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (now > seen &&
           !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    // A created-but-never-set gauge holds the INT64_MIN sentinel; surface
    // the current value (0 for an untouched gauge) instead, mirroring
    // Histogram::max(), so dumps and the Prometheus exposition never emit
    // the sentinel.
    const std::int64_t v = max_.load(std::memory_order_relaxed);
    return v == std::numeric_limits<std::int64_t>::min() ? value() : v;
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
};

struct HistogramSample;
struct MetricsSnapshot;

class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  // Bucket index: 0 holds values <= 0, i holds [2^(i-1), 2^i). The
  // profiler's per-site distributions use the same buckets.
  [[nodiscard]] static constexpr std::size_t bucketOf(
      std::int64_t value) noexcept {
    if (value <= 0) return 0;
    const auto bits = static_cast<std::size_t>(
        64 - __builtin_clzll(static_cast<unsigned long long>(value)));
    return bits < kBuckets ? bits : kBuckets - 1;
  }
  // Interpolation bounds of bucket i: [bucketLo(i), bucketHi(i)), both 0
  // for bucket 0.
  [[nodiscard]] static double bucketLo(std::size_t i) noexcept;
  [[nodiscard]] static double bucketHi(std::size_t i) noexcept;

  void observe(std::int64_t value) noexcept;

  // Fold `other`'s observations into this histogram (bucket-wise sums plus
  // count/sum/min/max). Used by sharded runtimes to roll per-shard latency
  // histograms into one view.
  void mergeFrom(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t min() const noexcept;
  [[nodiscard]] std::int64_t max() const noexcept;
  // Plain-value copy of the current state (relaxed reads).
  [[nodiscard]] HistogramSample sample() const noexcept;
  // Both estimate from sample(); see HistogramSample.
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// Pre-aggregated histogram state: what snapshots carry, merge and diff,
// and the one home of the quantile estimator.
struct HistogramSample {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // 0 when empty, like Histogram::min()
  std::int64_t max = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  [[nodiscard]] double mean() const noexcept;
  // Quantile estimate in [0,1] by linear interpolation within the winning
  // bucket, clamped to [min, max] when those are known.
  [[nodiscard]] double quantile(double q) const noexcept;
};

class MetricsRegistry {
 public:
  MetricsRegistry() noexcept;

  // Lookup-or-create; returned references stay valid for the registry's
  // lifetime, so hot call sites cache them in a MetricHandle (below).
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] const Counter* findCounter(std::string_view name) const;
  [[nodiscard]] const Histogram* findHistogram(std::string_view name) const;

  // Process-unique, never reused: a MetricHandle keyed by registry
  // pointer checks it, because a new registry may reuse a dead one's
  // address.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

 private:
  // MetricsSnapshot::capture walks the maps under the lock with relaxed
  // reads; it is the only way to read the registry as a whole.
  friend struct MetricsSnapshot;

  std::uint64_t serial_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Process-wide registry; nullptr (default) disables metric collection.
// metrics() resolves a thread-local override first (setThreadMetrics), so
// sharded hosts can give each worker thread its own registry without the
// shards trampling one another; see the matching note in trace.hpp.
[[nodiscard]] MetricsRegistry* metrics() noexcept;
void setMetrics(MetricsRegistry* registry) noexcept;
void setThreadMetrics(MetricsRegistry* registry) noexcept;

// A metric named once and looked up once per registry: the one way a hot
// path caches a handle. in(r) resolves the name in `r` only when `r` (or
// its serial, should a new registry reuse a dead one's address) differs
// from the registry it last served; otherwise it is a pointer compare.
// The metric is created at first use, so an untaken path leaves no
// metric behind. A handle is not thread-safe: per-thread call sites keep
// theirs `thread_local` (the constructor is constexpr, so such a handle
// needs no guard), and an object owned by one thread keeps its own.
// `name` must outlive the handle.
template <typename Metric>
class MetricHandle {
 public:
  constexpr explicit MetricHandle(std::string_view name) noexcept
      : name_(name) {}

  [[nodiscard]] Metric& in(MetricsRegistry& registry) {
    if (&registry != registry_ || registry.serial() != serial_) {
      resolve(registry);
    }
    return *metric_;
  }
  // The metric in the current registry (metrics()); nullptr when off.
  [[nodiscard]] Metric* get() {
    MetricsRegistry* registry = metrics();
    return registry != nullptr ? &in(*registry) : nullptr;
  }

 private:
  void resolve(MetricsRegistry& registry) {
    if constexpr (std::is_same_v<Metric, Counter>) {
      metric_ = &registry.counter(name_);
    } else if constexpr (std::is_same_v<Metric, Gauge>) {
      metric_ = &registry.gauge(name_);
    } else {
      metric_ = &registry.histogram(name_);
    }
    registry_ = &registry;
    serial_ = registry.serial();
  }

  std::string_view name_;
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t serial_ = 0;
  Metric* metric_ = nullptr;
};

using CounterHandle = MetricHandle<Counter>;
using GaugeHandle = MetricHandle<Gauge>;
using HistogramHandle = MetricHandle<Histogram>;

// Append `s` as the body of a JSON string: quotes, backslashes and control
// bytes escaped. Every obs exporter writes names through this one escaper,
// so a metric name may hold any bytes.
void appendJsonEscaped(std::string& out, std::string_view s);

}  // namespace cmc::obs
