#include "obs/snapshot.hpp"

#include <algorithm>
#include <cstdio>

namespace cmc::obs {

namespace {

void appendHistogramJson(std::string& out, const HistogramSample& h) {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
      "\"mean\":%.1f,\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f}",
      static_cast<unsigned long long>(h.count), static_cast<long long>(h.sum),
      static_cast<long long>(h.min), static_cast<long long>(h.max), h.mean(),
      h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
  out += buf;
}

// Derive the representable value range of a bucket-diff histogram, where
// the true windowed min/max are unknowable from cumulative extrema.
void boundFromBuckets(HistogramSample& h) noexcept {
  if (h.count == 0) {
    h.min = 0;
    h.max = 0;
    return;
  }
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool seen = false;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    if (!seen) lo = i;
    hi = i;
    seen = true;
  }
  h.min = static_cast<std::int64_t>(Histogram::bucketLo(lo));
  h.max = hi == 0 ? 0 : static_cast<std::int64_t>(Histogram::bucketHi(hi)) - 1;
}

std::string sanitizePromName(std::string_view name) {
  std::string out = "cmc_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::capture(const MetricsRegistry& registry,
                                         std::int64_t wall_ms) {
  MetricsSnapshot snap;
  snap.wall_ms = wall_ms;
  std::lock_guard<std::mutex> lock(registry.mutex_);
  for (const auto& [name, c] : registry.counters_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : registry.gauges_) {
    snap.gauges.emplace(name, GaugeSample{g->value(), g->max()});
  }
  for (const auto& [name, h] : registry.histograms_) {
    snap.histograms.emplace(name, h->sample());
  }
  return snap;
}

void MetricsSnapshot::mergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, g] : other.gauges) {
    GaugeSample& mine = gauges[name];
    mine.value += g.value;
    mine.max = std::max(mine.max, g.max);
  }
  for (const auto& [name, h] : other.histograms) {
    HistogramSample& mine = histograms[name];
    if (h.count == 0) continue;  // the name is kept, the extrema untouched
    if (mine.count == 0) {
      mine.min = h.min;
      mine.max = h.max;
    } else {
      mine.min = std::min(mine.min, h.min);
      mine.max = std::max(mine.max, h.max);
    }
    mine.count += h.count;
    mine.sum += h.sum;
    for (std::size_t i = 0; i < mine.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
  }
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  auto it = counters.find(std::string(name));
  return it != counters.end() ? it->second : 0;
}

const HistogramSample* MetricsSnapshot::histogram(
    std::string_view name) const noexcept {
  auto it = histograms.find(std::string(name));
  return it != histograms.end() ? &it->second : nullptr;
}

std::string MetricsSnapshot::json() const {
  char buf[96];
  std::string out = "{\"counters\":{";
  bool first = true;
  auto key = [&](const std::string& name) {
    if (!first) out += ',';
    first = false;
    out += '"';
    appendJsonEscaped(out, name);
    out += "\":";
  };
  for (const auto& [name, v] : counters) {
    key(name);
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges) {
    key(name);
    std::snprintf(buf, sizeof(buf), "{\"value\":%lld,\"max\":%lld}",
                  static_cast<long long>(g.value),
                  static_cast<long long>(g.max));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    key(name);
    appendHistogramJson(out, h);
  }
  out += "}}";
  return out;
}

double MetricsDelta::counterRate(std::string_view name) const noexcept {
  if (window_ms <= 0) return 0.0;
  return static_cast<double>(counter(name)) * 1000.0 /
         static_cast<double>(window_ms);
}

std::string MetricsDelta::json() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"start_ms\":%lld,\"window_ms\":%lld,",
                static_cast<long long>(wall_ms),
                static_cast<long long>(window_ms));
  // Splice the window stamp in front of the snapshot's own sections.
  return buf + MetricsSnapshot::json().substr(1);
}

MetricsDelta delta(const MetricsSnapshot& prev, const MetricsSnapshot& curr) {
  MetricsDelta d;
  d.wall_ms = prev.wall_ms;
  d.window_ms = std::max<std::int64_t>(curr.wall_ms - prev.wall_ms, 0);
  for (const auto& [name, v] : curr.counters) {
    auto it = prev.counters.find(name);
    const std::uint64_t before = it != prev.counters.end() ? it->second : 0;
    // Wrap-free monotonicity: a source that restarted (curr < prev) reads
    // as a quiet window, never as a 2^64 spike.
    d.counters.emplace(name, v > before ? v - before : 0);
  }
  d.gauges = curr.gauges;  // instantaneous: the window-end reading
  for (const auto& [name, h] : curr.histograms) {
    HistogramSample w;
    auto it = prev.histograms.find(name);
    const HistogramSample* before =
        it != prev.histograms.end() ? &it->second : nullptr;
    const std::uint64_t prev_count = before != nullptr ? before->count : 0;
    w.count = h.count > prev_count ? h.count - prev_count : 0;
    const std::int64_t prev_sum = before != nullptr ? before->sum : 0;
    w.sum = w.count > 0 ? h.sum - prev_sum : 0;
    for (std::size_t i = 0; i < w.buckets.size(); ++i) {
      const std::uint64_t b = before != nullptr ? before->buckets[i] : 0;
      w.buckets[i] = h.buckets[i] > b ? h.buckets[i] - b : 0;
    }
    boundFromBuckets(w);
    d.histograms.emplace(name, std::move(w));
  }
  return d;
}

SnapshotSeries::SnapshotSeries(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void SnapshotSeries::push(MetricsSnapshot snapshot) {
  Entry entry;
  if (!entries_.empty()) {
    entry.window = delta(entries_.back().snapshot, snapshot);
  } else {
    // The boot window: increments from an empty registry, zero-width.
    MetricsSnapshot epoch;
    epoch.wall_ms = snapshot.wall_ms;
    entry.window = delta(epoch, snapshot);
  }
  entry.snapshot = std::move(snapshot);
  entries_.push_back(std::move(entry));
  ++pushed_;
  while (entries_.size() > capacity_) entries_.pop_front();
}

const MetricsSnapshot* SnapshotSeries::latest() const noexcept {
  return entries_.empty() ? nullptr : &entries_.back().snapshot;
}

const MetricsDelta* SnapshotSeries::latestWindow() const noexcept {
  return entries_.empty() ? nullptr : &entries_.back().window;
}

std::string SnapshotSeries::json(std::size_t last_n) const {
  const std::size_t n =
      last_n == 0 ? entries_.size() : std::min(last_n, entries_.size());
  std::string out = "{\"windows\":[";
  for (std::size_t i = entries_.size() - n; i < entries_.size(); ++i) {
    if (i != entries_.size() - n) out += ',';
    out += entries_[i].window.json();
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "],\"retained\":%zu,\"evicted\":%llu}",
                entries_.size(),
                static_cast<unsigned long long>(pushed_ - entries_.size()));
  out += buf;
  return out;
}

std::string prometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  char buf[128];
  for (const auto& [name, v] : snapshot.counters) {
    const std::string prom = sanitizePromName(name) + "_total";
    out += "# TYPE " + prom + " counter\n";
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(v));
    out += prom + buf;
  }
  for (const auto& [name, g] : snapshot.gauges) {
    const std::string prom = sanitizePromName(name);
    out += "# TYPE " + prom + " gauge\n";
    std::snprintf(buf, sizeof(buf), " %lld\n", static_cast<long long>(g.value));
    out += prom + buf;
    out += "# TYPE " + prom + "_max gauge\n";
    std::snprintf(buf, sizeof(buf), " %lld\n", static_cast<long long>(g.max));
    out += prom + "_max" + buf;
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string prom = sanitizePromName(name);
    out += "# TYPE " + prom + " histogram\n";
    // Bucket i holds integer values in [2^(i-1), 2^i), so its exact
    // inclusive upper bound is 2^i - 1; emit up to the last occupied
    // bucket, then +Inf.
    std::size_t last = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] != 0) last = i;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= last; ++i) {
      cumulative += h.buckets[i];
      const double le = i == 0 ? 0.0 : Histogram::bucketHi(i) - 1.0;
      std::snprintf(buf, sizeof(buf), "{le=\"%.0f\"} %llu\n", le,
                    static_cast<unsigned long long>(cumulative));
      out += prom + "_bucket" + buf;
    }
    std::snprintf(buf, sizeof(buf), "{le=\"+Inf\"} %llu\n",
                  static_cast<unsigned long long>(h.count));
    out += prom + "_bucket" + buf;
    std::snprintf(buf, sizeof(buf), " %lld\n", static_cast<long long>(h.sum));
    out += prom + "_sum" + buf;
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(h.count));
    out += prom + "_count" + buf;
  }
  return out;
}

}  // namespace cmc::obs
