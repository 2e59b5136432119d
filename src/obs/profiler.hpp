// Hot-path profiler: site-scoped timing and allocation attribution.
//
// CMC_PROF_SCOPE("site") opens an RAII span over a thread-local
// calling-context tree: each distinct (parent, site) pair is one node
// accumulating calls, total/self nanoseconds (self = total minus time spent
// in child spans), min/max, a base-2 duration histogram, and the heap
// traffic — operator new/delete counts and bytes — that happened while the
// span was the innermost open one. CMC_PROF_VALUE("site", v) records a
// plain value distribution (queue depths, batch sizes) into a value-kind
// child node with no timing.
//
// Like the rest of src/obs this is compiled in everywhere and free when
// off: a site visit with no profiler installed is one thread-local load and
// a predictable branch; the allocation hook is the same test on the
// operator new path. There is deliberately NO process-wide fallback: a
// ProfileTable is single-writer, so installation is per-thread only
// (setThreadProfiler), exactly how ShardedRuntime installs the rest of the
// thread-local obs artifacts. Threads that never install one (e.g. the
// parallel explorer's workers) simply record nothing.
//
// Timing subtracts a per-span calibration constant (the measured cost of
// the two steady-clock reads bracketing the span) so leaf sites in the
// tens-of-nanoseconds range stay honest.
//
// Reading is race-free while the owning thread is still writing: node
// counters are relaxed atomics and report() walks only append-only state
// under the structural mutex, so the live-telemetry sampler can serve the
// `profile` ops verb mid-run. Reports merge deterministically in rank
// order (children sorted by site name), mirroring the metrics rollup, and
// export as deterministic JSON and collapsed-stack text (flamegraph.pl and
// speedscope both open it).
#pragma once

#include <atomic>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace cmc::obs {

class ProfileTable;

// Flattened, mergeable snapshot of one or more ProfileTables.
struct ProfileNode {
  std::string site;
  std::int32_t parent = -1;  // index into ProfileReport::nodes; -1 = root
  std::uint32_t depth = 0;   // root = 0
  bool is_value = false;     // value distribution, not a timed span
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  // for value nodes: sum of recorded values
  std::int64_t self_ns = 0;   // always 0 for value nodes
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t free_bytes = 0;
  // Base-2, bucketed by Histogram::bucketOf.
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
};

struct ProfileTotals {
  std::uint64_t span_calls = 0;  // timed spans only
  std::int64_t top_total_ns = 0;  // sum over depth-1 span nodes
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t free_bytes = 0;
};

class ProfileReport {
 public:
  // Nodes in deterministic DFS order: index 0 is the synthetic root,
  // children of every node sorted value-kind-last then by site name.
  [[nodiscard]] const std::vector<ProfileNode>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] bool empty() const noexcept { return nodes_.size() <= 1; }

  // Additive merge by (path, kind); min/max fold, histograms add. Merging
  // shard reports in rank order yields the same bytes regardless of how
  // the per-shard trees were grown.
  void mergeFrom(const ProfileReport& other);

  [[nodiscard]] ProfileTotals totals() const;

  // Deterministic flat-array JSON (histograms emitted sparse).
  [[nodiscard]] std::string json() const;
  // Collapsed stacks: "a;b <self_ns>" per span node with nonzero self
  // time, no frame for the synthetic root.
  [[nodiscard]] std::string collapsed() const;
  // Per-site rollup for bench PROF lines: ns/op + allocs/op per site plus
  // a coverage ratio (depth-1 span time / wall_ns, capped at 1).
  [[nodiscard]] std::string attributionJson(std::int64_t wall_ns) const;

 private:
  friend class ProfileTable;
  std::vector<ProfileNode> nodes_{ProfileNode{"root", -1, 0}};
};

namespace prof {

// One CCT node, written only by the owning thread; counters are relaxed
// atomics so a concurrent reader (live telemetry) sees torn-free values.
struct Node {
  const char* site = nullptr;
  Node* parent = nullptr;
  bool is_value = false;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> total_ns{0};
  std::atomic<std::int64_t> self_ns{0};
  std::atomic<std::int64_t> min_ns{0};
  std::atomic<std::int64_t> max_ns{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> alloc_bytes{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> free_bytes{0};
  std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets{};
  // Owner-only child index for O(children) lookup on enter; readers must
  // never touch it (report() rebuilds the tree from parent pointers).
  std::vector<Node*> children;
};

// Per-thread profiler state. Kept as one POD-ish struct so a site visit
// with the profiler off is a single thread-local load; zero-initialized
// statically, so the allocation hook is safe before main().
struct ThreadState {
  ProfileTable* table = nullptr;
  Node* node = nullptr;            // current CCT position
  std::int64_t* child_acc = nullptr;  // innermost open span's child-time cell
};
extern thread_local constinit ThreadState tls;

[[nodiscard]] inline std::int64_t nowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace prof

class ProfileTable {
 public:
  explicit ProfileTable(std::string name = "profile");

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::int64_t overheadNs() const noexcept {
    return overhead_ns_;
  }

  // Hot-path hooks, called by ProfScope / CMC_PROF_VALUE / the allocation
  // hook. enter() finds or creates the span child of `parent` for `site`;
  // value() does the same for a value child of the current node.
  prof::Node* enter(const char* site, prof::Node* parent);
  void leave(prof::Node* node, std::int64_t dt_ns,
             std::int64_t child_ns) noexcept;
  void value(const char* site, std::int64_t v);
  void recordAlloc(prof::Node* node, std::size_t bytes) noexcept;
  void recordFree(prof::Node* node, std::size_t bytes, bool sized) noexcept;

  [[nodiscard]] prof::Node* root() noexcept { return &root_; }

  // Safe against the owning thread still writing.
  [[nodiscard]] ProfileReport report() const;

 private:
  // The (site, kind) child of `parent` (root when null), created on first
  // visit.
  prof::Node* child(prof::Node* parent, const char* site, bool is_value);

  std::string name_;
  std::int64_t overhead_ns_ = 0;
  prof::Node root_;
  mutable std::mutex structure_mutex_;  // guards node creation + iteration
  std::deque<prof::Node> nodes_;        // stable addresses
};

// Install `table` as this thread's profiler (nullptr disables). The table
// must outlive the installation and must not be installed on two threads
// at once (single-writer contract).
void setThreadProfiler(ProfileTable* table) noexcept;
[[nodiscard]] inline ProfileTable* threadProfiler() noexcept {
  return prof::tls.table;
}

// Build one merged report from `tables` in rank order (index order), the
// same discipline as the metrics rollup merge.
[[nodiscard]] ProfileReport mergeTables(
    const std::vector<const ProfileTable*>& tables);

// Payload for the read-only `profile` ops verb, shared between
// LiveTelemetry and tests: args "" / "json" -> report JSON, "collapsed" ->
// collapsed stacks; anything else throws (the ops server turns that into
// an error response).
[[nodiscard]] std::string profileResponse(const ProfileReport& report,
                                          const std::string& args);

class ProfScope {
 public:
  explicit ProfScope(const char* site) noexcept {
    ProfileTable* table = prof::tls.table;
    if (table == nullptr) return;
    table_ = table;
    prev_node_ = prof::tls.node;
    prev_acc_ = prof::tls.child_acc;
    node_ = table->enter(site, prev_node_);
    prof::tls.node = node_;
    prof::tls.child_acc = &child_ns_;
    start_ns_ = prof::nowNs();
  }
  ~ProfScope() {
    if (table_ == nullptr) return;
    std::int64_t dt = prof::nowNs() - start_ns_ - table_->overheadNs();
    if (dt < 0) dt = 0;
    table_->leave(node_, dt, child_ns_);
    prof::tls.node = prev_node_;
    prof::tls.child_acc = prev_acc_;
    if (prev_acc_ != nullptr) *prev_acc_ += dt;
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfileTable* table_ = nullptr;
  prof::Node* node_ = nullptr;
  prof::Node* prev_node_ = nullptr;
  std::int64_t* prev_acc_ = nullptr;
  std::int64_t child_ns_ = 0;
  std::int64_t start_ns_ = 0;
};

inline void profValue(const char* site, std::int64_t v) {
  if (ProfileTable* table = prof::tls.table) table->value(site, v);
}

#define CMC_PROF_CONCAT2(a, b) a##b
#define CMC_PROF_CONCAT(a, b) CMC_PROF_CONCAT2(a, b)
// `site` must be a string literal (node identity is by content, but the
// pointer is used as a fast path, so a stable address keeps lookups cheap).
#define CMC_PROF_SCOPE(site) \
  ::cmc::obs::ProfScope CMC_PROF_CONCAT(cmc_prof_scope_, __LINE__) { site }
#define CMC_PROF_VALUE(site, v) ::cmc::obs::profValue(site, (v))

}  // namespace cmc::obs
