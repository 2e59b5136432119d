#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <stdexcept>

namespace cmc::obs {

namespace prof {

thread_local constinit ThreadState tls;

}  // namespace prof

namespace {

// Median cost of one bracketing steady-clock pair, measured once per
// process (the clock's cost does not drift within a run). Subtracted from
// every span so ~20ns leaf sites are not reported as ~60ns.
std::int64_t calibrateClockPairNs() {
  constexpr std::size_t kSamples = 257;
  std::array<std::int64_t, kSamples> samples{};
  for (auto& s : samples) {
    const std::int64_t a = prof::nowNs();
    const std::int64_t b = prof::nowNs();
    s = b - a;
  }
  std::nth_element(samples.begin(), samples.begin() + kSamples / 2,
                   samples.end());
  const std::int64_t median = samples[kSamples / 2];
  return median > 0 ? median : 0;
}

std::int64_t clockPairOverheadNs() {
  static const std::int64_t overhead = calibrateClockPairNs();
  return overhead;
}

void copyCounters(const prof::Node& from, ProfileNode& to) {
  to.is_value = from.is_value;
  to.calls = from.calls.load(std::memory_order_relaxed);
  to.total_ns = from.total_ns.load(std::memory_order_relaxed);
  to.self_ns = from.self_ns.load(std::memory_order_relaxed);
  to.min_ns = from.min_ns.load(std::memory_order_relaxed);
  to.max_ns = from.max_ns.load(std::memory_order_relaxed);
  to.allocs = from.allocs.load(std::memory_order_relaxed);
  to.alloc_bytes = from.alloc_bytes.load(std::memory_order_relaxed);
  to.frees = from.frees.load(std::memory_order_relaxed);
  to.free_bytes = from.free_bytes.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < to.buckets.size(); ++i) {
    to.buckets[i] = from.buckets[i].load(std::memory_order_relaxed);
  }
}

// Sort every node's children (spans first, then value nodes, each by site
// name) and renumber the tree in DFS pre-order. Reports from different
// insertion histories land on identical bytes.
void canonicalize(std::vector<ProfileNode>& nodes) {
  std::vector<std::vector<std::size_t>> kids(nodes.size());
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    kids[static_cast<std::size_t>(nodes[i].parent)].push_back(i);
  }
  for (auto& k : kids) {
    std::sort(k.begin(), k.end(), [&](std::size_t a, std::size_t b) {
      if (nodes[a].is_value != nodes[b].is_value) return !nodes[a].is_value;
      return nodes[a].site < nodes[b].site;
    });
  }
  std::vector<ProfileNode> out;
  out.reserve(nodes.size());
  // Iterative DFS keeping pre-order; stack holds (old index, new parent).
  std::vector<std::pair<std::size_t, std::int32_t>> stack;
  out.push_back(std::move(nodes[0]));
  out[0].parent = -1;
  out[0].depth = 0;
  for (auto it = kids[0].rbegin(); it != kids[0].rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [old_index, parent_index] = stack.back();
    stack.pop_back();
    const std::int32_t new_index = static_cast<std::int32_t>(out.size());
    out.push_back(std::move(nodes[old_index]));
    out.back().parent = parent_index;
    out.back().depth = out[static_cast<std::size_t>(parent_index)].depth + 1;
    for (auto it = kids[old_index].rbegin(); it != kids[old_index].rend();
         ++it) {
      stack.emplace_back(*it, new_index);
    }
  }
  nodes = std::move(out);
}

// One sample into a node's calls, total, min/max and histogram.
void observe(prof::Node* node, std::int64_t v) noexcept {
  // Single-writer: plain load/store pairs are exact; atomics only make the
  // concurrent report() reader tear-free.
  const std::uint64_t calls = node->calls.load(std::memory_order_relaxed);
  node->total_ns.fetch_add(v, std::memory_order_relaxed);
  if (calls == 0 || v < node->min_ns.load(std::memory_order_relaxed)) {
    node->min_ns.store(v, std::memory_order_relaxed);
  }
  if (calls == 0 || v > node->max_ns.load(std::memory_order_relaxed)) {
    node->max_ns.store(v, std::memory_order_relaxed);
  }
  node->buckets[Histogram::bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  node->calls.store(calls + 1, std::memory_order_relaxed);
}

void appendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void appendI64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void appendRatio(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  out += buf;
}

}  // namespace

ProfileTable::ProfileTable(std::string name) : name_(std::move(name)) {
  overhead_ns_ = clockPairOverheadNs();
  root_.site = "root";
}

prof::Node* ProfileTable::child(prof::Node* parent, const char* site,
                                bool is_value) {
  if (parent == nullptr) parent = &root_;
  // Fast path: same string literal, pointer identity. Fallback: content
  // comparison, so the same site named from two translation units still
  // lands on one node.
  for (prof::Node* node : parent->children) {
    if (node->is_value == is_value &&
        (node->site == site || std::strcmp(node->site, site) == 0)) {
      return node;
    }
  }
  std::lock_guard<std::mutex> lock(structure_mutex_);
  nodes_.emplace_back();
  prof::Node* node = &nodes_.back();
  node->site = site;
  node->parent = parent;
  node->is_value = is_value;
  parent->children.push_back(node);
  return node;
}

prof::Node* ProfileTable::enter(const char* site, prof::Node* parent) {
  return child(parent, site, false);
}

void ProfileTable::leave(prof::Node* node, std::int64_t dt_ns,
                         std::int64_t child_ns) noexcept {
  node->self_ns.fetch_add(std::max<std::int64_t>(dt_ns - child_ns, 0),
                          std::memory_order_relaxed);
  observe(node, dt_ns);
}

void ProfileTable::value(const char* site, std::int64_t v) {
  observe(child(prof::tls.node, site, true), v);
}

void ProfileTable::recordAlloc(prof::Node* node, std::size_t bytes) noexcept {
  if (node == nullptr) node = &root_;
  node->allocs.fetch_add(1, std::memory_order_relaxed);
  node->alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void ProfileTable::recordFree(prof::Node* node, std::size_t bytes,
                              bool sized) noexcept {
  if (node == nullptr) node = &root_;
  node->frees.fetch_add(1, std::memory_order_relaxed);
  if (sized) node->free_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

ProfileReport ProfileTable::report() const {
  ProfileReport out;
  copyCounters(root_, out.nodes_[0]);
  std::map<const prof::Node*, std::int32_t> index;
  index[&root_] = 0;
  {
    // Nodes append under this mutex and parents are created before their
    // children, so a single in-order pass under the lock sees a consistent
    // tree even while the owning thread keeps writing counters.
    std::lock_guard<std::mutex> lock(structure_mutex_);
    for (const prof::Node& node : nodes_) {
      const std::int32_t parent_index = index.at(node.parent);
      ProfileNode flat;
      flat.site = node.site;
      flat.parent = parent_index;
      flat.depth =
          out.nodes_[static_cast<std::size_t>(parent_index)].depth + 1;
      copyCounters(node, flat);
      index[&node] = static_cast<std::int32_t>(out.nodes_.size());
      out.nodes_.push_back(std::move(flat));
    }
  }
  canonicalize(out.nodes_);
  return out;
}

void ProfileReport::mergeFrom(const ProfileReport& other) {
  if (other.nodes_.size() == 1 && other.nodes_[0].allocs == 0 &&
      other.nodes_[0].frees == 0) {
    return;  // nothing recorded
  }
  auto fold = [](ProfileNode& into, const ProfileNode& from) {
    if (from.calls > 0) {
      if (into.calls == 0) {
        into.min_ns = from.min_ns;
        into.max_ns = from.max_ns;
      } else {
        into.min_ns = std::min(into.min_ns, from.min_ns);
        into.max_ns = std::max(into.max_ns, from.max_ns);
      }
    }
    into.calls += from.calls;
    into.total_ns += from.total_ns;
    into.self_ns += from.self_ns;
    into.allocs += from.allocs;
    into.alloc_bytes += from.alloc_bytes;
    into.frees += from.frees;
    into.free_bytes += from.free_bytes;
    for (std::size_t i = 0; i < into.buckets.size(); ++i) {
      into.buckets[i] += from.buckets[i];
    }
  };
  fold(nodes_[0], other.nodes_[0]);
  // `other` is in DFS order, so a node's parent is always mapped before
  // the node itself.
  std::vector<std::int32_t> mapped(other.nodes_.size(), -1);
  mapped[0] = 0;
  for (std::size_t j = 1; j < other.nodes_.size(); ++j) {
    const ProfileNode& from = other.nodes_[j];
    const std::int32_t parent =
        mapped[static_cast<std::size_t>(from.parent)];
    std::int32_t match = -1;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].parent == parent && nodes_[i].is_value == from.is_value &&
          nodes_[i].site == from.site) {
        match = static_cast<std::int32_t>(i);
        break;
      }
    }
    if (match < 0) {
      ProfileNode fresh;
      fresh.site = from.site;
      fresh.parent = parent;
      fresh.is_value = from.is_value;
      fresh.depth = nodes_[static_cast<std::size_t>(parent)].depth + 1;
      match = static_cast<std::int32_t>(nodes_.size());
      nodes_.push_back(std::move(fresh));
      fold(nodes_.back(), from);
    } else {
      fold(nodes_[static_cast<std::size_t>(match)], from);
    }
    mapped[j] = match;
  }
  canonicalize(nodes_);
}

ProfileTotals ProfileReport::totals() const {
  ProfileTotals t;
  for (const ProfileNode& node : nodes_) {
    t.allocs += node.allocs;
    t.alloc_bytes += node.alloc_bytes;
    t.frees += node.frees;
    t.free_bytes += node.free_bytes;
    if (!node.is_value) {
      t.span_calls += node.calls;
      if (node.depth == 1) t.top_total_ns += node.total_ns;
    }
  }
  return t;
}

std::string ProfileReport::json() const {
  std::string out = "{\"nodes\":[";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ProfileNode& n = nodes_[i];
    if (i) out += ',';
    out += "{\"site\":\"";
    appendJsonEscaped(out, n.site);
    out += "\",\"parent\":";
    appendI64(out, n.parent);
    out += ",\"depth\":";
    appendU64(out, n.depth);
    out += ",\"kind\":\"";
    out += n.is_value ? "value" : "span";
    out += "\",\"calls\":";
    appendU64(out, n.calls);
    out += ",\"total_ns\":";
    appendI64(out, n.total_ns);
    out += ",\"self_ns\":";
    appendI64(out, n.self_ns);
    out += ",\"min_ns\":";
    appendI64(out, n.min_ns);
    out += ",\"max_ns\":";
    appendI64(out, n.max_ns);
    out += ",\"allocs\":";
    appendU64(out, n.allocs);
    out += ",\"alloc_bytes\":";
    appendU64(out, n.alloc_bytes);
    out += ",\"frees\":";
    appendU64(out, n.frees);
    out += ",\"free_bytes\":";
    appendU64(out, n.free_bytes);
    out += ",\"hist\":{";
    bool first = true;
    for (std::size_t b = 0; b < n.buckets.size(); ++b) {
      if (n.buckets[b] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      appendU64(out, b);
      out += "\":";
      appendU64(out, n.buckets[b]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string ProfileReport::collapsed() const {
  // One line per span node with nonzero self time: "a;b;c <self_ns>".
  // The synthetic root is omitted from stacks (it has no self time and
  // flamegraph.pl supplies its own "all" frame).
  std::string out;
  std::vector<std::string> paths(nodes_.size());
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const ProfileNode& n = nodes_[i];
    if (n.is_value) continue;
    const std::size_t parent = static_cast<std::size_t>(n.parent);
    paths[i] = parent == 0 ? n.site : paths[parent] + ";" + n.site;
    if (n.self_ns <= 0) continue;
    out += paths[i];
    out += ' ';
    appendI64(out, n.self_ns);
    out += '\n';
  }
  return out;
}

std::string ProfileReport::attributionJson(std::int64_t wall_ns) const {
  struct SiteAgg {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
  };
  std::map<std::string, SiteAgg> sites;
  std::int64_t top_ns = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const ProfileNode& n = nodes_[i];
    if (n.is_value) continue;
    SiteAgg& agg = sites[n.site];
    agg.calls += n.calls;
    agg.total_ns += n.total_ns;
    agg.self_ns += n.self_ns;
    agg.allocs += n.allocs;
    agg.alloc_bytes += n.alloc_bytes;
    if (n.depth == 1) top_ns += n.total_ns;
  }
  double coverage = 0.0;
  if (wall_ns > 0) {
    coverage = static_cast<double>(top_ns) / static_cast<double>(wall_ns);
    if (coverage > 1.0) coverage = 1.0;
  }
  std::vector<std::pair<std::string, SiteAgg>> ordered(sites.begin(),
                                                       sites.end());
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    if (a.second.self_ns != b.second.self_ns) {
      return a.second.self_ns > b.second.self_ns;
    }
    return a.first < b.first;
  });

  std::string out = "{\"wall_ns\":";
  appendI64(out, wall_ns);
  out += ",\"coverage\":";
  appendRatio(out, coverage);
  out += ",\"sites\":[";
  char buf[64];
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const auto& [site, agg] = ordered[i];
    if (i) out += ',';
    out += "{\"site\":\"";
    appendJsonEscaped(out, site);
    out += "\",\"calls\":";
    appendU64(out, agg.calls);
    out += ",\"total_ns\":";
    appendI64(out, agg.total_ns);
    out += ",\"self_ns\":";
    appendI64(out, agg.self_ns);
    const double calls = agg.calls > 0 ? static_cast<double>(agg.calls) : 1.0;
    std::snprintf(buf, sizeof(buf), ",\"ns_per_call\":%.1f",
                  static_cast<double>(agg.total_ns) / calls);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"self_ns_per_call\":%.1f",
                  static_cast<double>(agg.self_ns) / calls);
    out += buf;
    out += ",\"allocs\":";
    appendU64(out, agg.allocs);
    std::snprintf(buf, sizeof(buf), ",\"allocs_per_call\":%.3f",
                  static_cast<double>(agg.allocs) / calls);
    out += buf;
    out += ",\"alloc_bytes\":";
    appendU64(out, agg.alloc_bytes);
    std::snprintf(buf, sizeof(buf), ",\"bytes_per_call\":%.1f}",
                  static_cast<double>(agg.alloc_bytes) / calls);
    out += buf;
  }
  out += "]}";
  return out;
}

void setThreadProfiler(ProfileTable* table) noexcept {
  prof::tls.table = table;
  prof::tls.node = table != nullptr ? table->root() : nullptr;
  prof::tls.child_acc = nullptr;
}

ProfileReport mergeTables(const std::vector<const ProfileTable*>& tables) {
  ProfileReport merged;
  for (const ProfileTable* table : tables) {
    if (table != nullptr) merged.mergeFrom(table->report());
  }
  return merged;
}

std::string profileResponse(const ProfileReport& report,
                            const std::string& args) {
  if (args.empty() || args == "json") return report.json();
  if (args == "collapsed") return report.collapsed();
  throw std::runtime_error("unknown profile sub-verb: " + args);
}

}  // namespace cmc::obs

// ---------------------------------------------------------------------------
// Allocation accounting: replacement global operator new/delete. Compiled
// into cmc_obs (which every target links), so heap traffic anywhere in the
// process is attributed to the innermost open profiler span of the
// allocating thread. With no profiler installed the added cost is one
// thread-local load and a predictable branch per call.
//
// The hooks only bump relaxed atomics on an existing node — they never
// allocate, lock, or re-enter the profiler — so recursion from the
// profiler's own internal allocations (node creation under its structural
// mutex) is harmless: those bytes are charged to the enclosing span like
// any other.
// ---------------------------------------------------------------------------

namespace {

inline void noteAlloc(std::size_t size) noexcept {
  cmc::obs::prof::ThreadState& ts = cmc::obs::prof::tls;
  if (ts.table == nullptr) return;
  ts.table->recordAlloc(ts.node, size);
}

inline void noteFree(std::size_t size, bool sized) noexcept {
  cmc::obs::prof::ThreadState& ts = cmc::obs::prof::tls;
  if (ts.table == nullptr) return;
  ts.table->recordFree(ts.node, size, sized);
}

void* allocOrHandler(std::size_t size) noexcept {
  for (;;) {
    void* p = std::malloc(size != 0 ? size : 1);
    if (p != nullptr) {
      noteAlloc(size);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
  }
}

void* allocAlignedOrHandler(std::size_t size, std::size_t align) noexcept {
  if (align < sizeof(void*)) align = sizeof(void*);
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align, size != 0 ? size : 1) == 0) {
      noteAlloc(size);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = allocOrHandler(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = allocOrHandler(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocOrHandler(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocOrHandler(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = allocAlignedOrHandler(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = allocAlignedOrHandler(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return allocAlignedOrHandler(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return allocAlignedOrHandler(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  noteFree(0, false);
  std::free(p);
}

void operator delete[](void* p) noexcept {
  if (p == nullptr) return;
  noteFree(0, false);
  std::free(p);
}

void operator delete(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  noteFree(size, true);
  std::free(p);
}

void operator delete[](void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  noteFree(size, true);
  std::free(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  if (p == nullptr) return;
  noteFree(0, false);
  std::free(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  if (p == nullptr) return;
  noteFree(0, false);
  std::free(p);
}

void operator delete(void* p, std::align_val_t) noexcept {
  if (p == nullptr) return;
  noteFree(0, false);
  std::free(p);
}

void operator delete[](void* p, std::align_val_t) noexcept {
  if (p == nullptr) return;
  noteFree(0, false);
  std::free(p);
}

void operator delete(void* p, std::size_t size, std::align_val_t) noexcept {
  if (p == nullptr) return;
  noteFree(size, true);
  std::free(p);
}

void operator delete[](void* p, std::size_t size, std::align_val_t) noexcept {
  if (p == nullptr) return;
  noteFree(size, true);
  std::free(p);
}
