#include "mc/state_graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "mc/seen_set.hpp"
#include "obs/profiler.hpp"

namespace cmc {

StateBits bitsOf(const PathSystem& system, bool terminal) {
  StateBits bits{};
  bits.bothClosed = system.bothClosed();
  bits.bothFlowing = system.bothFlowing();
  bits.quiescent = system.quiescent();
  bool attached = true;
  for (std::uint32_t p = 0; p < system.partyCount(); ++p) {
    attached = attached && system.partyAttached(p);
  }
  bits.allAttached = attached;
  bool stable = true;
  auto slot_ok = [](const SlotEndpoint& slot) {
    return slot.state() == ProtocolState::closed ||
           slot.state() == ProtocolState::flowing;
  };
  stable = stable && slot_ok(system.endpointSlot(PathEnd::left));
  stable = stable && slot_ok(system.endpointSlot(PathEnd::right));
  for (std::size_t i = 0; i < system.flowlinkCount(); ++i) {
    stable = stable && slot_ok(system.flowlinkSlot(i, Side::A));
    stable = stable && slot_ok(system.flowlinkSlot(i, Side::B));
  }
  bits.slotsStable = stable;
  bits.terminal = terminal;
  bits.expanded = true;
  bits.left_state =
      static_cast<std::uint8_t>(system.endpointSlot(PathEnd::left).state());
  bits.right_state =
      static_cast<std::uint8_t>(system.endpointSlot(PathEnd::right).state());
  bits.media_left = system.mediaEnabled(PathEnd::left);
  bits.media_right = system.mediaEnabled(PathEnd::right);
  return bits;
}

namespace {

constexpr std::size_t kClaim = 32;

// Per-state output of one expansion: bits plus how many successor indices
// it appended to its worker's `targets`. Produced by workers, committed to
// the result single-threaded.
struct Expansion {
  std::uint32_t index = 0;
  StateBits bits{};
  std::uint32_t target_count = 0;
};

// A freshly discovered state. Its canonical bytes are the seen set's own
// copy, which outlives the run's frontier, so a discovery owns nothing.
struct Discovery {
  std::uint32_t index;
  std::uint32_t parent;
  PathAction action;
  std::span<const std::uint8_t> bytes;
};

// One worker's output for the current level, and the scratch it reuses for
// every state it expands: the enabled-action list, the system the expanded
// state is decoded into, the successor system (copy-assigned from it, so
// its buffers are reused) and the canonical encoding. Both systems start as
// copies of the initial system, whose skeleton every state shares.
struct Worker {
  explicit Worker(const PathSystem& initial) : state(initial), successor(initial) {}

  std::vector<Expansion> expansions;
  std::vector<std::uint32_t> targets;  // every expansion's successors, in order
  std::vector<Discovery> discoveries;
  std::vector<PathAction> actions;
  PathSystem state;
  PathSystem successor;
  ByteWriter canonical;
};

// Expand one state: decode it, record its bits and successor edges, and
// note each new successor in `out`.
void expandState(const Discovery& state, SeenSet& seen,
                 std::uint64_t fingerprint_mask,
                 std::atomic<bool>& out_of_budget, Worker& out) {
  // Profiling sites here record only on threads with an installed table:
  // the single-thread deterministic path profiles fully; parallel workers
  // (no thread-local table) record nothing and race on nothing.
  CMC_PROF_SCOPE("mc.expand_state");
  const std::uint32_t index = state.index;
  ByteReader reader(state.bytes);
  if (!out.state.decode(reader) || !reader.atEnd()) {
    throw std::logic_error("explore: a seen state does not decode");
  }
  const PathSystem& system = out.state;
  system.enabledActions(out.actions);
  Expansion expansion;
  expansion.index = index;
  expansion.bits = bitsOf(system, out.actions.empty());
  const std::size_t first_target = out.targets.size();
  if (expansion.bits.terminal) {
    out.targets.push_back(index);  // stutter
  } else {
    for (const PathAction& action : out.actions) {
      PathSystem& successor = out.successor;
      successor = system;
      successor.apply(action);
      {
        CMC_PROF_SCOPE("mc.canonicalize");
        out.canonical.clear();
        successor.canonicalize(out.canonical);
      }
      const std::span<const std::uint8_t> bytes = out.canonical.bytes();
      std::uint64_t fp;
      {
        CMC_PROF_SCOPE("mc.fingerprint");
        fp = stateHash(bytes) & fingerprint_mask;
      }
      const SeenSet::Outcome got = seen.insert(fp, bytes);
      if (got.index == SeenSet::kNoIndex) {
        out_of_budget.store(true, std::memory_order_relaxed);
        break;  // keep the edges recorded so far for this state
      }
      if (got.inserted) {
        out.discoveries.push_back(Discovery{got.index, index, action, got.bytes});
      }
      out.targets.push_back(got.index);
    }
  }
  expansion.target_count =
      static_cast<std::uint32_t>(out.targets.size() - first_target);
  out.expansions.push_back(expansion);
}

// Expand level states until the shared cursor runs off the level's end (or
// the state budget dies). Workers claim runs of kClaim consecutive states,
// each run by exactly one worker. With one claim per state the cursor's
// cache line is contended: 4 workers took 1.6–2.3 s on the 782,915-state
// model against 1.3–1.5 s with runs of 32 (4-vCPU Xeon). The level is
// never resized while workers run.
void expandLevel(const std::vector<Discovery>& level,
                 std::atomic<std::size_t>& cursor, SeenSet& seen,
                 std::uint64_t fingerprint_mask,
                 std::atomic<bool>& out_of_budget, Worker& out) {
  for (;;) {
    const std::size_t first = cursor.fetch_add(kClaim, std::memory_order_relaxed);
    if (first >= level.size()) return;
    const std::size_t last = std::min(level.size(), first + kClaim);
    for (std::size_t at = first; at < last; ++at) {
      if (out_of_budget.load(std::memory_order_relaxed)) return;
      expandState(level[at], seen, fingerprint_mask, out_of_budget, out);
    }
  }
}

// Append the level's edge rows to the result's CSR arrays. A level's states
// hold the consecutive indices [lo, lo + size): every index the level has
// was handed out while the previous level expanded. Expansions arrive in
// any order across workers; a state the budget left unexpanded gets an
// empty row.
void commitEdges(std::vector<Worker>& workers, std::size_t level_size,
                 ExploreResult& result) {
  std::vector<std::uint64_t>& offsets = result.edge_offsets;
  const std::size_t lo = offsets.size() - 1;
  offsets.resize(lo + level_size + 1, 0);
  for (const Worker& w : workers) {
    for (const Expansion& e : w.expansions) {
      offsets[e.index + 1] = e.target_count;
    }
  }
  for (std::size_t i = lo + 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  result.edge_targets.resize(offsets.back());
  for (const Worker& w : workers) {
    const std::uint32_t* from = w.targets.data();
    for (const Expansion& e : w.expansions) {
      std::copy_n(from, e.target_count,
                  result.edge_targets.begin() + offsets[e.index]);
      from += e.target_count;
    }
  }
}

}  // namespace

std::set<std::uint32_t> quiescentObservables(const ExploreResult& graph) {
  std::set<std::uint32_t> out;
  for (const StateBits& bits : graph.bits) {
    if (!bits.expanded) continue;  // truncated leftovers carry no valid bits
    if (bits.quiescent && bits.allAttached) out.insert(bits.observable());
  }
  return out;
}

std::vector<std::string> ExploreResult::traceTo(std::uint32_t state) const {
  std::vector<std::string> trace;
  std::uint32_t current = state;
  while (current != 0) {
    trace.push_back(parent_action[current].toString());
    current = parent[current];
  }
  std::reverse(trace.begin(), trace.end());
  return trace;
}

ExploreResult explorePath(GoalKind left, GoalKind right, std::size_t flowlinks,
                          const ExploreLimits& limits) {
  PathSystem initial(PathSystem::makeGoal(left, PathEnd::left),
                     PathSystem::makeGoal(right, PathEnd::right), flowlinks,
                     limits.defer_attach);
  initial.setChaosBudget(limits.defer_attach ? limits.chaos_budget : 0);
  initial.setModifyBudget(limits.modify_budget);
  if (limits.fault_budget > 0) {
    // Faulty exploration (docs/FAULTS.md): the adversary may drop or
    // duplicate up to fault_budget in-flight messages, and the parties run
    // in stabilization mode so the global refresh action can repair the
    // damage. Budgets live in the canonical state, so every cycle of the
    // resulting graph is fault-free: liveness verdicts read as "after
    // injection ceases, the path self-stabilizes to its Section V spec".
    initial.setFaultBudget(limits.fault_budget);
    initial.enableStabilization(true);
  }
  return explore(initial, limits);
}

ExploreResult explore(const PathSystem& initial, const ExploreLimits& limits) {
  using Clock = std::chrono::steady_clock;
  const auto start_time = Clock::now();
  auto elapsed = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };

  ExploreResult result;
  const std::size_t thread_count = std::max<std::size_t>(1, limits.threads);
  // At least 1 so the initial state always gets its index.
  const std::uint32_t max_states = static_cast<std::uint32_t>(
      std::clamp<std::size_t>(limits.max_states, 1, SeenSet::kNoIndex - 1));

  SeenSet seen(max_states);
  std::vector<Discovery> level;
  {
    ByteWriter w;
    initial.canonicalize(w);
    const SeenSet::Outcome got =
        seen.insert(stateHash(w.bytes()) & limits.fingerprint_mask, w.bytes());
    level.push_back(Discovery{0, 0, PathAction{}, got.bytes});
  }
  result.bits.push_back(StateBits{});
  result.parent.push_back(0);
  result.parent_action.emplace_back();

  ExploreStats& stats = result.stats;
  stats.threads = thread_count;
  std::atomic<bool> out_of_budget{false};
  std::vector<Worker> workers;
  workers.reserve(thread_count);
  for (std::size_t t = 0; t < thread_count; ++t) workers.emplace_back(initial);

  while (!level.empty() && !out_of_budget.load(std::memory_order_relaxed)) {
    ++stats.frontier_depth;
    stats.peak_frontier = std::max(stats.peak_frontier, level.size());

    const auto expand_start = Clock::now();
    std::atomic<std::size_t> cursor{0};
    {
      CMC_PROF_SCOPE("mc.expand");
      if (thread_count == 1) {
        // Deterministic fallback: level states in order, indices assigned
        // in FIFO discovery order — identical to the historical explorer.
        expandLevel(level, cursor, seen, limits.fingerprint_mask,
                    out_of_budget, workers[0]);
      } else {
        std::vector<std::thread> threads;
        threads.reserve(thread_count);
        for (std::size_t t = 0; t < thread_count; ++t) {
          threads.emplace_back([&, t] {
            expandLevel(level, cursor, seen, limits.fingerprint_mask,
                        out_of_budget, workers[t]);
          });
        }
        for (std::thread& thread : threads) thread.join();
      }
    }
    stats.expand_seconds += elapsed(expand_start);

    const auto merge_start = Clock::now();
    CMC_PROF_SCOPE("mc.merge");
    const std::uint32_t total = seen.size();
    result.bits.resize(total);  // value-init: expanded=false until committed
    result.parent.resize(total, 0);
    result.parent_action.resize(total);
    commitEdges(workers, level.size(), result);
    level.clear();
    for (Worker& w : workers) {
      for (const Discovery& d : w.discoveries) {
        result.parent[d.index] = d.parent;
        result.parent_action[d.index] = d.action;
      }
      for (const Expansion& e : w.expansions) {
        result.bits[e.index] = e.bits;
        stats.transitions += e.target_count;
        if (e.bits.terminal) ++stats.terminals;
      }
      w.expansions.clear();
      w.targets.clear();
      level.insert(level.end(), w.discoveries.begin(), w.discoveries.end());
      w.discoveries.clear();
    }
    stats.merge_seconds += elapsed(merge_start);
  }
  // States discovered but never expanded (a truncated run) have no edges.
  result.edge_offsets.resize(result.bits.size() + 1,
                             result.edge_offsets.back());

  stats.states = result.bits.size();
  stats.dedup_hits = seen.hits();
  stats.collisions = seen.collisions();
  stats.bytes_retained = seen.bytesRetained();
  stats.truncated = out_of_budget.load(std::memory_order_relaxed);
  stats.seconds = elapsed(start_time);
  result.transitions = stats.transitions;
  result.truncated = stats.truncated;
  result.bytes_canonical = stats.bytes_retained;
  return result;
}

}  // namespace cmc
