#include "mc/state_graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "mc/seen_set.hpp"
#include "obs/profiler.hpp"

namespace cmc {

namespace {

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

// Per-state output of one expansion: bits plus successor indices in action
// order. Produced by workers, committed to the result single-threaded.
struct Expansion {
  std::uint32_t index = 0;
  StateBits bits{};
  std::vector<std::uint32_t> targets;
};

// A freshly discovered state. Its system stays here, in the batch of the
// worker that found it, until the next level expands and then resets it.
struct Discovery {
  std::uint32_t index;
  std::uint32_t parent;
  PathAction action;
  std::optional<PathSystem> system;
};

struct WorkerBatch {
  std::vector<Expansion> expansions;
  std::vector<Discovery> discoveries;
};

// One BFS level awaiting expansion: the previous level's discoveries, left
// in the per-worker vectors that found them. No merge step copies or sorts
// them: each system is built once, by apply(), and freed once, when
// expanded.
using Level = std::vector<std::vector<Discovery>>;

// Expand one state: record its bits and successor edges, park each new
// successor in `out`, and free the state's system.
void expandState(Discovery& state, SeenSet& seen,
                 std::uint64_t fingerprint_mask,
                 std::atomic<bool>& out_of_budget, WorkerBatch& out) {
  // Profiling sites here record only on threads with an installed table:
  // the single-thread deterministic path profiles fully; parallel workers
  // (no thread-local table) record nothing and race on nothing.
  CMC_PROF_SCOPE("mc.expand_state");
  const std::uint32_t index = state.index;
  const PathSystem& system = *state.system;
  const std::vector<PathAction> actions = system.enabledActions();
  Expansion expansion;
  expansion.index = index;
  expansion.bits = bitsOf(system, actions.empty());
  if (expansion.bits.terminal) {
    expansion.targets.push_back(index);  // stutter
  } else {
    for (const PathAction& action : actions) {
      PathSystem successor = system;
      successor.apply(action);
      ByteWriter w;
      {
        CMC_PROF_SCOPE("mc.canonicalize");
        successor.canonicalize(w);
      }
      std::vector<std::uint8_t> bytes = w.take();
      std::uint64_t fp;
      {
        CMC_PROF_SCOPE("mc.fingerprint");
        fp = fnv1a(bytes) & fingerprint_mask;
      }
      const SeenSet::Outcome got = seen.insert(fp, std::move(bytes));
      if (got.index == SeenSet::kNoIndex) {
        out_of_budget.store(true, std::memory_order_relaxed);
        break;  // keep the edges recorded so far for this state
      }
      if (got.inserted) {
        out.discoveries.push_back(
            Discovery{got.index, index, action, std::move(successor)});
      }
      expansion.targets.push_back(got.index);
    }
  }
  state.system.reset();
  out.expansions.push_back(std::move(expansion));
}

// Expand level states until every part's cursor runs off its end (or the
// state budget dies). Worker `first` drains part `first`, which it
// allocated, before helping with the others, so its frees stay in its own
// malloc arena instead of all workers contending on one part's arena. Each
// slot is claimed by exactly one worker, so resetting its system is
// race-free; the level is never resized while workers run.
void expandLevel(Level& level, std::vector<std::atomic<std::size_t>>& cursors,
                 std::size_t first, SeenSet& seen,
                 std::uint64_t fingerprint_mask,
                 std::atomic<bool>& out_of_budget, WorkerBatch& out) {
  for (std::size_t k = 0; k < level.size(); ++k) {
    const std::size_t p = (first + k) % level.size();
    for (;;) {
      const std::size_t slot =
          cursors[p].fetch_add(1, std::memory_order_relaxed);
      if (slot >= level[p].size()) break;
      if (out_of_budget.load(std::memory_order_relaxed)) return;
      expandState(level[p][slot], seen, fingerprint_mask, out_of_budget, out);
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
  {
    ByteWriter w;
    initial.canonicalize(w);
    std::vector<std::uint8_t> bytes = w.take();
    const std::uint64_t fp = fnv1a(bytes) & limits.fingerprint_mask;
    seen.insert(fp, std::move(bytes));
  }
  result.bits.push_back(StateBits{});
  result.edges.emplace_back();
  result.parent.push_back(0);
  result.parent_action.emplace_back();

  ExploreStats& stats = result.stats;
  stats.threads = thread_count;
  std::atomic<bool> out_of_budget{false};
  Level level(1);
  level[0].push_back(Discovery{0, 0, PathAction{}, initial});
  std::size_t level_size = 1;

  while (level_size > 0 && !out_of_budget.load(std::memory_order_relaxed)) {
    ++stats.frontier_depth;
    stats.peak_frontier = std::max(stats.peak_frontier, level_size);

    const auto expand_start = Clock::now();
    std::vector<std::atomic<std::size_t>> cursors(level.size());
    std::vector<WorkerBatch> batches(thread_count);
    {
      CMC_PROF_SCOPE("mc.expand");
      if (thread_count == 1) {
        // Deterministic fallback: level slots in order, indices assigned in
        // FIFO discovery order — identical to the historical explorer.
        expandLevel(level, cursors, 0, seen, limits.fingerprint_mask,
                    out_of_budget, batches[0]);
      } else {
        std::vector<std::thread> workers;
        workers.reserve(thread_count);
        for (std::size_t t = 0; t < thread_count; ++t) {
          workers.emplace_back([&, t] {
            expandLevel(level, cursors, t, seen, limits.fingerprint_mask,
                        out_of_budget, batches[t]);
          });
        }
        for (std::thread& worker : workers) worker.join();
      }
    }
    stats.expand_seconds += elapsed(expand_start);

    const auto merge_start = Clock::now();
    CMC_PROF_SCOPE("mc.merge");
    const std::uint32_t total = seen.size();
    result.bits.resize(total);  // value-init: expanded=false until committed
    result.edges.resize(total);
    result.parent.resize(total, 0);
    result.parent_action.resize(total);
    level.clear();
    level_size = 0;
    for (WorkerBatch& batch : batches) {
      for (const Discovery& d : batch.discoveries) {
        result.parent[d.index] = d.parent;
        result.parent_action[d.index] = d.action;
      }
      for (Expansion& e : batch.expansions) {
        result.bits[e.index] = e.bits;
        stats.transitions += e.targets.size();
        if (e.bits.terminal) ++stats.terminals;
        result.edges[e.index] = std::move(e.targets);
      }
      level_size += batch.discoveries.size();
      level.push_back(std::move(batch.discoveries));
    }
    stats.merge_seconds += elapsed(merge_start);
  }

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
