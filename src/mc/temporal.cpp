#include "mc/temporal.hpp"

#include <stack>

namespace cmc {

namespace {

// Iterative Tarjan SCC over the ¬B-subgraph. Calls `onComponent` with each
// SCC (vector of state indices) plus whether the component contains a cycle
// (more than one node, or a self-loop).
void forEachScc(const ExploreResult& graph, const StatePredicate& B,
                const std::function<void(const std::vector<std::uint32_t>&, bool)>&
                    onComponent) {
  const std::size_t n = graph.states();
  constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> scc_stack;
  std::uint32_t next_index = 0;

  struct Frame {
    std::uint32_t v;
    std::size_t edge;
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    if (B(graph.bits[root])) continue;  // outside the ¬B subgraph

    std::stack<Frame> frames;
    frames.push(Frame{root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& frame = frames.top();
      const std::uint32_t v = frame.v;
      const std::span<const std::uint32_t> out = graph.successors(v);
      if (frame.edge < out.size()) {
        const std::uint32_t w = out[frame.edge++];
        if (B(graph.bits[w])) continue;  // edge leaves the subgraph
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          frames.push(Frame{w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      // v finished.
      if (lowlink[v] == index[v]) {
        std::vector<std::uint32_t> component;
        while (true) {
          const std::uint32_t w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = false;
          component.push_back(w);
          if (w == v) break;
        }
        bool has_cycle = component.size() > 1;
        if (!has_cycle) {
          for (std::uint32_t succ : graph.successors(v)) {
            if (succ == v) {
              has_cycle = true;
              break;
            }
          }
        }
        onComponent(component, has_cycle);
      }
      frames.pop();
      if (!frames.empty()) {
        Frame& parent = frames.top();
        lowlink[parent.v] = std::min(lowlink[parent.v], lowlink[v]);
      }
    }
  }
}

}  // namespace

std::optional<TemporalViolation> findLassoViolation(const ExploreResult& graph,
                                                    const StatePredicate& A,
                                                    const StatePredicate& B) {
  std::optional<TemporalViolation> violation;
  forEachScc(graph, B,
             [&](const std::vector<std::uint32_t>& component, bool has_cycle) {
               if (violation || !has_cycle) return;
               for (std::uint32_t s : component) {
                 if (!A(graph.bits[s])) {
                   violation = TemporalViolation{
                       s, "cycle avoiding the recurrent goal contains a "
                          "non-stable state"};
                   return;
                 }
               }
             });
  return violation;
}

std::optional<TemporalViolation> checkEventuallyAlways(const ExploreResult& graph,
                                                       const StatePredicate& P) {
  auto violation =
      findLassoViolation(graph, P, [](const StateBits&) { return false; });
  if (violation) violation->description = "a reachable cycle visits a ¬P state";
  return violation;
}

std::optional<TemporalViolation> checkAlwaysEventually(const ExploreResult& graph,
                                                       const StatePredicate& P) {
  auto violation =
      findLassoViolation(graph, [](const StateBits&) { return false; }, P);
  if (violation) {
    violation->description = "a reachable cycle never visits a P state";
  }
  return violation;
}

std::optional<TemporalViolation> checkStableOrRecurrent(const ExploreResult& graph,
                                                        const StatePredicate& A,
                                                        const StatePredicate& B) {
  auto violation = findLassoViolation(graph, A, B);
  if (violation) {
    violation->description =
        "a reachable cycle avoids the recurrent disjunct and leaves the "
        "stable disjunct";
  }
  return violation;
}

std::optional<TemporalViolation> checkSafety(const ExploreResult& graph) {
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    const StateBits& bits = graph.bits[s];
    // States a truncated run never expanded carry no valid predicate bits.
    // (The cycle checks above need no such guard: an unexpanded state has
    // no outgoing edges, so it can never sit on a cycle.)
    if (!bits.expanded) continue;
    if (bits.quiescent && bits.allAttached && !bits.slotsStable) {
      return TemporalViolation{
          s, "quiescent fully-attached state with a slot neither closed nor "
             "flowing"};
    }
  }
  return std::nullopt;
}

std::optional<TemporalViolation> checkSafetyTerminal(const ExploreResult& graph) {
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    const StateBits& bits = graph.bits[s];
    if (!bits.expanded || !bits.terminal) continue;
    if (!bits.slotsStable) {
      return TemporalViolation{
          s, "terminal state with a slot neither closed nor flowing "
             "(stabilization failed to repair an injected fault)"};
    }
  }
  return std::nullopt;
}

}  // namespace cmc
