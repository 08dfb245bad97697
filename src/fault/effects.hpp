// Fault-effect computation (Sec. IV-B): which instruments lose
// observability and/or settability under a given single fault.
//
// forEachLostSubtree states the paper's rule once, on the annotated
// decomposition tree: a segment break is isolated inside the branch of
// its closest parental multiplexer, where it splits the branch into an
// unobservable upstream part and an unsettable downstream part; a stuck
// mux disconnects all non-selected branches entirely.  Two readers
// share it: crit::CriticalityAnalyzer sums the lost subtrees' weight
// annotations, and lossUnderFaultTree marks their instruments.
//
// lossUnderFaultGraph is the independent brute-force oracle on the
// lowered scan graph (the FlatNetwork arena's guarded CSR): instrument i
// stays observable iff a path from its segment to the scan-out avoids
// the defect, and settable iff a path from the scan-in to its segment
// does.  The test suite checks the tree rule against it on every fault
// of every network.
#pragma once

#include "fault/fault.hpp"
#include "rsn/flat.hpp"
#include "sp/decomposition.hpp"
#include "support/bitset.hpp"

namespace rrsn::fault {

/// Directions a subtree loses under a fault (bit set).
enum LostDirections : unsigned {
  kLostObservability = 1,
  kLostSettability = 2,
  kLostBoth = kLostObservability | kLostSettability,
};

/// The Sec. IV-B rule: calls onLost(subtree, directions) once for each
/// subtree whose instruments lose those directions under `f`.  A broken
/// segment loses its own leaf both ways; below the break's parental P
/// vertex, each series sibling on the scan-in side loses observability
/// and each one on the scan-out side settability.  A stuck mux loses
/// every other branch both ways.  The subtrees are disjoint, and a
/// segment break reports O(tree depth) of them.
template <typename OnLost>
void forEachLostSubtree(const sp::DecompositionTree& tree, const Fault& f,
                        OnLost&& onLost) {
  if (f.kind == FaultKind::MuxStuck) {
    const auto& branches = tree.branchesOfMux(f.prim);
    RRSN_CHECK(f.stuckBranch < branches.size(), "stuck branch out of range");
    for (std::size_t b = 0; b < branches.size(); ++b)
      if (b != f.stuckBranch) onLost(branches[b], kLostBoth);
    return;
  }
  sp::TreeId cur = tree.leafOfSegment(f.prim);
  onLost(cur, kLostBoth);
  // Only S and P vertices have children, so every parent below the
  // parental P vertex is an S vertex.
  for (sp::TreeId p = tree.node(cur).parent; p != sp::kNoTree;) {
    const sp::TreeNode& s = tree.node(p);
    if (s.kind == sp::TreeKind::Parallel) break;
    if (s.right == cur)
      onLost(s.left, kLostObservability);
    else
      onLost(s.right, kLostSettability);
    cur = p;
    p = s.parent;
  }
}

/// Per-instrument accessibility loss under one fault.
struct AccessibilityLoss {
  DynamicBitset unobservable;  ///< bit i: instrument i lost observability
  DynamicBitset unsettable;    ///< bit i: instrument i lost settability
};

/// The instruments of every subtree forEachLostSubtree reports.
AccessibilityLoss lossUnderFaultTree(const sp::DecompositionTree& tree,
                                     const Fault& f);

/// Flat-graph oracle: four breadth-first searches over the arena's
/// guarded CSR.
AccessibilityLoss lossUnderFaultGraph(const rsn::FlatNetwork& flat,
                                      const Fault& f);

/// Weighted damage of one fault under a specification (Eq. 1 restricted
/// to this fault): sum of do_i over unobservable + ds_i over unsettable.
std::uint64_t damageOfLoss(const rsn::CriticalitySpec& spec,
                           const AccessibilityLoss& loss);

}  // namespace rrsn::fault
