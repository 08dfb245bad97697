#include "fault/effects.hpp"

#include <queue>

namespace rrsn::fault {

using rsn::InstrumentId;
using sp::DecompositionTree;
using sp::TreeId;
using sp::TreeKind;

AccessibilityLoss lossUnderFaultTree(const DecompositionTree& tree,
                                     const Fault& f) {
  const rsn::Network& net = tree.network();
  AccessibilityLoss loss;
  loss.unobservable = DynamicBitset(net.instruments().size());
  loss.unsettable = DynamicBitset(net.instruments().size());
  std::vector<TreeId> stack;
  forEachLostSubtree(tree, f, [&](TreeId root, unsigned lost) {
    stack.assign(1, root);
    while (!stack.empty()) {
      const auto& n = tree.node(stack.back());
      stack.pop_back();
      if (n.kind == TreeKind::LeafSegment) {
        const InstrumentId inst = net.segment(n.prim).instrument;
        if (inst == rsn::kNone) continue;
        if ((lost & kLostObservability) != 0) loss.unobservable.set(inst);
        if ((lost & kLostSettability) != 0) loss.unsettable.set(inst);
      } else if (n.kind == TreeKind::Series ||
                 n.kind == TreeKind::Parallel) {
        stack.push_back(n.left);
        stack.push_back(n.right);
      }
    }
  });
  return loss;
}

namespace {

/// BFS over the guarded CSR honoring the fault: a broken segment vertex
/// is impassable; a stuck mux only accepts the edges whose branch span
/// holds the stuck branch.  `forward` false walks predecessor edges (for
/// settability).
std::vector<bool> faultAwareReach(const rsn::FlatNetwork& flat,
                                  const Fault& f, graph::VertexId start,
                                  bool forward, bool ignoreBreak) {
  std::vector<bool> seen(flat.vertexCount(), false);
  const graph::VertexId broken =
      f.kind == FaultKind::SegmentBreak && !ignoreBreak
          ? flat.segmentVertex()[f.prim]
          : graph::kNoVertex;
  const auto offsets = forward ? flat.fwdOffsets() : flat.bwdOffsets();
  const auto edges = forward ? flat.fwdEdges() : flat.bwdEdges();
  const auto pool = flat.branchPool();

  const auto edgeAllowed = [&](const rsn::FlatNetwork::Edge& e) {
    if (e.other == broken) return false;
    if (f.kind != FaultKind::MuxStuck || e.mux != f.prim) return true;
    for (std::uint32_t k = e.branchBegin; k < e.branchEnd; ++k)
      if (pool[k] == f.stuckBranch) return true;
    return false;
  };

  if (start == broken) return seen;  // the defect vertex itself is dead
  std::queue<graph::VertexId> work;
  seen[start] = true;
  work.push(start);
  while (!work.empty()) {
    const graph::VertexId v = work.front();
    work.pop();
    for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const rsn::FlatNetwork::Edge& e = edges[i];
      if (!edgeAllowed(e) || seen[e.other]) continue;
      seen[e.other] = true;
      work.push(e.other);
    }
  }
  return seen;
}

}  // namespace

AccessibilityLoss lossUnderFaultGraph(const rsn::FlatNetwork& flat,
                                      const Fault& f) {
  if (f.kind == FaultKind::MuxStuck)
    RRSN_CHECK(f.stuckBranch < flat.muxArity()[f.prim],
               "stuck branch out of range");
  const std::size_t n = flat.instrumentCount();
  AccessibilityLoss loss;
  loss.unobservable = DynamicBitset(n);
  loss.unsettable = DynamicBitset(n);

  // A primitive is accessible only while it lies on a complete sensitized
  // scan path (Sec. IV-B2), so each direction combines two reachabilities:
  //  * observable: some complete path reaches the segment from scan-in
  //    (data integrity on that prefix does not matter) AND the suffix to
  //    scan-out avoids the broken segment;
  //  * settable: the prefix from scan-in avoids the broken segment AND
  //    some suffix completes the path.
  // Stuck-mux constraints apply to every leg; only the break may be
  // ignored on the "other" leg.
  const auto reachesOutClean =
      faultAwareReach(flat, f, flat.scanOut(), /*forward=*/false,
                      /*ignoreBreak=*/false);
  const auto reachedInClean =
      faultAwareReach(flat, f, flat.scanIn(), /*forward=*/true,
                      /*ignoreBreak=*/false);
  const auto reachesOutAny =
      faultAwareReach(flat, f, flat.scanOut(), /*forward=*/false,
                      /*ignoreBreak=*/true);
  const auto reachedInAny =
      faultAwareReach(flat, f, flat.scanIn(), /*forward=*/true,
                      /*ignoreBreak=*/true);

  for (InstrumentId i = 0; i < n; ++i) {
    const graph::VertexId segV = flat.instrumentVertex()[i];
    const bool brokenSelf = f.kind == FaultKind::SegmentBreak &&
                            flat.segmentVertex()[f.prim] == segV;
    if (brokenSelf || !(reachedInAny[segV] && reachesOutClean[segV]))
      loss.unobservable.set(i);
    if (brokenSelf || !(reachedInClean[segV] && reachesOutAny[segV]))
      loss.unsettable.set(i);
  }
  return loss;
}

std::uint64_t damageOfLoss(const rsn::CriticalitySpec& spec,
                           const AccessibilityLoss& loss) {
  std::uint64_t damage = 0;
  loss.unobservable.forEachSet([&](std::size_t i) {
    damage += spec.of(static_cast<InstrumentId>(i)).obs;
  });
  loss.unsettable.forEachSet([&](std::size_t i) {
    damage += spec.of(static_cast<InstrumentId>(i)).set;
  });
  return damage;
}

}  // namespace rrsn::fault
