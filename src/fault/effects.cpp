#include "fault/effects.hpp"

#include <queue>

namespace rrsn::fault {

using rsn::InstrumentId;
using sp::DecompositionTree;
using sp::TreeId;
using sp::TreeKind;

namespace {

/// Marks every instrument inside the subtree rooted at `id`.
void collectInstruments(const DecompositionTree& tree, TreeId id,
                        DynamicBitset& out,
                        const rsn::Network& net) {
  std::vector<TreeId> stack{id};
  while (!stack.empty()) {
    const auto& n = tree.node(stack.back());
    stack.pop_back();
    if (n.kind == TreeKind::LeafSegment) {
      const InstrumentId inst = net.segment(n.prim).instrument;
      if (inst != rsn::kNone) out.set(inst);
    } else if (n.kind == TreeKind::Series || n.kind == TreeKind::Parallel) {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
}

}  // namespace

AccessibilityLoss lossUnderFaultTree(const DecompositionTree& tree,
                                     const Fault& f) {
  const rsn::Network& net = tree.network();
  AccessibilityLoss loss;
  loss.unobservable = DynamicBitset(net.instruments().size());
  loss.unsettable = DynamicBitset(net.instruments().size());

  if (f.kind == FaultKind::MuxStuck) {
    // Every non-selected branch is disconnected both ways (Fig. 4):
    // collect each branch's instruments once, then merge the set into
    // both directions with word-level unions.
    const auto& branches = tree.branchesOfMux(f.prim);
    RRSN_CHECK(f.stuckBranch < branches.size(), "stuck branch out of range");
    DynamicBitset branchInstruments(net.instruments().size());
    for (std::size_t b = 0; b < branches.size(); ++b) {
      if (b == f.stuckBranch) continue;
      branchInstruments.clearAll();
      collectInstruments(tree, branches[b], branchInstruments, net);
      loss.unobservable.orWith(branchInstruments);
      loss.unsettable.orWith(branchInstruments);
    }
    return loss;
  }

  // Segment break: the faulty segment itself loses both; inside the branch
  // of the closest parental multiplexer, everything on the scan-in side
  // (left in the in-order leaf sequence) loses observability and
  // everything on the scan-out side loses settability.
  const TreeId leaf = tree.leafOfSegment(f.prim);
  {
    const InstrumentId inst = net.segment(f.prim).instrument;
    if (inst != rsn::kNone) {
      loss.unobservable.set(inst);
      loss.unsettable.set(inst);
    }
  }
  TreeId cur = leaf;
  TreeId parent = tree.node(cur).parent;
  while (parent != sp::kNoTree && tree.node(parent).kind != TreeKind::Parallel) {
    const auto& p = tree.node(parent);
    if (p.kind == TreeKind::Series) {
      if (p.right == cur)
        collectInstruments(tree, p.left, loss.unobservable, net);
      else
        collectInstruments(tree, p.right, loss.unsettable, net);
    }
    cur = parent;
    parent = p.parent;
  }
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
