// Fault-effect computation (Sec. IV-B): which instruments lose
// observability and/or settability under a given single fault.
//
// Two independent implementations are provided on purpose:
//  * lossUnderFaultTree  — follows the paper's decomposition-tree
//    argument (observability / settability trees): a segment break is
//    isolated inside the branch of its closest parental multiplexer where
//    it splits the branch into an unobservable upstream part and an
//    unsettable downstream part; a stuck mux disconnects all non-selected
//    branches entirely.
//  * lossUnderFaultGraph — a brute-force oracle on the lowered scan graph
//    (the FlatNetwork arena's guarded CSR): instrument i stays observable
//    iff a path from its segment to the scan-out avoids the defect, and
//    settable iff a path from the scan-in to its segment does.
// The test suite checks the two agree on every fault of every network.
#pragma once

#include "fault/fault.hpp"
#include "rsn/flat.hpp"
#include "sp/decomposition.hpp"
#include "support/bitset.hpp"

namespace rrsn::fault {

/// Per-instrument accessibility loss under one fault.
struct AccessibilityLoss {
  DynamicBitset unobservable;  ///< bit i: instrument i lost observability
  DynamicBitset unsettable;    ///< bit i: instrument i lost settability
};

/// Decomposition-tree implementation (fast path of the paper).
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
