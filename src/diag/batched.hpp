// Batched syndrome rows via frontier traversal: the reference engine.
//
// This engine reads the flat arena (rsn::FlatNetwork) and derives a
// fault's *entire* syndrome row from a
// handful of whole-graph reachability sweeps: forward from scan-in and
// backward from scan-out, under the fault's selectable-branch sets,
// with an optional shrinking fixpoint that drops mux branches whose
// address register is itself unreachable under the fault.  The fault
// dictionary and the campaign oracle read verify::Certifier rows,
// which implement the same semantics independently; this engine is
// their differential reference: the certifier's checked mode
// (RRSN_CERTIFY_MODE=checked) replays rows through it, and tests and
// benches compare the two engines.
//
// Each sweep is a direction-optimizing BFS in the PaperWasp style: a
// sliding work queue expands the frontier top-down while it is narrow
// (scan graphs are path-like, so this is the common case), and switches
// to a bottom-up bitmap scan — testing every unvisited vertex for a
// visited admissible predecessor, 64 vertices' visited bits per word —
// once the frontier's scout count saturates against the unexplored edge
// count.  The result is a reachability *set*, so the traversal order
// (and hence the switching heuristic) cannot affect any syndrome bit.
//
// Semantics: a syndrome bit is set iff the retargeting engine can
// physically complete the access on the faulty simulator.  For segment
// breaks that is the union of three access modes — strict (the access
// avoids the broken segment entirely), depth-bounded tolerance (every
// configuration demand is written before the break first joins the
// active path, so no CSU ever shifts X into a consulted control
// register), and clean-suffix tolerance (no mux address register lies
// downstream of the break on the path, so the poison that every
// exposed CSU smears over the downstream cells is never consulted).
// diag_test checks these semantics, as certifier rows, against the
// simulator on the example and generated networks; verify_test and
// property_test check this engine against the certifier cell by cell.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "rsn/flat.hpp"
#include "rsn/network.hpp"
#include "support/bitset.hpp"

namespace rrsn::diag {

/// Pass/fail outcome of the standard test-access set: bit 2i is the
/// read of instrument i, bit 2i+1 the write.
struct Syndrome {
  DynamicBitset passed;

  bool operator==(const Syndrome&) const = default;

  /// Number of differing outcomes.
  std::size_t distanceTo(const Syndrome& other) const;

  /// Hamming distance with an early exit: returns the exact distance
  /// when it is <= bound, otherwise some value > bound (the partial
  /// count at the word where the bound was exceeded).
  std::size_t distanceToAtMost(const Syndrome& other,
                               std::size_t bound) const;
};

/// Shared-read engine: one instance per build, row() callable
/// concurrently as long as every caller passes a distinct worker lane.
class BatchedSyndromeEngine {
 public:
  /// Lowers `net` into a fresh flat view first.  Callers that already
  /// hold one should pass it instead so the network is flattened once,
  /// not per engine.
  explicit BatchedSyndromeEngine(const rsn::Network& net);

  /// Shares an existing arena: no lowering, just the scratch lanes.
  explicit BatchedSyndromeEngine(std::shared_ptr<const rsn::FlatNetwork> flat);

  /// Syndrome row of `f` (nullptr = fault-free): bit 2i = instrument i
  /// observable, bit 2i+1 = settable.  `worker` < workerLanes() selects
  /// the scratch buffers (pass the lane id from parallelForChunks).
  Syndrome row(const fault::Fault* f, std::size_t worker) const;

  std::size_t workerLanes() const { return scratch_.size(); }

 private:
  struct Scratch {
    std::vector<std::uint64_t> sel;       ///< selectable words
    DynamicBitset inStrict, outStrict;    ///< strict fwd / bwd reach
    DynamicBitset inRead, outWrite;       ///< break-tolerant reaches
    DynamicBitset cleanToOut;   ///< bwd reach avoiding control registers
    DynamicBitset cleanFromB;   ///< fwd reach from the break, reg-free
    DynamicBitset bwdFromB;     ///< bwd reach from the break
    std::vector<graph::VertexId> queue, next;
  };

  /// Reachability sweep into `visited`.  `source` = kNoVertex starts at
  /// scan-in (forward) or scan-out (backward); `tolerate` lets edges
  /// cross the broken vertex; `avoidCtrlRegs` refuses to traverse
  /// through mux address registers (clean-suffix mode).
  void sweep(bool forward, const std::uint64_t* sel, bool tolerate,
             graph::VertexId brokenV, graph::VertexId source,
             bool avoidCtrlRegs, DynamicBitset& visited, Scratch& s) const;

  /// Shrinks s.sel to the branches whose control register stays
  /// strictly reachable (and address-representable); leaves s.inStrict
  /// holding the strict forward reach under the final sets.
  void runFixpoint(const fault::Fault* f, graph::VertexId brokenV,
                   Scratch& s) const;

  /// ORs the verdicts of one access mode into `row` (bits of
  /// instruments sitting on the broken vertex stay 0).
  void emitInto(Syndrome& row, const DynamicBitset& inRead,
                const DynamicBitset& outStrict, const DynamicBitset& inStrict,
                const DynamicBitset& outWrite, graph::VertexId brokenV) const;

  std::shared_ptr<const rsn::FlatNetwork> flat_;
  std::size_t instruments_ = 0;
  mutable std::vector<Scratch> scratch_;
};

}  // namespace rrsn::diag
