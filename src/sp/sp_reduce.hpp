// Series-parallel recognition and virtualization of flat RSN graphs.
//
// The hierarchical networks built through NetworkBuilder are SP by
// construction; this module provides the general-graph side of Sec. III:
// recognizing whether a two-terminal DAG is series-parallel (Def. 1) and,
// if it is not, inserting a minimized number of *virtual vertices* (clones
// that share the identity of their original) until it is.  The paper uses
// the same trick ("an SP-RSN model is obtained by adding a minimized
// number of virtual vertices"); the clones exist only for analysis and
// are reverted in the synthesized hardened RSN.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "rsn/flat.hpp"

namespace rrsn::sp {

/// The flat scan graph of a lowered network as a Digraph: one vertex per
/// arena vertex (same ids, unlabeled) and the forward CSR's edges in row
/// order.  The source is flat.scanIn(), the sink flat.scanOut().
graph::Digraph digraphOf(const rsn::FlatNetwork& flat);

/// Result of an SP reduction run.
struct SpCheck {
  bool isSeriesParallel = false;
  /// Vertices still present when the reduction got stuck (empty if SP);
  /// useful diagnostics for "why is my RSN not hierarchical".
  std::vector<graph::VertexId> stuckVertices;
};

/// Tests whether `g` is two-terminal series-parallel between source and
/// sink, by exhaustive series/parallel reduction.
SpCheck checkSeriesParallel(const graph::Digraph& g, graph::VertexId source,
                            graph::VertexId sink);

/// Result of virtualization.
struct Virtualization {
  graph::Digraph graph;                  ///< the SP-ified graph
  /// originalOf[v] maps every vertex of `graph` to the vertex of the
  /// input graph it represents (clones map to their original).
  std::vector<graph::VertexId> originalOf;
  std::size_t clonesAdded = 0;
};

/// Clones reconvergent fan-out stems until the graph becomes SP.
/// Greedy-minimal: splits one offending stem at a time (deepest first)
/// and re-checks.  Throws ValidationError if a safety cap on clone count
/// is exceeded (pathological inputs).
Virtualization virtualizeToSp(const graph::Digraph& g, graph::VertexId source,
                              graph::VertexId sink);

}  // namespace rrsn::sp
