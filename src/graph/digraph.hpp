// A small generic directed-graph container.
//
// The RSN itself is lowered into a CSR arena (rsn/flat.hpp); this module
// provides a general graph of Sec. III ("An RSN is modeled as a directed
// graph G := (V, E)") — the input of the series-parallel recognition in
// src/sp, which may rewrite it — plus the algorithms the modeling section
// relies on: topological order, reachability, dominators and
// reconvergence analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace rrsn::graph {

using VertexId = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);

/// Adjacency-list directed graph with string-labelled vertices.
/// Vertices are identified by dense ids in insertion order.
class Digraph {
 public:
  /// Adds a vertex and returns its id.
  VertexId addVertex(std::string label = {});

  /// Adds the directed edge from -> to.  Parallel edges are allowed
  /// (an RSN mux may receive the same branch twice after reduction).
  void addEdge(VertexId from, VertexId to);

  std::size_t vertexCount() const { return out_.size(); }
  std::size_t edgeCount() const { return edgeCount_; }

  const std::string& label(VertexId v) const {
    RRSN_CHECK(v < out_.size(), "vertex id out of range");
    return labels_[v];
  }
  void setLabel(VertexId v, std::string label);

  const std::vector<VertexId>& successors(VertexId v) const {
    RRSN_CHECK(v < out_.size(), "vertex id out of range");
    return out_[v];
  }
  const std::vector<VertexId>& predecessors(VertexId v) const {
    RRSN_CHECK(v < in_.size(), "vertex id out of range");
    return in_[v];
  }

  std::size_t outDegree(VertexId v) const { return successors(v).size(); }
  std::size_t inDegree(VertexId v) const { return predecessors(v).size(); }

 private:
  std::vector<std::string> labels_;
  std::vector<std::vector<VertexId>> out_;
  std::vector<std::vector<VertexId>> in_;
  std::size_t edgeCount_ = 0;
};

/// Vertices in a topological order.  Throws ValidationError if the graph
/// has a cycle (a structural scan path must be acyclic).
std::vector<VertexId> topologicalOrder(const Digraph& g);

/// True if the graph is acyclic.
bool isAcyclic(const Digraph& g);

/// Set-of-vertices reachable from `source` following edges forward
/// (including `source` itself), as a membership vector.
std::vector<bool> reachableFrom(const Digraph& g, VertexId source);

/// Vertices from which `sink` is reachable (including `sink`).
std::vector<bool> reachableTo(const Digraph& g, VertexId sink);

/// Immediate dominators w.r.t. `root` (Cooper–Harvey–Kennedy iterative
/// algorithm).  idom[root] == root; unreachable vertices get kNoVertex.
std::vector<VertexId> immediateDominators(const Digraph& g, VertexId root);

/// True if `dom` dominates `v` in the given idom tree.
bool dominates(const std::vector<VertexId>& idom, VertexId dom, VertexId v);

/// A reconvergent fan-out stem and its closing reconvergence gate
/// (Sec. III: two disjoint paths from stem s to gate d).
struct Reconvergence {
  VertexId stem = kNoVertex;   ///< fan-out vertex (out-degree >= 2)
  VertexId gate = kNoVertex;   ///< the closing reconvergence (a mux in RSNs)
};

/// Finds, for every fan-out stem, its closing reconvergence: the nearest
/// post-dominator of the stem among vertices reached by >= 2 of its
/// branches.  Requires an acyclic two-terminal graph.
std::vector<Reconvergence> findReconvergences(const Digraph& g, VertexId sink);

/// True if g is a two-terminal DAG: acyclic, exactly one source (= `source`,
/// in-degree 0), one sink (= `sink`, out-degree 0), and every vertex lies
/// on some source->sink path.
bool isTwoTerminalDag(const Digraph& g, VertexId source, VertexId sink);

}  // namespace rrsn::graph
