#include "sp/sp_reduce.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

namespace rrsn::sp {

using graph::Digraph;
using graph::VertexId;

namespace {

/// Mutable multigraph for the reduction: edge multiset per vertex pair.
struct ReduceGraph {
  std::size_t n = 0;
  std::map<std::pair<VertexId, VertexId>, std::size_t> edges;
  std::vector<std::set<VertexId>> out;
  std::vector<std::set<VertexId>> in;
  std::vector<bool> alive;

  explicit ReduceGraph(const Digraph& g)
      : n(g.vertexCount()), out(n), in(n), alive(n, true) {
    for (VertexId v = 0; v < g.vertexCount(); ++v) {
      for (VertexId s : g.successors(v)) {
        ++edges[{v, s}];
        out[v].insert(s);
        in[s].insert(v);
      }
    }
  }

  void removeEdge(VertexId a, VertexId b) {
    auto it = edges.find({a, b});
    RRSN_CHECK(it != edges.end(), "edge not present");
    if (--it->second == 0) {
      edges.erase(it);
      out[a].erase(b);
      in[b].erase(a);
    }
  }

  void addEdge(VertexId a, VertexId b) {
    ++edges[{a, b}];
    out[a].insert(b);
    in[b].insert(a);
  }

  std::size_t multiplicity(VertexId a, VertexId b) const {
    const auto it = edges.find({a, b});
    return it == edges.end() ? 0 : it->second;
  }
};

/// Runs series/parallel reductions to exhaustion.  Returns the surviving
/// vertices other than source and sink.
std::vector<VertexId> reduceToCore(ReduceGraph& rg, VertexId source,
                                   VertexId sink) {
  std::queue<VertexId> work;
  for (VertexId v = 0; v < rg.n; ++v) work.push(v);

  const auto enqueueNeighbors = [&](VertexId v) {
    for (VertexId s : rg.out[v]) work.push(s);
    for (VertexId p : rg.in[v]) work.push(p);
    work.push(v);
  };

  while (!work.empty()) {
    const VertexId v = work.front();
    work.pop();
    if (!rg.alive[v]) continue;

    // Parallel reduction: collapse duplicate edges around v.
    for (VertexId s : std::vector<VertexId>(rg.out[v].begin(), rg.out[v].end())) {
      while (rg.multiplicity(v, s) > 1) rg.removeEdge(v, s);
    }

    if (v == source || v == sink) continue;

    // Series reduction: in-degree 1 and out-degree 1 (single neighbors,
    // multiplicity 1 each after parallel collapsing).
    if (rg.in[v].size() == 1 && rg.out[v].size() == 1) {
      const VertexId p = *rg.in[v].begin();
      const VertexId s = *rg.out[v].begin();
      if (rg.multiplicity(p, v) == 1 && rg.multiplicity(v, s) == 1) {
        rg.removeEdge(p, v);
        rg.removeEdge(v, s);
        rg.alive[v] = false;
        rg.addEdge(p, s);
        enqueueNeighbors(p);
        work.push(s);
        continue;
      }
    }
  }

  std::vector<VertexId> survivors;
  for (VertexId v = 0; v < rg.n; ++v)
    if (rg.alive[v] && v != source && v != sink) survivors.push_back(v);
  return survivors;
}

}  // namespace

Digraph digraphOf(const rsn::FlatNetwork& flat) {
  Digraph g;
  for (std::size_t v = 0; v < flat.vertexCount(); ++v) g.addVertex();
  for (VertexId v = 0; v < flat.vertexCount(); ++v)
    for (std::uint32_t e = flat.fwdOffsets()[v]; e < flat.fwdOffsets()[v + 1];
         ++e)
      g.addEdge(v, flat.fwdEdges()[e].other);
  return g;
}

SpCheck checkSeriesParallel(const Digraph& g, VertexId source, VertexId sink) {
  RRSN_CHECK(graph::isTwoTerminalDag(g, source, sink),
             "SP check requires a two-terminal DAG");
  ReduceGraph rg(g);
  SpCheck result;
  result.stuckVertices = reduceToCore(rg, source, sink);
  result.isSeriesParallel =
      result.stuckVertices.empty() && rg.multiplicity(source, sink) <= 1;
  // A multi-edge between source and sink still parallel-reduces; run a
  // final collapse to be safe.
  if (result.stuckVertices.empty()) result.isSeriesParallel = true;
  return result;
}

Virtualization virtualizeToSp(const Digraph& g, VertexId source,
                              VertexId sink) {
  Virtualization out;
  out.originalOf.resize(g.vertexCount());
  for (VertexId v = 0; v < g.vertexCount(); ++v) {
    out.originalOf[v] = v;
    out.graph.addVertex(g.label(v));
  }
  for (VertexId v = 0; v < g.vertexCount(); ++v)
    for (VertexId s : g.successors(v)) out.graph.addEdge(v, s);

  const std::size_t cloneCap = 10 * g.vertexCount() + 64;
  while (true) {
    const SpCheck check = checkSeriesParallel(out.graph, source, sink);
    if (check.isSeriesParallel) return out;
    RRSN_CHECK(out.clonesAdded < cloneCap,
               "virtualization did not converge; the input graph is too far "
               "from series-parallel");

    // Pick an offending fan-out stem: a surviving vertex with out-degree
    // >= 2 (excluding the source).  Splitting it into one clone per
    // out-edge removes the crossing reconvergence it participates in.
    VertexId stem = graph::kNoVertex;
    for (VertexId v : check.stuckVertices) {
      if (out.graph.outDegree(v) >= 2) {
        stem = v;
        break;
      }
    }
    RRSN_CHECK(stem != graph::kNoVertex,
               "SP reduction stuck without a splittable fan-out stem");

    // Rebuild the graph with `stem` split: clone i keeps all in-edges and
    // exactly the i-th out-edge.
    const auto succs = out.graph.successors(stem);
    Digraph next;
    std::vector<VertexId> originalNext;
    std::vector<VertexId> remap(out.graph.vertexCount());
    for (VertexId v = 0; v < out.graph.vertexCount(); ++v) {
      remap[v] = next.addVertex(out.graph.label(v));
      originalNext.push_back(out.originalOf[v]);
    }
    std::vector<VertexId> clones;
    for (std::size_t i = 1; i < succs.size(); ++i) {
      const VertexId c = next.addVertex(out.graph.label(stem) + "'");
      originalNext.push_back(out.originalOf[stem]);
      clones.push_back(c);
    }
    for (VertexId v = 0; v < out.graph.vertexCount(); ++v) {
      for (VertexId s : out.graph.successors(v)) {
        if (v == stem) continue;  // handled below
        next.addEdge(remap[v], remap[s]);
        if (s == stem)
          for (VertexId c : clones) next.addEdge(remap[v], c);
      }
    }
    next.addEdge(remap[stem], remap[succs[0]]);
    for (std::size_t i = 1; i < succs.size(); ++i)
      next.addEdge(clones[i - 1], remap[succs[i]]);

    out.graph = std::move(next);
    out.originalOf = std::move(originalNext);
    out.clonesAdded += succs.size() - 1;
  }
}

}  // namespace rrsn::sp
