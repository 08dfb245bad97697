#include "graph/digraph.hpp"

#include <algorithm>
#include <queue>

namespace rrsn::graph {

VertexId Digraph::addVertex(std::string label) {
  const auto id = static_cast<VertexId>(out_.size());
  labels_.push_back(std::move(label));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

void Digraph::addEdge(VertexId from, VertexId to) {
  RRSN_CHECK(from < out_.size() && to < out_.size(),
             "edge endpoint out of range");
  out_[from].push_back(to);
  in_[to].push_back(from);
  ++edgeCount_;
}

void Digraph::setLabel(VertexId v, std::string label) {
  RRSN_CHECK(v < labels_.size(), "vertex id out of range");
  labels_[v] = std::move(label);
}

std::vector<VertexId> topologicalOrder(const Digraph& g) {
  std::vector<std::size_t> pending(g.vertexCount());
  std::vector<VertexId> order;
  order.reserve(g.vertexCount());
  std::queue<VertexId> ready;
  for (VertexId v = 0; v < g.vertexCount(); ++v) {
    pending[v] = g.inDegree(v);
    if (pending[v] == 0) ready.push(v);
  }
  while (!ready.empty()) {
    const VertexId v = ready.front();
    ready.pop();
    order.push_back(v);
    for (VertexId s : g.successors(v)) {
      if (--pending[s] == 0) ready.push(s);
    }
  }
  if (order.size() != g.vertexCount())
    throw ValidationError("graph contains a cycle; scan paths must be acyclic");
  return order;
}

bool isAcyclic(const Digraph& g) {
  try {
    (void)topologicalOrder(g);
    return true;
  } catch (const ValidationError&) {
    return false;
  }
}

namespace {

std::vector<bool> bfs(const Digraph& g, VertexId start, bool forward) {
  std::vector<bool> seen(g.vertexCount(), false);
  RRSN_CHECK(start < g.vertexCount(), "start vertex out of range");
  std::queue<VertexId> work;
  work.push(start);
  seen[start] = true;
  while (!work.empty()) {
    const VertexId v = work.front();
    work.pop();
    const auto& next = forward ? g.successors(v) : g.predecessors(v);
    for (VertexId n : next) {
      if (!seen[n]) {
        seen[n] = true;
        work.push(n);
      }
    }
  }
  return seen;
}

}  // namespace

std::vector<bool> reachableFrom(const Digraph& g, VertexId source) {
  return bfs(g, source, /*forward=*/true);
}

std::vector<bool> reachableTo(const Digraph& g, VertexId sink) {
  return bfs(g, sink, /*forward=*/false);
}

std::vector<VertexId> immediateDominators(const Digraph& g, VertexId root) {
  // Cooper–Harvey–Kennedy: iterate "idom[v] = intersect(preds)" over a
  // reverse-postorder until a fixed point.  On the DAGs we analyze this
  // converges in one or two sweeps.
  const std::size_t n = g.vertexCount();
  std::vector<VertexId> idom(n, kNoVertex);

  // Reverse postorder via iterative DFS.
  std::vector<VertexId> postorder;
  postorder.reserve(n);
  std::vector<int> state(n, 0);
  std::vector<std::pair<VertexId, std::size_t>> stack{{root, 0}};
  state[root] = 1;
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    if (idx < g.successors(v).size()) {
      const VertexId s = g.successors(v)[idx++];
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      postorder.push_back(v);
      stack.pop_back();
    }
  }
  std::vector<std::size_t> rpoIndex(n, 0);
  std::vector<VertexId> rpo(postorder.rbegin(), postorder.rend());
  for (std::size_t i = 0; i < rpo.size(); ++i) rpoIndex[rpo[i]] = i;

  const auto intersect = [&](VertexId a, VertexId b) {
    while (a != b) {
      while (rpoIndex[a] > rpoIndex[b]) a = idom[a];
      while (rpoIndex[b] > rpoIndex[a]) b = idom[b];
    }
    return a;
  };

  idom[root] = root;
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v : rpo) {
      if (v == root) continue;
      VertexId newIdom = kNoVertex;
      for (VertexId p : g.predecessors(v)) {
        if (idom[p] == kNoVertex) continue;  // p not processed/unreachable
        newIdom = (newIdom == kNoVertex) ? p : intersect(p, newIdom);
      }
      if (newIdom != kNoVertex && idom[v] != newIdom) {
        idom[v] = newIdom;
        changed = true;
      }
    }
  }
  return idom;
}

bool dominates(const std::vector<VertexId>& idom, VertexId dom, VertexId v) {
  RRSN_CHECK(v < idom.size() && dom < idom.size(), "vertex id out of range");
  while (true) {
    if (v == dom) return true;
    if (idom[v] == kNoVertex || idom[v] == v) return v == dom;
    v = idom[v];
  }
}

std::vector<Reconvergence> findReconvergences(const Digraph& g, VertexId sink) {
  // The closing reconvergence of a fan-out stem is its immediate
  // post-dominator: post-dominators are dominators on the reversed graph.
  Digraph rev;
  for (VertexId v = 0; v < g.vertexCount(); ++v) rev.addVertex(g.label(v));
  for (VertexId v = 0; v < g.vertexCount(); ++v)
    for (VertexId s : g.successors(v)) rev.addEdge(s, v);
  const std::vector<VertexId> ipdom = immediateDominators(rev, sink);

  std::vector<Reconvergence> out;
  for (VertexId v = 0; v < g.vertexCount(); ++v) {
    if (g.outDegree(v) >= 2) {
      Reconvergence r;
      r.stem = v;
      r.gate = ipdom[v];
      out.push_back(r);
    }
  }
  return out;
}

bool isTwoTerminalDag(const Digraph& g, VertexId source, VertexId sink) {
  if (source >= g.vertexCount() || sink >= g.vertexCount()) return false;
  if (!isAcyclic(g)) return false;
  if (g.inDegree(source) != 0 || g.outDegree(sink) != 0) return false;
  const auto fromSrc = reachableFrom(g, source);
  const auto toSink = reachableTo(g, sink);
  for (VertexId v = 0; v < g.vertexCount(); ++v) {
    if (!fromSrc[v] || !toSink[v]) return false;
    if (v != source && g.inDegree(v) == 0) return false;
    if (v != sink && g.outDegree(v) == 0) return false;
  }
  return true;
}

}  // namespace rrsn::graph
