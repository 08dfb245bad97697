#include <gtest/gtest.h>

#include "graph/digraph.hpp"

namespace rrsn::graph {
namespace {

/// Builds the diamond s -> {a, b} -> t.
Digraph diamond(VertexId& s, VertexId& a, VertexId& b, VertexId& t) {
  Digraph g;
  s = g.addVertex("s");
  a = g.addVertex("a");
  b = g.addVertex("b");
  t = g.addVertex("t");
  g.addEdge(s, a);
  g.addEdge(s, b);
  g.addEdge(a, t);
  g.addEdge(b, t);
  return g;
}

TEST(Digraph, BasicConstruction) {
  Digraph g;
  const auto v0 = g.addVertex("x");
  const auto v1 = g.addVertex("y");
  g.addEdge(v0, v1);
  EXPECT_EQ(g.vertexCount(), 2u);
  EXPECT_EQ(g.edgeCount(), 1u);
  EXPECT_EQ(g.label(v0), "x");
  EXPECT_EQ(g.successors(v0), std::vector<VertexId>{v1});
  EXPECT_EQ(g.predecessors(v1), std::vector<VertexId>{v0});
  EXPECT_THROW(g.addEdge(v0, 5), Error);
}

TEST(Digraph, TopologicalOrderValid) {
  VertexId s, a, b, t;
  const Digraph g = diamond(s, a, b, t);
  const auto order = topologicalOrder(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos[s], pos[a]);
  EXPECT_LT(pos[s], pos[b]);
  EXPECT_LT(pos[a], pos[t]);
  EXPECT_LT(pos[b], pos[t]);
}

TEST(Digraph, CycleDetected) {
  Digraph g;
  const auto a = g.addVertex();
  const auto b = g.addVertex();
  g.addEdge(a, b);
  g.addEdge(b, a);
  EXPECT_THROW(topologicalOrder(g), ValidationError);
  EXPECT_FALSE(isAcyclic(g));
}

TEST(Digraph, Reachability) {
  VertexId s, a, b, t;
  const Digraph g = diamond(s, a, b, t);
  const auto fwd = reachableFrom(g, a);
  EXPECT_TRUE(fwd[a]);
  EXPECT_TRUE(fwd[t]);
  EXPECT_FALSE(fwd[s]);
  EXPECT_FALSE(fwd[b]);
  const auto bwd = reachableTo(g, a);
  EXPECT_TRUE(bwd[s]);
  EXPECT_TRUE(bwd[a]);
  EXPECT_FALSE(bwd[t]);
}

TEST(Digraph, ImmediateDominatorsDiamond) {
  VertexId s, a, b, t;
  const Digraph g = diamond(s, a, b, t);
  const auto idom = immediateDominators(g, s);
  EXPECT_EQ(idom[s], s);
  EXPECT_EQ(idom[a], s);
  EXPECT_EQ(idom[b], s);
  EXPECT_EQ(idom[t], s);  // neither branch dominates the join
  EXPECT_TRUE(dominates(idom, s, t));
  EXPECT_FALSE(dominates(idom, a, t));
}

TEST(Digraph, DominatorsChain) {
  Digraph g;
  const auto a = g.addVertex();
  const auto b = g.addVertex();
  const auto c = g.addVertex();
  g.addEdge(a, b);
  g.addEdge(b, c);
  const auto idom = immediateDominators(g, a);
  EXPECT_EQ(idom[b], a);
  EXPECT_EQ(idom[c], b);
  EXPECT_TRUE(dominates(idom, a, c));
}

TEST(Digraph, ReconvergenceDiamond) {
  VertexId s, a, b, t;
  const Digraph g = diamond(s, a, b, t);
  const auto recs = findReconvergences(g, t);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].stem, s);
  EXPECT_EQ(recs[0].gate, t);
}

TEST(Digraph, TwoTerminalDagChecks) {
  VertexId s, a, b, t;
  const Digraph g = diamond(s, a, b, t);
  EXPECT_TRUE(isTwoTerminalDag(g, s, t));
  EXPECT_FALSE(isTwoTerminalDag(g, a, t));  // a is not the unique source

  Digraph h;
  const auto x = h.addVertex();
  const auto y = h.addVertex();
  h.addVertex();  // disconnected vertex
  h.addEdge(x, y);
  EXPECT_FALSE(isTwoTerminalDag(h, x, y));
}

}  // namespace
}  // namespace rrsn::graph
