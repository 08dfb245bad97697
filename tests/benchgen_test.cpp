#include <gtest/gtest.h>

#include "benchgen/registry.hpp"
#include "rsn/flat.hpp"
#include "sp/decomposition.hpp"
#include "test_util.hpp"

namespace rrsn::benchgen {
namespace {

TEST(Registry, HasAll24Table1Rows) {
  const auto& table = table1Benchmarks();
  EXPECT_EQ(table.size(), 24u);
  EXPECT_EQ(table.front().name, "TreeFlat");
  EXPECT_EQ(table.back().name, "MBIST_100_100_5");
}

TEST(Registry, FindByName) {
  const BenchmarkSpec& s = findBenchmark("p93791");
  EXPECT_EQ(s.segments, 1241u);
  EXPECT_EQ(s.muxes, 653u);
  EXPECT_EQ(s.generations, 3500u);
  EXPECT_THROW(findBenchmark("nope"), ParseError);
}

TEST(Registry, PopulationRuleFollowsPaper) {
  EXPECT_EQ(findBenchmark("TreeFlat").populationSize(), 100u);      // 24 muxes
  EXPECT_EQ(findBenchmark("p34392").populationSize(), 300u);        // 142 muxes
  EXPECT_EQ(findBenchmark("MBIST_1_5_5").populationSize(), 100u);   // 15 muxes
  EXPECT_EQ(findBenchmark("MBIST_5_100_20").populationSize(), 300u);
}

TEST(Registry, PaperNumbersPresent) {
  const BenchmarkSpec& s = findBenchmark("MBIST_5_100_100");
  EXPECT_EQ(s.paper.maxDamage, 2138755955ULL);
  EXPECT_EQ(s.paper.minCostCost, 17066u);
  EXPECT_STREQ(s.paper.time, "92:01");
}

// Exact-count property over the small/medium benchmarks (the huge MBIST
// networks are covered by a separate single test to keep runtime sane).
class CountsMatchTable1 : public ::testing::TestWithParam<std::string> {};

TEST_P(CountsMatchTable1, SegmentsAndMuxes) {
  const BenchmarkSpec& spec = findBenchmark(GetParam());
  const rsn::Network net = buildBenchmark(spec);
  EXPECT_EQ(net.segments().size(), spec.segments);
  EXPECT_EQ(net.muxes().size(), spec.muxes);
  // Generators are deterministic.
  const rsn::Network again = buildBenchmark(spec);
  EXPECT_EQ(again.segments().size(), net.segments().size());
  EXPECT_EQ(again.segment(0).name, net.segment(0).name);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CountsMatchTable1,
    ::testing::Values("TreeFlat", "TreeUnbalanced", "TreeBalanced",
                      "TreeFlat_Ex", "q12710", "a586710", "p34392", "t512505",
                      "p22810", "p93791", "MBIST_1_5_5", "MBIST_1_5_20",
                      "MBIST_1_20_20", "MBIST_2_5_5", "MBIST_2_5_20",
                      "MBIST_2_20_20", "MBIST_5_5_5", "MBIST_5_20_20"));

TEST(LargeBenchmarks, CountsMatchTable1) {
  for (const char* name :
       {"MBIST_5_100_20", "MBIST_20_20_20", "MBIST_100_20_5"}) {
    const BenchmarkSpec& spec = findBenchmark(name);
    const rsn::Network net = buildBenchmark(spec);
    EXPECT_EQ(net.segments().size(), spec.segments) << name;
    EXPECT_EQ(net.muxes().size(), spec.muxes) << name;
  }
}

TEST(Generators, SmallNetworksAreSeriesParallel) {
  for (const char* name : {"TreeFlat", "TreeUnbalanced", "TreeBalanced",
                           "TreeFlat_Ex", "q12710", "a586710", "MBIST_1_5_5"}) {
    const rsn::Network net = buildBenchmark(name);
    EXPECT_TRUE(test::isTwoTerminalSp(*rsn::FlatNetwork::lower(net))) << name;
  }
}

TEST(Generators, EveryInstrumentSegmentHasInstrument) {
  const rsn::Network net = buildBenchmark("q12710");
  std::size_t withInst = 0;
  for (const auto& seg : net.segments()) withInst += seg.instrument != rsn::kNone;
  EXPECT_EQ(withInst, net.instruments().size());
  EXPECT_GT(net.instruments().size(), 0u);
}

TEST(Generators, TreeUnbalancedIsDeeplyNested) {
  const rsn::Network net = buildBenchmark("TreeUnbalanced");
  EXPECT_EQ(net.stats().maxMuxNesting, 28u);  // one level per SIB
}

TEST(Generators, TreeBalancedHasLogDepthNesting) {
  const rsn::Network net = buildBenchmark("TreeBalanced");
  const auto nesting = net.stats().maxMuxNesting;
  EXPECT_GE(nesting, 4u);
  EXPECT_LE(nesting, 8u);
}

TEST(Generators, SocHasTwoHierarchyLevels) {
  const rsn::Network net = buildBenchmark("p34392");
  EXPECT_EQ(net.stats().maxMuxNesting, 2u);
}

TEST(Generators, MbistHasControllerMemoryHierarchy) {
  const rsn::Network net = buildBenchmark("MBIST_5_5_5");
  EXPECT_EQ(net.stats().maxMuxNesting, 2u);  // controller SIB > memory SIB
  // All muxes are SIB muxes (controlled by their register).
  for (const auto& mux : net.muxes())
    EXPECT_NE(mux.controlSegment, rsn::kNone);
}

TEST(Generators, DecompositionScalesToMediumBenchmarks) {
  const rsn::Network net = buildBenchmark("MBIST_2_20_20");  // 12k segments
  const auto tree = sp::DecompositionTree::build(net);
  EXPECT_EQ(tree.scanOrder().size(), net.segments().size());
  EXPECT_LE(tree.depth(), 40u);  // balanced series keep the depth low
}

}  // namespace
}  // namespace rrsn::benchgen
