#include <gtest/gtest.h>

#include "crit/analyzer.hpp"
#include "fault/effects.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "test_util.hpp"

namespace rrsn::crit {
namespace {

using rsn::makeFig1Network;
using rsn::makeFig1Spec;
using rsn::PrimitiveRef;

std::uint64_t damageOfNamed(const rsn::Network& net,
                            const CriticalityResult& res,
                            const std::string& name) {
  const rsn::SegmentId seg = net.findSegment(name);
  if (seg != rsn::kNone)
    return res.damageOf(net.linearId({PrimitiveRef::Kind::Segment, seg}));
  const rsn::MuxId mux = net.findMux(name);
  EXPECT_NE(mux, rsn::kNone) << name;
  return res.damageOf(net.linearId({PrimitiveRef::Kind::Mux, mux}));
}

TEST(Criticality, Fig1GoldenDamages) {
  // Hand-computed per-primitive damages for the Fig. 1 example with
  // weights i1=(4,1), i2=(3,3), i3=(2,5); a mux charges its worst
  // stuck-at fault.
  const rsn::Network net = makeFig1Network();
  const CriticalityAnalyzer analyzer(net, makeFig1Spec(net));
  const CriticalityResult res = analyzer.run();

  EXPECT_EQ(damageOfNamed(net, res, "c0"), 9u);       // all set weights
  EXPECT_EQ(damageOfNamed(net, res, "c1"), 9u);       // all obs weights
  EXPECT_EQ(damageOfNamed(net, res, "c2"), 9u);       // branch obs weights
  EXPECT_EQ(damageOfNamed(net, res, "sb1"), 12u);     // 4 + (3 + 5)
  EXPECT_EQ(damageOfNamed(net, res, "seg_i1"), 5u);   // own 4+1
  EXPECT_EQ(damageOfNamed(net, res, "seg_i2"), 6u);   // own 3+3
  EXPECT_EQ(damageOfNamed(net, res, "seg_i3"), 7u);   // own 2+5
  EXPECT_EQ(damageOfNamed(net, res, "sb1_mux"), 5u);  // hide i1
  EXPECT_EQ(damageOfNamed(net, res, "m1"), 6u);
  EXPECT_EQ(damageOfNamed(net, res, "m2"), 7u);
  EXPECT_EQ(damageOfNamed(net, res, "m0"), 18u);      // hide the branch

  EXPECT_EQ(res.totalDamage(), 93u);
}

TEST(Criticality, M0IsTheMostCriticalPrimitive) {
  const rsn::Network net = makeFig1Network();
  const CriticalityResult res =
      CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  const auto order = res.ranking();
  EXPECT_EQ(net.primitiveName(net.refOf(order[0])), "m0");
}

TEST(Criticality, ReportListsTopPrimitives) {
  const rsn::Network net = makeFig1Network();
  const CriticalityResult res =
      CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  const std::string report = res.report(3).render();
  EXPECT_NE(report.find("m0"), std::string::npos);
  EXPECT_NE(report.find("mux"), std::string::npos);
  EXPECT_EQ(res.report(100).rowCount(), net.primitiveCount());
}

TEST(Criticality, MuxDamageIsTheWorstStuckBranch) {
  const rsn::Network net = makeFig1Network();
  const auto spec = makeFig1Spec(net);
  const auto flat = rsn::FlatNetwork::lower(net);
  const rsn::MuxId m0 = net.findMux("m0");
  const auto stuckDamage = [&](std::uint32_t branch) {
    return fault::damageOfLoss(
        spec, fault::lossUnderFaultGraph(
                  *flat, fault::Fault::muxStuck(m0, branch)));
  };
  // m0: stuck@0 loses 0, stuck@1 loses 18; the mux is charged 18.
  EXPECT_EQ(stuckDamage(0), 0u);
  EXPECT_EQ(stuckDamage(1), 18u);
  EXPECT_EQ(damageOfNamed(net, CriticalityAnalyzer(net, spec).run(), "m0"),
            18u);
}

TEST(Criticality, BruteForceMatchesFastOnFig1) {
  const rsn::Network net = makeFig1Network();
  const auto spec = makeFig1Spec(net);
  EXPECT_EQ(CriticalityAnalyzer(net, spec).run().damages(),
            test::bruteForceAnalysis(net, spec).damages());
}

TEST(Criticality, ZeroWeightsZeroDamage) {
  const rsn::Network net = makeFig1Network();
  const rsn::CriticalitySpec zero(net.instruments().size());
  const auto res = CriticalityAnalyzer(net, zero).run();
  EXPECT_EQ(res.totalDamage(), 0u);
}

TEST(Criticality, HardenedPrimitiveContributesNoDamage) {
  // Eq. 2-3 semantics: hardening removes d_j from the sum; handled by the
  // optimizer as damageTotal - sum(gains).  Check consistency here.
  const rsn::Network net = makeFig1Network();
  const auto res = CriticalityAnalyzer(net, makeFig1Spec(net)).run();
  std::uint64_t remaining = res.totalDamage();
  remaining -= damageOfNamed(net, res, "m0");
  EXPECT_EQ(remaining, 75u);
}

// Property: fast hierarchical analysis == brute-force graph analysis on
// random networks with random specifications.
class AnalyzerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyzerEquivalence, FastMatchesBruteForce) {
  Rng rng(GetParam() * 1000 + 17);
  const rsn::Network net = test::randomNetwork(rng);
  const auto spec = test::randomSpecFor(net, rng);
  const auto fast = CriticalityAnalyzer(net, spec).run();
  const auto brute = test::bruteForceAnalysis(net, spec);
  ASSERT_EQ(fast.damages(), brute.damages()) << "seed=" << GetParam();
  EXPECT_EQ(fast.totalDamage(), brute.totalDamage());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerEquivalence,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace rrsn::crit
