#include <gtest/gtest.h>

#include <algorithm>

#include "diag/diagnosis.hpp"
#include "harden/fault_tolerant.hpp"
#include "rsn/example_networks.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace rrsn::diag {
namespace {

using fault::Fault;
using rsn::makeFig1Network;

TEST(Syndrome, DistanceAndEquality) {
  Syndrome a;
  a.passed = DynamicBitset(6);
  a.passed.set(0);
  a.passed.set(3);
  Syndrome b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.distanceTo(b), 0u);
  b.passed.set(5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.distanceTo(b), 1u);
}

TEST(Dictionary, FaultFreePassesEverything) {
  const rsn::Network net = makeFig1Network();
  const Syndrome clean = FaultDictionary::measure(net, nullptr);
  EXPECT_EQ(clean.passed.count(), 2 * net.instruments().size());
}

TEST(Dictionary, DiagnoseFaultFree) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  const Diagnosis d = dict.diagnose(dict.faultFreeSyndrome());
  EXPECT_TRUE(d.faultFree);
  EXPECT_TRUE(d.exactMatches.empty());
}

TEST(Dictionary, InjectedFaultIsAmongCandidates) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  for (std::size_t k = 0; k < dict.faults().size(); ++k) {
    const Fault& f = dict.faults()[k];
    const Syndrome observed = FaultDictionary::measure(net, &f);
    const Diagnosis d = dict.diagnose(observed);
    if (d.faultFree) continue;  // undetectable fault (e.g. harmless stuck)
    const bool found =
        std::find(d.exactMatches.begin(), d.exactMatches.end(), f) !=
        d.exactMatches.end();
    EXPECT_TRUE(found) << fault::describe(net, f);
  }
}

TEST(Dictionary, StuckM0IsDetectedAndLocated) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  const Fault f = Fault::muxStuck(net.findMux("m0"), 1);
  const Diagnosis d = dict.diagnose(FaultDictionary::measure(net, &f));
  ASSERT_FALSE(d.faultFree);
  ASSERT_FALSE(d.exactMatches.empty());
  // Every candidate in the class kills all three instruments, like m0=1.
  EXPECT_TRUE(std::find(d.exactMatches.begin(), d.exactMatches.end(), f) !=
              d.exactMatches.end());
}

TEST(Dictionary, HarmlessFaultsAreUndetectable) {
  // stuck(sb1_mux=1) always includes the SIB content: all accesses pass.
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  const Fault f = Fault::muxStuck(net.findMux("sb1_mux"), 1);
  const Diagnosis d = dict.diagnose(FaultDictionary::measure(net, &f));
  EXPECT_TRUE(d.faultFree);
}

TEST(Dictionary, ResolutionStatistics) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  const auto r = dict.resolution();
  EXPECT_EQ(r.faults, dict.faults().size());
  EXPECT_GT(r.detectable, 0u);
  EXPECT_LE(r.detectable, r.faults);
  EXPECT_GT(r.classes, 1u);
  EXPECT_GE(r.avgAmbiguity, 1.0);
}

TEST(Dictionary, HardeningShrinksTheFaultUniverse) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  std::vector<bool> hardened(net.primitiveCount(), false);
  hardened[net.linearId({rsn::PrimitiveRef::Kind::Mux, net.findMux("m0")})] =
      true;
  const auto before = dict.resolution();
  const auto after = dict.resolutionExcluding(hardened);
  EXPECT_EQ(after.faults, before.faults - 2);  // two stuck faults removed
  EXPECT_LE(after.detectable, before.detectable);
}

// The dictionary groups its syndromes once; exact diagnoses and the
// resolution statistics must equal a brute-force regrouping, with and
// without a hardening mask.
TEST(Dictionary, ClassesMatchBruteForceGrouping) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 13 + 1);
    test::RandomNetOptions opt;
    opt.targetSegments = 14;
    const rsn::Network net = test::randomNetwork(rng, opt);
    const FaultDictionary dict = FaultDictionary::build(net);
    const std::vector<Fault>& faults = dict.faults();
    const auto same = [&](std::size_t a, std::size_t b) {
      return dict.syndromeOf(a) == dict.syndromeOf(b);
    };

    for (std::size_t k = 0; k < faults.size(); ++k) {
      const Diagnosis d = dict.diagnose(dict.syndromeOf(k));
      if (d.faultFree) continue;
      std::vector<Fault> members;
      for (std::size_t j = 0; j < faults.size(); ++j)
        if (same(j, k)) members.push_back(faults[j]);
      EXPECT_EQ(d.exactMatches, members) << "seed=" << seed << " k=" << k;
    }

    std::vector<bool> everyThird(net.primitiveCount(), false);
    for (std::size_t j = 0; j < everyThird.size(); j += 3) everyThird[j] = true;
    for (const std::vector<bool>& hardened :
         {std::vector<bool>(net.primitiveCount(), false), everyThird}) {
      const auto kept = [&](std::size_t k) {
        return !hardened[net.linearId(fault::refOf(faults[k]))];
      };
      FaultDictionary::Resolution want;
      std::size_t sumSquares = 0;
      std::vector<bool> counted(faults.size(), false);
      for (std::size_t k = 0; k < faults.size(); ++k) {
        if (!kept(k)) continue;
        ++want.faults;
        if (dict.syndromeOf(k) == dict.faultFreeSyndrome()) continue;
        ++want.detectable;
        if (counted[k]) continue;
        std::size_t size = 0;
        for (std::size_t j = k; j < faults.size(); ++j) {
          if (kept(j) && same(j, k)) {
            counted[j] = true;
            ++size;
          }
        }
        ++want.classes;
        sumSquares += size * size;
      }
      const FaultDictionary::Resolution got =
          dict.resolutionExcluding(hardened);
      EXPECT_EQ(got.faults, want.faults) << "seed=" << seed;
      EXPECT_EQ(got.detectable, want.detectable) << "seed=" << seed;
      EXPECT_EQ(got.classes, want.classes) << "seed=" << seed;
      EXPECT_DOUBLE_EQ(got.avgAmbiguity,
                       want.detectable == 0
                           ? 0.0
                           : static_cast<double>(sumSquares) /
                                 static_cast<double>(want.detectable))
          << "seed=" << seed;
    }
  }
}

TEST(Dictionary, UnknownSyndromeFallsBackToNearest) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  Syndrome weird;
  weird.passed = DynamicBitset(2 * net.instruments().size());
  weird.passed.set(0);  // a pattern no single fault produces
  const Diagnosis d = dict.diagnose(weird);
  EXPECT_FALSE(d.faultFree);
  EXPECT_TRUE(d.exactMatches.empty());
  EXPECT_FALSE(d.nearestMatches.empty());
  EXPECT_GT(d.nearestDistance, 0u);
}

// Property: on random networks, every detectable injected fault is
// diagnosed to a candidate set containing itself.
class DiagnosisSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiagnosisSweep, CandidatesContainInjectedFault) {
  Rng rng(GetParam() * 7 + 3);
  test::RandomNetOptions opt;
  opt.targetSegments = 14;
  const rsn::Network net = test::randomNetwork(rng, opt);
  const FaultDictionary dict = FaultDictionary::build(net);
  for (std::size_t k = 0; k < dict.faults().size(); ++k) {
    const Fault& f = dict.faults()[k];
    const Diagnosis d = dict.diagnose(dict.syndromeOf(k));
    if (d.faultFree) continue;
    ASSERT_TRUE(std::find(d.exactMatches.begin(), d.exactMatches.end(), f) !=
                d.exactMatches.end())
        << "seed=" << GetParam() << " " << fault::describe(net, f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnosisSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- Dictionary versus simulator ------------------------------------
// The dictionary reads certifier rows; each must reproduce the per-probe
// simulator measurement byte-for-byte: same fault order as the
// FaultUniverse, same fault-free syndrome, same row for every fault (the
// universe covers every SegmentBreak and every MuxStuck branch, so row
// equality exercises all fault kinds).

void expectRowsMatchSimulator(const rsn::Network& net) {
  const FaultDictionary dict = FaultDictionary::build(net);
  ASSERT_EQ(dict.faults(), fault::FaultUniverse(net).faults());
  EXPECT_EQ(dict.faultFreeSyndrome(), FaultDictionary::measure(net, nullptr));
  for (std::size_t k = 0; k < dict.faults().size(); ++k) {
    EXPECT_EQ(dict.syndromeOf(k),
              FaultDictionary::measure(net, &dict.faults()[k]))
        << fault::describe(net, dict.faults()[k]);
  }
}

TEST(DictionaryVsSimulator, ExampleNetworks) {
  expectRowsMatchSimulator(makeFig1Network());
  expectRowsMatchSimulator(rsn::makeTinyNetwork());
}

class DictionaryVsSimulatorSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DictionaryVsSimulatorSweep, RandomNetworks) {
  Rng rng(GetParam() * 31 + 5);
  test::RandomNetOptions opt;
  opt.targetSegments = 18;
  expectRowsMatchSimulator(test::randomNetwork(rng, opt));
}

TEST_P(DictionaryVsSimulatorSweep, HardenedVariants) {
  // The fault-tolerant augmentation adds TAP-controlled skip muxes, so
  // its break rows exercise the tolerant access modes heavily (most
  // breaks become routable-around instead of fatal).
  Rng rng(GetParam() * 13 + 7);
  test::RandomNetOptions opt;
  opt.targetSegments = 12;
  const rsn::Network net = test::randomNetwork(rng, opt);
  expectRowsMatchSimulator(harden::augmentFaultTolerant(net).network);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictionaryVsSimulatorSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(DictionaryVsSimulator, RowsIdenticalAcrossThreadCounts) {
  Rng rng(424242);
  test::RandomNetOptions opt;
  opt.targetSegments = 30;
  const rsn::Network net = test::randomNetwork(rng, opt);
  const std::size_t restore = threadCount();
  setThreadCount(1);
  const FaultDictionary ref = FaultDictionary::build(net);
  for (const std::size_t threads : {2u, 4u}) {
    setThreadCount(threads);
    const FaultDictionary dict = FaultDictionary::build(net);
    ASSERT_EQ(dict.faults(), ref.faults());
    EXPECT_EQ(dict.faultFreeSyndrome(), ref.faultFreeSyndrome());
    for (std::size_t k = 0; k < ref.faults().size(); ++k)
      EXPECT_EQ(dict.syndromeOf(k), ref.syndromeOf(k)) << threads;
  }
  setThreadCount(restore);
}

// -------------------------------------------------- pair diagnosis

TEST(PairDiagnosis, ComposeSyndromesIsTheRowUnionBound) {
  Syndrome a, b;
  a.passed = DynamicBitset(6);
  b.passed = DynamicBitset(6);
  a.passed.set(0);
  a.passed.set(2);
  a.passed.set(4);
  b.passed.set(2);
  b.passed.set(5);
  const Syndrome c = composeSyndromes(a, b);
  // passed = AND: an access passes under the pair only if it passes
  // under both faults individually.
  EXPECT_EQ(c.passed.count(), 1u);
  EXPECT_TRUE(c.passed.test(2));
}

TEST(PairDiagnosis, MeasureMultiGeneralizesMeasure) {
  const rsn::Network net = makeFig1Network();
  EXPECT_EQ(FaultDictionary::measureMulti(net, {}),
            FaultDictionary::measure(net, nullptr));
  const Fault f = Fault::segmentBreak(net.findSegment("c2"));
  EXPECT_EQ(FaultDictionary::measureMulti(net, {f}),
            FaultDictionary::measure(net, &f));
}

TEST(PairDiagnosis, CompositionConsistentPairsAreAmongCandidates) {
  // For every pair whose simulated syndrome equals its row-union
  // composition (no interaction effects), diagnosing that syndrome must
  // list the pair among the exact candidates.
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  const auto& faults = dict.faults();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    for (std::size_t j = i + 1; j < faults.size(); ++j) {
      const Fault& a = faults[i];
      const Fault& b = faults[j];
      if (a.kind == fault::FaultKind::MuxStuck &&
          b.kind == fault::FaultKind::MuxStuck && a.prim == b.prim) {
        continue;  // contradictory hardware, excluded from the pair space
      }
      const Syndrome composed =
          composeSyndromes(dict.syndromeOf(i), dict.syndromeOf(j));
      const Syndrome observed = FaultDictionary::measureMulti(net, {a, b});
      if (!(observed == composed)) continue;  // interaction effect
      const FaultDictionary::PairDiagnosis d = dict.diagnosePair(observed);
      if (d.faultFree) {
        // Composition indistinguishable from fault-free: both rows pass
        // everything, so the pair is (correctly) undetectable.
        EXPECT_EQ(observed, dict.faultFreeSyndrome());
        continue;
      }
      EXPECT_EQ(d.exactPairs.empty(), false);
      if (d.exactPairCount <= FaultDictionary::PairDiagnosis::kMaxListedPairs) {
        const bool found = std::any_of(
            d.exactPairs.begin(), d.exactPairs.end(), [&](const auto& p) {
              return (p.first == a && p.second == b) ||
                     (p.first == b && p.second == a);
            });
        EXPECT_TRUE(found)
            << fault::describe(net, a) << " + " << fault::describe(net, b);
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(PairDiagnosis, FaultFreeSyndromeShortCircuits) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  const FaultDictionary::PairDiagnosis d =
      dict.diagnosePair(dict.faultFreeSyndrome());
  EXPECT_TRUE(d.faultFree);
  EXPECT_TRUE(d.exactPairs.empty());
  EXPECT_EQ(d.exactPairCount, 0u);
}

TEST(PairDiagnosis, CandidatesAreReMeasuredOnTheSimulator) {
  const rsn::Network net = makeFig1Network();
  const FaultDictionary dict = FaultDictionary::build(net);
  // Two breaks on distinct instrument segments compose without
  // interaction: their pair must come back simulation-verified.
  const Fault a = Fault::segmentBreak(net.findSegment("seg_i2"));
  const Fault b = Fault::segmentBreak(net.findSegment("seg_i3"));
  const Syndrome observed = FaultDictionary::measureMulti(net, {a, b});
  const FaultDictionary::PairDiagnosis d = dict.diagnosePair(observed);
  ASSERT_FALSE(d.faultFree);
  ASSERT_FALSE(d.exactPairs.empty());
  EXPECT_TRUE(d.verifiedBySimulation);
}

}  // namespace
}  // namespace rrsn::diag
