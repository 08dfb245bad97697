// Static robustness certifier: exhaustive agreement with the campaign
// accessibility oracle on the paper networks, witness sanity, hardened
// exclusion of fault sites, Unknown accounting under an exhausted
// fixpoint budget, thread-count byte-determinism of the canonical JSON
// report, the SARIF export shape, a digest pinning every cell's verdict
// and witness kind, and the reference engine's rejection of fault sites
// the arena does not have.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "diag/batched.hpp"
#include "fault/fault.hpp"
#include "harden/fault_tolerant.hpp"
#include "rsn/example_networks.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "verify/certifier.hpp"

namespace rrsn::verify {
namespace {

/// Asserts every certifier verdict on `net` against the batched
/// syndrome oracle over the full single-fault universe.  Proven must
/// coincide with oracle-accessible, Vulnerable with oracle-severed; the
/// default budget must leave nothing Unknown.
void expectExhaustiveAgreement(const rsn::Network& net) {
  const Certifier certifier(net);
  CertifyOptions options;
  options.crossCheck = false;  // this test IS the cross-check
  const CertificationResult result = certifier.run(options);
  EXPECT_EQ(result.summary().unknownCells(), 0u);

  const diag::BatchedSyndromeEngine oracle(net);
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    const fault::Fault& f = result.universe[fi];
    const campaign::Expectation expect = campaign::expectedAccessibility(
        oracle, result.instruments, f, /*worker=*/0);
    for (std::size_t i = 0; i < result.instruments; ++i) {
      EXPECT_EQ(result.read(fi, i) == Verdict::Proven, expect.observable.test(i))
          << fault::describe(net, f) << " / read " << net.instrument(
                 static_cast<rsn::InstrumentId>(i)).name;
      EXPECT_EQ(result.write(fi, i) == Verdict::Proven, expect.settable.test(i))
          << fault::describe(net, f) << " / write " << net.instrument(
                 static_cast<rsn::InstrumentId>(i)).name;
    }
  }
}

TEST(Certifier, Fig1AgreesWithCampaignOracleExhaustively) {
  expectExhaustiveAgreement(rsn::makeFig1Network());
}

TEST(Certifier, TinyAgreesWithCampaignOracleExhaustively) {
  expectExhaustiveAgreement(rsn::makeTinyNetwork());
}

TEST(Certifier, RandomNetworksAgreeWithCampaignOracle) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    expectExhaustiveAgreement(test::randomNetwork(rng));
  }
}

TEST(BatchedEngine, FaultSitesOutsideTheArenaAreRejected) {
  // fig1 has 7 segments and 4 muxes; the last mux (3) has 2 branches.
  const diag::BatchedSyndromeEngine oracle(rsn::makeFig1Network());
  for (const fault::Fault& f :
       {fault::Fault::muxStuck(3, 64), fault::Fault::muxStuck(3, 2),
        fault::Fault::muxStuck(4, 0), fault::Fault::segmentBreak(7)}) {
    EXPECT_THROW(campaign::expectedAccessibility(oracle, 3, f, /*worker=*/0),
                 Error)
        << static_cast<int>(f.kind) << ' ' << f.prim << ' ' << f.stuckBranch;
  }
}

TEST(Certifier, SelfFaultWitnessOnOwnSegmentBreak) {
  const rsn::Network net = rsn::makeFig1Network();
  const Certifier certifier(net);
  const CertificationResult result = certifier.run();
  for (std::size_t i = 0; i < result.instruments; ++i) {
    if (!result.reachable.test(i)) continue;
    // Locate the break fault at the instrument's hosting segment.
    for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
      const fault::Fault& f = result.universe[fi];
      if (f.kind != fault::FaultKind::SegmentBreak ||
          f.prim != result.instrumentSegment[i])
        continue;
      EXPECT_EQ(result.read(fi, i), Verdict::Vulnerable);
      EXPECT_EQ(result.write(fi, i), Verdict::Vulnerable);
      const Witness w = result.readWitness(fi, i);
      EXPECT_EQ(w.kind, WitnessKind::SelfFault);
      EXPECT_EQ(w.subject, result.instrumentSegment[i]);
    }
  }
}

TEST(Certifier, WitnessKindsPartitionByVerdict) {
  const rsn::Network net = benchgen::buildBenchmark("q12710");
  const CertificationResult result = Certifier(net).run();
  bool sawDominatorCut = false;
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    for (std::size_t i = 0; i < result.instruments; ++i) {
      for (const bool isRead : {true, false}) {
        const Verdict v = isRead ? result.read(fi, i) : result.write(fi, i);
        const Witness w =
            isRead ? result.readWitness(fi, i) : result.writeWitness(fi, i);
        if (v == Verdict::Proven) {
          EXPECT_TRUE(w.kind == WitnessKind::NonCut ||
                      w.kind == WitnessKind::StuckBenign ||
                      w.kind == WitnessKind::PathStrict ||
                      w.kind == WitnessKind::PathCleanSuffix ||
                      w.kind == WitnessKind::PathDepthBounded)
              << witnessKindName(w.kind);
        } else {
          ASSERT_EQ(v, Verdict::Vulnerable);
          EXPECT_TRUE(w.kind == WitnessKind::SelfFault ||
                      w.kind == WitnessKind::Unreachable ||
                      w.kind == WitnessKind::DominatorCut ||
                      w.kind == WitnessKind::ControlCollapse ||
                      w.kind == WitnessKind::GuardCut)
              << witnessKindName(w.kind);
          sawDominatorCut |= w.kind == WitnessKind::DominatorCut;
        }
      }
    }
  }
  EXPECT_TRUE(sawDominatorCut)
      << "a SoC-style network must expose at least one dominator cut";
}

TEST(Certifier, HardenedPlanShrinksTheFaultUniverse) {
  const rsn::Network net = rsn::makeFig1Network();
  const Certifier certifier(net);
  const CertificationResult full = certifier.run();

  // Harden every instrument-hosting segment: their breaks leave the
  // universe, and nothing else changes.
  CertifyOptions options;
  options.excludePrimitives = DynamicBitset(net.primitiveCount());
  std::set<std::uint32_t> hardened;
  for (const rsn::Instrument& inst : net.instruments()) {
    options.excludePrimitives.set(net.linearId(
        {rsn::PrimitiveRef::Kind::Segment, inst.segment}));
    hardened.insert(inst.segment);
  }
  const CertificationResult filtered = certifier.run(options);
  EXPECT_EQ(filtered.universe.size(), full.universe.size() - hardened.size());
  for (const fault::Fault& f : filtered.universe) {
    if (f.kind == fault::FaultKind::SegmentBreak) {
      EXPECT_EQ(hardened.count(f.prim), 0u)
          << "excluded primitive still in the universe";
    }
  }
}

TEST(Certifier, ExhaustedBudgetIsCountedUnknownNeverSilent) {
  const rsn::Network net = rsn::makeFig1Network();
  const Certifier certifier(net);
  CertifyOptions options;
  options.fixpointBudget = 0;  // every fixpoint-tier row gives up at once
  options.crossCheck = false;
  const CertificationResult result = certifier.run(options);
  const CertifySummary s = result.summary();
  EXPECT_GT(s.unknownCells(), 0u);
  // Fast and local rows never touch the per-fault fixpoint, so they stay
  // decided; the Unknown count must be exactly the fixpoint-tier rows,
  // both directions.
  EXPECT_EQ(s.unknownRead, s.fixpointRows * s.instruments);
  EXPECT_EQ(s.unknownWrite, s.fixpointRows * s.instruments);
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    for (std::size_t i = 0; i < result.instruments; ++i) {
      if (result.read(fi, i) != Verdict::Unknown) continue;
      EXPECT_EQ(result.readWitness(fi, i).kind, WitnessKind::Budget);
    }
  }
  // ... and their cells equal the full-budget run's.
  EXPECT_GT(s.localRows, 0u);
  const CertificationResult full = certifier.run();
  std::size_t decidedRows = 0;
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    if (result.read(fi, 0) == Verdict::Unknown) continue;
    ++decidedRows;
    for (std::size_t i = 0; i < result.instruments; ++i)
      EXPECT_EQ(result.cell(fi, i), full.cell(fi, i)) << fi << ' ' << i;
  }
  EXPECT_EQ(decidedRows, s.fastRows + s.localRows);
}

TEST(Certifier, JsonReportByteIdenticalAcrossThreadCounts) {
  const rsn::Network net = benchgen::buildBenchmark("TreeFlat");
  const std::size_t saved = threadCount();
  std::vector<std::string> reports;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    setThreadCount(threads);
    const Certifier certifier(net);
    reports.push_back(
        json::serialize(reportJson(net, certifier.run()), 1));
  }
  setThreadCount(saved);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(Certifier, SarifExportShape) {
  const rsn::Network net = rsn::makeFig1Network();
  const CertificationResult result = Certifier(net).run();
  const json::Value doc = sarifReport(net, result, "example:fig1");
  EXPECT_EQ(doc.at("version").asString(), "2.1.0");
  EXPECT_NE(doc.at("$schema").asString().find("sarif-2.1.0"),
            std::string::npos);
  const json::Value& run = doc.at("runs").asArray().at(0);
  EXPECT_EQ(run.at("tool").at("driver").at("name").asString(), "rrsn_verify");
  const std::set<std::string> known = {
      "verify.control-safety", "verify.single-fault", "verify.unknown",
      "verify.unreachable"};
  std::set<std::string> declared;
  for (const json::Value& rule : run.at("tool").at("driver").at("rules").asArray()) {
    declared.insert(rule.at("id").asString());
  }
  EXPECT_EQ(declared, known);
  const json::Array& results = run.at("results").asArray();
  ASSERT_GT(results.size(), 0u) << "fig1 has severing faults";
  bool sawSingleFault = false;
  for (const json::Value& item : results) {
    const std::string& rule = item.at("ruleId").asString();
    EXPECT_EQ(known.count(rule), 1u) << rule;
    sawSingleFault |= rule == "verify.single-fault";
    EXPECT_EQ(item.at("locations")
                  .asArray()
                  .at(0)
                  .at("physicalLocation")
                  .at("artifactLocation")
                  .at("uri")
                  .asString(),
              "example:fig1");
  }
  EXPECT_TRUE(sawSingleFault);
}

// Folds every certified cell — verdict and witness kind in both
// directions — plus each row's collapsed mux and the universe itself,
// over the example networks, their fault-tolerant augmentations, six
// Table-I designs and 50 random nets, each also with every third
// primitive excluded.  The oracle sweeps compare verdicts only; this
// digest is what pins the witness kinds, so a faster tier must keep it.
TEST(Certifier, CellsArePinned) {
  std::vector<rsn::Network> nets{rsn::makeFig1Network(),
                                 rsn::makeTinyNetwork()};
  nets.push_back(harden::augmentFaultTolerant(nets[0]).network);
  nets.push_back(harden::augmentFaultTolerant(nets[1]).network);
  for (const char* name : {"q12710", "TreeUnbalanced", "TreeBalanced",
                           "TreeFlat_Ex", "MBIST_1_5_5", "MBIST_1_5_20"})
    nets.push_back(benchgen::buildBenchmark(name));
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 613 + 29);
    nets.push_back(test::randomNetwork(rng));
  }

  std::uint64_t h = hash::kFnvOffset;
  for (const rsn::Network& net : nets) {
    const Certifier certifier(net);
    CertifyOptions everyThird;
    everyThird.excludePrimitives = DynamicBitset(net.primitiveCount());
    for (std::size_t p = 0; p < net.primitiveCount(); p += 3)
      everyThird.excludePrimitives.set(p);
    for (const CertifyOptions& options : {CertifyOptions{}, everyThird}) {
      const CertificationResult result = certifier.run(options);
      hash::fnvMix(h, result.universe.size());
      hash::fnvMix(h, result.instruments);
      for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
        const fault::Fault& f = result.universe[fi];
        hash::fnvMix(h, static_cast<std::uint64_t>(f.kind));
        hash::fnvMix(h, f.prim);
        hash::fnvMix(h, f.stuckBranch);
        hash::fnvMix(h, result.collapsedMux[fi]);
        for (std::size_t i = 0; i < result.instruments; ++i) {
          hash::fnvMix(h, static_cast<std::uint64_t>(result.read(fi, i)));
          hash::fnvMix(h, static_cast<std::uint64_t>(
                              result.readWitness(fi, i).kind));
          hash::fnvMix(h, static_cast<std::uint64_t>(result.write(fi, i)));
          hash::fnvMix(h, static_cast<std::uint64_t>(
                              result.writeWitness(fi, i).kind));
        }
      }
    }
  }
  EXPECT_EQ(h, 0x4ec1b28530ede1daULL);
}

TEST(Certifier, CrossCheckModeReplaysThroughTheOracle) {
  const rsn::Network net = rsn::makeFig1Network();
  CertifyOptions options;
  options.crossCheck = true;
  options.crossCheckSampleEvery = 1;  // replay every row
  const CertificationResult result = Certifier(net).run(options);
  EXPECT_EQ(result.crossCheckedRowCount, result.universe.size())
      << "sampleEvery=1 must replay the whole universe";
}

}  // namespace
}  // namespace rrsn::verify
