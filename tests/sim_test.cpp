#include <gtest/gtest.h>

#include "diag/diagnosis.hpp"
#include "fault/effects.hpp"
#include "harden/fault_tolerant.hpp"
#include "rsn/example_networks.hpp"
#include "sim/retarget.hpp"
#include "sim/simulator.hpp"
#include "support/hash.hpp"
#include "test_util.hpp"

namespace rrsn::sim {
namespace {

using diag::FaultDictionary;
using diag::Syndrome;
using fault::Fault;
using rsn::makeFig1Network;

std::vector<Bit> bits(const std::string& s) { return bitsFromString(s); }

// Strict accessibility reads a syndrome: bit 2i is the read of
// instrument i, bit 2i+1 its write, each on a fresh simulator.
bool observable(const Syndrome& s, rsn::InstrumentId i) {
  return s.passed.test(2 * i);
}
bool settable(const Syndrome& s, rsn::InstrumentId i) {
  return s.passed.test(2 * i + 1);
}

TEST(Bits, StringConversions) {
  EXPECT_EQ(toString(bits("01x")), "01x");
  EXPECT_THROW(bitsFromString("012"), ParseError);
  EXPECT_EQ(bitOf(true), Bit::One);
  EXPECT_EQ(bitOf(false), Bit::Zero);
}

TEST(Simulator, ResetPathIsBypass) {
  // Fig. 1 at reset: every mux selects branch 0; m0's branch 0 is the
  // content branch (address from c0 = 0), SIBs are closed.
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const auto path = sim.activePath();
  ASSERT_TRUE(path.has_value());
  std::vector<std::string> names;
  for (auto s : path->segments) names.push_back(net.segment(s).name);
  // m0 selects branch 0 (content), SIB closed (bypass), m1/m2 select
  // their instrument branches (branch 0).
  EXPECT_EQ(names, (std::vector<std::string>{"c0", "sb1", "seg_i2", "seg_i3",
                                             "c2", "c1"}));
  EXPECT_EQ(path->totalBits, 1u + 1 + 3 + 5 + 1 + 2);
}

TEST(Simulator, CsuWritesImage) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  // Compose an image: c0=1 (select bypass next), everything else zero.
  std::vector<Bit> image(path->totalBits, Bit::Zero);
  image[0] = Bit::One;  // c0 is the first bit on the path
  sim.csu(ScanSimulator::shiftInForImage(image));
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("1"));
  // m0 now selects branch 1 (bypass): the path shrinks to c0 -> c1.
  const auto newPath = sim.activePath();
  ASSERT_TRUE(newPath);
  EXPECT_EQ(newPath->segments.size(), 2u);
}

TEST(Simulator, CsuShiftsCaptureOut) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const rsn::InstrumentId i2 = net.findInstrument("i2");
  sim.setInstrumentValue(i2, bits("101"));
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  const std::vector<Bit> in(path->totalBits, Bit::Zero);
  const auto out = sim.csu(in);
  // out[t] = captured image cell (B-1-t); check seg_i2's cells.
  const auto offset =
      ScanSimulator::offsetOf(net, *path, net.findSegment("seg_i2"));
  ASSERT_TRUE(offset);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(out[path->totalBits - 1 - (*offset + k)], bits("101")[k]);
  }
}

TEST(Simulator, ExternalAddressControlsBareMux) {
  const rsn::Network net = rsn::makeTinyNetwork();  // mux 'mx' TAP-controlled
  ScanSimulator sim(net);
  ASSERT_TRUE(sim.activePath());
  EXPECT_EQ(sim.activePath()->segments.size(), 2u);  // seg_a + seg_b
  sim.setExternalAddress(net.findMux("mx"), 1);      // bypass branch
  EXPECT_EQ(sim.activePath()->segments.size(), 1u);  // only seg_b
}

TEST(Simulator, ExternalAddressRejectedForControlledMux) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  EXPECT_THROW(sim.setExternalAddress(net.findMux("m0"), 1), Error);
}

TEST(Simulator, BrokenSegmentPoisonsDownstreamShifts) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::segmentBreak(net.findSegment("sb1")));
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  // Shift a full image of ones: everything downstream of the break must
  // come out X after passing the broken register.
  const std::vector<Bit> in(path->totalBits, Bit::One);
  sim.csu(in);
  // seg_i2 sits after sb1 on the path: its update must be poisoned.
  const auto i2 = sim.segmentUpdate(net.findSegment("seg_i2"));
  for (Bit b : i2) EXPECT_EQ(b, Bit::X);
  // c0 sits before the break: it received clean ones.
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("1"));
}

TEST(Simulator, StuckMuxIgnoresAddress) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::muxStuck(net.findMux("m0"), 1));
  // Address says branch 0, but the mux is stuck on the bypass.
  EXPECT_EQ(sim.muxSelection(net.findMux("m0")), 1u);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  EXPECT_EQ(path->segments.size(), 2u);  // c0, c1
}

// ------------------------------------------------------------ retargeting

TEST(Retarget, OpensSibToReadInstrument) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const auto flat = rsn::FlatNetwork::lower(net);
  Retargeter rt(sim, *flat);
  const auto res = rt.readInstrument(net.findInstrument("i1"));
  EXPECT_TRUE(res.success);
  // Opening the SIB takes one configuration round plus the read access.
  EXPECT_GE(res.rounds, 2u);
  EXPECT_FALSE(res.patterns.empty());
}

TEST(Retarget, WritesInstrumentValue) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const auto flat = rsn::FlatNetwork::lower(net);
  Retargeter rt(sim, *flat);
  const auto value = bits("1100");
  const auto res = rt.writeInstrument(net.findInstrument("i1"), value);
  EXPECT_TRUE(res.success);
  EXPECT_EQ(sim.instrumentUpdate(net.findInstrument("i1")), value);
}

TEST(Retarget, FaultFreeEverythingAccessible) {
  const rsn::Network net = makeFig1Network();
  const Syndrome strict = FaultDictionary::measure(net, nullptr);
  EXPECT_EQ(strict.passed.count(), 2 * net.instruments().size());
}

TEST(Retarget, StuckM0MakesAllInstrumentsInaccessible) {
  const rsn::Network net = makeFig1Network();
  const Fault f = Fault::muxStuck(net.findMux("m0"), 1);
  EXPECT_EQ(FaultDictionary::measure(net, &f).passed.count(), 0u);
}

TEST(Retarget, BrokenInstrumentSegmentOnlyKillsItself) {
  const rsn::Network net = makeFig1Network();
  const Fault f = Fault::segmentBreak(net.findSegment("seg_i2"));
  const Syndrome strict = FaultDictionary::measure(net, &f);
  const auto i2 = net.findInstrument("i2");
  EXPECT_FALSE(observable(strict, i2));
  EXPECT_FALSE(settable(strict, i2));
  EXPECT_TRUE(observable(strict, net.findInstrument("i1")));
  EXPECT_TRUE(observable(strict, net.findInstrument("i3")));
  EXPECT_TRUE(settable(strict, net.findInstrument("i1")));
}

TEST(Retarget, StrictNeverExceedsStructural) {
  // The strict (simulation-backed) accessibility can only be a subset of
  // the structural one: the structural analysis ignores how control bits
  // are applied.
  const rsn::Network net = makeFig1Network();
  const auto flat = rsn::FlatNetwork::lower(net);
  const fault::FaultUniverse universe(net);
  for (const Fault& f : universe.faults()) {
    const Syndrome strict = FaultDictionary::measure(net, &f);
    const fault::AccessibilityLoss loss = fault::lossUnderFaultGraph(*flat, f);
    for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
      if (observable(strict, i)) {
        EXPECT_FALSE(loss.unobservable.test(i))
            << fault::describe(net, f) << " instrument " << i;
      }
      if (settable(strict, i)) {
        EXPECT_FALSE(loss.unsettable.test(i))
            << fault::describe(net, f) << " instrument " << i;
      }
    }
  }
}

TEST(Retarget, ControlDependencyGapExists) {
  // break(c0) kills m0's address register.  Structurally i1..i3 remain
  // observable (the branch is already selected at reset in our model, but
  // the structural analysis even says they are observable regardless);
  // strictly, writing the SIB open-bit still works only if the CSU can
  // pass... This documents at least one instrument where strict is more
  // pessimistic than structural across the fault universe.
  const rsn::Network net = makeFig1Network();
  const auto flat = rsn::FlatNetwork::lower(net);
  const fault::FaultUniverse universe(net);
  std::size_t gaps = 0;
  for (const Fault& f : universe.faults()) {
    const Syndrome strict = FaultDictionary::measure(net, &f);
    const fault::AccessibilityLoss loss = fault::lossUnderFaultGraph(*flat, f);
    for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
      gaps += !loss.unobservable.test(i) && !observable(strict, i);
      gaps += !loss.unsettable.test(i) && !settable(strict, i);
    }
  }
  EXPECT_GT(gaps, 0u);
}

// Property sweep: on random fault-free networks the retargeter reaches
// every instrument end to end.
class RetargetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetargetSweep, FaultFreeFullAccess) {
  Rng rng(GetParam() * 31 + 5);
  test::RandomNetOptions opt;
  opt.targetSegments = 20;
  const rsn::Network net = test::randomNetwork(rng, opt);
  const Syndrome strict = FaultDictionary::measure(net, nullptr);
  EXPECT_EQ(strict.passed.count(), 2 * net.instruments().size())
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetargetSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// Pattern compatibility (Sec. II): hardening does not change the RSN, so
// the pattern log captured on the original network replays bit-identically
// on the "hardened" one.
TEST(PatternCompatibility, HardenedNetworkAcceptsSamePatterns) {
  const rsn::Network original = makeFig1Network();
  const rsn::Network hardened = makeFig1Network();  // same topology

  ScanSimulator simA(original);
  const auto i1 = original.findInstrument("i1");
  const auto flat = rsn::FlatNetwork::lower(original);
  Retargeter rtA(simA, *flat);
  const auto res = rtA.readInstrument(i1);
  ASSERT_TRUE(res.success);

  // Replay on the hardened network with the same instrument stimulus:
  // identical shift-out streams bit for bit.
  ScanSimulator simB(hardened);
  simB.setInstrumentValue(
      i1, accessMarker(hardened.segment(hardened.instrument(i1).segment).length));
  EXPECT_TRUE(replayPatterns(simB, res));
}

TEST(PatternCompatibility, ReplayDetectsDivergentNetwork) {
  // Replaying on a *different* topology must be rejected, not silently
  // accepted — the guarantee is specific to topology-preserving plans.
  const rsn::Network original = makeFig1Network();
  ScanSimulator simA(original);
  const auto flat = rsn::FlatNetwork::lower(original);
  Retargeter rtA(simA, *flat);
  const auto res = rtA.readInstrument(original.findInstrument("i1"));
  ASSERT_TRUE(res.success);

  const rsn::Network other = rsn::makeTinyNetwork();
  ScanSimulator simB(other);
  EXPECT_FALSE(replayPatterns(simB, res));
}

// Pattern compatibility under an injected fault: a recorded access whose
// path avoids the defect replays bit-exactly on the (topology-identical)
// hardened network even when the same fault is present there.  Checked
// on both example networks.
TEST(PatternCompatibility, ReplaysUnderFaultOnHardenedTopology) {
  struct Case {
    rsn::Network net;
    const char* instrument;
    const char* brokenSegment;
  };
  // fig1: break seg_i3, access i2 (different branch of the inner chain);
  // tiny: break seg_a, access inst_b (mx can bypass seg_a entirely).
  Case cases[] = {{makeFig1Network(), "i2", "seg_i3"},
                  {rsn::makeTinyNetwork(), "inst_b", "seg_a"}};
  for (Case& c : cases) {
    const Fault f = Fault::segmentBreak(c.net.findSegment(c.brokenSegment));
    ScanSimulator simA(c.net);
    simA.injectFault(f);
    const auto flat = rsn::FlatNetwork::lower(c.net);
    Retargeter rtA(simA, *flat);
    const auto i = c.net.findInstrument(c.instrument);
    const auto res = rtA.readInstrument(i);
    ASSERT_TRUE(res.success) << c.net.name();

    // The hardened network shares the topology (hardening never changes
    // it); the recorded patterns must replay bit for bit, fault and all.
    ScanSimulator simB(c.net);
    simB.injectFault(f);
    simB.setInstrumentValue(
        i, accessMarker(c.net.segment(c.net.instrument(i).segment).length));
    EXPECT_TRUE(replayPatterns(simB, res)) << c.net.name();
  }
}

TEST(PatternCompatibility, ReplayFailsOnAugmentedTopology) {
  // The fault-tolerant augmentation inserts skip multiplexers, changing
  // the scan path lengths: patterns recorded on the original network
  // must NOT replay (the paper's compatibility argument, Sec. II).
  for (const rsn::Network& net : {makeFig1Network(), rsn::makeTinyNetwork()}) {
    ScanSimulator simA(net);
    const auto flat = rsn::FlatNetwork::lower(net);
    Retargeter rtA(simA, *flat);
    ASSERT_FALSE(net.instruments().empty());
    const auto res = rtA.readInstrument(static_cast<rsn::InstrumentId>(0));
    ASSERT_TRUE(res.success) << net.name();

    const harden::FaultTolerantRsn ft = harden::augmentFaultTolerant(net);
    ScanSimulator simB(ft.network);
    EXPECT_FALSE(replayPatterns(simB, res)) << net.name();
  }
}

// ------------------------------------------------- bounded retargeting

TEST(RetargetBounds, StuckAddressFaultFailsInsteadOfLooping) {
  // break(c0) leaves m0's address register permanently poisoned after
  // the first CSU round — the configuration can never converge.  The
  // engine must give up within its round budget and report failure, not
  // iterate forever.
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::segmentBreak(net.findSegment("c0")));
  RetargetOptions options;
  options.maxRounds = 3;
  const auto flat = rsn::FlatNetwork::lower(net);
  Retargeter engine(sim, *flat, options);
  const auto res = engine.readInstrument(net.findInstrument("i1"));
  EXPECT_FALSE(res.success);
  EXPECT_LE(res.rounds, 3u);
}

TEST(RetargetBounds, StuckMuxWriteFailsWithinRoundCap) {
  // m_sb1 stuck on the bypass: the SIB can never open, so i1 stays
  // unreachable no matter how many rounds are granted.
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFault(Fault::muxStuck(net.findMux("sb1_mux"), 0));
  RetargetOptions options;
  options.maxRounds = 5;
  const auto flat = rsn::FlatNetwork::lower(net);
  Retargeter engine(sim, *flat, options);
  const auto res = engine.writeInstrument(
      net.findInstrument("i1"),
      accessMarker(net.segment(net.findSegment("seg_i1")).length));
  EXPECT_FALSE(res.success);
  EXPECT_LE(res.rounds, 5u);
}

TEST(RetargetBounds, RerouteBudgetIsHonored) {
  // With a reroute budget of 0 the engine only tries the nominal recipe;
  // the default budget on the augmented topology recovers the access.
  const harden::FaultTolerantRsn ft =
      harden::augmentFaultTolerant(makeFig1Network());
  const rsn::Network& net = ft.network;
  const Fault f = Fault::segmentBreak(net.findSegment("c2"));
  const auto flat = rsn::FlatNetwork::lower(net);

  ScanSimulator noReroute(net);
  noReroute.injectFault(f);
  RetargetOptions off;
  off.maxReroutes = 0;
  const auto denied = Retargeter(noReroute, *flat, off)
                          .readInstrument(net.findInstrument("i3"));

  ScanSimulator withReroute(net);
  withReroute.injectFault(f);
  const auto recovered = Retargeter(withReroute, *flat)
                             .readInstrument(net.findInstrument("i3"));
  ASSERT_TRUE(recovered.success);
  if (denied.success) {
    // If even the nominal recipe works, the reroute flag must be clear.
    EXPECT_FALSE(denied.rerouted);
  } else {
    EXPECT_TRUE(recovered.rerouted);
  }
}

// Pins every recipe the retargeter applies: the success and reroute
// flags, CSU rounds, each pattern's shift-in and shift-out and the
// external selections of every instrument's read and write, fault-free
// and under every single fault, on both example networks and their
// fault-tolerant augmentations, at reroute caps 0, 1, 2 and 8 (an
// off-by-one in the cap leaves the default cap's results unchanged).
// Recipe order, dedupe, the cap and every CSU bit are part of the
// retargeter's contract: a faster search or shift must keep this digest.
TEST(RetargetRecipes, DigestIsPinned) {
  std::uint64_t h = hash::kFnvOffset;
  std::size_t rerouted = 0;
  const auto fold = [&](const RetargetResult& r) {
    hash::fnvMix(h, std::uint64_t{r.success});
    hash::fnvMix(h, std::uint64_t{r.rerouted});
    hash::fnvMix(h, r.rounds);
    hash::fnvMix(h, r.patterns.size());
    for (const ScanPattern& p : r.patterns) {
      hash::fnvMix(h, toString(p.shiftIn));
      hash::fnvMix(h, toString(p.shiftOut));
    }
    hash::fnvMix(h, r.externalSelections.size());
    for (const auto& [mux, branch] : r.externalSelections) {
      hash::fnvMix(h, mux);
      hash::fnvMix(h, branch);
    }
    rerouted += r.rerouted;
  };
  std::vector<rsn::Network> nets{makeFig1Network(), rsn::makeTinyNetwork()};
  nets.push_back(harden::augmentFaultTolerant(nets[0]).network);
  nets.push_back(harden::augmentFaultTolerant(nets[1]).network);
  for (const rsn::Network& net : nets) {
    const auto flat = rsn::FlatNetwork::lower(net);
    const fault::FaultUniverse universe(net);
    std::vector<std::vector<Fault>> scenarios{{}};
    for (const Fault& f : universe.faults()) scenarios.push_back({f});
    for (const std::size_t cap : {0U, 1U, 2U, 8U}) {
      RetargetOptions options;
      options.maxReroutes = cap;
      for (const std::vector<Fault>& faults : scenarios) {
        for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
          for (const bool isRead : {true, false}) {
            ScanSimulator sim(net);
            sim.injectFaults(faults);
            Retargeter rt(sim, *flat, options);
            const std::uint32_t len =
                net.segment(net.instrument(i).segment).length;
            fold(isRead ? rt.readInstrument(i)
                        : rt.writeInstrument(i, accessMarker(len)));
          }
        }
      }
    }
  }
  EXPECT_GT(rerouted, 0u);
  EXPECT_EQ(h, 0xa7c2fb16649ef799ULL);
}

// ------------------------------------------------ multi-fault injection

TEST(MultiFault, TwoBreaksPoisonBothDownstreamRanges) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFaults({Fault::segmentBreak(net.findSegment("sb1")),
                    Fault::segmentBreak(net.findSegment("c2"))});
  ASSERT_EQ(sim.injectedFaults().size(), 2u);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  sim.csu(std::vector<Bit>(path->totalBits, Bit::One));
  // Downstream of either break is poisoned; upstream of both is clean.
  for (Bit b : sim.segmentUpdate(net.findSegment("seg_i2")))
    EXPECT_EQ(b, Bit::X);  // after sb1
  for (Bit b : sim.segmentUpdate(net.findSegment("c1")))
    EXPECT_EQ(b, Bit::X);  // after c2
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("1"));
}

TEST(MultiFault, StuckMuxAndBreakCombine) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  sim.injectFaults({Fault::muxStuck(net.findMux("m0"), 1),
                    Fault::segmentBreak(net.findSegment("c0"))});
  ASSERT_EQ(sim.injectedFaults().size(), 2u);
  // The stuck mux forces the bypass path c0 -> c1 regardless of the
  // address; the break on c0 then poisons everything downstream of it.
  EXPECT_EQ(sim.muxSelection(net.findMux("m0")), 1u);
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  ASSERT_EQ(path->segments.size(), 2u);
  sim.csu(std::vector<Bit>(path->totalBits, Bit::One));
  for (Bit b : sim.segmentUpdate(net.findSegment("c1"))) EXPECT_EQ(b, Bit::X);
}

// ------------------------------------------ closed-form shift reference

/// One CSU clocked cell by cell, the way ScanSimulator::csu is specified
/// but does not compute it: capture the path image (the instrument
/// value, else the update register; a broken segment captures X), then
/// B clocks that each output the last cell, shift by one, feed in[t]
/// and re-poison every broken range.  `instrumentValue` is what the
/// test set per segment (empty: none).  Returns the scan-out stream;
/// `update` receives every segment's expected update register.
std::vector<Bit> referenceCsu(
    const ScanSimulator& sim,
    const std::vector<std::vector<Bit>>& instrumentValue,
    const std::vector<Bit>& in, std::vector<std::vector<Bit>>& update) {
  const rsn::Network& net = sim.network();
  update.clear();
  for (rsn::SegmentId s = 0; s < net.segments().size(); ++s)
    update.push_back(sim.segmentUpdate(s));
  const auto broken = [&](rsn::SegmentId s) {
    const auto& faults = sim.injectedFaults();
    return std::find(faults.begin(), faults.end(), Fault::segmentBreak(s)) !=
           faults.end();
  };

  const auto path = sim.activePath();
  std::vector<Bit> reg;
  std::vector<std::pair<std::size_t, std::size_t>> brokenRanges;
  for (rsn::SegmentId s : path->segments) {
    const std::vector<Bit>& captured =
        instrumentValue[s].empty() ? update[s] : instrumentValue[s];
    if (broken(s)) {
      brokenRanges.emplace_back(reg.size(), reg.size() + captured.size());
      reg.insert(reg.end(), captured.size(), Bit::X);
    } else {
      reg.insert(reg.end(), captured.begin(), captured.end());
    }
  }
  std::vector<Bit> out;
  for (const Bit b : in) {
    out.push_back(reg.back());
    for (std::size_t i = reg.size() - 1; i > 0; --i) reg[i] = reg[i - 1];
    reg[0] = b;
    for (const auto& [first, last] : brokenRanges)
      for (std::size_t i = first; i < last; ++i) reg[i] = Bit::X;
  }
  std::size_t cell = 0;
  for (rsn::SegmentId s : path->segments)
    for (Bit& b : update[s]) b = reg[cell++];
  return out;
}

// On seeded random networks, every CSU equals the per-clock reference:
// the scan-out stream and every segment's update register (off-path
// ones unchanged).  Networks carry 0, 1 or 2 broken segments from the
// reset path and, on odd seeds, a stuck mux; configurations move by
// random shift-in streams, instruments present random values, and a
// lost path is recovered through resetConfiguration().
TEST(ClosedFormShift, EveryCsuMatchesThePerClockReference) {
  const auto randomBit = [](Rng& rng) {
    const std::uint64_t r = rng.below(8);
    return r == 0 ? Bit::X : bitOf(r % 2 == 1);
  };
  std::size_t breakOnPath = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919 + 3);
    test::RandomNetOptions opt;
    opt.targetSegments = 12 + seed % 20;
    const rsn::Network net = test::randomNetwork(rng, opt);
    ScanSimulator sim(net);

    std::vector<Fault> faults;
    const fault::FaultUniverse universe(net);
    std::vector<Fault> stucks;
    for (const Fault& f : universe.faults())
      if (f.kind == fault::FaultKind::MuxStuck) stucks.push_back(f);
    if (seed % 2 == 1 && !stucks.empty())
      faults.push_back(stucks[rng.below(stucks.size())]);
    sim.injectFaults(faults);
    std::vector<rsn::SegmentId> resetPath = sim.activePath()->segments;
    rng.shuffle(resetPath);
    for (std::size_t b = 0; b < seed % 3 && b < resetPath.size(); ++b)
      faults.push_back(Fault::segmentBreak(resetPath[b]));
    sim.injectFaults(faults);

    std::vector<std::vector<Bit>> instrumentValue(net.segments().size());
    for (std::size_t round = 0; round < 24; ++round) {
      for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
        if (!rng.chance(0.3)) continue;
        const rsn::SegmentId s = net.instrument(i).segment;
        std::vector<Bit> value(net.segment(s).length);
        for (Bit& b : value) b = randomBit(rng);
        sim.setInstrumentValue(i, value);
        instrumentValue[s] = std::move(value);
      }
      if (!sim.activePath()) sim.resetConfiguration();
      const auto path = sim.activePath();
      ASSERT_TRUE(path) << "seed=" << seed;
      std::vector<Bit> in(path->totalBits);
      for (Bit& b : in) b = randomBit(rng);

      std::vector<std::vector<Bit>> update;
      const std::vector<Bit> expected =
          referenceCsu(sim, instrumentValue, in, update);
      EXPECT_EQ(sim.csu(in), expected) << "seed=" << seed << " round=" << round;
      for (rsn::SegmentId s = 0; s < net.segments().size(); ++s)
        EXPECT_EQ(sim.segmentUpdate(s), update[s])
            << "seed=" << seed << " round=" << round << " segment=" << s;
      breakOnPath += std::any_of(
          path->segments.begin(), path->segments.end(), [&](rsn::SegmentId s) {
            return std::find(faults.begin(), faults.end(),
                             Fault::segmentBreak(s)) != faults.end();
          });
    }
  }
  EXPECT_GT(breakOnPath, 50u * 24 / 3);  // rounds that cross a break
}

// ------------------------------------------------- transient upsets

TEST(Transient, UpsetFiresOnceAfterConfiguredRound) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const rsn::SegmentId target = net.findSegment("seg_i2");
  sim.armTransientUpset({target, 1});
  EXPECT_TRUE(sim.transientPending());

  // All-zero rounds keep the reset configuration (and thus the full
  // path, seg_i2 included) stable across every CSU.
  const auto zeros = [&]() {
    const auto path = sim.activePath();
    EXPECT_TRUE(path);
    return std::vector<Bit>(path->totalBits, Bit::Zero);
  };
  // Round 0 completes cleanly: the upset waits for round 1.
  sim.csu(zeros());
  EXPECT_TRUE(sim.transientPending());
  EXPECT_EQ(sim.segmentUpdate(target), bits("000"));
  // Round 1 completes, then the upset fires: the target's update
  // register X-corrupted, the upset consumed.
  sim.csu(zeros());
  EXPECT_FALSE(sim.transientPending());
  for (Bit b : sim.segmentUpdate(target)) EXPECT_EQ(b, Bit::X);
  // One-shot: the next clean round fully rewrites the segment.
  sim.csu(zeros());
  EXPECT_EQ(sim.segmentUpdate(target), bits("000"));
}

TEST(Transient, ResetConfigurationRecoversThePath) {
  const rsn::Network net = makeFig1Network();
  ScanSimulator sim(net);
  const Fault keep = Fault::segmentBreak(net.findSegment("seg_i1"));
  sim.injectFault(keep);
  // Upset c0 (it controls m0): once its update register reads X the
  // active path is gone — the transient-loss scenario.
  sim.armTransientUpset({net.findSegment("c0"), 0});
  const auto path = sim.activePath();
  ASSERT_TRUE(path);
  sim.csu(std::vector<Bit>(path->totalBits, Bit::One));
  EXPECT_FALSE(sim.transientPending());
  for (Bit b : sim.segmentUpdate(net.findSegment("c0"))) EXPECT_EQ(b, Bit::X);
  EXPECT_FALSE(sim.activePath().has_value());
  // The 1687-style reconfiguration sequence restores the update
  // registers (and external addresses) to their reset values without a
  // power cycle; permanent faults stay injected.
  sim.resetConfiguration();
  EXPECT_EQ(sim.segmentUpdate(net.findSegment("c0")), bits("0"));
  ASSERT_TRUE(sim.activePath().has_value());
  ASSERT_EQ(sim.injectedFaults().size(), 1u);
  EXPECT_EQ(sim.injectedFaults().front(), keep);
}

}  // namespace
}  // namespace rrsn::sim
