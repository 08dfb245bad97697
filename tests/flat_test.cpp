// FlatNetwork: the arena-backed SoA view every graph walk shares.
// Covers the lowering (pinned fingerprints plus structural invariants
// of the documented vertex numbering), serialization round-trips
// (byte-determinism at any thread count), typed-Status rejection of
// corrupt/foreign buffers, the campaign's flatten-once contract,
// engine equivalence on a reloaded arena, and the HUGE_* shapes at
// 120 k segments through every flat consumer within the memory budget.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <tuple>
#include <vector>

#include "benchgen/generators.hpp"
#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/batched.hpp"
#include "diag/diagnosis.hpp"
#include "fault/fault.hpp"
#include "harden/fault_tolerant.hpp"
#include "obs/obs.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace rrsn::rsn {
namespace {

std::shared_ptr<const FlatNetwork> reload(const FlatNetwork& flat) {
  std::shared_ptr<const FlatNetwork> out;
  const Status st = FlatNetwork::deserialize(flat.buffer(), out);
  EXPECT_TRUE(st.ok()) << st.toString();
  return out;
}

std::uint64_t counterValue(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& [id, v] : snap.counters)
    if (snap.names[id] == name) return v;
  return 0;
}

// The arena is a published format (.rrsnflat files, daemon caches):
// these fingerprints pin the lowering of a fixed corpus byte for byte.
TEST(FlatNetwork, LoweringMatchesPinnedFingerprints) {
  const auto fingerprintOf = [](const Network& net) {
    return FlatNetwork::lower(net)->fingerprint();
  };
  const auto fileFingerprint = [&](const std::string& file) {
    std::ifstream is(std::string(RRSN_EXAMPLES_DIR) + "/" + file);
    EXPECT_TRUE(is.good()) << file;
    return fingerprintOf(parseNetlist(is));
  };
  EXPECT_EQ(fingerprintOf(makeFig1Network()), 0x045bc92ec6025abdULL);
  EXPECT_EQ(fingerprintOf(makeTinyNetwork()), 0xfa5cd12fd7d9f61bULL);
  EXPECT_EQ(fileFingerprint("fig1.rsn"), 0x045bc92ec6025abdULL);
  EXPECT_EQ(fileFingerprint("q12710.rsn"), 0x683ed29bc496c38cULL);
  EXPECT_EQ(fileFingerprint("tiny.rsn"), 0xfa5cd12fd7d9f61bULL);
  EXPECT_EQ(fileFingerprint("treeflat.rsn"), 0xb0bd524fc8e4f377ULL);
  EXPECT_EQ(fingerprintOf(benchgen::buildBenchmark("p93791")),
            0xe59ff668643b09acULL);
  EXPECT_EQ(fingerprintOf(benchgen::buildBenchmark("MBIST_1_5_20")),
            0x3e353605bfcdd42aULL);
  EXPECT_EQ(fingerprintOf(benchgen::buildBenchmark("TreeUnbalanced")),
            0xd04dc8f3c21f5b15ULL);
  EXPECT_EQ(fingerprintOf(benchgen::makeSoc("SOC_2000", 2000, 1052)),
            0x2d3f2d763cb61bebULL);
  EXPECT_EQ(fingerprintOf(benchgen::makeHuge("HUGE_4096", 4096, 512, 16)),
            0x99dbbdb0d39643c5ULL);
}

TEST(FlatNetwork, LoweringInvariantsOnRandomNetworks) {
  Rng rng(3);
  for (int round = 0; round < 8; ++round) {
    const Network net = test::randomNetwork(rng);
    const auto flat = FlatNetwork::lower(net);
    const std::size_t S = net.segments().size();
    const std::size_t M = net.muxes().size();

    ASSERT_EQ(flat->segmentCount(), S);
    ASSERT_EQ(flat->muxCount(), M);
    ASSERT_EQ(flat->instrumentCount(), net.instruments().size());

    // The vertex numbering documented in flat.hpp.
    const std::size_t V = flat->vertexCount();
    ASSERT_EQ(V, 2 + S + 2 * M);
    EXPECT_EQ(flat->scanIn(), 0u);
    EXPECT_EQ(flat->scanOut(), V - 1);
    std::vector<bool> controls(S, false);
    for (const Mux& mux : net.muxes())
      if (mux.controlSegment != kNone) controls[mux.controlSegment] = true;
    for (SegmentId s = 0; s < S; ++s) {
      EXPECT_EQ(flat->segLength()[s], net.segment(s).length);
      EXPECT_EQ(flat->segmentVertex()[s], 1 + s);
      EXPECT_EQ(flat->segmentControlsMux(s), controls[s]) << "segment " << s;
    }
    for (MuxId m = 0; m < M; ++m) {
      const graph::VertexId mv = static_cast<graph::VertexId>(1 + S + 2 * m);
      EXPECT_EQ(flat->muxOfVertex()[mv], m);
      const SegmentId ctrl = net.mux(m).controlSegment;
      EXPECT_EQ(flat->muxCtrlVertex()[m],
                ctrl == kNone ? graph::kNoVertex : flat->segmentVertex()[ctrl]);
      // Branch b's exit feeds the mux through an edge whose branch span
      // names b; a wire branch exits at the mux's fan-out stem.
      const auto begin = flat->muxBranchOffsets()[m];
      const auto end = flat->muxBranchOffsets()[m + 1];
      ASSERT_EQ(end - begin, flat->muxArity()[m]);
      for (std::uint32_t b = 0; b < end - begin; ++b) {
        const graph::VertexId exit = flat->muxBranchExit()[begin + b];
        bool spanned = false;
        for (std::uint32_t e = flat->fwdOffsets()[exit];
             e < flat->fwdOffsets()[exit + 1]; ++e) {
          const FlatNetwork::Edge& edge = flat->fwdEdges()[e];
          if (edge.other != mv) continue;
          EXPECT_EQ(edge.mux, m);
          for (std::uint32_t k = edge.branchBegin; k < edge.branchEnd; ++k)
            spanned |= flat->branchPool()[k] == b;
        }
        EXPECT_TRUE(spanned) << "mux " << m << " branch " << b;
      }
    }
    for (graph::VertexId v = 0; v < V; ++v) {
      const bool isMux = v > S && v + 1 < V && (v - 1 - S) % 2 == 0;
      EXPECT_EQ(flat->muxOfVertex()[v] != kNone, isMux) << "vertex " << v;
    }
    for (InstrumentId i = 0; i < net.instruments().size(); ++i) {
      EXPECT_EQ(flat->instrumentSegment()[i], net.instrument(i).segment);
      EXPECT_EQ(flat->instrumentVertex()[i],
                flat->segmentVertex()[net.instrument(i).segment]);
    }

    // The backward CSR is the transpose of the forward CSR, annotations
    // included (an entry describes the original edge from either side).
    using Arc = std::tuple<graph::VertexId, graph::VertexId, std::uint32_t,
                           std::vector<std::uint32_t>>;
    const auto arcsOf = [&](bool forward) {
      const auto offsets = forward ? flat->fwdOffsets() : flat->bwdOffsets();
      const auto edges = forward ? flat->fwdEdges() : flat->bwdEdges();
      std::vector<Arc> arcs;
      for (graph::VertexId v = 0; v < V; ++v) {
        for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
          const FlatNetwork::Edge& edge = edges[e];
          std::vector<std::uint32_t> span(
              flat->branchPool().begin() + edge.branchBegin,
              flat->branchPool().begin() + edge.branchEnd);
          arcs.emplace_back(forward ? v : edge.other,
                            forward ? edge.other : v, edge.mux,
                            std::move(span));
        }
      }
      std::sort(arcs.begin(), arcs.end());
      return arcs;
    };
    EXPECT_EQ(arcsOf(true), arcsOf(false));

    // Series and parallel parts lower to a two-terminal SP graph
    // (Sec. III), also after the skip-mux augmentation.
    EXPECT_TRUE(test::isTwoTerminalSp(*flat));
    EXPECT_TRUE(test::isTwoTerminalSp(
        *FlatNetwork::lower(harden::augmentFaultTolerant(net).network)));
  }
}

TEST(FlatNetwork, RoundTripAndByteDeterminism) {
  const Network net = makeFig1Network();
  const auto flat = FlatNetwork::lower(net);

  const auto loaded = reload(*flat);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->fingerprint(), flat->fingerprint());
  EXPECT_TRUE(*loaded == *flat);
  EXPECT_EQ(loaded->segmentCount(), flat->segmentCount());
  EXPECT_EQ(loaded->buffer(), flat->buffer());

  // The arena is a pure function of the network: byte-identical at any
  // pool width (the runtime determinism contract extends to lowering).
  const std::size_t before = threadCount();
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    setThreadCount(t);
    const auto again = FlatNetwork::lower(net);
    EXPECT_EQ(again->buffer(), flat->buffer()) << "threads=" << t;
  }
  setThreadCount(before);
}

TEST(FlatNetwork, RejectsCorruptBuffersWithTypedStatus) {
  const Network net = makeFig1Network();
  const auto flat = FlatNetwork::lower(net);
  const std::vector<std::uint8_t>& good = flat->buffer();

  const auto rejects = [](std::vector<std::uint8_t> buf) -> Status {
    std::shared_ptr<const FlatNetwork> out;
    Status st{};
    EXPECT_NO_THROW(st = FlatNetwork::deserialize(std::move(buf), out));
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(out, nullptr);
    return st;
  };

  (void)rejects({});                                   // empty
  (void)rejects(std::vector<std::uint8_t>(16, 0xab));  // way too short
  EXPECT_EQ(rejects({good.begin(),
                     good.begin() + static_cast<std::ptrdiff_t>(
                                        good.size() / 2)})
                .code(),
            StatusCode::kDataLoss);

  {  // foreign magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xff;
    const Status st = rejects(std::move(bad));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.toString();
    EXPECT_NE(st.message().find("magic"), std::string::npos)
        << st.toString();
  }
  {  // version bump (format field is the u32 at byte 8)
    std::vector<std::uint8_t> bad = good;
    std::uint32_t version = 0;
    std::memcpy(&version, bad.data() + 8, sizeof version);
    version += 1;
    std::memcpy(bad.data() + 8, &version, sizeof version);
    const Status st = rejects(std::move(bad));
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.toString();
    EXPECT_NE(st.message().find("version"), std::string::npos)
        << st.toString();
  }
  {  // payload bit flip -> fingerprint mismatch.  Flip inside the first
     // section payload (the 64-byte-aligned slot after the 112-byte
     // header and the 24-byte descriptor of each section; the section
     // count is the u32 at byte 12); the zero padding after the last
     // section is outside the fingerprint, so the arena's final byte
     // would not do.
    std::vector<std::uint8_t> bad = good;
    std::uint32_t sections = 0;
    std::memcpy(&sections, bad.data() + 12, sizeof sections);
    const std::size_t firstPayload = (112 + 24 * std::size_t{sections} + 63) /
                                     64 * 64;
    ASSERT_LT(firstPayload, bad.size());
    bad[firstPayload] ^= 0x01;
    const Status st = rejects(std::move(bad));
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.toString();
  }
  {  // trailing garbage -> size mismatch
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);
    (void)rejects(std::move(bad));
  }

  // And the pristine buffer still loads after all that.
  EXPECT_NE(reload(*flat), nullptr);
}

TEST(FlatNetwork, CampaignFlattensOncePerEngine) {
  const Network net = makeFig1Network();
  obs::enable();
  const obs::Snapshot before = obs::snapshot();
  campaign::CampaignEngine engine(net);
  (void)engine.run();
  (void)engine.run();
  const obs::Snapshot after = obs::snapshot();
  obs::disable();
  EXPECT_EQ(counterValue(after, "flat.flatten_calls") -
                counterValue(before, "flat.flatten_calls"),
            1u)
      << "the campaign must lower once at construction and share the "
         "arena across runs";
}

TEST(FlatNetwork, DeserializedEngineMatchesDirectLowering) {
  Rng rng(29);
  const Network net = test::randomNetwork(rng);
  const auto flat = FlatNetwork::lower(net);
  const auto loaded = reload(*flat);
  ASSERT_NE(loaded, nullptr);

  const diag::BatchedSyndromeEngine direct(flat);
  const diag::BatchedSyndromeEngine reloaded(loaded);
  const fault::FaultUniverse universe(net);
  for (const fault::Fault& f : universe.faults())
    EXPECT_EQ(direct.row(&f, 0), reloaded.row(&f, 0))
        << fault::describe(net, f);
}

TEST(FlatNetwork, HugeShapesAreThreadCountInvariantWithinMemoryBudget) {
  // Both HUGE_* shapes rescaled to 120,000 segments: (15,000 SIBs,
  // fanout 16) and (7,500 SIBs, fanout 64).  The arena, the damages, 32
  // sampled syndrome rows and 64 campaign verdicts must not depend on
  // the pool width, and the process peak RSS must stay within the
  // 2 GiB arena budget the scalability tier promises.
  for (benchgen::BenchmarkSpec spec : benchgen::hugeBenchmarks()) {
    spec.muxes = spec.muxes * 120'000 / spec.segments;
    spec.segments = 120'000;
    const Network net = benchgen::buildBenchmark(spec);
    Rng rng(1);
    const CriticalitySpec cspec = randomSpec(net, {}, rng);

    const auto lower = [&] { return FlatNetwork::lower(net); };
    const auto flat = test::withThreads(1, lower);
    EXPECT_TRUE(*flat == *test::withThreads(4, lower)) << spec.name;

    const crit::CriticalityAnalyzer analyzer(net, cspec);
    const auto damages = [&] { return analyzer.run().damages(); };
    EXPECT_EQ(test::withThreads(1, damages), test::withThreads(4, damages))
        << spec.name;

    const auto sampled = [&] { return test::sampledStages(flat, net, 32, 64); };
    const test::SampledStages serial = test::withThreads(1, sampled);
    EXPECT_EQ(serial.rows.size(), 32u) << spec.name;
    EXPECT_EQ(serial.verdicts.size(), 64u) << spec.name;
    EXPECT_TRUE(serial == test::withThreads(4, sampled)) << spec.name;
  }
  rusage ru{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
  EXPECT_LT(ru.ru_maxrss / 1024, 2048) << "peak RSS in MiB";
}

}  // namespace
}  // namespace rrsn::rsn
