// Shared helpers for the test suite: a random hierarchical RSN generator
// (for property tests comparing the fast analysis against the oracles),
// a random-spec shortcut, the brute-force criticality oracle, a
// series-parallel recognizer, a pool-width scope and the sampled
// reference stages the determinism tests compare.
#pragma once

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/batched.hpp"
#include "fault/effects.hpp"
#include "fault/fault.hpp"
#include "graph/vertex.hpp"
#include "rsn/builder.hpp"
#include "rsn/flat.hpp"
#include "rsn/network.hpp"
#include "rsn/spec.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace rrsn::test {

/// Runs fn with the pool fixed at `n` workers, then restores the
/// previous width so tests stay order-independent.
template <typename Fn>
auto withThreads(std::size_t n, Fn&& fn) {
  const std::size_t saved = threadCount();
  setThreadCount(n);
  auto result = fn();
  setThreadCount(saved);
  return result;
}

/// Parameters of the random network generator.
struct RandomNetOptions {
  std::size_t targetSegments = 30;
  double sibProbability = 0.4;   ///< chance a unit is a SIB vs a plain mux
  double nestProbability = 0.5;  ///< chance a mux/SIB content nests deeper
  std::uint32_t maxSegmentLength = 6;
  std::uint32_t maxMuxBranches = 3;
};

/// Builds a random valid hierarchical SP network.  Deterministic in rng.
inline rsn::Network randomNetwork(Rng& rng, const RandomNetOptions& opt = {}) {
  rsn::NetworkBuilder b("random");
  std::size_t segCounter = 0;
  std::size_t muxCounter = 0;

  const auto makeSegment = [&](bool withInstrument) {
    const std::string id = std::to_string(segCounter++);
    const auto len = static_cast<std::uint32_t>(
        rng.range(1, static_cast<std::int64_t>(opt.maxSegmentLength)));
    return b.segment("s" + id, len, withInstrument ? "i" + id : std::string{});
  };

  // Recursive unit builder: returns a handle, consuming budget.
  const auto unit = [&](auto&& self, std::size_t depth) -> rsn::NodeId {
    if (segCounter >= opt.targetSegments || depth > 4 ||
        !rng.chance(opt.nestProbability)) {
      return makeSegment(true);
    }
    // Chain of 1..3 sub-units.
    std::vector<rsn::NodeId> parts;
    const auto count = static_cast<std::size_t>(rng.range(1, 3));
    for (std::size_t k = 0; k < count && segCounter < opt.targetSegments; ++k)
      parts.push_back(self(self, depth + 1));
    if (parts.empty()) parts.push_back(makeSegment(true));
    const rsn::NodeId content =
        parts.size() == 1 ? parts[0] : b.chain(std::move(parts));
    if (rng.chance(opt.sibProbability)) {
      return b.sib("sib" + std::to_string(muxCounter++), content);
    }
    std::vector<rsn::NodeId> branches{content};
    const auto extra = static_cast<std::size_t>(
        rng.range(1, static_cast<std::int64_t>(opt.maxMuxBranches) - 1));
    for (std::size_t k = 0; k < extra; ++k) {
      branches.push_back(rng.chance(0.5) ? b.wire() : makeSegment(true));
    }
    return b.mux("m" + std::to_string(muxCounter++), std::move(branches));
  };

  std::vector<rsn::NodeId> top;
  top.push_back(makeSegment(false));  // leading config/dummy segment
  while (segCounter < opt.targetSegments) top.push_back(unit(unit, 0));
  b.setTop(b.chain(std::move(top)));
  return b.build();
}

/// Random spec with the paper's 70/70/10/10 recipe.
inline rsn::CriticalitySpec randomSpecFor(const rsn::Network& net, Rng& rng) {
  return rsn::randomSpec(net, rsn::SpecOptions{}, rng);
}

/// Criticality from the flat-graph fault effects, the oracle the fast
/// analyzer is checked against: every fault's loss is recomputed on the
/// arena, a segment's damage is its break's, and a mux's is the worst of
/// its stuck-at faults.  O(N * E) — small and medium networks only.
inline crit::CriticalityResult bruteForceAnalysis(
    const rsn::Network& net, const rsn::CriticalitySpec& spec) {
  const auto flat = rsn::FlatNetwork::lower(net);
  const fault::FaultUniverse universe(net);
  std::vector<std::uint64_t> d(net.primitiveCount(), 0);
  parallelFor(net.primitiveCount(), [&](std::size_t linear) {
    for (const fault::Fault& f : universe.faultsAt(net.refOf(linear))) {
      const std::uint64_t damage =
          fault::damageOfLoss(spec, fault::lossUnderFaultGraph(*flat, f));
      d[linear] = std::max(d[linear], damage);
    }
  });
  return crit::CriticalityResult(net, std::move(d));
}

using Arc = std::pair<graph::VertexId, graph::VertexId>;

/// True iff the directed multigraph on vertices [0, vertices) is
/// two-terminal series-parallel between source and sink (Def. 1): series
/// reduction (splice out a vertex with one predecessor and one
/// successor) and parallel reduction (merge duplicate edges), applied
/// until neither fits, leave exactly the edge source -> sink.
inline bool isTwoTerminalSp(std::size_t vertices, const std::vector<Arc>& edges,
                            graph::VertexId source, graph::VertexId sink) {
  // Sets merge parallel edges as they appear.
  std::vector<std::set<graph::VertexId>> out(vertices), in(vertices);
  for (const auto& [a, b] : edges) {
    out[a].insert(b);
    in[b].insert(a);
  }
  std::vector<bool> spliced(vertices, false);
  std::vector<graph::VertexId> work;
  for (graph::VertexId v = 0; v < vertices; ++v) work.push_back(v);
  while (!work.empty()) {
    const graph::VertexId v = work.back();
    work.pop_back();
    if (v == source || v == sink || spliced[v] || in[v].size() != 1 ||
        out[v].size() != 1)
      continue;
    const graph::VertexId p = *in[v].begin();
    const graph::VertexId s = *out[v].begin();
    if (p == v || p == s) return false;  // a cycle
    out[p].erase(v);
    in[s].erase(v);
    out[p].insert(s);
    in[s].insert(p);
    spliced[v] = true;
    work.push_back(p);
    work.push_back(s);
  }
  for (graph::VertexId v = 0; v < vertices; ++v)
    if (!spliced[v] && v != source && v != sink) return false;
  return in[source].empty() && out[sink].empty() &&
         out[source] == std::set<graph::VertexId>{sink};
}

/// The same test on the forward CSR of a lowered network.
inline bool isTwoTerminalSp(const rsn::FlatNetwork& flat) {
  std::vector<Arc> edges;
  for (graph::VertexId v = 0; v < flat.vertexCount(); ++v)
    for (std::uint32_t e = flat.fwdOffsets()[v]; e < flat.fwdOffsets()[v + 1];
         ++e)
      edges.emplace_back(v, flat.fwdEdges()[e].other);
  return isTwoTerminalSp(flat.vertexCount(), edges, flat.scanIn(),
                         flat.scanOut());
}

/// What the pool computes on a sample of the single-fault universe over
/// one shared arena: the reference engine's syndrome rows of `rows`
/// evenly spaced faults, and the campaign oracle's verdict on `verdicts`
/// evenly spaced faults (every instrument readable and writable, none,
/// or some).  Determinism tests compare it across pool widths.
struct SampledStages {
  enum class Access : std::uint8_t { Full, Degraded, Lost };

  std::vector<diag::Syndrome> rows;
  std::vector<Access> verdicts;

  bool operator==(const SampledStages&) const = default;
};

/// `count` evenly spaced indices over [0, universe), both ends included.
inline std::vector<std::size_t> evenSample(std::size_t universe,
                                           std::size_t count) {
  count = std::min(std::max<std::size_t>(count, 1), universe);
  std::vector<std::size_t> idx(count);
  for (std::size_t k = 0; k < count; ++k)
    idx[k] = count > 1 ? k * (universe - 1) / (count - 1) : universe / 2;
  return idx;
}

inline SampledStages sampledStages(
    const std::shared_ptr<const rsn::FlatNetwork>& flat,
    const rsn::Network& net, std::size_t rows, std::size_t verdicts) {
  const fault::FaultUniverse universe(net);
  const std::size_t instruments = net.instruments().size();
  const diag::BatchedSyndromeEngine engine(flat);
  SampledStages out;

  const std::vector<std::size_t> rowSample = evenSample(universe.size(), rows);
  out.rows.resize(rowSample.size());
  parallelForChunks(rowSample.size(), [&](std::size_t begin, std::size_t end,
                                          std::size_t worker) {
    for (std::size_t k = begin; k < end; ++k)
      out.rows[k] = engine.row(&universe.faults()[rowSample[k]], worker);
  });

  const std::vector<std::size_t> verdictSample =
      evenSample(universe.size(), verdicts);
  out.verdicts.resize(verdictSample.size());
  parallelForChunks(verdictSample.size(), [&](std::size_t begin,
                                              std::size_t end,
                                              std::size_t worker) {
    for (std::size_t k = begin; k < end; ++k) {
      const campaign::Expectation e = campaign::expectedAccessibility(
          engine, instruments, universe.faults()[verdictSample[k]], worker);
      const std::size_t live = e.observable.count() + e.settable.count();
      out.verdicts[k] = live == 2 * instruments ? SampledStages::Access::Full
                        : live == 0             ? SampledStages::Access::Lost
                                    : SampledStages::Access::Degraded;
    }
  });
  return out;
}

}  // namespace rrsn::test
