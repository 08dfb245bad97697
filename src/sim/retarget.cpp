#include "sim/retarget.hpp"

#include <algorithm>
#include <queue>

#include "obs/obs.hpp"

namespace rrsn::sim {

namespace {

/// One finished instrument access, for the observability layer: total
/// accesses, how many needed a fault-aware reroute, and the CSU-round
/// distribution per access.
void recordAccess(const RetargetResult& res) {
  static const obs::MetricId kAccesses = obs::counter("sim.accesses");
  static const obs::MetricId kReroutes = obs::counter("sim.reroutes");
  static const obs::MetricId kRounds = obs::histogram("sim.rounds_per_access");
  obs::count(kAccesses);
  if (res.rerouted) obs::count(kReroutes);
  obs::sample(kRounds, res.rounds);
}

using Edge = rsn::FlatNetwork::Edge;

/// Edge admissibility under a set of simultaneous faults: a stuck mux
/// admits an edge into it only if the stuck branch is in the edge's
/// branch span (every stuck fault is checked); broken segments' vertices
/// are impassable unless `allowBreak`.
struct FaultEdges {
  rsn::FlatNetwork::Span<std::uint32_t> pool;
  std::vector<graph::VertexId> broken;
  /// (mux, stuck branch) per stuck fault.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stuck;

  FaultEdges(const rsn::FlatNetwork& flat,
             const std::vector<fault::Fault>& faults, bool allowBreak)
      : pool(flat.branchPool()) {
    for (const fault::Fault& f : faults) {
      if (f.kind == fault::FaultKind::SegmentBreak) {
        if (!allowBreak) broken.push_back(flat.segmentVertex()[f.prim]);
      } else {
        stuck.emplace_back(f.prim, f.stuckBranch);
      }
    }
  }

  bool blocksVertex(graph::VertexId v) const {
    return std::find(broken.begin(), broken.end(), v) != broken.end();
  }

  /// `e` is an entry of vertex `at`'s forward or backward CSR row.
  bool allows(graph::VertexId at, const Edge& e) const {
    if (blocksVertex(at) || blocksVertex(e.other)) return false;
    for (const auto& [mux, branch] : stuck) {
      if (e.mux != mux) continue;
      const std::uint32_t* span = pool.data();
      if (std::find(span + e.branchBegin, span + e.branchEnd, branch) ==
          span + e.branchEnd)
        return false;
    }
    return true;
  }
};

/// BFS with parent pointers between two vertices of the scan graph,
/// ignoring faults: the nominal recipe's path.
std::optional<std::vector<graph::VertexId>> findPath(
    const rsn::FlatNetwork& flat, graph::VertexId from, graph::VertexId to) {
  const auto offsets = flat.fwdOffsets();
  const auto row = flat.fwdEdges();
  std::vector<graph::VertexId> parent(flat.vertexCount(), graph::kNoVertex);
  std::vector<bool> seen(flat.vertexCount(), false);
  std::queue<graph::VertexId> work;
  seen[from] = true;
  work.push(from);
  while (!work.empty() && !seen[to]) {
    const graph::VertexId v = work.front();
    work.pop();
    for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const graph::VertexId s = row[i].other;
      if (seen[s]) continue;
      seen[s] = true;
      parent[s] = v;
      work.push(s);
    }
  }
  if (!seen[to]) return std::nullopt;
  std::vector<graph::VertexId> path;
  for (graph::VertexId v = to; v != graph::kNoVertex; v = parent[v])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Bounded enumeration of distinct simple paths from `from` to `to`
/// honoring the fault — the search space of the graceful-degradation
/// reroute.  The scan graph is a DAG; vertices that cannot reach `to`
/// under the fault are pruned up front, so every DFS descent yields a
/// path and the work is O(limit * pathLength * degree).  Paths come out
/// in deterministic successor order, shortest-ish first is NOT
/// guaranteed — callers verify each candidate end to end anyway.
std::vector<std::vector<graph::VertexId>> enumeratePaths(
    const rsn::FlatNetwork& flat, const std::vector<fault::Fault>& faults,
    graph::VertexId from, graph::VertexId to, bool allowBreak,
    std::size_t limit) {
  std::vector<std::vector<graph::VertexId>> out;
  if (limit == 0) return out;
  const FaultEdges edges(flat, faults, allowBreak);
  if (edges.blocksVertex(from) || edges.blocksVertex(to)) return out;

  // Reverse reachability: canReach[v] iff an admissible path v -> to
  // exists.  Walks the backward CSR, whose entries describe pred -> v.
  std::vector<bool> canReach(flat.vertexCount(), false);
  {
    const auto offsets = flat.bwdOffsets();
    const auto row = flat.bwdEdges();
    std::queue<graph::VertexId> work;
    canReach[to] = true;
    work.push(to);
    while (!work.empty()) {
      const graph::VertexId v = work.front();
      work.pop();
      for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const graph::VertexId p = row[i].other;
        if (!edges.allows(v, row[i]) || canReach[p]) continue;
        canReach[p] = true;
        work.push(p);
      }
    }
  }
  if (!canReach[from]) return out;

  // Iterative DFS over admissible successors that can still reach `to`.
  const auto offsets = flat.fwdOffsets();
  const auto row = flat.fwdEdges();
  struct Frame {
    graph::VertexId vertex;
    std::uint32_t nextEdge;
  };
  std::vector<Frame> stack{{from, offsets[from]}};
  std::vector<graph::VertexId> prefix{from};
  while (!stack.empty() && out.size() < limit) {
    const std::size_t idx = stack.size() - 1;  // index: push_back below
    const graph::VertexId v = stack[idx].vertex;  // invalidates references
    if (v == to) {
      out.push_back(prefix);
      stack.pop_back();
      prefix.pop_back();
      continue;
    }
    bool descended = false;
    while (stack[idx].nextEdge < offsets[v + 1]) {
      const Edge& e = row[stack[idx].nextEdge++];
      if (!edges.allows(v, e) || !canReach[e.other]) continue;
      stack.push_back({e.other, offsets[e.other]});
      prefix.push_back(e.other);
      descended = true;
      break;
    }
    if (!descended) {
      stack.pop_back();
      prefix.pop_back();
    }
  }
  return out;
}

/// Derives the mux selections that make the structural walk follow a
/// concrete graph path.  Parallel wire branches exit at the same
/// fan-out vertex, so a join edge can correspond to several branches;
/// a fault-aware caller passes `faults` so that a stuck mux is asked
/// for the branch it is actually stuck at whenever that branch matches
/// the walk (any other demand could never be realized).
std::map<rsn::MuxId, std::uint32_t> selectionsFromPath(
    const rsn::FlatNetwork& flat, const std::vector<graph::VertexId>& path,
    const std::vector<fault::Fault>& faults) {
  std::map<rsn::MuxId, std::uint32_t> sel;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const rsn::MuxId m = flat.muxOfVertex()[path[k]];
    if (m == rsn::kNone) continue;
    const graph::VertexId pred = path[k - 1];
    const std::uint32_t arity = flat.muxArity()[m];
    const graph::VertexId* exits =
        flat.muxBranchExit().data() + flat.muxBranchOffsets()[m];
    std::uint32_t chosen = arity;
    for (const fault::Fault& f : faults) {
      if (f.kind == fault::FaultKind::MuxStuck && f.prim == m &&
          f.stuckBranch < arity && exits[f.stuckBranch] == pred) {
        chosen = f.stuckBranch;
        break;
      }
    }
    for (std::uint32_t b = 0; chosen == arity && b < arity; ++b)
      if (exits[b] == pred) chosen = b;
    if (chosen != arity) sel[m] = chosen;
  }
  return sel;
}

/// Joins a prefix (scan-in -> seg) and suffix (seg -> scan-out) into the
/// mux selections realizing the combined walk.
std::map<rsn::MuxId, std::uint32_t> joinSelections(
    const rsn::FlatNetwork& flat, const std::vector<graph::VertexId>& prefix,
    const std::vector<graph::VertexId>& suffix,
    const std::vector<fault::Fault>& faults) {
  std::vector<graph::VertexId> whole = prefix;
  whole.insert(whole.end(), suffix.begin() + 1, suffix.end());
  return selectionsFromPath(flat, whole, faults);
}

bool containsBreak(const std::vector<fault::Fault>& faults) {
  for (const fault::Fault& f : faults)
    if (f.kind == fault::FaultKind::SegmentBreak) return true;
  return false;
}

bool breaksSegment(const std::vector<fault::Fault>& faults,
                   rsn::SegmentId seg) {
  for (const fault::Fault& f : faults)
    if (f.kind == fault::FaultKind::SegmentBreak && f.prim == seg) return true;
  return false;
}

}  // namespace

// Marker value planted into / written to an instrument segment:
// 1,0,1,0,... is distinguishable from both the all-zero reset image and
// from X poisoning.
std::vector<Bit> accessMarker(std::uint32_t length) {
  std::vector<Bit> out(length);
  for (std::uint32_t k = 0; k < length; ++k)
    out[k] = (k % 2 == 0) ? Bit::One : Bit::Zero;
  return out;
}

bool replayPatterns(ScanSimulator& sim, const RetargetResult& recorded) {
  try {
    for (const auto& [mux, branch] : recorded.externalSelections)
      sim.setExternalAddress(mux, branch);
    for (const ScanPattern& pat : recorded.patterns) {
      const auto path = sim.activePath();
      if (!path || path->totalBits != pat.shiftIn.size()) return false;
      const auto out = sim.csu(pat.shiftIn);
      if (out != pat.shiftOut) return false;
    }
  } catch (const Error&) {
    return false;  // divergent topology: the recipe does not even apply
  }
  return true;
}

Retargeter::Retargeter(ScanSimulator& sim, const rsn::FlatNetwork& flat,
                       RetargetOptions options)
    : sim_(&sim), flat_(&flat), options_(options) {
  const rsn::Network& net = sim.network();
  RRSN_CHECK(flat.segmentCount() == net.segments().size() &&
                 flat.muxCount() == net.muxes().size() &&
                 flat.instrumentCount() == net.instruments().size(),
             "retargeter arena is not a lowering of the simulated network");
  maxRounds_ = options_.maxRounds != 0 ? options_.maxRounds
                                       : net.stats().maxMuxNesting + 2;
}

RetargetResult Retargeter::realizeSelections(const Selections& selections) {
  const rsn::Network& net = sim_->network();
  RetargetResult res;

  // TAP-controlled muxes are set directly; segment-controlled ones need
  // their control register written through the RSN.
  std::map<rsn::SegmentId, std::uint32_t> writes;
  for (const auto& [m, b] : selections) {
    const rsn::SegmentId ctrl = net.mux(m).controlSegment;
    if (ctrl == rsn::kNone) {
      sim_->setExternalAddress(m, b);
      res.externalSelections.emplace_back(m, b);
      continue;
    }
    const std::uint32_t len = net.segment(ctrl).length;
    if (len < 32 && b >= (1U << len)) {
      res.success = false;  // selection not representable in the register
      return res;
    }
    const auto [it, inserted] = writes.emplace(ctrl, b);
    if (!inserted && it->second != b) {
      res.success = false;  // conflicting demands on one control register
      return res;
    }
  }

  const auto done = [&]() {
    for (const auto& [m, b] : selections)
      if (sim_->muxSelection(m) != b) return false;
    return true;
  };

  for (std::size_t round = 0; round <= maxRounds_; ++round) {
    if (done()) {
      res.success = true;
      return res;
    }
    const auto path = sim_->activePath();
    if (!path) return res;  // an address became X — dead end

    // Desired image: control registers get their target value, all other
    // segments recirculate (X cells are refreshed as 0 — we drive the
    // scan-in, so we never have to feed X).
    std::vector<Bit> image;
    image.reserve(path->totalBits);
    for (rsn::SegmentId s : path->segments) {
      const std::uint32_t len = net.segment(s).length;
      const auto it = writes.find(s);
      if (it != writes.end()) {
        for (std::uint32_t k = 0; k < len; ++k) {
          const bool bit = k < 32 && ((it->second >> k) & 1U) != 0;
          image.push_back(bitOf(bit));
        }
      } else {
        for (Bit b : sim_->segmentUpdate(s))
          image.push_back(b == Bit::X ? Bit::Zero : b);
      }
    }
    const auto in = ScanSimulator::shiftInForImage(image);
    const auto out = sim_->csu(in);
    res.patterns.push_back({in, out});
    ++res.rounds;
  }
  res.success = done();
  return res;
}

RetargetResult Retargeter::readInstrument(rsn::InstrumentId i) {
  RRSN_OBS_SPAN("sim.read");
  const rsn::Network& net = sim_->network();
  return access(i, accessMarker(net.segment(net.instrument(i).segment).length),
                /*isRead=*/true);
}

RetargetResult Retargeter::writeInstrument(rsn::InstrumentId i,
                                           const std::vector<Bit>& value) {
  RRSN_OBS_SPAN("sim.write");
  const rsn::Network& net = sim_->network();
  RRSN_CHECK(value.size() == net.segment(net.instrument(i).segment).length,
             "write value length mismatch");
  return access(i, value, /*isRead=*/false);
}

/// Recipes (mux-selection maps) are tried in a fixed order, each as soon
/// as it is planned.  First the *nominal* recipe: the shortest
/// fault-unaware path, exactly what a controller without fault knowledge
/// would apply.  Only once it has failed are fault-aware reroutes planned
/// from the bounded path enumeration; the second strategy additionally
/// tolerates broken segments on the side the payload never crosses (the
/// scan-in side for reads, the scan-out side for writes).  A recipe equal
/// to an earlier one is skipped, and at most 1 + maxReroutes are tried.
RetargetResult Retargeter::access(rsn::InstrumentId i,
                                  const std::vector<Bit>& payload,
                                  bool isRead) {
  const rsn::Network& net = sim_->network();
  const rsn::SegmentId seg = net.instrument(i).segment;
  const graph::VertexId segV = flat_->segmentVertex()[seg];
  const std::vector<fault::Fault> faults = sim_->injectedFaults();

  RetargetResult result;
  std::vector<Selections> tried;
  // Applies one recipe, then moves the payload; true once the access
  // worked, with `result` holding it.
  const auto attempt = [&](Selections selections, bool rerouted) {
    if (std::find(tried.begin(), tried.end(), selections) != tried.end())
      return false;
    // A failed attempt can leave X in address registers (a shift across
    // a broken segment poisons everything downstream, including SIB
    // registers that sit behind their content), with no scan-accessible
    // recovery.  Power-cycle between recipes: each one starts from the
    // reset image with only the physical defects persisting, which also
    // makes the recorded patterns replayable from power-on.
    if (!tried.empty()) {
      sim_->reset();
      sim_->injectFaults(faults);
    }
    tried.push_back(std::move(selections));
    RetargetResult res = realizeSelections(tried.back());
    if (!res.success) return false;
    const auto path = sim_->activePath();
    const auto offset =
        path ? ScanSimulator::offsetOf(net, *path, seg) : std::nullopt;
    if (!offset) return false;

    std::vector<Bit> in;
    if (isRead) {
      // The instrument presents the marker; zeros push it to scan-out.
      sim_->setInstrumentValue(i, payload);
      in.assign(path->totalBits, Bit::Zero);
    } else {
      // Image: keep every segment's configuration, place the value at seg.
      std::vector<Bit> image;
      image.reserve(path->totalBits);
      for (rsn::SegmentId s : path->segments) {
        if (s == seg) {
          image.insert(image.end(), payload.begin(), payload.end());
        } else {
          for (Bit b : sim_->segmentUpdate(s))
            image.push_back(b == Bit::X ? Bit::Zero : b);
        }
      }
      in = ScanSimulator::shiftInForImage(image);
    }
    const auto out = sim_->csu(in);
    res.patterns.push_back({in, out});
    ++res.rounds;

    // A read needs the marker at scan-out unpoisoned (a broken segment
    // on the scan-in side only shifts garbage in behind it); a write
    // needs the update register to hold the value exactly.
    if (isRead) {
      for (std::size_t k = 0; k < payload.size(); ++k)
        if (out[path->totalBits - 1 - (*offset + k)] != payload[k])
          return false;
    } else if (sim_->segmentUpdate(seg) != payload) {
      return false;
    }
    res.rerouted = rerouted;
    result = std::move(res);
    return true;
  };

  // `stop` ends the search: the access worked, the cap is spent, or the
  // instrument's own segment is broken (dead whatever the recipe).
  bool stop = breaksSegment(faults, seg);
  if (!stop) {  // the nominal recipe: paths and selections ignore faults
    const auto prefix = findPath(*flat_, flat_->scanIn(), segV);
    const auto suffix = findPath(*flat_, segV, flat_->scanOut());
    stop = prefix && suffix &&
           attempt(joinSelections(*flat_, *prefix, *suffix, {}), false);
  }
  // Reroutes, planned only now that the nominal recipe has failed.
  const std::size_t cap = options_.maxReroutes;
  for (const bool tolerateBreak : {false, true}) {
    if (stop || faults.empty() || (tolerateBreak && !containsBreak(faults)))
      break;
    const auto prefixes = enumeratePaths(*flat_, faults, flat_->scanIn(), segV,
                                         tolerateBreak && isRead, cap);
    const auto suffixes = enumeratePaths(*flat_, faults, segV,
                                         flat_->scanOut(),
                                         tolerateBreak && !isRead, cap);
    for (std::size_t p = 0; p < prefixes.size() && !stop; ++p) {
      for (std::size_t q = 0; q < suffixes.size() && !stop; ++q) {
        stop = tried.size() > cap ||
               attempt(joinSelections(*flat_, prefixes[p], suffixes[q], faults),
                       true);
      }
    }
  }
  recordAccess(result);
  return result;
}

}  // namespace rrsn::sim
