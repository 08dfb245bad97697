#include "verify/certifier.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "diag/batched.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace rrsn::verify {

namespace {

const obs::MetricId kCertifyCalls = obs::counter("verify.certify_calls");
const obs::MetricId kRowsFast = obs::counter("verify.rows_fast");
const obs::MetricId kRowsLocal = obs::counter("verify.rows_local");
const obs::MetricId kRowsFixpoint = obs::counter("verify.rows_fixpoint");
const obs::MetricId kCellsUnknown = obs::counter("verify.cells_unknown");
const obs::MetricId kRowsCrossChecked =
    obs::counter("verify.rows_crosschecked");
const obs::MetricId kUniverseFaults = obs::histogram("verify.universe_faults");

constexpr std::uint16_t packCell(Verdict r, WitnessKind rk, Verdict w,
                                 WitnessKind wk) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(r) | (static_cast<std::uint16_t>(w) << 2) |
      (static_cast<std::uint16_t>(rk) << 4) |
      (static_cast<std::uint16_t>(wk) << 8));
}

constexpr std::uint16_t kUnknownCell =
    packCell(Verdict::Unknown, WitnessKind::Budget, Verdict::Unknown,
             WitnessKind::Budget);

/// Nearest-common-dominator walk of the Cooper–Harvey–Kennedy scheme,
/// parameterized on the rank order (topological for dominators,
/// reverse-topological for post-dominators).
graph::VertexId intersect(graph::VertexId a, graph::VertexId b,
                          const std::vector<graph::VertexId>& idom,
                          const std::vector<std::uint32_t>& rank) {
  while (a != b) {
    while (rank[a] > rank[b]) a = idom[a];
    while (rank[b] > rank[a]) b = idom[b];
  }
  return a;
}

/// DFS entry/exit numbering of an idom tree: `a` dominates `v` iff
/// tin[a] <= tin[v] && tout[v] <= tout[a].  Vertices outside the tree
/// keep tin = 0, which no ancestor test matches.
void domIntervals(const std::vector<graph::VertexId>& idom,
                  graph::VertexId root, std::vector<std::uint32_t>& tin,
                  std::vector<std::uint32_t>& tout) {
  const std::size_t vertices = idom.size();
  tin.assign(vertices, 0);
  tout.assign(vertices, 0);
  std::vector<std::uint32_t> offsets(vertices + 1, 0);
  for (std::size_t v = 0; v < vertices; ++v)
    if (v != root && idom[v] != graph::kNoVertex) ++offsets[idom[v] + 1];
  for (std::size_t v = 0; v < vertices; ++v) offsets[v + 1] += offsets[v];
  std::vector<graph::VertexId> children(offsets[vertices]);
  std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t v = 0; v < vertices; ++v)
    if (v != root && idom[v] != graph::kNoVertex)
      children[fill[idom[v]]++] = static_cast<graph::VertexId>(v);

  std::uint32_t clock = 0;
  std::vector<std::pair<graph::VertexId, std::uint32_t>> stack;
  stack.reserve(64);
  stack.emplace_back(root, offsets[root]);
  tin[root] = ++clock;
  while (!stack.empty()) {
    const graph::VertexId v = stack.back().first;
    const std::uint32_t next = stack.back().second;
    if (next < offsets[v + 1]) {
      ++stack.back().second;  // advance before the push invalidates back()
      const graph::VertexId c = children[next];
      tin[c] = ++clock;
      stack.emplace_back(c, offsets[c]);
    } else {
      tout[v] = clock;
      stack.pop_back();
    }
  }
}

/// The keys of `byEntry` (sorted `entry << 32 | instrument`) whose DFS
/// entry lies in [first, last]: with first = tin(v) + 1 and last =
/// tout(v), the instruments strictly below v.
std::span<const std::uint64_t> entriesIn(
    const std::vector<std::uint64_t>& byEntry, std::uint32_t first,
    std::uint32_t last) {
  const auto at = [&](std::uint64_t entry) {
    return std::lower_bound(byEntry.begin(), byEntry.end(), entry << 32);
  };
  return {at(first), at(std::uint64_t{last} + 1)};
}

}  // namespace

char toChar(Verdict v) {
  switch (v) {
    case Verdict::Proven:
      return 'P';
    case Verdict::Vulnerable:
      return 'V';
    case Verdict::Unknown:
      return 'U';
  }
  return '?';
}

Verdict verdictFromChar(char c) {
  switch (c) {
    case 'P':
      return Verdict::Proven;
    case 'V':
      return Verdict::Vulnerable;
    case 'U':
      return Verdict::Unknown;
    default:
      throw Error(std::string("unknown verdict character '") + c + "'");
  }
}

const char* witnessKindName(WitnessKind k) {
  switch (k) {
    case WitnessKind::None:
      return "none";
    case WitnessKind::NonCut:
      return "non-cut";
    case WitnessKind::StuckBenign:
      return "stuck-benign";
    case WitnessKind::PathStrict:
      return "path-strict";
    case WitnessKind::PathCleanSuffix:
      return "path-clean-suffix";
    case WitnessKind::PathDepthBounded:
      return "path-depth-bounded";
    case WitnessKind::SelfFault:
      return "self-fault";
    case WitnessKind::Unreachable:
      return "unreachable";
    case WitnessKind::DominatorCut:
      return "dominator-cut";
    case WitnessKind::ControlCollapse:
      return "control-collapse";
    case WitnessKind::GuardCut:
      return "guard-cut";
    case WitnessKind::Budget:
      return "budget";
  }
  return "?";
}

bool crossCheckDefault() {
  const char* text = std::getenv("RRSN_CERTIFY_MODE");
  if (text == nullptr || *text == '\0') return false;
  const std::string v(text);
  if (v == "fast") return false;
  if (v == "checked") return true;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "rrsn: RRSN_CERTIFY_MODE='%s' is not fast|checked; "
                 "using 'fast'\n",
                 text);
  }
  return false;
}

// --------------------------------------------------------------- result

Witness CertificationResult::witnessAt(std::size_t faultIdx, std::size_t inst,
                                       bool isRead) const {
  const std::uint16_t c = cell(faultIdx, inst);
  const auto kind =
      static_cast<WitnessKind>((c >> (isRead ? 4 : 8)) & 0xFu);
  std::uint32_t subject = rsn::kNone;
  switch (kind) {
    case WitnessKind::SelfFault:
    case WitnessKind::DominatorCut:
    case WitnessKind::GuardCut:
      subject = universe[faultIdx].prim;
      break;
    case WitnessKind::Unreachable:
      subject = instrumentSegment[inst];
      break;
    case WitnessKind::ControlCollapse:
      subject = collapsedMux[faultIdx];
      break;
    default:
      break;
  }
  return {kind, subject};
}

Witness CertificationResult::readWitness(std::size_t faultIdx,
                                         std::size_t inst) const {
  return witnessAt(faultIdx, inst, /*isRead=*/true);
}

Witness CertificationResult::writeWitness(std::size_t faultIdx,
                                          std::size_t inst) const {
  return witnessAt(faultIdx, inst, /*isRead=*/false);
}

std::string CertificationResult::readRow(std::size_t faultIdx) const {
  std::string row(instruments, '?');
  for (std::size_t i = 0; i < instruments; ++i) row[i] = toChar(read(faultIdx, i));
  return row;
}

std::string CertificationResult::writeRow(std::size_t faultIdx) const {
  std::string row(instruments, '?');
  for (std::size_t i = 0; i < instruments; ++i)
    row[i] = toChar(write(faultIdx, i));
  return row;
}

CertifySummary CertificationResult::summary() const {
  CertifySummary s;
  s.instruments = instruments;
  s.faults = universe.size();
  s.reachableInstruments = reachable.count();
  s.fastRows = fastRowCount;
  s.localRows = localRowCount;
  s.fixpointRows = fixpointRowCount;
  s.crossCheckedRows = crossCheckedRowCount;
  for (std::size_t fi = 0; fi < universe.size(); ++fi) {
    for (std::size_t i = 0; i < instruments; ++i) {
      const std::uint16_t c = cell(fi, i);
      switch (static_cast<Verdict>(c & 3u)) {
        case Verdict::Proven:
          ++s.provenRead;
          break;
        case Verdict::Vulnerable:
          ++s.vulnerableRead;
          break;
        case Verdict::Unknown:
          ++s.unknownRead;
          break;
      }
      switch (static_cast<Verdict>((c >> 2) & 3u)) {
        case Verdict::Proven:
          ++s.provenWrite;
          break;
        case Verdict::Vulnerable:
          ++s.vulnerableWrite;
          break;
        case Verdict::Unknown:
          ++s.unknownWrite;
          break;
      }
      if (static_cast<WitnessKind>((c >> 4) & 0xFu) ==
          WitnessKind::ControlCollapse)
        ++s.controlCollapseCells;
      if (static_cast<WitnessKind>((c >> 8) & 0xFu) ==
          WitnessKind::ControlCollapse)
        ++s.controlCollapseCells;
    }
  }
  return s;
}

// ------------------------------------------------------------- scratch

struct Certifier::Scratch {
  std::vector<std::uint64_t> sel;
  DynamicBitset inStrict, outStrict, inRead, outWrite;
  DynamicBitset cleanToOut, cleanFromB, bwdFromB;
  std::vector<graph::VertexId> queue;
  DynamicBitset obs, set;
  std::vector<std::uint8_t> obsMode, setMode;  ///< WitnessKind per inst
  std::uint32_t collapsedMux = rsn::kNone;
  DynamicBitset walkMarks;  ///< all clear between local-tier rows
  std::vector<graph::VertexId> walk;

  void init(const rsn::FlatNetwork& flat) {
    const std::size_t vertices = flat.vertexCount();
    const std::size_t instruments = flat.instrumentCount();
    sel.assign(flat.selWordCount(), 0);
    inStrict = DynamicBitset(vertices);
    outStrict = DynamicBitset(vertices);
    inRead = DynamicBitset(vertices);
    outWrite = DynamicBitset(vertices);
    cleanToOut = DynamicBitset(vertices);
    cleanFromB = DynamicBitset(vertices);
    bwdFromB = DynamicBitset(vertices);
    obs = DynamicBitset(instruments);
    set = DynamicBitset(instruments);
    obsMode.assign(instruments, 0);
    setMode.assign(instruments, 0);
    walkMarks = DynamicBitset(vertices);
  }
};

/// Kahn topological order of the full data graph (FIFO seeded in id
/// order — deterministic) with each vertex's rank in it and in its
/// reverse.  Any topological order of the DAG orders every subgraph, so
/// one order serves every level's dominator passes.
struct Certifier::TopoOrder {
  std::vector<graph::VertexId> order;
  std::vector<std::uint32_t> rank, reverseRank;
};

// ----------------------------------------------------------- certifier

Certifier::Certifier(const rsn::Network& net)
    : Certifier(rsn::FlatNetwork::lower(net)) {}

Certifier::Certifier(std::shared_ptr<const rsn::FlatNetwork> flat)
    : flat_(std::move(flat)) {
  RRSN_CHECK(flat_ != nullptr, "cannot certify a null flat view");
  buildBase();
}

void Certifier::sweep(bool forward, const std::uint64_t* sel, bool tolerate,
                      graph::VertexId brokenV, graph::VertexId source,
                      bool avoidCtrlRegs, DynamicBitset& visited,
                      std::vector<graph::VertexId>& queue) const {
  // A plain FIFO worklist — deliberately *not* the oracle's direction-
  // optimizing hybrid BFS.  Both compute the same traversal-order-
  // independent closure, so the engines stay independent implementations
  // of one definition (the cross-check leans on exactly that).
  const rsn::FlatNetwork& flat = *flat_;
  const auto outOff = forward ? flat.fwdOffsets() : flat.bwdOffsets();
  const auto outEdges = forward ? flat.fwdEdges() : flat.bwdEdges();
  const auto ctrlReg = flat.ctrlRegVertex();
  if (source == graph::kNoVertex)
    source = forward ? flat.scanIn() : flat.scanOut();
  visited.clearAll();
  visited.set(source);
  queue.clear();
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const graph::VertexId v = queue[head];
    for (std::uint32_t i = outOff[v]; i < outOff[v + 1]; ++i) {
      const rsn::FlatNetwork::Edge& e = outEdges[i];
      const graph::VertexId u = e.other;
      if (visited.test(u)) continue;
      if (!tolerate && u == brokenV) continue;
      if (avoidCtrlRegs && ctrlReg[u] != 0) continue;
      if (!flat.edgeOpen(e, sel)) continue;
      visited.set(u);
      queue.push_back(u);
    }
  }
}

bool Certifier::controlFixpoint(const fault::Fault* f, graph::VertexId brokenV,
                                std::uint64_t* sel, DynamicBitset& inStrict,
                                Scratch& s, std::size_t budget) const {
  // Shrink non-reset branches to those whose control register keeps a
  // strict scan-in path over the surviving branches.  The selectable
  // sets only ever shrink and branch 0 is never cleared, so the loop
  // terminates in at most (total selectable bits) iterations; `budget`
  // bounds it anyway and exhaustion surfaces as Unknown, never as a
  // wrong verdict.
  const std::uint32_t stuckMux =
      f != nullptr && f->kind == fault::FaultKind::MuxStuck ? f->prim
                                                           : rsn::kNone;
  const rsn::FlatNetwork& flat = *flat_;
  const auto ctrlMuxes = flat.ctrlMuxes();
  const auto muxCtrlVertex = flat.muxCtrlVertex();
  const auto muxArity = flat.muxArity();
  const auto selOffset = flat.selOffset();
  const auto representable = flat.representableWords();
  for (std::size_t iter = 0;; ++iter) {
    if (iter >= budget) return false;
    sweep(/*forward=*/true, sel, /*tolerate=*/false, brokenV,
          graph::kNoVertex, /*avoidCtrlRegs=*/false, inStrict, s.queue);
    bool changed = false;
    for (const std::uint32_t m : ctrlMuxes) {
      if (m == stuckMux) continue;
      const bool ctrlReach = inStrict.test(muxCtrlVertex[m]);
      const std::uint32_t off = selOffset[m];
      const std::size_t words =
          (static_cast<std::size_t>(muxArity[m]) + 63) / 64;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t mask = ctrlReach ? representable[off + w]
                                             : (w == 0 ? 1ULL : 0ULL);
        const std::uint64_t next = sel[off + w] & mask;
        if (next != sel[off + w]) {
          sel[off + w] = next;
          changed = true;
        }
      }
    }
    if (!changed) return true;
  }
}

Certifier::Level Certifier::analyzeLevel(std::uint64_t* sel,
                                         const TopoOrder& topo,
                                         Scratch& s) const {
  const rsn::FlatNetwork& flat = *flat_;
  const std::size_t vertices = flat.vertexCount();
  const graph::VertexId scanIn = flat.scanIn();
  const graph::VertexId scanOut = flat.scanOut();
  const auto fwdOffsets = flat.fwdOffsets();
  const auto fwdEdges = flat.fwdEdges();
  const auto bwdOffsets = flat.bwdOffsets();
  const auto bwdEdges = flat.bwdEdges();
  const auto instrumentVertex = flat.instrumentVertex();

  // Fault-free fixpoint: final selectable sets + strict reaches.
  DynamicBitset& inStrict = s.inStrict;
  DynamicBitset& outStrict = s.outStrict;
  const bool converged =
      controlFixpoint(nullptr, graph::kNoVertex, sel, inStrict, s,
                      static_cast<std::size_t>(-1));
  RRSN_CHECK(converged, "unbudgeted fixpoint must converge");
  sweep(/*forward=*/false, sel, /*tolerate=*/false, graph::kNoVertex,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, outStrict, s.queue);

  Level level;
  level.accessible = DynamicBitset(instrumentVertex.size());
  for (std::size_t i = 0; i < instrumentVertex.size(); ++i) {
    const graph::VertexId v = instrumentVertex[i];
    if (inStrict.test(v) && outStrict.test(v)) level.accessible.set(i);
  }

  // Immediate dominators over the *open* subgraph (edges admissible
  // under the final sets, vertices in the strict reach).  One
  // topo-ordered pass suffices on a DAG: every predecessor is final
  // before its successor is visited.
  std::vector<graph::VertexId> idom(vertices, graph::kNoVertex);
  idom[scanIn] = scanIn;
  for (const graph::VertexId v : topo.order) {
    if (v == scanIn || !inStrict.test(v)) continue;
    graph::VertexId cand = graph::kNoVertex;
    for (std::uint32_t i = bwdOffsets[v]; i < bwdOffsets[v + 1]; ++i) {
      const rsn::FlatNetwork::Edge& e = bwdEdges[i];
      const graph::VertexId u = e.other;
      if (!inStrict.test(u) || idom[u] == graph::kNoVertex) continue;
      if (!flat.edgeOpen(e, sel)) continue;
      cand = cand == graph::kNoVertex ? u : intersect(cand, u, idom, topo.rank);
    }
    idom[v] = cand;
  }

  // Immediate post-dominators: the same pass on the transposed open
  // subgraph, rooted at scan-out, in reverse topological order.
  std::vector<graph::VertexId> ipdom(vertices, graph::kNoVertex);
  ipdom[scanOut] = scanOut;
  for (std::size_t k = vertices; k-- > 0;) {
    const graph::VertexId v = topo.order[k];
    if (v == scanOut || !outStrict.test(v)) continue;
    graph::VertexId cand = graph::kNoVertex;
    for (std::uint32_t i = fwdOffsets[v]; i < fwdOffsets[v + 1]; ++i) {
      const rsn::FlatNetwork::Edge& e = fwdEdges[i];
      const graph::VertexId u = e.other;
      if (!outStrict.test(u) || ipdom[u] == graph::kNoVertex) continue;
      if (!flat.edgeOpen(e, sel)) continue;
      cand = cand == graph::kNoVertex
                 ? u
                 : intersect(cand, u, ipdom, topo.reverseRank);
    }
    ipdom[v] = cand;
  }

  domIntervals(idom, scanIn, level.domTin, level.domTout);
  domIntervals(ipdom, scanOut, level.pdomTin, level.pdomTout);

  // Control-critical set: every vertex that dominates some reachable
  // control register.  A break off this set provably leaves the control
  // fixpoint at this level's solution (the severed vertex cuts no
  // register's last scan-in path).  Chains share suffixes, so each walk
  // stops at the first already-marked vertex.
  level.ctrlCritical = DynamicBitset(vertices);
  for (const std::uint32_t m : flat.ctrlMuxes()) {
    graph::VertexId v = flat.muxCtrlVertex()[m];
    if (!inStrict.test(v)) continue;
    while (!level.ctrlCritical.test(v)) {
      level.ctrlCritical.set(v);
      if (v == scanIn) break;
      v = idom[v];
    }
  }
  return level;
}

void Certifier::buildBase() {
  const rsn::FlatNetwork& flat = *flat_;
  const std::size_t vertices = flat.vertexCount();
  const auto fwdOffsets = flat.fwdOffsets();
  const auto fwdEdges = flat.fwdEdges();
  const auto bwdOffsets = flat.bwdOffsets();
  const auto instrumentVertex = flat.instrumentVertex();
  Scratch s;
  s.init(flat);

  TopoOrder topo;
  std::vector<std::uint32_t> indeg(vertices);
  for (std::size_t v = 0; v < vertices; ++v)
    indeg[v] = bwdOffsets[v + 1] - bwdOffsets[v];
  topo.order.reserve(vertices);
  for (std::size_t v = 0; v < vertices; ++v)
    if (indeg[v] == 0) topo.order.push_back(static_cast<graph::VertexId>(v));
  for (std::size_t head = 0; head < topo.order.size(); ++head) {
    const graph::VertexId v = topo.order[head];
    for (std::uint32_t i = fwdOffsets[v]; i < fwdOffsets[v + 1]; ++i) {
      const graph::VertexId u = fwdEdges[i].other;
      if (--indeg[u] == 0) topo.order.push_back(u);
    }
  }
  RRSN_CHECK(topo.order.size() == vertices, "data graph must be acyclic");
  topo.rank.assign(vertices, 0);
  topo.reverseRank.assign(vertices, 0);
  for (std::size_t k = 0; k < vertices; ++k) {
    topo.rank[topo.order[k]] = static_cast<std::uint32_t>(k);
    topo.reverseRank[topo.order[k]] =
        static_cast<std::uint32_t>(vertices - 1 - k);
  }

  // The unbounded level, from the full selectable sets.
  sel0_.assign(flat.selWordCount(), 0);
  fault::baseSelectable(flat, nullptr, sel0_.data());
  levels_.push_back(analyzeLevel(sel0_.data(), topo, s));

  cleanToOut_ = DynamicBitset(vertices);
  sweep(/*forward=*/false, sel0_.data(), /*tolerate=*/true,
        graph::kNoVertex, graph::kNoVertex, /*avoidCtrlRegs=*/true,
        cleanToOut_, s.queue);

  for (std::size_t i = 0; i < instrumentVertex.size(); ++i) {
    if (!levels_[0].accessible.test(i)) continue;
    const graph::VertexId u = instrumentVertex[i];
    instByDom_.push_back(std::uint64_t{levels_[0].domTin[u]} << 32 | i);
    instByPdom_.push_back(std::uint64_t{levels_[0].pdomTin[u]} << 32 | i);
  }
  std::sort(instByDom_.begin(), instByDom_.end());
  std::sort(instByPdom_.begin(), instByPdom_.end());

  // One level per demand-depth limit that a local-tier break reads: a
  // break of a non-control, non-critical segment with an accessible
  // instrument below it in either tree (every other break is a fast or
  // a fixpoint row).  A limit that clears no branch maps to the
  // unbounded level, and limits with the same start share a level.
  std::vector<std::uint32_t> depths;
  for (rsn::SegmentId seg = 0; seg < flat.segmentCount(); ++seg) {
    const graph::VertexId v = flat.segmentVertex()[seg];
    if (flat.segmentControlsMux(seg) || levels_[0].ctrlCritical.test(v))
      continue;
    const auto [dom, pdom] = instrumentsBelow(v);
    if (!dom.empty() || !pdom.empty()) depths.push_back(flat.segDepth()[seg]);
  }
  std::sort(depths.begin(), depths.end());
  depths.erase(std::unique(depths.begin(), depths.end()), depths.end());
  std::vector<std::vector<std::uint64_t>> starts{sel0_};
  for (const std::uint32_t d : depths) {
    std::vector<std::uint64_t> start = sel0_;
    flat.limitDemandDepth(d, start.data());
    const auto same = std::find(starts.begin(), starts.end(), start);
    depthLevel_.emplace_back(
        d, static_cast<std::uint32_t>(same - starts.begin()));
    if (same != starts.end()) continue;
    starts.push_back(start);
    levels_.push_back(analyzeLevel(start.data(), topo, s));
  }

  // Stuck-safety masks: branch b of mux m is safe iff pinning the mux
  // to {b} flips no guard decision taken under the fault-free final
  // sets — then the per-fault fixpoint provably converges to the same
  // solution and the whole row equals the fault-free row.
  const auto muxArity = flat.muxArity();
  const auto selOffset = flat.selOffset();
  stuckSafe_.assign(flat.selWordCount(), 0);
  std::size_t maxWords = 0;
  for (std::size_t m = 0; m < muxArity.size(); ++m) {
    const std::uint32_t off = selOffset[m];
    const std::size_t arity = muxArity[m];
    const std::size_t words = (arity + 63) / 64;
    maxWords = std::max(maxWords, words);
    for (std::size_t w = 0; w < words; ++w) {
      const bool tail = w == words - 1 && arity % 64 != 0;
      stuckSafe_[off + w] = tail ? (1ULL << (arity % 64)) - 1 : ~0ULL;
    }
  }
  std::vector<std::uint64_t> poolWords(maxWords);
  for (const rsn::FlatNetwork::Edge& e : fwdEdges) {
    if (e.mux == rsn::kNone) continue;
    const std::uint32_t off = selOffset[e.mux];
    const std::size_t words =
        (static_cast<std::size_t>(muxArity[e.mux]) + 63) / 64;
    std::fill(poolWords.begin(),
              poolWords.begin() + static_cast<std::ptrdiff_t>(words), 0);
    for (std::uint32_t i = e.branchBegin; i < e.branchEnd; ++i) {
      const std::uint32_t b = flat.branchPool()[i];
      poolWords[b >> 6] |= 1ULL << (b & 63);
    }
    const bool open0 = flat.edgeOpen(e, sel0_.data());
    for (std::size_t w = 0; w < words; ++w)
      stuckSafe_[off + w] &= open0 ? poolWords[w] : ~poolWords[w];
  }
}

const Certifier::Level& Certifier::levelOfDepth(std::uint32_t depth) const {
  const auto it = std::lower_bound(
      depthLevel_.begin(), depthLevel_.end(), depth,
      [](const auto& entry, std::uint32_t d) { return entry.first < d; });
  RRSN_CHECK(it != depthLevel_.end() && it->first == depth,
             "no level was built for this demand depth");
  return levels_[it->second];
}

std::pair<std::span<const std::uint64_t>, std::span<const std::uint64_t>>
Certifier::instrumentsBelow(graph::VertexId v) const {
  const Level& base = levels_[0];
  return {entriesIn(instByDom_, base.domTin[v] + 1, base.domTout[v]),
          entriesIn(instByPdom_, base.pdomTin[v] + 1, base.pdomTout[v])};
}

void Certifier::fillFaultFree(std::uint16_t* row, graph::VertexId brokenV,
                              WitnessKind proven) const {
  const auto instrumentVertex = flat_->instrumentVertex();
  const DynamicBitset& accessible = levels_[0].accessible;
  for (std::size_t i = 0; i < instrumentVertex.size(); ++i) {
    if (instrumentVertex[i] == brokenV)
      row[i] = packCell(Verdict::Vulnerable, WitnessKind::SelfFault,
                        Verdict::Vulnerable, WitnessKind::SelfFault);
    else if (accessible.test(i))
      row[i] = packCell(Verdict::Proven, proven, Verdict::Proven, proven);
    else
      row[i] = packCell(Verdict::Vulnerable, WitnessKind::Unreachable,
                        Verdict::Vulnerable, WitnessKind::Unreachable);
  }
}

void Certifier::walkCleanSubtree(graph::VertexId v, Scratch& s) const {
  const rsn::FlatNetwork& flat = *flat_;
  const auto fwdOffsets = flat.fwdOffsets();
  const auto fwdEdges = flat.fwdEdges();
  const auto ctrlReg = flat.ctrlRegVertex();
  const Level& base = levels_[0];
  s.walk.clear();
  s.walk.push_back(v);
  s.walkMarks.set(v);
  for (std::size_t head = 0; head < s.walk.size(); ++head) {
    const graph::VertexId w = s.walk[head];
    for (std::uint32_t i = fwdOffsets[w]; i < fwdOffsets[w + 1]; ++i) {
      const rsn::FlatNetwork::Edge& e = fwdEdges[i];
      const graph::VertexId u = e.other;
      if (s.walkMarks.test(u) || ctrlReg[u] != 0) continue;
      if (!base.dominates(v, u) || !flat.edgeOpen(e, sel0_.data())) continue;
      s.walkMarks.set(u);
      s.walk.push_back(u);
    }
  }
}

Certifier::Tier Certifier::breakRow(rsn::SegmentId seg, std::uint16_t* row,
                                    Scratch& s) const {
  const rsn::FlatNetwork& flat = *flat_;
  const graph::VertexId v = flat.segmentVertex()[seg];
  const Level& base = levels_[0];
  // A broken control register poisons its mux's address whenever the
  // region is walked (the clean-suffix carve-out), and a break that
  // dominates a reachable control register can shrink the fixpoint —
  // both need the fixpoint tier.
  if (flat.segmentControlsMux(seg) || base.ctrlCritical.test(v))
    return Tier::Fixpoint;
  const auto [dom, pdom] = instrumentsBelow(v);
  if (dom.empty() && pdom.empty()) {
    // Fast: the fixpoint stays at the fault-free solution and no
    // accessible instrument loses its strict path.
    fillFaultFree(row, v, WitnessKind::NonCut);
    return Tier::Fast;
  }
  // Local: v dominates no reachable control register at the unbounded
  // level nor at level segDepth(v), so both of the fixpoint tier's
  // control fixpoints end at those levels' fault-free sets.  Strict
  // access then fails exactly for the instruments below v in either
  // tree; each of them gets the first later mode that proves it.
  const Level& level = levelOfDepth(flat.segDepth()[seg]);
  if (level.ctrlCritical.test(v)) return Tier::Fixpoint;
  fillFaultFree(row, v, WitnessKind::PathStrict);
  const auto instrumentVertex = flat.instrumentVertex();
  const bool writeSuffixOk = cleanToOut_.test(v);
  bool walked = false;
  const auto decide = [&](std::uint64_t key) {
    const auto i = static_cast<std::uint32_t>(key);
    const graph::VertexId u = instrumentVertex[i];
    const bool dominated = base.dominates(v, u);
    // Clean-suffix read: the captured value shifts from u to scan-out
    // past no control register, on a path that starts at v (every path
    // from v to a vertex it dominates stays in v's dominator subtree).
    WitnessKind rk = WitnessKind::DominatorCut;
    if (dominated && cleanToOut_.test(u)) {
      if (!walked) walkCleanSubtree(v, s);
      walked = true;
      if (s.walkMarks.test(u)) rk = WitnessKind::PathCleanSuffix;
    }
    // Depth-bounded: at level segDepth(v) every configuration write
    // lands before v is clocked, so a read needs a scan-out path that
    // avoids v there and a write a scan-in path.
    if (rk == WitnessKind::DominatorCut && level.accessible.test(i) &&
        !level.postDominates(v, u))
      rk = WitnessKind::PathDepthBounded;
    // Clean-suffix write: u, below v only in the post-dominator tree,
    // keeps its strict scan-in path and reaches v, which reaches
    // scan-out past no control register.
    WitnessKind wk = WitnessKind::DominatorCut;
    if (!dominated && writeSuffixOk)
      wk = WitnessKind::PathCleanSuffix;
    else if (level.accessible.test(i) && !level.dominates(v, u))
      wk = WitnessKind::PathDepthBounded;
    const auto verdict = [](WitnessKind k) {
      return k == WitnessKind::DominatorCut ? Verdict::Vulnerable
                                            : Verdict::Proven;
    };
    row[i] = packCell(verdict(rk), rk, verdict(wk), wk);
  };
  for (const std::uint64_t key : dom) decide(key);
  for (const std::uint64_t key : pdom)
    if (!base.dominates(v, instrumentVertex[static_cast<std::uint32_t>(key)]))
      decide(key);
  if (walked)
    for (const graph::VertexId w : s.walk) s.walkMarks.reset(w);
  return Tier::Local;
}

Certifier::Tier Certifier::stuckRow(const fault::Fault& f,
                                    std::uint16_t* row) const {
  // Fast: the pinned branch leaves every guard decision of this mux
  // unchanged, so the row equals the fault-free row.
  const rsn::FlatNetwork& flat = *flat_;
  const std::uint32_t m = f.prim;
  const std::uint32_t b = f.stuckBranch;
  if (((stuckSafe_[flat.selOffset()[m] + (b >> 6)] >> (b & 63)) & 1) != 0) {
    fillFaultFree(row, graph::kNoVertex, WitnessKind::StuckBenign);
    return Tier::Fast;
  }
  // A branch the fixpoint cleared can *expand* accessibility, because
  // the stuck mux is exempt from the fixpoint's reset pinning: those
  // rows need the fixpoint tier.
  if (!flat.selectableBit(sel0_.data(), m, b)) return Tier::Fixpoint;
  // Local: guards sit only on branch-exit -> mux edges and branch 0 of
  // every mux stays selectable, so with b selectable the pin keeps
  // every forward reach and every other mux's sets.  Backward reach is
  // lost by exactly the vertices post-dominated by the exit of another
  // branch (its only out-edge now closed); a wire branch exits at the
  // fan-out stem, which keeps b's branch.
  fillFaultFree(row, graph::kNoVertex, WitnessKind::PathStrict);
  const auto exits = flat.muxBranchExit();
  const std::uint32_t first = flat.muxBranchOffsets()[m];
  const graph::VertexId stuckExit = exits[first + b];
  // Fan-out stem of mux m (vertex numbering in rsn/flat.hpp).
  const auto fanOut =
      static_cast<graph::VertexId>(2 + flat.segmentCount() + 2 * m);
  const Level& base = levels_[0];
  for (std::uint32_t k = first; k < flat.muxBranchOffsets()[m + 1]; ++k) {
    const graph::VertexId x = exits[k];
    if (x == stuckExit || x == fanOut) continue;
    // Every accessible instrument has a nonzero entry, so an exit
    // outside the tree (entry 0) selects none.
    for (const std::uint64_t key :
         entriesIn(instByPdom_, base.pdomTin[x], base.pdomTout[x]))
      row[static_cast<std::uint32_t>(key)] =
          packCell(Verdict::Vulnerable, WitnessKind::GuardCut,
                   Verdict::Vulnerable, WitnessKind::GuardCut);
  }
  return Tier::Local;
}

bool Certifier::analyzeRow(const fault::Fault& f, Scratch& s,
                           std::size_t budget) const {
  // The fixpoint tier replays the syndrome oracle's exact access-mode
  // composition (see diag/batched.cpp for the physics derivation):
  // strict, then — for breaks at non-control segments — clean-suffix,
  // then depth-bounded, OR-ing per-instrument bits and recording the
  // first mode that proved each direction.
  const rsn::FlatNetwork& flat = *flat_;
  const auto instrumentVertex = flat.instrumentVertex();
  const std::size_t instruments = instrumentVertex.size();
  const bool isBreak = f.kind == fault::FaultKind::SegmentBreak;
  const graph::VertexId brokenV =
      isBreak ? flat.segmentVertex()[f.prim] : graph::kNoVertex;

  s.obs.clearAll();
  s.set.clearAll();
  std::fill(s.obsMode.begin(), s.obsMode.end(),
            static_cast<std::uint8_t>(WitnessKind::None));
  std::fill(s.setMode.begin(), s.setMode.end(),
            static_cast<std::uint8_t>(WitnessKind::None));
  s.collapsedMux = rsn::kNone;

  fault::baseSelectable(flat, &f, s.sel.data());
  if (!controlFixpoint(&f, brokenV, s.sel.data(), s.inStrict, s, budget))
    return false;

  // Property (3) witness: the first control mux that lost selectable
  // branches relative to the fault-free solution.  (Recorded before the
  // depth-bounded stage shrinks the sets for its own reason.)  A stuck
  // mux's own pinning is the fault, not a collapse.
  for (const std::uint32_t m : flat.ctrlMuxes()) {
    if (!isBreak && m == f.prim) continue;
    const std::uint32_t off = flat.selOffset()[m];
    const std::size_t words =
        (static_cast<std::size_t>(flat.muxArity()[m]) + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
      if ((sel0_[off + w] & ~s.sel[off + w]) != 0) {
        s.collapsedMux = m;
        break;
      }
    }
    if (s.collapsedMux != rsn::kNone) break;
  }

  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/false, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outStrict, s.queue);

  const auto emit = [&](const DynamicBitset& inRead,
                        const DynamicBitset& outStrict,
                        const DynamicBitset& inStrict,
                        const DynamicBitset& outWrite, WitnessKind mode) {
    for (std::size_t i = 0; i < instruments; ++i) {
      const graph::VertexId v = instrumentVertex[i];
      if (v == brokenV) continue;  // the instrument's own segment is dead
      if (inRead.test(v) && outStrict.test(v) && !s.obs.test(i)) {
        s.obs.set(i);
        s.obsMode[i] = static_cast<std::uint8_t>(mode);
      }
      if (inStrict.test(v) && outWrite.test(v) && !s.set.test(i)) {
        s.set.set(i);
        s.setMode[i] = static_cast<std::uint8_t>(mode);
      }
    }
  };

  if (brokenV == graph::kNoVertex) {
    // Mux-stuck rows have no broken vertex: strict mode is the whole
    // story (break-tolerant reaches equal the strict ones).
    emit(s.inStrict, s.outStrict, s.inStrict, s.outStrict,
         WitnessKind::PathStrict);
    return true;
  }

  emit(s.inStrict, s.outStrict, s.inStrict, s.outStrict,
       WitnessKind::PathStrict);

  sweep(/*forward=*/true, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.inRead, s.queue);
  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outWrite, s.queue);

  if (!flat.segmentControlsMux(f.prim)) {
    sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
          graph::kNoVertex, /*avoidCtrlRegs=*/true, s.cleanToOut, s.queue);
    const bool writeSuffixOk = s.cleanToOut.test(brokenV);
    const bool readPrefixOk = s.inRead.test(brokenV);
    if (writeSuffixOk) {
      sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
            brokenV, /*avoidCtrlRegs=*/false, s.bwdFromB, s.queue);
    }
    if (readPrefixOk) {
      sweep(/*forward=*/true, s.sel.data(), /*tolerate=*/true, brokenV,
            brokenV, /*avoidCtrlRegs=*/true, s.cleanFromB, s.queue);
    }
    if (writeSuffixOk || readPrefixOk) {
      for (std::size_t i = 0; i < instruments; ++i) {
        const graph::VertexId v = instrumentVertex[i];
        if (v == brokenV) continue;
        if (readPrefixOk && s.cleanFromB.test(v) && s.cleanToOut.test(v) &&
            !s.obs.test(i)) {
          s.obs.set(i);
          s.obsMode[i] =
              static_cast<std::uint8_t>(WitnessKind::PathCleanSuffix);
        }
        if (writeSuffixOk && s.inStrict.test(v) && s.bwdFromB.test(v) &&
            !s.set.test(i)) {
          s.set.set(i);
          s.setMode[i] =
              static_cast<std::uint8_t>(WitnessKind::PathCleanSuffix);
        }
      }
    }
  }

  flat.limitDemandDepth(flat.segDepth()[f.prim], s.sel.data());
  if (!controlFixpoint(&f, brokenV, s.sel.data(), s.inStrict, s, budget))
    return false;
  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/false, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outStrict, s.queue);
  sweep(/*forward=*/true, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.inRead, s.queue);
  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outWrite, s.queue);
  emit(s.inRead, s.outStrict, s.inStrict, s.outWrite,
       WitnessKind::PathDepthBounded);
  return true;
}

CertificationResult Certifier::run(const CertifyOptions& options) const {
  RRSN_OBS_SPAN("verify.certify");
  obs::count(kCertifyCalls);

  const rsn::FlatNetwork& flat = *flat_;
  const std::size_t segments = flat.segmentCount();
  const std::size_t muxes = flat.muxCount();
  const std::size_t instruments = flat.instrumentCount();
  if (!options.excludePrimitives.empty()) {
    RRSN_CHECK(options.excludePrimitives.size() == segments + muxes,
               "excludePrimitives must be sized segments + muxes");
  }
  if (options.crossCheck) {
    RRSN_CHECK(options.crossCheckSampleEvery > 0,
               "crossCheckSampleEvery must be positive");
  }
  const auto excluded = [&](std::size_t linear) {
    return !options.excludePrimitives.empty() &&
           options.excludePrimitives.test(linear);
  };

  CertificationResult result;
  result.instruments = instruments;
  result.reachable = levels_[0].accessible;
  result.instrumentSegment.assign(flat.instrumentSegment().begin(),
                                  flat.instrumentSegment().end());
  for (std::size_t s = 0; s < segments; ++s)
    if (!excluded(s))
      result.universe.push_back(
          fault::Fault::segmentBreak(static_cast<rsn::SegmentId>(s)));
  for (std::size_t m = 0; m < muxes; ++m) {
    if (excluded(segments + m)) continue;
    for (std::uint32_t b = 0; b < flat.muxArity()[m]; ++b)
      result.universe.push_back(
          fault::Fault::muxStuck(static_cast<rsn::MuxId>(m), b));
  }
  const std::size_t faults = result.universe.size();
  result.cells.assign(faults * instruments, 0);
  result.collapsedMux.assign(faults, rsn::kNone);
  obs::sample(kUniverseFaults, faults);

  std::unique_ptr<diag::BatchedSyndromeEngine> oracle;
  if (options.crossCheck)
    oracle = std::make_unique<diag::BatchedSyndromeEngine>(flat_);

  std::vector<Scratch> scratch(threadCount());
  for (Scratch& s : scratch) s.init(flat);

  std::atomic<std::size_t> fastRows{0}, localRows{0}, slowRows{0};
  std::atomic<std::size_t> checkedRows{0};
  std::atomic<std::size_t> unknownCells{0};
  std::mutex divergenceMu;
  std::vector<std::string> divergences;

  parallelForChunks(
      faults,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        Scratch& s = scratch[worker];
        for (std::size_t fi = begin; fi < end; ++fi) {
          const fault::Fault& f = result.universe[fi];
          std::uint16_t* row = result.cells.data() + fi * instruments;
          bool rowUnknown = false;
          const Tier tier = f.kind == fault::FaultKind::SegmentBreak
                                ? breakRow(f.prim, row, s)
                                : stuckRow(f, row);
          if (tier == Tier::Fast) {
            fastRows.fetch_add(1, std::memory_order_relaxed);
          } else if (tier == Tier::Local) {
            localRows.fetch_add(1, std::memory_order_relaxed);
          } else {
            slowRows.fetch_add(1, std::memory_order_relaxed);
            if (!analyzeRow(f, s, options.fixpointBudget)) {
              rowUnknown = true;
              unknownCells.fetch_add(2 * instruments,
                                     std::memory_order_relaxed);
              for (std::size_t i = 0; i < instruments; ++i)
                row[i] = kUnknownCell;
            } else {
              result.collapsedMux[fi] = s.collapsedMux;
              const graph::VertexId brokenV =
                  f.kind == fault::FaultKind::SegmentBreak
                      ? flat.segmentVertex()[f.prim]
                      : graph::kNoVertex;
              for (std::size_t i = 0; i < instruments; ++i) {
                const graph::VertexId u = flat.instrumentVertex()[i];
                const auto vuln = [&]() -> WitnessKind {
                  if (u == brokenV) return WitnessKind::SelfFault;
                  if (!levels_[0].accessible.test(i))
                    return WitnessKind::Unreachable;
                  if (brokenV != graph::kNoVertex &&
                      (levels_[0].dominates(brokenV, u) ||
                       levels_[0].postDominates(brokenV, u)))
                    return WitnessKind::DominatorCut;
                  if (s.collapsedMux != rsn::kNone)
                    return WitnessKind::ControlCollapse;
                  return WitnessKind::GuardCut;
                };
                Verdict rv, wv;
                WitnessKind rk, wk;
                if (s.obs.test(i)) {
                  rv = Verdict::Proven;
                  rk = static_cast<WitnessKind>(s.obsMode[i]);
                } else {
                  rv = Verdict::Vulnerable;
                  rk = vuln();
                }
                if (s.set.test(i)) {
                  wv = Verdict::Proven;
                  wk = static_cast<WitnessKind>(s.setMode[i]);
                } else {
                  wv = Verdict::Vulnerable;
                  wk = vuln();
                }
                row[i] = packCell(rv, rk, wv, wk);
              }
            }
          }

          if (oracle == nullptr || rowUnknown) continue;
          bool hasVulnerable = false;
          for (std::size_t i = 0; i < instruments && !hasVulnerable; ++i)
            hasVulnerable = (row[i] & 3u) == 1u || ((row[i] >> 2) & 3u) == 1u;
          if (!hasVulnerable && fi % options.crossCheckSampleEvery != 0)
            continue;
          checkedRows.fetch_add(1, std::memory_order_relaxed);
          const diag::Syndrome expect = oracle->row(&f, worker);
          for (std::size_t i = 0; i < instruments; ++i) {
            const bool provenRead = (row[i] & 3u) == 0u;
            const bool provenWrite = ((row[i] >> 2) & 3u) == 0u;
            const bool oracleRead = expect.passed.test(2 * i);
            const bool oracleWrite = expect.passed.test(2 * i + 1);
            if (provenRead == oracleRead && provenWrite == oracleWrite)
              continue;
            std::string msg =
                "fault #" + std::to_string(fi) + " instrument #" +
                std::to_string(i) + ": certifier " +
                std::string(1, toChar(static_cast<Verdict>(row[i] & 3u))) +
                std::string(
                    1, toChar(static_cast<Verdict>((row[i] >> 2) & 3u))) +
                " vs oracle " + (oracleRead ? "A" : "L") +
                (oracleWrite ? "A" : "L");
            const std::lock_guard<std::mutex> lock(divergenceMu);
            divergences.push_back(std::move(msg));
          }
        }
      },
      /*grain=*/1);

  if (!divergences.empty()) {
    std::sort(divergences.begin(), divergences.end());
    std::string what = "certifier cross-check diverged from the syndrome "
                       "oracle on " +
                       std::to_string(divergences.size()) + " verdict(s):";
    const std::size_t shown = std::min<std::size_t>(divergences.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) what += "\n  " + divergences[i];
    throw Error(what);
  }

  result.fastRowCount = fastRows.load();
  result.localRowCount = localRows.load();
  result.fixpointRowCount = slowRows.load();
  result.crossCheckedRowCount = checkedRows.load();
  obs::count(kRowsFast, result.fastRowCount);
  obs::count(kRowsLocal, result.localRowCount);
  obs::count(kRowsFixpoint, result.fixpointRowCount);
  obs::count(kRowsCrossChecked, result.crossCheckedRowCount);
  if (const std::size_t u = unknownCells.load()) obs::count(kCellsUnknown, u);
  return result;
}

}  // namespace rrsn::verify
