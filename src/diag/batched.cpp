#include "diag/batched.hpp"

#include <utility>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace rrsn::diag {

namespace {

// Direction-switching thresholds (Beamer's direction-optimizing BFS, as
// used by PaperWasp's hybrid_bfs): go bottom-up once the frontier's
// scout count exceeds 1/kAlpha of the unexplored edges, return to
// top-down once a bottom-up sweep adds fewer than |V|/kBeta vertices.
constexpr std::size_t kAlpha = 15;
constexpr std::size_t kBeta = 18;

}  // namespace

std::size_t Syndrome::distanceTo(const Syndrome& other) const {
  RRSN_CHECK(passed.size() == other.passed.size(),
             "syndromes of different access sets are not comparable");
  DynamicBitset diff = passed;
  diff ^= other.passed;
  return diff.count();
}

std::size_t Syndrome::distanceToAtMost(const Syndrome& other,
                                       std::size_t bound) const {
  RRSN_CHECK(passed.size() == other.passed.size(),
             "syndromes of different access sets are not comparable");
  std::size_t acc = 0;
  for (std::size_t w = 0; w < passed.wordCount(); ++w) {
    acc += static_cast<std::size_t>(
        __builtin_popcountll(passed.word(w) ^ other.passed.word(w)));
    if (acc > bound) return acc;
  }
  return acc;
}

BatchedSyndromeEngine::BatchedSyndromeEngine(const rsn::Network& net)
    : BatchedSyndromeEngine(rsn::FlatNetwork::lower(net)) {}

BatchedSyndromeEngine::BatchedSyndromeEngine(
    std::shared_ptr<const rsn::FlatNetwork> flat)
    : flat_(std::move(flat)) {
  RRSN_CHECK(flat_ != nullptr, "cannot build an engine on a null flat view");
  instruments_ = flat_->instrumentCount();
  const std::size_t vertices = flat_->vertexCount();
  scratch_.resize(threadCount());
  for (Scratch& s : scratch_) {
    s.sel.assign(flat_->selWordCount(), 0);
    s.inStrict = DynamicBitset(vertices);
    s.outStrict = DynamicBitset(vertices);
    s.inRead = DynamicBitset(vertices);
    s.outWrite = DynamicBitset(vertices);
    s.cleanToOut = DynamicBitset(vertices);
    s.cleanFromB = DynamicBitset(vertices);
    s.bwdFromB = DynamicBitset(vertices);
  }
}

void BatchedSyndromeEngine::sweep(bool forward, const std::uint64_t* sel,
                                  bool tolerate, graph::VertexId brokenV,
                                  graph::VertexId source, bool avoidCtrlRegs,
                                  DynamicBitset& visited, Scratch& s) const {
  // Edges are walked source-side in top-down steps and target-side in
  // bottom-up sweeps; the annotation of a row entry always describes
  // the original edge, so admissibility reads the same from both sides.
  const rsn::FlatNetwork& flat = *flat_;
  const auto outOff = forward ? flat.fwdOffsets() : flat.bwdOffsets();
  const auto outEdges = forward ? flat.fwdEdges() : flat.bwdEdges();
  const auto inOff = forward ? flat.bwdOffsets() : flat.fwdOffsets();
  const auto inEdges = forward ? flat.bwdEdges() : flat.fwdEdges();
  const auto ctrlReg = flat.ctrlRegVertex();
  if (source == graph::kNoVertex)
    source = forward ? flat.scanIn() : flat.scanOut();
  const std::size_t vertices = flat.vertexCount();
  const auto outDeg = [&](graph::VertexId v) {
    return static_cast<std::size_t>(outOff[v + 1] - outOff[v]);
  };

  visited.clearAll();
  visited.set(source);
  s.queue.clear();
  s.queue.push_back(source);
  // scout = out-degree sum of the current frontier; unexplored = out
  // edges of still-unvisited vertices.  Heuristic bookkeeping only —
  // the computed set is traversal-order independent.
  std::size_t scout = outDeg(source);
  std::size_t unexplored = outEdges.size() - scout;

  while (!s.queue.empty()) {
    if (scout > unexplored / kAlpha) {
      // Bottom-up: scan the unvisited vertices (64 visited bits per
      // word) for an admissible edge from any visited vertex.  Repeat
      // while the sweeps stay productive; a sweep that adds nothing
      // proves the closure is complete.
      std::size_t added;
      do {
        added = 0;
        s.next.clear();
        std::size_t nextScout = 0;
        const std::size_t words = visited.wordCount();
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t unvisited = ~visited.word(w);
          if (w == words - 1 && vertices % 64 != 0)
            unvisited &= (1ULL << (vertices % 64)) - 1;
          while (unvisited != 0) {
            const auto u = static_cast<graph::VertexId>(
                w * 64 +
                static_cast<std::size_t>(__builtin_ctzll(unvisited)));
            unvisited &= unvisited - 1;
            if (!tolerate && u == brokenV) continue;
            if (avoidCtrlRegs && ctrlReg[u] != 0) continue;
            for (std::uint32_t i = inOff[u]; i < inOff[u + 1]; ++i) {
              const rsn::FlatNetwork::Edge& e = inEdges[i];
              if (!visited.test(e.other)) continue;
              if (!flat.edgeOpen(e, sel)) continue;
              visited.set(u);
              s.next.push_back(u);
              nextScout += outDeg(u);
              ++added;
              break;
            }
          }
        }
        scout = nextScout;
        unexplored -= nextScout;
      } while (added * kBeta > vertices);
      if (s.next.empty()) return;
      std::swap(s.queue, s.next);
      continue;
    }
    // Top-down: relax the frontier's out-edges into the next queue.
    s.next.clear();
    std::size_t nextScout = 0;
    for (const graph::VertexId v : s.queue) {
      for (std::uint32_t i = outOff[v]; i < outOff[v + 1]; ++i) {
        const rsn::FlatNetwork::Edge& e = outEdges[i];
        const graph::VertexId u = e.other;
        // v is visited, hence never the broken vertex when !tolerate.
        if (visited.test(u)) continue;
        if (!tolerate && u == brokenV) continue;
        if (avoidCtrlRegs && ctrlReg[u] != 0) continue;
        if (!flat.edgeOpen(e, sel)) continue;
        visited.set(u);
        s.next.push_back(u);
        nextScout += outDeg(u);
      }
    }
    std::swap(s.queue, s.next);
    scout = nextScout;
    unexplored -= nextScout;
  }
}

void BatchedSyndromeEngine::runFixpoint(const fault::Fault* f,
                                        graph::VertexId brokenV,
                                        Scratch& s) const {
  // Shrink non-reset branches to those whose control register keeps a
  // strict (break-free) scan-in path over the surviving branches; the
  // loop exits after the iteration that changes nothing, so s.inStrict
  // ends up being the strict forward reach under the final sets.
  const std::uint32_t stuckMux =
      f != nullptr && f->kind == fault::FaultKind::MuxStuck ? f->prim
                                                           : rsn::kNone;
  const rsn::FlatNetwork& flat = *flat_;
  const auto ctrlMuxes = flat.ctrlMuxes();
  const auto muxCtrlVertex = flat.muxCtrlVertex();
  const auto muxArity = flat.muxArity();
  const auto selOffset = flat.selOffset();
  const auto representable = flat.representableWords();
  for (;;) {
    sweep(/*forward=*/true, s.sel.data(), /*tolerate=*/false, brokenV,
          graph::kNoVertex, /*avoidCtrlRegs=*/false, s.inStrict, s);
    bool changed = false;
    for (const std::uint32_t m : ctrlMuxes) {
      if (m == stuckMux) continue;
      const bool ctrlReach = s.inStrict.test(muxCtrlVertex[m]);
      const std::uint32_t off = selOffset[m];
      const std::size_t words =
          (static_cast<std::size_t>(muxArity[m]) + 63) / 64;
      for (std::size_t w = 0; w < words; ++w) {
        // Reachable: keep the representable branches.  Unreachable:
        // keep only the reset branch.  Branch 0 is never cleared.
        const std::uint64_t mask = ctrlReach ? representable[off + w]
                                             : (w == 0 ? 1ULL : 0ULL);
        const std::uint64_t next = s.sel[off + w] & mask;
        if (next != s.sel[off + w]) {
          s.sel[off + w] = next;
          changed = true;
        }
      }
    }
    if (!changed) return;
  }
}

void BatchedSyndromeEngine::emitInto(Syndrome& row, const DynamicBitset& inRead,
                                     const DynamicBitset& outStrict,
                                     const DynamicBitset& inStrict,
                                     const DynamicBitset& outWrite,
                                     graph::VertexId brokenV) const {
  const auto instrumentVertex = flat_->instrumentVertex();
  for (std::size_t i = 0; i < instruments_; ++i) {
    const graph::VertexId v = instrumentVertex[i];
    if (v == brokenV) continue;  // the instrument's own segment is dead
    if (inRead.test(v) && outStrict.test(v)) row.passed.set(2 * i);
    if (inStrict.test(v) && outWrite.test(v)) row.passed.set(2 * i + 1);
  }
}

Syndrome BatchedSyndromeEngine::row(const fault::Fault* f,
                                    std::size_t worker) const {
  RRSN_CHECK(worker < scratch_.size(), "worker lane out of range");
  Scratch& s = scratch_[worker];
  const rsn::FlatNetwork& flat = *flat_;
  // Rejects a fault site the arena does not have before anything
  // indexes by it.
  fault::baseSelectable(flat, f, s.sel.data());
  const bool isBreak =
      f != nullptr && f->kind == fault::FaultKind::SegmentBreak;
  const graph::VertexId brokenV =
      isBreak ? flat.segmentVertex()[f->prim] : graph::kNoVertex;

  Syndrome syn;
  syn.passed = DynamicBitset(2 * instruments_);

  runFixpoint(f, brokenV, s);
  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/false, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outStrict, s);

  if (brokenV == graph::kNoVertex) {
    // Fault-free and mux-stuck rows have no broken vertex, so the
    // break-tolerant reaches equal the strict ones: two sweeps total.
    emitInto(syn, s.inStrict, s.outStrict, s.inStrict, s.outStrict, brokenV);
    return syn;
  }

  // A broken segment re-poisons itself whenever it is clocked, and a
  // CSU whose active path crosses it leaves X in every scan cell
  // downstream of the break — including SIB/control registers, whose
  // mux addresses then decay to X and collapse every later path walk.
  // The row is the union of the three access modes that survive that
  // physics.
  //
  // Strict mode: the access never touches the broken segment at all.
  // With tolerate=false the tolerant reaches equal the strict ones.
  emitInto(syn, s.inStrict, s.outStrict, s.inStrict, s.outStrict, brokenV);

  // Break-tolerant reaches under the full demand set: reads tolerate
  // the break on the scan-in side (garbage shifts in behind the
  // marker), writes on the scan-out side (the value never crosses it).
  sweep(/*forward=*/true, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.inRead, s);
  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outWrite, s);

  if (!flat.segmentControlsMux(f->prim)) {
    // Clean-suffix mode: configuration CSUs may run with the break
    // exposed as long as no mux address register lies downstream of it
    // on the path — the X smeared over the downstream cells is then
    // never consulted by a path walk, and every demand register sits
    // upstream of the break where its image bits never cross it.  (A
    // broken *control* register is excluded: its own mux still reads
    // the poisoned address whenever its region is walked.)
    sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
          graph::kNoVertex, /*avoidCtrlRegs=*/true, s.cleanToOut, s);
    const bool writeSuffixOk = s.cleanToOut.test(brokenV);
    const bool readPrefixOk = s.inRead.test(brokenV);
    if (writeSuffixOk) {
      // Writes: target upstream of the break, suffix after it clean.
      sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
            brokenV, /*avoidCtrlRegs=*/false, s.bwdFromB, s);
    }
    if (readPrefixOk) {
      // Reads: target downstream of the break on a join-free tail.
      sweep(/*forward=*/true, s.sel.data(), /*tolerate=*/true, brokenV,
            brokenV, /*avoidCtrlRegs=*/true, s.cleanFromB, s);
    }
    if (writeSuffixOk || readPrefixOk) {
      for (std::size_t i = 0; i < instruments_; ++i) {
        const graph::VertexId v = flat.instrumentVertex()[i];
        if (v == brokenV) continue;
        if (readPrefixOk && s.cleanFromB.test(v) && s.cleanToOut.test(v))
          syn.passed.set(2 * i);
        if (writeSuffixOk && s.inStrict.test(v) && s.bwdFromB.test(v))
          syn.passed.set(2 * i + 1);
      }
    }
  }

  // Depth-bounded mode: keep only the demands that are fully written
  // before the break first joins the active path (configuration round
  // segDepth[broken]); every exposed CSU is then the data round itself,
  // so nothing poisoned is ever consulted.  Re-running the fixpoint
  // re-shrinks branches whose control register the narrower demand set
  // no longer reaches.
  flat.limitDemandDepth(flat.segDepth()[f->prim], s.sel.data());
  runFixpoint(f, brokenV, s);
  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/false, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outStrict, s);
  sweep(/*forward=*/true, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.inRead, s);
  sweep(/*forward=*/false, s.sel.data(), /*tolerate=*/true, brokenV,
        graph::kNoVertex, /*avoidCtrlRegs=*/false, s.outWrite, s);
  emitInto(syn, s.inRead, s.outStrict, s.inStrict, s.outWrite, brokenV);
  return syn;
}

}  // namespace rrsn::diag
