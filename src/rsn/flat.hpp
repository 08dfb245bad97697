// Arena-backed structure-of-arrays core of an RSN (`FlatNetwork`).
//
// The pointer-rich Network model is convenient to build and validate,
// but every graph walk (certification, dictionary sweeps, campaign
// oracles, retargeting, SPEA-2 cost assembly) wants contiguous
// id-indexed arrays it can stream with no pointer chasing.  This module
// lowers a validated Network exactly once into a single relocatable
// buffer — one bump-allocated arena holding every derived array the
// kernels consume.  It is the only lowered form of the network: one
// walk of the Structure tree emits the flat scan graph of Sec. III
// (Fig. 2) straight into the arena's CSR sections:
//
//   * per-segment: scan length, graph vertex, configuration depth;
//   * per-mux: control-register vertex, arity, demand depth,
//     selectable-word offset, branch exit vertices (CSR); the list of
//     segment-controlled muxes and their address-representability masks;
//   * per-instrument: segment, vertex;
//   * data graph: forward and transposed CSR adjacency whose edges carry
//     the mux guard annotation;
//   * per-vertex: control-register flag, owning mux.
//
// Every section has a reader among the engines.  Facts only reports and
// tests want (names, a segment's instrument, SIB flags, a mux's control
// segment) are read from the Network.
//
// Vertex numbering (S segments, M muxes, V = 2 + S + 2M vertices):
//
//   scan-in                     0
//   segment s                   1 + s
//   mux m                       1 + S + 2m
//   fan-out stem of mux m       2 + S + 2m   (entry of its parallel
//                                             composition)
//   scan-out                    V - 1
//
// so a vertex's role follows from its id alone.  Edges are the direct
// connectivities: every row of the forward (backward) CSR lists its
// successors (predecessors) in the order the structure walk emits them,
// scan-in side first.  A wire branch exits at its mux's fan-out stem,
// so parallel wire branches give parallel fan-out -> mux edges.
//
// Layout: a fixed 112-byte header (magic, format version, FNV-1a
// content fingerprint, entity counts), a table of 20 section
// descriptors of 24 bytes each, then the 64-byte-aligned sections (the
// first at byte 640).  Because the arena is one flat buffer with self-describing
// offsets, serialization is a plain byte copy and deserialization is
// zero-copy: the loader adopts the buffer, validates the header and
// fingerprint, and re-derives the section pointers (a fresh lowering
// skips only the fingerprint comparison).  Corrupt, truncated
// or foreign files are rejected with a typed Status — never an
// exception — so service caches and campaign checkpoints can probe
// candidate files cheaply.
//
// The lowering itself is single-threaded and fully deterministic, so the
// serialized bytes are identical at any RRSN_THREADS (tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/vertex.hpp"
#include "rsn/network.hpp"
#include "support/io.hpp"
#include "support/status.hpp"

namespace rrsn::rsn {

/// Frozen flat view of one network.  Create with lower(); share by
/// shared_ptr (consumers keep the arena alive by holding the pointer).
class FlatNetwork {
 public:
  /// Read-only view into one arena section.
  template <typename T>
  class Span {
   public:
    Span() = default;
    Span(const T* data, std::size_t size) : data_(data), size_(size) {}

    const T& operator[](std::size_t i) const { return data_[i]; }
    const T* data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }

   private:
    const T* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// One adjacency entry of the guarded data-graph CSR.  `mux` is the
  /// guarding mux (kNone for a plain edge); the guard passes iff any
  /// branch in branchPool[branchBegin, branchEnd) is selectable.  The
  /// annotation describes the *original* edge, so a row entry means the
  /// same thing from the forward and the transposed side.
  struct Edge {
    graph::VertexId other = graph::kNoVertex;
    std::uint32_t mux = kNone;
    std::uint32_t branchBegin = 0;
    std::uint32_t branchEnd = 0;

    bool operator==(const Edge&) const = default;
  };

  /// Saturation value for cyclic configuration dependencies.
  static constexpr std::uint32_t kUnrealizableDepth = 0x40000000u;

  /// On-disk format identity ("RRSNFLAT" little-endian) and version.
  /// Any layout change bumps kFormatVersion; old readers reject new
  /// files (and vice versa) with kFailedPrecondition.
  static constexpr std::uint64_t kMagic = 0x54414c464e535252ULL;
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Lowers `net` into a fresh arena.  Counts one `flat.flatten_calls`
  /// observation per invocation — campaigns and services are expected
  /// to lower once and share the pointer.
  static std::shared_ptr<const FlatNetwork> lower(const Network& net);

  /// Adopts a serialized arena (zero-copy: the vector is moved into the
  /// view).  Truncated or corrupt buffers yield kDataLoss, foreign
  /// bytes kInvalidArgument, a format-version mismatch
  /// kFailedPrecondition; `out` is only written on success.  Never
  /// throws.
  static Status deserialize(std::vector<std::uint8_t> buffer,
                            std::shared_ptr<const FlatNetwork>& out);

  /// Adopts a serialized arena straight from disk via mmap (PROT_READ,
  /// zero copies — the service cache's fast path).  The mapping lives
  /// as long as the view.  The same validation as deserialize() runs
  /// against the mapped bytes; a missing/unreadable file yields
  /// kUnavailable, and `out` is only written on success.  Never throws.
  static Status mapFile(const std::string& path,
                        std::shared_ptr<const FlatNetwork>& out);

  /// Durably serializes the arena to `path` (atomic tmp+fsync+rename
  /// via io::atomicWriteFile); on failure `path` is left untouched.
  Status writeTo(const std::string& path) const;

  /// The whole arena — writing these bytes to disk *is* serialization.
  /// Valid for any backing (owned buffer or mmap).
  Span<std::uint8_t> bytes() const { return {base_, size_}; }

  /// The owned arena vector.  Empty for an mmap-backed view — callers
  /// that need the raw bytes regardless of backing use bytes().
  const std::vector<std::uint8_t>& buffer() const { return arena_; }

  /// FNV-1a fingerprint of the section payloads (also stored in the
  /// header and re-checked by deserialize()).
  std::uint64_t fingerprint() const;

  /// Two views are equal iff their arenas are byte-identical (the
  /// lowering is canonical, so equal networks compare equal).
  /// Backing (owned vs mmap) does not participate.
  bool operator==(const FlatNetwork& other) const;

  // ------------------------------------------------------------ counts
  std::size_t segmentCount() const;
  std::size_t muxCount() const;
  std::size_t instrumentCount() const;
  std::size_t vertexCount() const;
  graph::VertexId scanIn() const;
  graph::VertexId scanOut() const;

  // ------------------------------------------------------ per segment
  Span<std::uint32_t> segLength() const { return segLength_; }
  Span<graph::VertexId> segmentVertex() const { return segmentVertex_; }
  /// CSU round in which the segment first joins the active path: the max
  /// demandDepth over the segment-controlled muxes whose non-reset
  /// branch holds it, 0 for an always-on segment.
  Span<std::uint32_t> segDepth() const { return segDepth_; }

  // ---------------------------------------------------------- per mux
  /// Vertex of the mux's control segment; kNoVertex when TAP-steered.
  Span<graph::VertexId> muxCtrlVertex() const { return muxCtrlVertex_; }
  Span<std::uint32_t> muxArity() const { return muxArity_; }
  /// A non-reset demand on mux m is written in CSU round
  /// demandDepth[m] - 1; TAP-steered muxes have depth 0, and cyclic
  /// control dependencies saturate at kUnrealizableDepth.
  Span<std::uint32_t> demandDepth() const { return demandDepth_; }
  Span<std::uint32_t> selOffset() const { return selOffset_; }
  /// Branch-exit CSR: branch b of mux m exits at
  /// muxBranchExit[muxBranchOffsets[m] + b].
  Span<std::uint32_t> muxBranchOffsets() const { return muxBranchOffsets_; }
  Span<graph::VertexId> muxBranchExit() const { return muxBranchExit_; }
  /// Muxes whose address comes from a control segment.
  Span<std::uint32_t> ctrlMuxes() const { return ctrlMuxes_; }
  /// Per-mux address-representability masks in the selectable layout.
  Span<std::uint64_t> representableWords() const { return representableWords_; }
  std::size_t selWordCount() const { return representableWords_.size(); }

  // ------------------------------------------------ selectable sets
  // The accessibility engines keep per-fault selectable sets in caller-
  // owned buffers of selWordCount() words: mux m owns words
  // [selOffset[m], selOffset[m] + (muxArity[m] + 63) / 64), bit b =
  // branch b selectable.

  bool selectableBit(const std::uint64_t* sel, std::uint32_t mux,
                     std::uint32_t branch) const {
    return (sel[selOffset_[mux] + (branch >> 6)] >> (branch & 63)) & 1;
  }

  /// Guard admissibility of one edge under the given selectable sets.
  bool edgeOpen(const Edge& e, const std::uint64_t* sel) const {
    if (e.mux == kNone) return true;
    for (std::uint32_t i = e.branchBegin; i < e.branchEnd; ++i)
      if (selectableBit(sel, e.mux, branchPool_[i])) return true;
    return false;
  }

  /// Clears the non-reset branches of every segment-controlled mux
  /// whose demand would be written in a CSU round >= maxDepth, i.e.
  /// keeps only the demands that are fully configured before round
  /// maxDepth runs.  Shrink-only, so it composes with a control fixpoint.
  void limitDemandDepth(std::uint32_t maxDepth, std::uint64_t* sel) const;

  /// True iff some mux's address register is segment s.
  bool segmentControlsMux(SegmentId s) const {
    return ctrlRegVertex_[segmentVertex_[s]] != 0;
  }

  // --------------------------------------------------- per instrument
  Span<std::uint32_t> instrumentSegment() const { return instrumentSegment_; }
  Span<graph::VertexId> instrumentVertex() const { return instrumentVertex_; }

  // --------------------------------------------------- data graph CSR
  Span<std::uint32_t> fwdOffsets() const { return fwdOffsets_; }
  Span<Edge> fwdEdges() const { return fwdEdges_; }
  Span<std::uint32_t> bwdOffsets() const { return bwdOffsets_; }
  Span<Edge> bwdEdges() const { return bwdEdges_; }
  Span<std::uint32_t> branchPool() const { return branchPool_; }

  // -------------------------------------------------------- per vertex
  /// Nonzero iff the vertex holds some mux's address register.
  Span<std::uint8_t> ctrlRegVertex() const { return ctrlRegVertex_; }
  /// MuxId of a mux vertex; kNone otherwise.
  Span<std::uint32_t> muxOfVertex() const { return muxOfVertex_; }

 private:
  FlatNetwork() = default;

  /// Re-derives the cached section spans from [base_, base_ + size_)
  /// (after lowering, adopting a deserialized buffer, or mapping a
  /// file).  Returns a non-OK status when the section table does not
  /// describe a well-formed arena.
  Status attach();

  /// Arena backing: exactly one of arena_ (owned bytes) and mapped_
  /// (read-only file mapping) is non-empty; base_/size_ always name
  /// the live bytes and everything past construction reads only them.
  std::vector<std::uint8_t> arena_;
  io::MappedFile mapped_;
  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;

  Span<std::uint32_t> segLength_, segDepth_;
  Span<graph::VertexId> segmentVertex_;
  Span<std::uint32_t> muxArity_, demandDepth_, selOffset_;
  Span<graph::VertexId> muxCtrlVertex_, muxBranchExit_;
  Span<std::uint32_t> muxBranchOffsets_, ctrlMuxes_;
  Span<std::uint64_t> representableWords_;
  Span<std::uint32_t> instrumentSegment_;
  Span<graph::VertexId> instrumentVertex_;
  Span<std::uint32_t> fwdOffsets_, bwdOffsets_, branchPool_;
  Span<Edge> fwdEdges_, bwdEdges_;
  Span<std::uint8_t> ctrlRegVertex_;
  Span<std::uint32_t> muxOfVertex_;
};

/// DOT rendering of the flat scan graph with RSN-aware shapes (segments:
/// boxes, muxes: trapezoids, fan-outs: points, ports: ellipses).
std::string toDot(const Network& net);

}  // namespace rrsn::rsn
