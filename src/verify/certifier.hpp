// Static robustness certifier: a flow-sensitive fixpoint dataflow
// engine over the flat arena (rsn::FlatNetwork) that *proves* — without
// simulation — the paper's robustness claim per instrument:
//
//  (1) reachability       — a satisfiable control assignment exists
//                           that puts the instrument on the active scan
//                           path (the fault-free fixpoint's strict
//                           forward ∩ backward reach);
//  (2) single-fault
//      accessibility      — for every structural fault in the universe,
//                           either the fault provably cannot sever all
//                           of the instrument's access paths (dominator
//                           /cut analysis over the guarded-CSR data
//                           graph), or the surviving access mode is
//                           named, or a concrete severing witness is
//                           produced;
//  (3) control-safety     — no control register that gates the access
//                           is itself only reachable through what the
//                           same fault severs (a shrinking fixpoint
//                           over the control-dependency structure; a
//                           collapse is witnessed by the mux whose
//                           selectable set shrank).
//
// Verdict lattice per (fault, instrument, direction):
//
//          Unknown            (fixpoint budget exhausted; bounded and
//         /       \            counted, never silently dropped)
//      Proven   Vulnerable    (each carrying a witness)
//
// The engine has three tiers, all reading fault-free base analyses
// that the constructor builds once per configuration level: the
// unbounded level, plus one per demand-depth limit d (the
// depth-bounded access mode's level) that some segment break reads.
// Each level holds its accessible instruments, the DFS intervals of
// its dominator and post-dominator trees over the open subgraph, and
// its control-critical vertices (those that dominate a reachable
// control register).
//
//  * The *fast tier* copies the fault-free row.  A segment break whose
//    vertex controls no mux, is not control-critical and neither
//    dominates nor post-dominates any accessible instrument cannot
//    change the control fixpoint or cut any access; likewise a mux
//    stuck on a branch that leaves every guard decision of that mux
//    unchanged under the fault-free selectable sets.
//  * The *local tier* decides the rows whose damage is local (the
//    paper's Sec. IV-B rule).  A break at v that controls no mux and
//    is control-critical neither at the unbounded level nor at level
//    segDepth(v) leaves both control fixpoints at their fault-free
//    sets, so only the accessible instruments inside v's two subtrees
//    change, each decided from the base trees (clean-suffix by one
//    walk bounded by v's dominator subtree, depth-bounded from level
//    segDepth(v), else a dominator cut).  A mux stuck on a branch the
//    fault-free fixpoint keeps selectable leaves forward reach intact
//    and loses exactly the instruments post-dominated by the exits of
//    its other branches (a guard cut).  Instruments sorted by tree
//    entry make each subtree two binary searches.
//  * The *fixpoint tier* takes every other row (control-register and
//    control-critical breaks, stucks on a branch the fixpoint
//    cleared).  It replays the exact access-mode composition of the
//    batched syndrome oracle (strict / clean-suffix / depth-bounded;
//    see diag/batched.cpp) with an independent plain-BFS sweep and a
//    budgeted control fixpoint — so certifier verdicts are
//    definitionally comparable to diag::BatchedSyndromeEngine rows,
//    and the cross-check mode replays Vulnerable rows and sampled
//    Proven rows through that engine, treating any divergence as a
//    hard error.
//
// The local tier emits the verdicts and witness kinds the fixpoint
// tier would emit for the same rows (DESIGN §16 writes out why); it
// records no collapsed mux and, like the fast tier, runs no per-fault
// fixpoint, so its rows are decided at any fixpointBudget.
//
// The certifier is the production accessibility engine: the fault
// dictionary (diag::FaultDictionary) and the campaign oracle
// (campaign::CampaignEngine) read its rows, with Proven meaning the
// access passes.
//
// Determinism: every cell depends only on its fault index; the per-
// fault fan-out uses the deterministic chunk grid, so results (and all
// serialized reports) are byte-identical at any RRSN_THREADS.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "rsn/flat.hpp"
#include "rsn/network.hpp"
#include "support/bitset.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace rrsn::verify {

enum class Verdict : std::uint8_t { Proven = 0, Vulnerable = 1, Unknown = 2 };

/// 'P' / 'V' / 'U' — the per-instrument encoding used in reports and
/// cached artifacts.
char toChar(Verdict v);
Verdict verdictFromChar(char c);

/// Why a verdict holds.  Proven kinds name the surviving structure,
/// Vulnerable kinds the severing one, Budget the bounded give-up.
enum class WitnessKind : std::uint8_t {
  None = 0,          ///< padding default (never emitted for a cell)
  // ------------------------------------------------------- Proven
  NonCut,            ///< fast tier: fault site off every access cut
  StuckBenign,       ///< fast tier: stuck branch changes no guard
  PathStrict,        ///< a strict (fault-avoiding) access path survives
  PathCleanSuffix,   ///< survives via the clean-suffix access mode
  PathDepthBounded,  ///< survives via the depth-bounded access mode
  // --------------------------------------------------- Vulnerable
  SelfFault,         ///< the instrument's own segment is the fault site
  Unreachable,       ///< inaccessible even fault-free (property 1 fails)
  DominatorCut,      ///< fault site dominates/post-dominates the access
  ControlCollapse,   ///< a gating control register loses its last path
  GuardCut,          ///< selectable-set shrink closes every guard
  // ------------------------------------------------------ Unknown
  Budget,            ///< control fixpoint iteration budget exhausted
};

/// Stable kebab-case name ("dominator-cut", ...) for reports.
const char* witnessKindName(WitnessKind k);

/// One materialized witness.  `subject` is kind-dependent: the severing
/// segment for SelfFault/DominatorCut/GuardCut, the collapsed mux for
/// ControlCollapse, the instrument's own segment for Unreachable,
/// rsn::kNone otherwise.
struct Witness {
  WitnessKind kind = WitnessKind::None;
  std::uint32_t subject = rsn::kNone;

  bool operator==(const Witness&) const = default;
};

/// Certification knobs.
struct CertifyOptions {
  /// Faults located at these primitives (by Network::linearId: segments
  /// in [0, S), muxes in [S, S + M)) are excluded — a hardened
  /// primitive cannot fail.  Empty = the full single-fault universe.
  DynamicBitset excludePrimitives;
  /// Iteration budget of each per-fault control fixpoint.  Exhaustion
  /// yields Unknown(Budget) for the whole row — counted, never hidden.
  /// The fixpoint shrinks a finite set monotonically, so any budget
  /// >= the control-nesting depth terminates with a proof; the default
  /// is far above every realistic nesting.
  std::size_t fixpointBudget = 1024;
  /// Replay every row containing a Vulnerable verdict, and every
  /// crossCheckSampleEvery-th row regardless, through the batched
  /// syndrome oracle; any divergence throws support::Error.  See
  /// crossCheckDefault() for the environment policy.
  bool crossCheck = false;
  std::size_t crossCheckSampleEvery = 16;
};

/// RRSN_CERTIFY_MODE=fast|checked; unset (or unrecognized) means fast.
/// The one cross-check knob: it also covers the certifier runs behind
/// fault dictionary builds and campaign oracles.
bool crossCheckDefault();

/// Aggregate counters over one certification.
struct CertifySummary {
  std::size_t instruments = 0;
  std::size_t faults = 0;
  std::size_t reachableInstruments = 0;  ///< property (1)
  std::size_t provenRead = 0, provenWrite = 0;
  std::size_t vulnerableRead = 0, vulnerableWrite = 0;
  std::size_t unknownRead = 0, unknownWrite = 0;
  std::size_t fastRows = 0;      ///< rows decided by the fast tier
  std::size_t localRows = 0;     ///< rows decided by the local tier
  std::size_t fixpointRows = 0;  ///< rows that ran the fixpoint tier
  std::size_t controlCollapseCells = 0;  ///< property (3) violations
  std::size_t crossCheckedRows = 0;

  std::size_t unknownCells() const { return unknownRead + unknownWrite; }
};

/// Full certification state: the (filtered) fault universe in canonical
/// order plus one packed cell per (fault, instrument).
class CertificationResult {
 public:
  /// Canonical fault order: one SegmentBreak per non-excluded segment
  /// in id order, then one MuxStuck per non-excluded (mux, branch).
  std::vector<fault::Fault> universe;
  std::size_t instruments = 0;
  /// Property (1) per instrument: accessible under the fault-free
  /// control fixpoint.
  DynamicBitset reachable;

  Verdict read(std::size_t faultIdx, std::size_t inst) const {
    return static_cast<Verdict>(cell(faultIdx, inst) & 3u);
  }
  Verdict write(std::size_t faultIdx, std::size_t inst) const {
    return static_cast<Verdict>((cell(faultIdx, inst) >> 2) & 3u);
  }
  Witness readWitness(std::size_t faultIdx, std::size_t inst) const;
  Witness writeWitness(std::size_t faultIdx, std::size_t inst) const;

  CertifySummary summary() const;

  /// "PVU..." strings (one char per instrument) for row `faultIdx`.
  std::string readRow(std::size_t faultIdx) const;
  std::string writeRow(std::size_t faultIdx) const;

  // ------------------------------------------------- packed internals
  // One cell per (fault, instrument), row-major: bits 0-1 read verdict,
  // 2-3 write verdict, 4-7 read witness kind, 8-11 write witness kind.
  // Witness *subjects* are derivable (fault site, instrument segment,
  // or the per-row collapsed mux), so cells stay 2 bytes and a full
  // MBIST-class universe certifies in memory comparable to its fault
  // dictionary.
  std::vector<std::uint16_t> cells;
  /// Per-fault: first control mux whose selectable set collapsed under
  /// the fault (kNone when the control fixpoint matched fault-free).
  std::vector<std::uint32_t> collapsedMux;
  /// Per-instrument hosting segment (witness subjects for Unreachable).
  std::vector<std::uint32_t> instrumentSegment;
  /// Tier accounting, filled by Certifier::run (not derivable from the
  /// cells): rows decided by the fast and the local tier, rows that ran
  /// the fixpoint tier, and rows replayed through the syndrome oracle.
  std::size_t fastRowCount = 0;
  std::size_t localRowCount = 0;
  std::size_t fixpointRowCount = 0;
  std::size_t crossCheckedRowCount = 0;

  std::uint16_t cell(std::size_t faultIdx, std::size_t inst) const {
    return cells[faultIdx * instruments + inst];
  }

 private:
  Witness witnessAt(std::size_t faultIdx, std::size_t inst,
                    bool isRead) const;
};

/// The certifier.  Construction runs the fault-free base analysis
/// (topological order of the data graph, then per configuration level
/// the final selectable sets, strict reaches, dominator and post-
/// dominator DFS intervals and the control-critical vertex set; the
/// accessible instruments sorted by tree entry, the clean-to-scan-out
/// reach and per-(mux, branch) stuck-safety masks); run() fans the
/// per-fault tiers out over the thread pool.
class Certifier {
 public:
  explicit Certifier(const rsn::Network& net);
  explicit Certifier(std::shared_ptr<const rsn::FlatNetwork> flat);

  /// Certifies the (filtered) single-fault universe.  Throws
  /// support::Error on cross-check divergence or malformed options.
  CertificationResult run(const CertifyOptions& options = {}) const;

  const rsn::FlatNetwork& flat() const { return *flat_; }

 private:
  struct Scratch;
  struct TopoOrder;

  /// One configuration level's fault-free analysis.  An ancestor test
  /// is two interval comparisons; a vertex outside a tree has entry 0,
  /// which no test matches.
  struct Level {
    DynamicBitset accessible;    ///< per instrument
    DynamicBitset ctrlCritical;  ///< per vertex: dominates a reachable ctrl reg
    std::vector<std::uint32_t> domTin, domTout, pdomTin, pdomTout;

    bool dominates(graph::VertexId a, graph::VertexId v) const {
      return domTin[a] != 0 && domTin[v] != 0 && domTin[a] <= domTin[v] &&
             domTout[v] <= domTout[a];
    }
    bool postDominates(graph::VertexId a, graph::VertexId v) const {
      return pdomTin[a] != 0 && pdomTin[v] != 0 &&
             pdomTin[a] <= pdomTin[v] && pdomTout[v] <= pdomTout[a];
    }
  };

  /// The tier that decided a row; Fixpoint means the row still needs
  /// the per-fault fixpoint.
  enum class Tier : std::uint8_t { Fast, Local, Fixpoint };

  void buildBase();

  /// Runs the fault-free control fixpoint from `sel` (left at the final
  /// sets) and analyzes the level it reaches.
  Level analyzeLevel(std::uint64_t* sel, const TopoOrder& topo,
                     Scratch& s) const;

  const Level& levelOfDepth(std::uint32_t depth) const;

  void sweep(bool forward, const std::uint64_t* sel, bool tolerate,
             graph::VertexId brokenV, graph::VertexId source,
             bool avoidCtrlRegs, DynamicBitset& visited,
             std::vector<graph::VertexId>& queue) const;

  /// Budgeted control fixpoint; leaves `inStrict` = strict forward
  /// reach under the final sets.  Returns false when `budget`
  /// iterations did not reach the fixpoint.
  bool controlFixpoint(const fault::Fault* f, graph::VertexId brokenV,
                       std::uint64_t* sel, DynamicBitset& inStrict,
                       Scratch& s, std::size_t budget) const;

  /// Fixpoint tier: the oracle's exact access-mode composition.  Fills
  /// s.obs / s.set and the per-instrument first-proving mode bytes;
  /// returns false on budget exhaustion (row is Unknown).
  bool analyzeRow(const fault::Fault& f, Scratch& s,
                  std::size_t budget) const;

  /// Fast and local tiers for one fault: fill `row` and name the tier,
  /// or return Tier::Fixpoint with `row` untouched.
  Tier breakRow(rsn::SegmentId seg, std::uint16_t* row, Scratch& s) const;
  Tier stuckRow(const fault::Fault& f, std::uint16_t* row) const;

  /// The accessible instruments strictly below v in the unbounded
  /// dominator and post-dominator trees, as slices of instByDom_ and
  /// instByPdom_.
  std::pair<std::span<const std::uint64_t>, std::span<const std::uint64_t>>
  instrumentsBelow(graph::VertexId v) const;

  /// The fault-free row under a break at `brokenV` (kNoVertex for a
  /// stuck): SelfFault at brokenV, `proven` where accessible, else
  /// Unreachable.
  void fillFaultFree(std::uint16_t* row, graph::VertexId brokenV,
                     WitnessKind proven) const;

  /// Marks in s.walkMarks the vertices of v's dominator subtree that a
  /// forward walk from v over open edges reaches without entering a
  /// control register; s.walk lists them, so the caller clears only
  /// those marks.
  void walkCleanSubtree(graph::VertexId v, Scratch& s) const;

  std::shared_ptr<const rsn::FlatNetwork> flat_;

  // ------------------------------------------------ fault-free base
  std::vector<std::uint64_t> sel0_;   ///< final fault-free selectable sets
  /// levels_[0] is the unbounded level (its `accessible` is property
  /// 1); depthLevel_ maps each demand-depth limit a break row reads,
  /// sorted, to its level (0 when the limit clears no branch).
  std::vector<Level> levels_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> depthLevel_;
  /// Accessible instruments as sorted `entry << 32 | instrument` keys,
  /// by unbounded dominator and post-dominator tree entry.
  std::vector<std::uint64_t> instByDom_, instByPdom_;
  /// Vertices that reach scan-out under sel0_ without crossing a
  /// control register (a break never changes this reach).
  DynamicBitset cleanToOut_;
  std::vector<std::uint64_t> stuckSafe_;  ///< sel-layout (mux, branch) mask
};

// ------------------------------------------------------------ reports

/// Two-row (read / write) verdict tally for CLI output.
TextTable summaryTable(const CertifySummary& s);

/// Itemization of the first `limit` Vulnerable / Unknown cells, with
/// witness names resolved against the network.
TextTable vulnerabilityTable(const rsn::Network& net,
                             const CertificationResult& result,
                             std::size_t limit = 20);

/// Canonical JSON document (sorted keys, no timestamps): summary,
/// per-instrument reachability, per-fault verdict rows, itemized
/// witnesses.  Byte-equality of two reports proves determinism.
json::Value reportJson(const rsn::Network& net,
                       const CertificationResult& result);

/// SARIF 2.1.0 document via the shared emitter: verify.unreachable /
/// verify.single-fault / verify.control-safety / verify.unknown rules,
/// one result per affected (fault, instrument).
json::Value sarifReport(const rsn::Network& net,
                        const CertificationResult& result,
                        const std::string& artifactUri);

}  // namespace rrsn::verify
