// Retargeting: turning "access instrument i" into concrete CSU patterns.
//
// An RSN instrument is reached by steering every multiplexer on the path
// from scan-in to its segment; segment-controlled muxes (SIBs, address
// registers) must be written through the RSN itself, which takes one CSU
// round per hierarchy level.  The engine below reproduces that protocol
// and — because it runs on the fault-injecting simulator — is the
// *strict* accessibility oracle (diag::FaultDictionary::measure): an
// instrument counts as observable / settable only if a marker value
// actually makes it through the defect RSN end to end.  This is stronger
// than the paper's structural analysis (which assumes control bits can
// always be applied); the bench_control_dependency ablation quantifies
// the difference.
//
// The engine only *proposes* recipes: it searches scan paths over the
// lowered network (the FlatNetwork arena's guarded CSR) and turns them
// into mux selections.  Whether a recipe works is decided by executing
// it on the simulator, which models the Structure tree independently.
// The nominal recipe is tried first; fault-aware reroutes are planned
// only once it has failed.
#pragma once

#include <map>

#include "rsn/flat.hpp"
#include "sim/simulator.hpp"

namespace rrsn::sim {

/// One applied scan access (for pattern logging / replay).
struct ScanPattern {
  std::vector<Bit> shiftIn;   ///< stream fed to scan-in
  std::vector<Bit> shiftOut;  ///< stream observed at scan-out
};

/// Bounds of one retargeting attempt.  Every limit exists so that a
/// defective network (e.g. a stuck address register that silently drops
/// control writes) degrades into a failed RetargetResult instead of an
/// unbounded configuration loop.
struct RetargetOptions {
  /// CSU rounds allowed per recipe to configure the path; 0 = automatic
  /// (deepest mux nesting + 2, enough for any healthy access).
  std::size_t maxRounds = 0;
  /// Alternative scan paths that route around the injected faults,
  /// attempted per access once the nominal (fault-unaware) recipe has
  /// failed; caps both the path enumeration and the CSU work spent on
  /// graceful degradation.  0 = the nominal recipe only.
  std::size_t maxReroutes = 8;
};

/// Outcome of a retargeting attempt.  `externalSelections` records the
/// TAP-instruction part of the access (addresses of muxes that are not
/// segment-controlled); together with `patterns` it is the complete
/// reproducible access recipe.
struct RetargetResult {
  bool success = false;
  /// Success came from a fault-aware alternative mux branch, not from
  /// the nominal recipe — the access *degraded gracefully*.  Always
  /// false on a fault-free simulator.
  bool rerouted = false;
  std::size_t rounds = 0;              ///< CSU rounds spent
  std::vector<ScanPattern> patterns;   ///< in application order
  std::vector<std::pair<rsn::MuxId, std::uint32_t>> externalSelections;
};

/// The marker value the engine plants when verifying an access; exposed
/// so replay checks can reproduce the instrument-side stimulus.
std::vector<Bit> accessMarker(std::uint32_t length);

/// Replays a recorded access on another simulator (e.g. the synthesized
/// hardened RSN, which shares the topology).  Applies the external
/// selections, re-runs every pattern and returns true iff each shift-out
/// stream matches the recording bit for bit (Sec. II, "able to use the
/// same access patterns as the initial unhardened RSN").
bool replayPatterns(ScanSimulator& sim, const RetargetResult& recorded);

/// Retargeting engine bound to one simulator instance.  `flat` must be
/// the lowering of sim.network(); the engine keeps a reference, so the
/// arena must outlive it.  One arena can serve any number of engines,
/// also concurrently (it is read-only).
class Retargeter {
 public:
  Retargeter(ScanSimulator& sim, const rsn::FlatNetwork& flat,
             RetargetOptions options = {});

  /// End-to-end read: configures a path through instrument i's segment,
  /// captures a marker from the instrument and checks the marker arrives
  /// at scan-out unpoisoned.
  RetargetResult readInstrument(rsn::InstrumentId i);

  /// End-to-end write: configures a path, shifts `value` into the
  /// segment and checks the update register took it exactly.
  RetargetResult writeInstrument(rsn::InstrumentId i,
                                 const std::vector<Bit>& value);

 private:
  using Selections = std::map<rsn::MuxId, std::uint32_t>;

  /// The recipe loop behind both accesses.  For a read `payload` is the
  /// marker the instrument presents, for a write the value shifted in.
  RetargetResult access(rsn::InstrumentId i, const std::vector<Bit>& payload,
                        bool isRead);

  /// Steers the given mux selections (segment-controlled muxes through
  /// CSU rounds, TAP-controlled ones directly).  Selections of muxes not
  /// listed are left alone.  Fails if the fault in the simulator blocks a
  /// required write or the rounds budget is exhausted.
  RetargetResult realizeSelections(const Selections& selections);

  ScanSimulator* sim_;
  /// The topology never changes under a fault, so the arena is shared.
  const rsn::FlatNetwork* flat_;
  RetargetOptions options_;
  std::size_t maxRounds_;
};

}  // namespace rrsn::sim
