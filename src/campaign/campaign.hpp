// Fault-injection campaign engine.
//
// The paper's central claim is that the *structural* criticality
// analysis (Sec. IV) predicts what a real defective RSN does.  Unit
// tests spot-check that per fault; this subsystem validates it at scale
// across three campaign families selected by CampaignConfig::mode:
//
//  * Single (the original family): for every (fault, instrument) pair
//    of the single-fault universe it performs an actual retargeted
//    access on the cycle-level ScanSimulator and cross-validates the
//    outcome against both structural oracles
//    (fault::lossUnderFaultTree and fault::lossUnderFaultGraph).
//  * Pairs: simultaneous permanent defect pairs {f1, f2} drawn from a
//    stratified sample of the O(F^2) pair space (strata by fault-kind
//    combination: break+break, break+stuck, stuck+stuck).  The
//    reference prediction is the *pair-composed* oracle — the AND of
//    the two single-fault expected verdicts.  Composition is not exact:
//    real pair physics both *compounds* (a reroute that survives f1
//    alone is blocked by f2) and *masks* (a stuck mux can hide a broken
//    control register it makes unreachable), so sim-vs-composed
//    differences are itemized as interaction effects, never errors.
//    The guaranteed-zero gate for pairs is instead campaign_test's
//    per-probe cross-check: every pair's classification on the shared
//    simulator is re-derived on a fresh simulator per access.
//  * Transient: one-shot soft errors (sim::TransientUpset) that corrupt
//    one segment's update register to X after a chosen CSU round.  A probe
//    that fails under the upset is retried once after a 1687-style
//    reconfiguration sequence (ScanSimulator::resetConfiguration); a
//    retry that succeeds classifies as RecoveredAfterReconfiguration.
//    The reference prediction is the fault-free expected row, so every
//    transient mismatch is a real bug (acceptance gate: zero).
//
// Each probe is classified four ways:
//  * Accessible — the nominal (fault-unaware) access recipe works;
//  * Recovered  — only a fault-aware alternative mux branch found by
//    the bounded reroute search works: graceful degradation;
//  * RecoveredAfterReconfiguration — transient campaigns only: the
//    access failed under the upset but succeeded after the recovery
//    sequence rewrote the configuration;
//  * Lost       — no retargeted access succeeds.
// Cross-validation uses two reference predictions per probe:
//  * the *plain structural* verdict from the paper's oracles, which
//    assumes control bits can always be applied.  The strict engine is
//    documented to be more pessimistic (the control-dependency gap), so
//    sim-vs-structural differences are expected; they are itemized as
//    *gaps*, never dropped.  For pairs the plain verdict is composed
//    (AND) the same way as the expected one.
//  * the *expected* verdict (OracleTable::expect below, read from the
//    verify::Certifier rows): structural reachability composed with a
//    control-dependency closure.  In Single and Transient mode a
//    disagreement with the simulation is a *mismatch* (an engine or
//    analysis bug — campaigns must report zero); in Pairs mode
//    disagreements are the interaction effects described above and
//    live in their own counters.
//
// Campaigns fan out per scenario over the PR-1 thread pool and are
// deterministic at any thread count: every scenario's record depends
// only on the scenario, and sampling happens once, single-threaded, at
// engine construction.  Long runs poll one cooperative CancellationToken
// (CampaignConfig::cancel; a deadline is a token armed with
// setDeadlineFromNow) and checkpoint the outcomes of finished scenarios
// to a versioned JSON state file, so an interrupted campaign resumes
// where it stopped and ends in the same final report as an
// uninterrupted one.  Records and checkpoints hold only what the
// simulator saw; every reference row is composed from the run's
// per-single oracle table (CampaignResult::references).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "rsn/network.hpp"
#include "sim/retarget.hpp"
#include "sim/simulator.hpp"
#include "support/bitset.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/status.hpp"
#include "support/table.hpp"

namespace rrsn::rsn {
class FlatNetwork;
}
namespace rrsn::diag {
class BatchedSyndromeEngine;
}

namespace rrsn::campaign {

/// Simulated outcome of one (scenario, instrument, direction) probe.
enum class Outcome : std::uint8_t {
  Accessible,
  Recovered,
  RecoveredAfterReconfiguration,
  Lost,
};

/// 'A' / 'R' / 'C' / 'L' — the per-instrument encoding used in records,
/// checkpoints and reports.
char toChar(Outcome o);
Outcome outcomeFromChar(char c);

/// Which campaign family the engine runs.
enum class CampaignMode : std::uint8_t { Single, Pairs, Transient };
const char* campaignModeName(CampaignMode m);

/// One element of a campaign universe: a single permanent fault, an
/// unordered pair of simultaneous permanent faults, or a one-shot
/// transient upset.  Pair scenarios also carry the indices of their
/// members in the engine's filtered single-fault universe (canonical
/// order aIdx < bIdx) so per-single oracle rows can be composed without
/// recomputation.
struct FaultScenario {
  CampaignMode kind = CampaignMode::Single;
  fault::Fault a;                      ///< Single and Pairs
  fault::Fault b;                      ///< Pairs only
  std::uint32_t aIdx = 0;              ///< index of `a` in singles()
  std::uint32_t bIdx = 0;              ///< index of `b` in singles()
  rsn::SegmentId upsetSegment = rsn::kNone;  ///< Transient only
  std::uint32_t upsetRound = 0;              ///< Transient only

  /// The permanent faults to inject ({}, {a} or {a, b}).
  std::vector<fault::Fault> permanentFaults() const;

  bool operator==(const FaultScenario&) const = default;
};

/// Human-readable scenario name: "break(s)", "pair(break(s)+stuck(m=1))"
/// or "upset(s@round)".
std::string describe(const rsn::Network& net, const FaultScenario& s);

/// Per-instrument verdicts of one reference under one fault: bit i of
/// `observable` (`settable`) says instrument i can be read (written).
struct Expectation {
  DynamicBitset observable;
  DynamicBitset settable;
};

/// The control-aware expectation (OracleTable::expect) from the batched
/// reference engine, for tests and benches that check certifier rows
/// against it.  `instruments` sizes the result rows; `worker` selects
/// the engine's scratch lane.
Expectation expectedAccessibility(const diag::BatchedSyndromeEngine& engine,
                                  std::size_t instruments,
                                  const fault::Fault& f,
                                  std::size_t worker = 0);

/// What the simulator saw for one scenario.  Its reference rows are not
/// stored here: CampaignResult::references composes them.
struct FaultRecord {
  FaultScenario scenario;
  bool done = false;
  std::string read;   ///< toChar(Outcome) per instrument, index order
  std::string write;  ///< likewise for write accesses

  bool readAccessible(std::size_t i) const { return read[i] != 'L'; }
  bool writeAccessible(std::size_t i) const { return write[i] != 'L'; }
};

/// One itemized disagreement between the simulated outcome and a
/// reference prediction (expected oracle for mismatches() and
/// pairInteractions(), plain structural oracle for structuralGaps()).
struct Mismatch {
  FaultScenario scenario;
  rsn::InstrumentId instrument = rsn::kNone;
  bool isRead = true;              ///< read (observability) or write probe
  Outcome simulated = Outcome::Lost;
  bool referenceAccessible = false;
};

/// Aggregate counters over the finished part of a campaign.
struct CampaignSummary {
  CampaignMode mode = CampaignMode::Single;
  std::size_t faultsTotal = 0;
  std::size_t faultsDone = 0;
  std::size_t instruments = 0;
  std::size_t readAccessible = 0, readRecovered = 0, readLost = 0;
  std::size_t writeAccessible = 0, writeRecovered = 0, writeLost = 0;
  /// Transient campaigns: probes that needed the reconfiguration
  /// sequence to succeed (counted inside *Recovered as well).
  std::size_t readReconfigured = 0, writeReconfigured = 0;
  /// Simulated vs expected-oracle disagreements (engine/analysis bugs).
  /// Always zero in Pairs mode — pair disagreements are interaction
  /// effects and live in pairCompounded / pairMasked instead.
  std::size_t readMismatches = 0, writeMismatches = 0;
  std::size_t segmentBreakMismatches = 0;  ///< must be 0 (acceptance gate)
  std::size_t muxStuckMismatches = 0;
  /// Pairs mode: probes where the simulation disagrees with the
  /// pair-composed expected oracle.  Compounded = composition predicted
  /// accessible but the pair's physics lost the access; masked =
  /// composition predicted lost but one fault hides the other's damage.
  std::size_t pairCompounded = 0;
  std::size_t pairMasked = 0;
  /// Simulated vs plain-structural disagreements: the documented
  /// control-dependency gap, itemized by structuralGaps().
  std::size_t segmentBreakGapPairs = 0;
  std::size_t muxStuckGapPairs = 0;
  std::size_t oracleDisagreements = 0;

  bool complete() const { return faultsDone == faultsTotal; }
  std::size_t pairsDone() const { return faultsDone * instruments; }
};

/// The hardening-plan robustness view of a finished pair or transient
/// campaign: how much of the single-fault accessibility bound survives
/// the richer fault scenarios.
struct RobustnessReport {
  CampaignMode mode = CampaignMode::Pairs;
  std::size_t probes = 0;              ///< classified (scenario, inst, dir)
  std::size_t predictedAccessible = 0; ///< composed/fault-free oracle says A
  std::size_t observedAccessible = 0;  ///< simulation says != Lost
  std::size_t compounded = 0;          ///< predicted A, observed Lost
  std::size_t masked = 0;              ///< predicted Lost, observed A
  std::size_t reconfigured = 0;        ///< transient: recovered via reset

  /// Fraction of the oracle-predicted accessible probes that the
  /// simulation confirms — the Pareto-axis candidate ("how much of the
  /// single-fault damage bound survives").  1.0 when nothing was
  /// predicted accessible.
  double retention() const {
    return predictedAccessible == 0
               ? 1.0
               : static_cast<double>(predictedAccessible - compounded) /
                     static_cast<double>(predictedAccessible);
  }
};

/// The per-single-fault reference rows of one run, indexed like
/// CampaignEngine::singles(), plus the fault-free row.  run() builds the
/// table once; it is the only copy of these rows.
struct OracleTable {
  /// Control-aware expected verdicts, read from the verify::Certifier
  /// rows (Proven = accessible): structural reachability restricted to
  /// mux branches that are actually steerable.  A segment-controlled
  /// branch is steerable if it is the reset selection or its control
  /// register is still settable (a shrinking fixpoint, since
  /// settability itself depends on steerable branches).  A broken
  /// segment re-poisons itself whenever it is clocked and smears X over
  /// every scan cell downstream of it on the active path, so a
  /// break-tolerant access (reads tolerate the break on the scan-in
  /// side of the target, writes on the scan-out side) additionally
  /// needs every configuration round to finish before the break joins
  /// the path, or a suffix free of mux address registers past the
  /// break.  See diag/batched.hpp for the full mode derivation.
  std::vector<Expectation> expect;
  std::vector<Expectation> graph;  ///< plain fault::lossUnderFaultGraph
  std::vector<Expectation> tree;   ///< plain fault::lossUnderFaultTree
  Expectation faultFree;           ///< the certifier's fault-free row
};

/// The reference rows of one scenario.
struct References {
  Expectation structural;  ///< plain graph-oracle verdicts
  Expectation expected;    ///< control-aware expected verdicts
  /// Instruments on which the tree and graph oracles disagree (must be
  /// zero; a nonzero count means one of the two analyses is wrong).
  std::size_t oracleDisagreements = 0;
};

/// Full campaign state: the scenario list in canonical order plus one
/// record per scenario (records of not-yet-probed ones have done=false)
/// and the run's oracle table.
struct CampaignResult {
  CampaignMode mode = CampaignMode::Single;
  std::vector<FaultRecord> records;
  std::size_t instruments = 0;
  OracleTable oracles;

  /// A scenario's references, composed from `oracles` by kind: a single
  /// fault reads its rows, a pair ANDs its members' rows, and a
  /// transient upset is judged against the fault-free row (the plain
  /// structural oracle predicts full access).  Every report below reads
  /// its references here.
  References references(const FaultScenario& s) const;

  CampaignSummary summary() const;
  /// Simulated vs expected-oracle disagreements — must be empty in
  /// Single (for segment breaks) and Transient mode on a correct
  /// engine.  Always empty in Pairs mode (see pairInteractions()).
  std::vector<Mismatch> mismatches() const;
  /// Pairs mode: itemized disagreements with the pair-composed oracle —
  /// the genuine fault-interaction effects (compounded and masked).
  std::vector<Mismatch> pairInteractions() const;
  /// Simulated vs plain-structural disagreements — the itemized
  /// control-dependency gap.
  std::vector<Mismatch> structuralGaps() const;
  /// Robustness counters (meaningful for Pairs and Transient mode).
  RobustnessReport robustness() const;
};

/// Campaign shape and bounds.
struct CampaignConfig {
  /// Which campaign family to run.
  CampaignMode mode = CampaignMode::Single;
  /// 0 = exhaustive over the mode's universe; otherwise probe a
  /// deterministic `sample`-sized subset (seeded by `seed`).  Mutually
  /// exclusive with sampleFraction.
  std::size_t sample = 0;
  /// Sample this fraction of the mode's universe instead of an
  /// absolute count: ceil(fraction * n) scenarios, at least one, drawn
  /// as `sample` would draw that many.  The pair universe's n is the raw
  /// C(F, 2) before contradictory pairs drop out.  0 = unset; otherwise
  /// must be in (0, 1].
  double sampleFraction = 0.0;
  std::uint64_t seed = 2022;
  /// Transient mode: the CSU rounds (counted from arming) after which
  /// the one-shot upset fires; one scenario per (segment, round).
  std::vector<std::uint32_t> transientRounds = {0, 1};
  /// Bounds forwarded to every Retargeter the campaign spawns.
  sim::RetargetOptions retarget;
  /// Faults located at these primitives (by Network::linearId) are
  /// excluded — a hardened primitive cannot fail.  Empty = no exclusion.
  DynamicBitset excludePrimitives;
  /// Path of the JSON checkpoint/resume state file; empty = disabled.
  std::string checkpointPath;
  /// Finished scenarios per checkpoint flush (and progress callback).
  std::size_t checkpointEvery = 32;
  /// Cooperative cancellation, deadlines included (a token armed with
  /// setDeadlineFromNow); may be null.  run() stops starting scenarios
  /// once it trips.
  const CancellationToken* cancel = nullptr;
  /// Called with (faultsDone, faultsTotal) once when probing starts
  /// (after the checkpoint load and the oracle table build) and after
  /// every batch.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Fail fast on networks with error-severity lint findings: run()
  /// throws lint::LintError before probing anything.  Disable to
  /// campaign a known-defective model anyway.
  bool lint = true;
};

/// Validates the bounds of a campaign configuration: sample fractions
/// outside (0, 1] (NaN included), sample and sampleFraction both set, a
/// checkpoint path naming an existing directory, and empty or
/// duplicated transient rounds are rejected with a typed
/// kInvalidArgument Status instead of silent misbehavior downstream.
Status validateCampaignConfig(const CampaignConfig& config);

/// Runs fault-injection campaigns on one network.
class CampaignEngine {
 public:
  /// Throws ValidationError when validateCampaignConfig rejects the
  /// configuration.
  explicit CampaignEngine(const rsn::Network& net, CampaignConfig config = {});

  /// The campaign's scenario list in canonical (probe) order.
  const std::vector<FaultScenario>& universe() const { return universe_; }

  /// The filtered single-fault universe the pair space is built over
  /// (excludePrimitives already applied).
  const std::vector<fault::Fault>& singles() const { return singles_; }

  /// Runs the campaign to completion, resuming from the checkpoint file
  /// if one exists.  Returns early (summary().complete() == false) when
  /// the cancellation token trips; progress up to the last finished
  /// batch is in the checkpoint, so a later run() continues from there.
  CampaignResult run();

 private:
  void buildSingleUniverse();
  void buildPairUniverse();
  void buildTransientUniverse();

  /// Probes one scenario against every instrument.  `probes` counts
  /// every classification issued (two per instrument; a transient
  /// recovery retry does not count extra); run() cross-checks the total
  /// against the classification count after the sweep — a mismatch
  /// means probes were silently skipped or double-issued.
  FaultRecord probeScenario(const FaultScenario& s,
                            std::atomic<std::uint64_t>& probes) const;

  const rsn::Network* net_;
  CampaignConfig config_;
  /// Lowered once at construction and shared by every run(): each
  /// run's certifier reads this arena instead of re-flattening per
  /// mode/stage (the obs counter `flat.flatten_calls` proves the hoist).
  std::shared_ptr<const rsn::FlatNetwork> flat_;
  std::vector<fault::Fault> singles_;
  std::vector<FaultScenario> universe_;
};

/// Two-row summary table (read / write probes) for CLI output.
TextTable summaryTable(const CampaignSummary& s);

/// Per-probe itemization of sim-vs-reference disagreements.
TextTable mismatchTable(const rsn::Network& net,
                        const std::vector<Mismatch>& items);

/// One-row robustness report (pair/transient campaigns) for CLI output.
TextTable robustnessTable(const RobustnessReport& r);

/// Per-scenario outcome table (one row each), the CSV export payload.
TextTable outcomeTable(const rsn::Network& net, const CampaignResult& result);

/// Machine-readable report: summary counters, per-scenario outcome
/// strings, itemized mismatches / pair interactions and (for pair and
/// transient campaigns) the robustness block.  Canonical (sorted keys,
/// no timestamps), so byte-equality of two reports proves campaign
/// determinism.
json::Value reportJson(const rsn::Network& net, const CampaignResult& result);

}  // namespace rrsn::campaign
