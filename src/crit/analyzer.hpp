// Criticality analysis (Sec. IV): per-primitive damage d_j.
//
// The damage of primitive j (Eq. 1) is the weighted sum of instruments
// that become unobservable / unsettable when j is defect:
//
//   d_j = sum_i do_i * y_ij + sum_i ds_i * z_ij
//
// Segments have exactly one fault (break); a k-input multiplexer has k
// stuck-at faults, and its damage is the maximum over them (the paper
// speaks of "a defect" per primitive; charging the most damaging stuck
// value is the conservative choice for hardening decisions).
//
// CriticalityAnalyzer is the paper's fast hierarchical computation on the
// annotated binary decomposition tree (O(N log N) total).  The test
// suite's bruteForceAnalysis (tests/test_util.hpp) recomputes every d_j
// from the flat-graph fault oracle (O(N * E)) to cross-check it.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/effects.hpp"
#include "rsn/network.hpp"
#include "rsn/spec.hpp"
#include "sp/decomposition.hpp"
#include "support/table.hpp"

namespace rrsn::crit {

struct AnalysisOptions {
  /// Fail fast on networks with error-severity lint findings (control
  /// deadlocks, unreachable segments, ...): the analyzer throws
  /// lint::LintError from its constructor instead of computing damages
  /// for configurations that can never be reached.  Disable to analyze
  /// a known-defective model anyway.
  bool lint = true;
};

/// Result of a criticality analysis: d_j per linear primitive id
/// (segments first, then muxes — see Network::linearId).
class CriticalityResult {
 public:
  CriticalityResult(const rsn::Network& net, std::vector<std::uint64_t> d);

  const rsn::Network& network() const { return *net_; }

  const std::vector<std::uint64_t>& damages() const { return damages_; }
  std::uint64_t damageOf(std::size_t linearId) const {
    RRSN_CHECK(linearId < damages_.size(), "linear id out of range");
    return damages_[linearId];
  }

  /// Sum over all primitives: the paper's "Max. Damage" (Table I col 5) —
  /// the accumulated damage when no primitive is hardened.
  std::uint64_t totalDamage() const { return total_; }

  /// Linear ids sorted by decreasing damage (ties by id).
  std::vector<std::size_t> ranking() const;

  /// Table of the `topK` most critical primitives.
  TextTable report(std::size_t topK) const;

 private:
  const rsn::Network* net_;
  std::vector<std::uint64_t> damages_;
  std::uint64_t total_ = 0;
};

/// Fast hierarchical analysis on the annotated decomposition tree.
///
/// The per-fault damage walks run over a flat structure-of-arrays image
/// of the annotated tree (contiguous parent/child/kind/sum arrays plus
/// a CSR of mux branch roots), not the node objects — at 10^6 segments
/// the pointer-model walk is memory-bound on scattered TreeNode loads.
/// crit_test checks the results against the brute-force oracle on
/// random networks.
class CriticalityAnalyzer {
 public:
  CriticalityAnalyzer(const rsn::Network& net, const rsn::CriticalitySpec& spec,
                      AnalysisOptions options = {});

  /// Runs (or re-runs) the analysis.
  CriticalityResult run() const;

  /// The annotated decomposition tree (e.g. for figure rendering).
  const sp::DecompositionTree& tree() const { return tree_; }

 private:
  /// Flat SoA image of the annotated tree.  Node kinds collapse to the
  /// two bits the damage walks branch on.
  struct Kernel {
    static constexpr std::uint8_t kSeries = 1;
    static constexpr std::uint8_t kParallel = 2;

    std::vector<std::uint32_t> parent, left, right;  ///< per tree node
    std::vector<std::uint8_t> kind;                  ///< 0 / kSeries / kParallel
    std::vector<std::uint64_t> sumObs, sumSet;       ///< subtree damages
    std::vector<std::uint32_t> leafOfSegment;        ///< per segment
    std::vector<std::uint8_t> segHasInstrument;      ///< per segment
    /// Mux m's branch subtree roots: branchRoots[branchOffsets[m],
    /// branchOffsets[m + 1]).
    std::vector<std::uint32_t> branchOffsets, branchRoots;

    std::uint64_t segmentBreakDamage(std::uint32_t s) const;
    std::uint64_t muxStuckDamage(std::uint32_t m, std::uint32_t stuck) const;
  };

  const rsn::Network* net_;
  const rsn::CriticalitySpec* spec_;
  AnalysisOptions options_;
  sp::DecompositionTree tree_;
  Kernel kernel_;
};

}  // namespace rrsn::crit
