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
// annotated binary decomposition tree (O(N log N) total): each fault's
// damage sums the weight annotations of the subtrees the Sec. IV-B rule
// (fault::forEachLostSubtree) reports lost.  The test suite's
// bruteForceAnalysis (tests/test_util.hpp) recomputes every d_j from
// the flat-graph fault oracle (O(N * E)) to cross-check it.
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

/// Fast hierarchical analysis on the annotated decomposition tree.  A
/// segment break walks from its leaf up to its parental P vertex
/// (O(tree depth)); a stuck mux sums its other branch roots.  crit_test
/// checks the results against the brute-force oracle on random
/// networks.
class CriticalityAnalyzer {
 public:
  CriticalityAnalyzer(const rsn::Network& net, const rsn::CriticalitySpec& spec,
                      AnalysisOptions options = {});

  /// Runs (or re-runs) the analysis.
  CriticalityResult run() const;

  /// The annotated decomposition tree (e.g. for figure rendering).
  const sp::DecompositionTree& tree() const { return tree_; }

 private:
  /// Eq. 1 for one fault: the weight annotations of its lost subtrees.
  std::uint64_t damageOf(const fault::Fault& f) const;

  const rsn::Network* net_;
  AnalysisOptions options_;
  sp::DecompositionTree tree_;
};

}  // namespace rrsn::crit
