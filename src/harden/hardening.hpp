// Selective hardening (Sec. V): problem assembly, hardening plans and
// the two Table-I solution extractions.
#pragma once

#include <iosfwd>
#include <optional>

#include "crit/analyzer.hpp"
#include "harden/cost_model.hpp"
#include "moo/baselines.hpp"
#include "moo/pareto.hpp"
#include "support/bitset.hpp"
#include "support/table.hpp"

namespace rrsn::harden {

/// The optimization instance for one network + spec + cost model.
struct HardeningProblem {
  const rsn::Network* net = nullptr;
  moo::LinearBiProblem linear;   ///< cost = c_j, gain = d_j per linear id
  std::uint64_t maxCost = 0;     ///< all primitives hardened (Table I col 4)
  std::uint64_t maxDamage = 0;   ///< nothing hardened        (Table I col 5)

  static HardeningProblem assemble(const rsn::Network& net,
                                   const crit::CriticalityResult& analysis,
                                   const CostModel& model = {});

  /// Same assembly with the cost sweep taken from a prebuilt flat view
  /// (callers holding one skip every per-id pointer lookup; identical
  /// output to the overload above).
  static HardeningProblem assemble(const rsn::Network& net,
                                   const rsn::FlatNetwork& flat,
                                   const crit::CriticalityResult& analysis,
                                   const CostModel& model = {});
};

/// A concrete selection of primitives to harden — the synthesis output.
/// The RSN topology is untouched (Sec. II "Access Patterns
/// Compatibility"); the plan only marks which cells are implemented with
/// hardened variants.
class HardeningPlan {
 public:
  HardeningPlan(const rsn::Network& net, const moo::Genome& genome);

  const rsn::Network& network() const { return *net_; }

  bool isHardened(rsn::PrimitiveRef ref) const {
    return hardened_.test(net_->linearId(ref));
  }
  bool isHardenedLinear(std::size_t linearId) const {
    return hardened_.test(linearId);
  }
  std::size_t hardenedCount() const { return hardened_.count(); }

  /// Hardened primitives in linear-id order.
  std::vector<rsn::PrimitiveRef> hardenedPrimitives() const;

  /// Objectives of this plan under a given analysis + cost model.
  moo::Objectives evaluate(const crit::CriticalityResult& analysis,
                           const CostModel& model = {}) const;

  /// Remaining damage grouped per fault: d_j of every unhardened j.
  std::vector<std::pair<rsn::PrimitiveRef, std::uint64_t>> residualDamage(
      const crit::CriticalityResult& analysis) const;

  /// Table listing the hardened primitives with cost and avoided damage.
  TextTable report(const crit::CriticalityResult& analysis,
                   const CostModel& model = {}) const;

 private:
  const rsn::Network* net_;
  DynamicBitset hardened_;
};

/// The two solutions Table I reports for every benchmark.
struct PaperSolutions {
  /// "Minimize cost, Damage <= frac * maxDamage" (cols 7-8).
  std::optional<moo::Individual> minCost;
  /// "Minimize damage, Cost <= frac * maxCost"   (cols 9-10).
  std::optional<moo::Individual> minDamage;
};

PaperSolutions extractPaperSolutions(const moo::ParetoArchive& archive,
                                     const HardeningProblem& problem,
                                     double frac = 0.10);

/// Plan serialization: one primitive name per line ("# ..." comments
/// allowed, also after a name).  The format survives renumbering — only
/// names are stored — so a plan written for a netlist can be applied to
/// any re-parse of it.  readPlan takes the names lint::readPlanNames
/// reads and throws ParseError on one the network does not have.
void writePlan(std::ostream& os, const HardeningPlan& plan);
HardeningPlan readPlan(std::istream& is, const rsn::Network& net);

/// Checks that no *critical* instrument (per spec flags) can be lost to a
/// fault at an unhardened primitive.  Exact: walks every fault effect.
/// Returns the list of violating faults (empty = plan is safe).
std::vector<fault::Fault> criticalExposures(const rsn::Network& net,
                                            const rsn::CriticalitySpec& spec,
                                            const HardeningPlan& plan);

}  // namespace rrsn::harden
