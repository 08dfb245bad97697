// Post-silicon validation scenario (Sec. I).
//
// "A fault in an RSN may prevent accessing a major part of instruments,
// such that only incomplete data can be extracted."
//
// This example injects every single permanent fault into an SoC-style
// benchmark RSN and measures how much instrument data can still be
// extracted — first on the unhardened network, then after synthesizing a
// robust one (min-cost solution with damage <= 10 %).  Hardened
// primitives cannot fail, so their faults disappear from the fault list.
#include <algorithm>
#include <iostream>

#include "benchgen/registry.hpp"
#include "crit/analyzer.hpp"
#include "fault/effects.hpp"
#include "harden/hardening.hpp"
#include "moo/spea2.hpp"
#include "support/table.hpp"

int main() {
  using namespace rrsn;

  const rsn::Network net = benchgen::buildBenchmark("q12710");
  Rng rng(2022);
  const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
  const std::size_t numInstruments = net.instruments().size();
  std::cout << "network q12710: " << net.segments().size() << " segments, "
            << net.muxes().size() << " muxes, " << numInstruments
            << " instruments\n\n";

  // Synthesize the robust RSN.
  const auto analysis = crit::CriticalityAnalyzer(net, spec).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = 100;
  options.generations = 300;
  options.seed = 7;
  const auto result = moo::runSpea2(problem.linear, options);
  const auto sols = harden::extractPaperSolutions(result.archive, problem);
  if (!sols.minCost) {
    std::cerr << "no solution met the damage bound; increase generations\n";
    return 1;
  }
  const harden::HardeningPlan plan(net, sols.minCost->genome);
  std::cout << "hardening plan: " << plan.hardenedCount() << " of "
            << net.primitiveCount() << " primitives, cost "
            << sols.minCost->obj.cost << " of " << problem.maxCost << "\n\n";

  // Fault-by-fault data-extraction coverage (observability).
  const fault::FaultUniverse universe(net);
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(spec);

  struct Tally {
    std::size_t faults = 0;
    double worstExtract = 100.0;
    double sumExtract = 0.0;
    std::uint64_t worstDamage = 0;
    std::uint64_t sumDamage = 0;

    void account(double extractable, std::uint64_t damage) {
      ++faults;
      sumExtract += extractable;
      worstExtract = std::min(worstExtract, extractable);
      sumDamage += damage;
      worstDamage = std::max(worstDamage, damage);
    }
  };
  Tally unhardened;
  Tally hardened;

  for (const fault::Fault& f : universe.faults()) {
    const auto loss = fault::lossUnderFaultTree(tree, f);
    const double extractable =
        100.0 *
        static_cast<double>(numInstruments - loss.unobservable.count()) /
        static_cast<double>(numInstruments);
    const std::uint64_t damage = fault::damageOfLoss(spec, loss);
    unhardened.account(extractable, damage);

    const rsn::PrimitiveRef ref{f.kind == fault::FaultKind::SegmentBreak
                                    ? rsn::PrimitiveRef::Kind::Segment
                                    : rsn::PrimitiveRef::Kind::Mux,
                                f.prim};
    if (plan.isHardened(ref)) continue;  // this defect can no longer occur
    hardened.account(extractable, damage);
  }

  TextTable table({"RSN", "possible faults", "avg extractable data",
                   "worst extractable data", "worst single-fault damage",
                   "sum of fault damages"});
  table.setAlign(0, TextTable::Align::Left);
  const auto pct = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%", v);
    return std::string(buf);
  };
  const auto addRow = [&](const char* name, const Tally& t) {
    table.addRow({name, std::to_string(t.faults),
                  pct(t.sumExtract / static_cast<double>(t.faults)),
                  pct(t.worstExtract), withThousands(t.worstDamage),
                  withThousands(t.sumDamage)});
  };
  addRow("initial (unhardened)", unhardened);
  addRow("robust (selectively hardened)", hardened);
  std::cout << table
            << "\n(on the robust RSN the most damaging defects are "
               "impossible by construction: the accumulated weighted "
               "damage over all remaining single faults dropped below "
               "10% of the initial assessment, and critical instruments "
               "stay accessible)\n";
  return 0;
}
