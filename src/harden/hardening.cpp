#include "harden/hardening.hpp"

#include <istream>
#include <ostream>

#include "fault/fault.hpp"
#include "lint/lint.hpp"

namespace rrsn::harden {

HardeningProblem HardeningProblem::assemble(
    const rsn::Network& net, const crit::CriticalityResult& analysis,
    const CostModel& model) {
  RRSN_CHECK(&analysis.network() == &net,
             "analysis belongs to a different network");
  HardeningProblem p;
  p.net = &net;
  p.linear.cost = model.costs(net);
  p.linear.gain = analysis.damages();
  p.linear.checkConsistent();
  p.maxCost = p.linear.costTotal();
  p.maxDamage = analysis.totalDamage();
  return p;
}

HardeningProblem HardeningProblem::assemble(
    const rsn::Network& net, const rsn::FlatNetwork& flat,
    const crit::CriticalityResult& analysis, const CostModel& model) {
  RRSN_CHECK(&analysis.network() == &net,
             "analysis belongs to a different network");
  RRSN_CHECK(flat.segmentCount() == net.segments().size() &&
                 flat.muxCount() == net.muxes().size(),
             "flat view belongs to a different network");
  HardeningProblem p;
  p.net = &net;
  p.linear.cost = model.costs(flat);
  p.linear.gain = analysis.damages();
  p.linear.checkConsistent();
  p.maxCost = p.linear.costTotal();
  p.maxDamage = analysis.totalDamage();
  return p;
}

HardeningPlan::HardeningPlan(const rsn::Network& net, const moo::Genome& genome)
    : net_(&net), hardened_(net.primitiveCount()) {
  RRSN_CHECK(genome.bits() == net.primitiveCount(),
             "genome length does not match the network's primitive count");
  for (std::uint32_t idx : genome.indices()) hardened_.set(idx);
}

std::vector<rsn::PrimitiveRef> HardeningPlan::hardenedPrimitives() const {
  std::vector<rsn::PrimitiveRef> out;
  out.reserve(hardened_.count());
  hardened_.forEachSet([&](std::size_t i) { out.push_back(net_->refOf(i)); });
  return out;
}

moo::Objectives HardeningPlan::evaluate(const crit::CriticalityResult& analysis,
                                        const CostModel& model) const {
  moo::Objectives obj;
  for (std::size_t j = 0; j < net_->primitiveCount(); ++j) {
    if (hardened_.test(j))
      obj.cost += model.costOf(*net_, net_->refOf(j));
    else
      obj.damage += analysis.damageOf(j);
  }
  return obj;
}

std::vector<std::pair<rsn::PrimitiveRef, std::uint64_t>>
HardeningPlan::residualDamage(const crit::CriticalityResult& analysis) const {
  std::vector<std::pair<rsn::PrimitiveRef, std::uint64_t>> out;
  for (std::size_t j = 0; j < net_->primitiveCount(); ++j) {
    if (!hardened_.test(j) && analysis.damageOf(j) > 0)
      out.emplace_back(net_->refOf(j), analysis.damageOf(j));
  }
  return out;
}

TextTable HardeningPlan::report(const crit::CriticalityResult& analysis,
                                const CostModel& model) const {
  TextTable table({"primitive", "kind", "cost c_j", "avoided damage d_j"});
  table.setAlign(0, TextTable::Align::Left);
  table.setAlign(1, TextTable::Align::Left);
  hardened_.forEachSet([&](std::size_t j) {
    const rsn::PrimitiveRef ref = net_->refOf(j);
    table.addRow({net_->primitiveName(ref),
                  ref.kind == rsn::PrimitiveRef::Kind::Segment ? "segment"
                                                               : "mux",
                  withThousands(model.costOf(*net_, ref)),
                  withThousands(analysis.damageOf(j))});
  });
  return table;
}

PaperSolutions extractPaperSolutions(const moo::ParetoArchive& archive,
                                     const HardeningProblem& problem,
                                     double frac) {
  PaperSolutions out;
  const auto damageBound = static_cast<std::uint64_t>(
      frac * static_cast<double>(problem.maxDamage));
  const auto costBound = static_cast<std::uint64_t>(
      frac * static_cast<double>(problem.maxCost));
  out.minCost = archive.minCostWithDamageAtMost(damageBound);
  out.minDamage = archive.minDamageWithCostAtMost(costBound);
  return out;
}

void writePlan(std::ostream& os, const HardeningPlan& plan) {
  os << "# hardening plan for network '" << plan.network().name() << "': "
     << plan.hardenedCount() << " primitives\n";
  for (const rsn::PrimitiveRef ref : plan.hardenedPrimitives())
    os << plan.network().primitiveName(ref) << '\n';
}

HardeningPlan readPlan(std::istream& is, const rsn::Network& net) {
  std::vector<std::uint32_t> hardened;
  for (const std::string& name : lint::readPlanNames(is)) {
    if (const rsn::SegmentId seg = net.findSegment(name); seg != rsn::kNone) {
      hardened.push_back(static_cast<std::uint32_t>(
          net.linearId({rsn::PrimitiveRef::Kind::Segment, seg})));
    } else if (const rsn::MuxId mux = net.findMux(name); mux != rsn::kNone) {
      hardened.push_back(static_cast<std::uint32_t>(
          net.linearId({rsn::PrimitiveRef::Kind::Mux, mux})));
    } else {
      throw ParseError("plan names unknown primitive '" + name + "'");
    }
  }
  return HardeningPlan(net, moo::Genome(net.primitiveCount(),
                                        std::move(hardened)));
}

std::vector<fault::Fault> criticalExposures(const rsn::Network& net,
                                            const rsn::CriticalitySpec& spec,
                                            const HardeningPlan& plan) {
  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(spec);
  const fault::FaultUniverse universe(net);
  std::vector<fault::Fault> exposures;
  for (const fault::Fault& f : universe.faults()) {
    const rsn::PrimitiveRef ref{
        f.kind == fault::FaultKind::SegmentBreak
            ? rsn::PrimitiveRef::Kind::Segment
            : rsn::PrimitiveRef::Kind::Mux,
        f.prim};
    if (plan.isHardened(ref)) continue;  // fault avoided
    const auto loss = fault::lossUnderFaultTree(tree, f);
    bool critical = false;
    loss.unobservable.forEachSet([&](std::size_t i) {
      critical |= spec.of(static_cast<rsn::InstrumentId>(i)).criticalObs;
    });
    loss.unsettable.forEachSet([&](std::size_t i) {
      critical |= spec.of(static_cast<rsn::InstrumentId>(i)).criticalSet;
    });
    if (critical) exposures.push_back(f);
  }
  return exposures;
}

}  // namespace rrsn::harden
