// Runtime-operation scenario (Sec. I / IV-A).
//
// "The device operation may be guided by runtime-adaptive instruments,
// e.g., Adaptive Voltage and Frequency Scaling (AVFS)...  Inaccessibility
// of such critical instruments due to a single fault in the RSN may cause
// a system failure."
//
// We model a small always-on monitoring RSN: two AVFS controllers whose
// *settability* is runtime-critical (high ds, per Sec. IV-A), a bank of
// interchangeable thermal sensors (low do each, ds ~ 0), and an error-
// rate monitor.  Selective hardening must keep every AVFS controller
// settable under any remaining single fault — verified twice, with the
// structural analysis and end-to-end with the fault-injecting simulator.
#include <iostream>
#include <optional>

#include "crit/analyzer.hpp"
#include "harden/hardening.hpp"
#include "moo/spea2.hpp"
#include "rsn/builder.hpp"
#include "sim/retarget.hpp"

namespace {

rrsn::rsn::Network makeMonitoringRsn() {
  using rrsn::rsn::NetworkBuilder;
  NetworkBuilder b("avfs_monitor");
  std::vector<NetworkBuilder::Handle> top;

  // Two AVFS domains, each: a SIB gating [vf-setting register + sensor].
  for (int d = 0; d < 2; ++d) {
    const std::string id = std::to_string(d);
    auto vf = b.segment("avfs" + id, 8, "avfs_ctl" + id);
    auto sense = b.segment("vsense" + id, 4, "vmon" + id);
    top.push_back(b.sib("sib_avfs" + id, b.chain({vf, sense})));
  }
  // Thermal sensor bank: four interchangeable sensors behind one mux.
  std::vector<NetworkBuilder::Handle> sensors;
  for (int t = 0; t < 4; ++t) {
    const std::string id = std::to_string(t);
    sensors.push_back(b.segment("tsense" + id, 6, "thermal" + id));
  }
  top.push_back(b.mux("tmux", std::move(sensors)));
  // Error-rate monitor, bypassable.
  top.push_back(
      b.mux("emux", {b.segment("errcnt", 12, "error_rate"), b.wire()}));
  b.setTop(b.chain(std::move(top)));
  return b.build();
}

}  // namespace

int main() {
  using namespace rrsn;
  const rsn::Network net = makeMonitoringRsn();

  // Explicit criticality specification (Sec. IV-A):
  //  * AVFS controllers: settability critical (high ds), low do;
  //  * sensors: low do, ds ~ 0 (interchangeably used);
  //  * error monitor: medium do.
  rsn::CriticalitySpec spec(net.instruments().size());
  std::uint64_t uncriticalSum = 0;
  for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
    const std::string& name = net.instrument(i).name;
    auto& w = spec.of(i);
    if (name.rfind("thermal", 0) == 0) w = {2, 0, false, false};
    else if (name.rfind("vmon", 0) == 0) w = {3, 0, false, false};
    else if (name == "error_rate") w = {6, 1, false, false};
    if (!w.criticalSet) uncriticalSum += w.set;
  }
  for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
    const std::string& name = net.instrument(i).name;
    if (name.rfind("avfs_ctl", 0) == 0) {
      auto& w = spec.of(i);
      w.obs = 1;
      w.criticalSet = true;
      w.set = 0;  // assigned below, after the uncritical sum is known
    }
  }
  for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
    if (spec.of(i).criticalSet) spec.of(i).set = uncriticalSum * 4 + 1;
  }

  const auto analysis = crit::CriticalityAnalyzer(net, spec).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  std::cout << "AVFS monitoring RSN: " << net.primitiveCount()
            << " primitives, max damage " << problem.maxDamage
            << ", max cost " << problem.maxCost << "\n\n";

  moo::EvolutionOptions options;
  options.populationSize = 60;
  options.generations = 200;
  options.seed = 5;
  const auto result = moo::runSpea2(problem.linear, options);

  // End-to-end criterion: under every fault that is still possible after
  // hardening, each AVFS controller must accept a new value *through the
  // defect RSN*, starting from the reset configuration (strict mode —
  // control bits are written through the network itself, not assumed).
  const fault::FaultUniverse universe(net);
  const auto flat = rsn::FlatNetwork::lower(net);
  const auto strictlySafe = [&](const harden::HardeningPlan& plan,
                                const fault::Fault** blocking) {
    for (const fault::Fault& f : universe.faults()) {
      const rsn::PrimitiveRef ref{f.kind == fault::FaultKind::SegmentBreak
                                      ? rsn::PrimitiveRef::Kind::Segment
                                      : rsn::PrimitiveRef::Kind::Mux,
                                  f.prim};
      if (plan.isHardened(ref)) continue;
      for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
        if (!spec.of(i).criticalSet) continue;
        sim::ScanSimulator sim(net);
        sim.injectFault(f);
        sim::Retargeter rt(sim, *flat);
        const auto len = net.segment(net.instrument(i).segment).length;
        if (!rt.writeInstrument(i, sim::accessMarker(len)).success) {
          if (blocking != nullptr) *blocking = &f;
          return false;
        }
      }
    }
    return true;
  };

  // Walk the Pareto front from cheap to expensive; take the first plan
  // that passes both the structural and the strict check.  Plans that
  // satisfy the paper's structural criterion but fail strictly are
  // reported — that is exactly the control-dependency gap quantified by
  // bench_control_dependency.
  std::optional<harden::HardeningPlan> chosen;
  for (const moo::Individual& ind : result.archive.members()) {
    harden::HardeningPlan plan(net, ind.genome);
    if (!harden::criticalExposures(net, spec, plan).empty()) continue;
    const fault::Fault* blocking = nullptr;
    if (!strictlySafe(plan, &blocking)) {
      std::cout << "plan with cost " << ind.obj.cost
                << " is structurally safe but fails strictly (e.g. under "
                << fault::describe(net, *blocking)
                << " a control register cannot be written) — skipping\n";
      continue;
    }
    std::cout << "\nchosen plan: cost " << ind.obj.cost
              << ", residual damage " << ind.obj.damage << "\n";
    chosen.emplace(std::move(plan));
    break;
  }
  if (!chosen) {
    std::cerr << "no strictly safe plan on the front; increase generations\n";
    return 1;
  }
  std::cout << "hardened primitives:";
  for (const auto& ref : chosen->hardenedPrimitives())
    std::cout << ' ' << net.primitiveName(ref);
  std::cout << "\n\nverified by simulation: both AVFS controllers remain "
               "settable under every remaining single fault\n";
  return 0;
}
