// Ablation B: structural vs strict (control-dependency-aware)
// accessibility.
//
// The paper's criticality analysis is structural: it assumes mux address
// values can always be applied.  In a real defect RSN, address registers
// are themselves written through the network, so a fault can also block
// the *configuration* of an otherwise intact path.  The simulator-backed
// strict oracle (diag::FaultDictionary::measure: one retargeted read and
// write per instrument, each on a fresh fault-injected simulator)
// accounts for that.  This bench measures, per benchmark and over the
// complete single-fault universe, how many (instrument, fault)
// accessibility claims the structural analysis
// (fault::lossUnderFaultGraph) makes that do not survive end-to-end
// simulation — the optimism of the structural model.
#include <iostream>

#include "bench_common.hpp"
#include "diag/diagnosis.hpp"
#include "fault/effects.hpp"
#include "rsn/example_networks.hpp"
#include "support/table.hpp"

int main() {
  using namespace rrsn;

  TextTable table({"Design", "#instr", "#faults", "structural obs claims",
                   "confirmed strictly", "structural set claims",
                   "confirmed strictly", "optimism"});
  table.setAlign(0, TextTable::Align::Left);

  for (const char* name :
       {"fig1", "TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5"}) {
    const rsn::Network net = std::string(name) == "fig1"
                                 ? rsn::makeFig1Network()
                                 : benchgen::buildBenchmark(name);
    const fault::FaultUniverse universe(net);
    const std::size_t n = net.instruments().size();
    const auto flat = rsn::FlatNetwork::lower(net);

    std::size_t obsClaims = 0, obsConfirmed = 0;
    std::size_t setClaims = 0, setConfirmed = 0;
    for (const fault::Fault& f : universe.faults()) {
      const fault::AccessibilityLoss structural =
          fault::lossUnderFaultGraph(*flat, f);
      const diag::Syndrome strict = diag::FaultDictionary::measure(net, &f);
      for (rsn::InstrumentId i = 0; i < n; ++i) {
        const bool structObs = !structural.unobservable.test(i);
        const bool strictObs = strict.passed.test(2 * i);
        if (structObs) {
          ++obsClaims;
          obsConfirmed += strictObs;
        }
        // Sanity: strict accessibility must never exceed structural.
        if (strictObs && !structObs) {
          std::cerr << "BUG: strict > structural (obs) on " << name << '\n';
          return 1;
        }
        const bool structSet = !structural.unsettable.test(i);
        const bool strictSet = strict.passed.test(2 * i + 1);
        if (structSet) {
          ++setClaims;
          setConfirmed += strictSet;
        }
        if (strictSet && !structSet) {
          std::cerr << "BUG: strict > structural (set) on " << name << '\n';
          return 1;
        }
      }
    }
    const double optimism =
        100.0 *
        (1.0 - static_cast<double>(obsConfirmed + setConfirmed) /
                   static_cast<double>(obsClaims + setClaims));
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f%%", optimism);
    table.addRow({name, std::to_string(n), std::to_string(universe.size()),
                  withThousands(std::uint64_t{obsClaims}),
                  withThousands(std::uint64_t{obsConfirmed}),
                  withThousands(std::uint64_t{setClaims}),
                  withThousands(std::uint64_t{setConfirmed}), buf});
    std::cout << "." << std::flush;
  }
  std::cout << "\n\nAblation B — structural (paper) vs strict "
               "(simulation-backed) accessibility under single faults\n"
            << table
            << "\n(\"optimism\" = share of structural accessibility claims "
               "that fail once mux-address configuration must itself pass "
               "through the defect RSN; 0% would mean the structural "
               "model is exact)\n";
  return 0;
}
