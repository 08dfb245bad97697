// Regenerates the paper's figures on the running example:
//   Fig. 1 — the example RSN (netlist form + Graphviz DOT),
//   Fig. 2 — its directed-graph model (DOT),
//   Fig. 3 — the annotated binary decomposition tree (ASCII + DOT),
//   Fig. 4 — the accessibility loss under "m0 stuck-at-1" (the paper's
//            example fault: instruments i1, i2, i3 become inaccessible).
//
// DOT output can be rendered with `dot -Tpng`.
#include <iostream>

#include "fault/effects.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "sp/decomposition.hpp"

int main() {
  using namespace rrsn;
  const rsn::Network net = rsn::makeFig1Network();
  const rsn::CriticalitySpec spec = rsn::makeFig1Spec(net);

  std::cout << "===== Fig. 1 — example RSN (netlist form) =====\n"
            << rsn::netlistToString(net) << '\n';

  std::cout << "===== Fig. 2 — directed graph model (DOT) =====\n"
            << rsn::toDot(net) << '\n';

  sp::DecompositionTree tree = sp::DecompositionTree::build(net);
  tree.annotate(spec);
  std::cout << "===== Fig. 3 — annotated binary decomposition tree =====\n"
            << tree.toAscii() << '\n'
            << "DOT form:\n"
            << tree.toDot("fig3_decomposition_tree") << '\n';

  std::cout << "===== Fig. 4 — fault effect of stuck(m0=1) =====\n";
  const fault::Fault f = fault::Fault::muxStuck(net.findMux("m0"), 1);
  const auto loss = fault::lossUnderFaultTree(tree, f);
  std::cout << "fault: " << fault::describe(net, f) << '\n'
            << "unobservable instruments:";
  loss.unobservable.forEachSet([&](std::size_t i) {
    std::cout << ' ' << net.instrument(static_cast<rsn::InstrumentId>(i)).name;
  });
  std::cout << "\nunsettable instruments:  ";
  loss.unsettable.forEachSet([&](std::size_t i) {
    std::cout << ' ' << net.instrument(static_cast<rsn::InstrumentId>(i)).name;
  });
  std::cout << "\n(paper: \"the instruments i1, i2 and i3 become "
               "inaccessible\")\n\n";

  std::cout << "weighted damage of this fault: "
            << fault::damageOfLoss(spec, loss) << '\n';
  return 0;
}
