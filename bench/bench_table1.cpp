// Regenerates Table I: "Robust RSN Synthesis — SPEA-II Varying
// Optimization Criteria".
//
// For every benchmark: the initial assessment (max cost when everything
// is hardened, accumulated single-defect damage when nothing is), the
// SPEA-2 run with the paper's population rule and generation counts, and
// the two extracted solutions
//   * minimize cost   subject to damage <= 10 % of the initial damage,
//   * minimize damage subject to cost   <= 10 % of the max cost,
// plus the execution time [m:s].
//
// Environment knobs:
//   RRSN_TABLE1_SET    small | medium | all   (default: medium)
//                      small:  networks with <= 2,000 primitives
//                      medium: networks with <= 160,000 primitives
//                      all:    every row incl. the ~10^6-segment MBISTs
//   RRSN_TABLE1_SCALE  generation multiplier in (0, 100] (default 0.1;
//                      1.0 = the paper's full generation counts)
//   RRSN_TABLE1_SEED   RNG seed (default 2022)
// A malformed knob exits 2 with a message naming it.
//
// Absolute values differ from the paper (synthetic network instances,
// unspecified cost scale — see EXPERIMENTS.md); the shape to check is:
// damage drops by ~10x at a fraction of the full-hardening cost, and the
// runtime scales to the million-segment networks.
#include <iostream>

#include "bench_common.hpp"
#include "support/table.hpp"

int main() {
  using namespace rrsn;

  const std::string set =
      bench::envChoice("RRSN_TABLE1_SET", "medium", {"small", "medium", "all"});
  const double scale = bench::envScale("RRSN_TABLE1_SCALE", 0.1);
  const std::uint64_t seed = bench::envOrU64("RRSN_TABLE1_SEED", 2022);
  const std::size_t primitiveCap = set == "small"    ? 2'000
                                   : set == "medium" ? 160'000
                                                     : ~std::size_t{0};

  std::cout << "Table I — Robust RSN Synthesis, SPEA-II varying "
               "optimization criteria\n"
            << "(set=" << set << ", generation scale=" << scale
            << ", seed=" << seed
            << "; RRSN_TABLE1_SET=all RRSN_TABLE1_SCALE=1 reproduces the "
               "full experiment)\n\n";

  TextTable table({"Design", "#Seg", "#Mux", "Max. Cost", "Max. Damage",
                   "Gen.", "Cost", "Damage", "Cost", "Damage", "[m:s]"});
  table.setAlign(0, TextTable::Align::Left);

  TextTable compare({"Design", "damage kept (min-cost sol)", "paper",
                     "cost fraction (min-cost sol)", "paper",
                     "damage kept (min-damage sol)", "paper"});
  compare.setAlign(0, TextTable::Align::Left);

  const auto pct = [](double num, double den) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%",
                  den > 0 ? 100.0 * num / den : 0.0);
    return std::string(buf);
  };

  std::size_t skipped = 0;
  for (const benchgen::BenchmarkSpec& spec : benchgen::table1Benchmarks()) {
    if (spec.segments + spec.muxes > primitiveCap) {
      ++skipped;
      continue;
    }
    const bench::RowResult row = bench::runTable1Row(spec, scale, seed);
    const auto obj = [](const std::optional<moo::Objectives>& o,
                        bool cost) -> std::string {
      if (!o) return "-";
      return withThousands(cost ? o->cost : o->damage);
    };
    table.addRow({spec.name, withThousands(std::uint64_t{spec.segments}),
                  withThousands(std::uint64_t{spec.muxes}),
                  withThousands(row.maxCost), withThousands(row.maxDamage),
                  withThousands(std::uint64_t{row.generationsUsed}),
                  obj(row.minCost, true), obj(row.minCost, false),
                  obj(row.minDamage, true), obj(row.minDamage, false),
                  formatMinSec(row.seconds)});
    // Shape comparison against the published row.
    compare.addRow(
        {spec.name,
         row.minCost ? pct(static_cast<double>(row.minCost->damage),
                           static_cast<double>(row.maxDamage))
                     : "-",
         pct(static_cast<double>(spec.paper.minCostDamage),
             static_cast<double>(spec.paper.maxDamage)),
         row.minCost ? pct(static_cast<double>(row.minCost->cost),
                           static_cast<double>(row.maxCost))
                     : "-",
         pct(static_cast<double>(spec.paper.minCostCost),
             static_cast<double>(spec.paper.maxCost)),
         row.minDamage ? pct(static_cast<double>(row.minDamage->damage),
                             static_cast<double>(row.maxDamage))
                       : "-",
         pct(static_cast<double>(spec.paper.minDamageDamage),
             static_cast<double>(spec.paper.maxDamage))});
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n" << table << '\n';
  if (skipped > 0) {
    std::cout << "(" << skipped
              << " larger benchmarks skipped; run with RRSN_TABLE1_SET=all "
                 "to include them)\n\n";
  }
  std::cout << "Shape check vs the published Table I (columns 7-10 as "
               "fractions of the initial assessment):\n"
            << compare << '\n';
  return 0;
}
