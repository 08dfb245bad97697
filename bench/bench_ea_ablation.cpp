// Ablation A: optimizer quality.
//
// The paper solves selective hardening with SPEA-2 (via Opt4J) and cites
// NSGA-II as the standard alternative.  Because both objectives are
// linear, the problem is a bi-objective 0/1 knapsack, for which we can
// compute the exact Pareto front (DP) on small instances and a strong
// greedy front on all of them.  This bench compares, per benchmark:
//
//   SPEA-2, NSGA-II, random search (same evaluation budget), greedy,
//   and exact DP (where feasible)
//
// by normalized hypervolume (higher is better, 1.0 = exact) and by the
// additive-epsilon distance to the best known front.
#include <iostream>

#include "bench_common.hpp"
#include "moo/baselines.hpp"
#include "moo/nsga2.hpp"
#include "support/table.hpp"

int main() {
  using namespace rrsn;
  const std::uint64_t seed = bench::envOrU64("RRSN_SEED", 2022);
  const double scale = bench::envScale("RRSN_SCALE", 1.0);

  TextTable table({"Design", "optimizer", "evals", "hypervolume (norm.)",
                   "eps to best front", "min-cost sol (c, d)"});
  table.setAlign(0, TextTable::Align::Left);
  table.setAlign(1, TextTable::Align::Left);

  for (const char* name :
       {"TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5", "a586710"}) {
    const benchgen::BenchmarkSpec& spec = benchgen::findBenchmark(name);
    const rsn::Network net = benchgen::buildBenchmark(spec);
    Rng rng(seed ^ std::hash<std::string>{}(spec.name));
    const rsn::CriticalitySpec cspec = rsn::randomSpec(net, {}, rng);
    const auto analysis = crit::CriticalityAnalyzer(net, cspec).run();
    const auto problem = harden::HardeningProblem::assemble(net, analysis);

    moo::EvolutionOptions options;
    options.populationSize = spec.populationSize();
    options.generations = std::max<std::size_t>(
        50, static_cast<std::size_t>(
                static_cast<double>(spec.generations) * scale));
    options.seed = seed;

    struct Entry {
      std::string label;
      moo::RunResult result;
    };
    std::vector<Entry> entries;
    entries.push_back({"SPEA-2", moo::runSpea2(problem.linear, options)});
    entries.push_back({"NSGA-II", moo::runNsga2(problem.linear, options)});
    entries.push_back(
        {"random",
         moo::randomSearch(problem.linear,
                           options.populationSize * (options.generations + 1),
                           seed)});
    entries.push_back({"greedy", moo::greedyFront(problem.linear)});

    // Exact DP front when the instance is small enough.
    std::vector<moo::Objectives> best;
    std::string bestLabel = "greedy";
    try {
      best = moo::exactParetoFront(problem.linear);
      bestLabel = "exact DP";
    } catch (const Error&) {
      best = entries.back().result.archive.front();  // fall back to greedy
    }

    const moo::Objectives ref{problem.maxCost + 1, problem.maxDamage + 1};
    const double bestHv = moo::hypervolume2D(best, ref);

    table.addRow({spec.name, bestLabel, "-", "1.000", "0", "-"});
    for (const Entry& e : entries) {
      const auto front = e.result.archive.front();
      const double hv = moo::hypervolume2D(front, ref) / bestHv;
      const double eps = moo::additiveEpsilon(front, best);
      const auto sols =
          harden::extractPaperSolutions(e.result.archive, problem);
      char hvBuf[32];
      std::snprintf(hvBuf, sizeof hvBuf, "%.4f", hv);
      char epsBuf[32];
      std::snprintf(epsBuf, sizeof epsBuf, "%.0f", eps);
      table.addRow(
          {"", e.label,
           e.result.stats.evaluations == 0
               ? "-"
               : withThousands(std::uint64_t{e.result.stats.evaluations}),
           hvBuf, epsBuf,
           sols.minCost ? "(" + withThousands(sols.minCost->obj.cost) + ", " +
                              withThousands(sols.minCost->obj.damage) + ")"
                        : "-"});
    }
    table.addSeparator();
    std::cout << "." << std::flush;
  }
  std::cout << "\n\nAblation A — optimizer quality on the hardening "
               "bi-objective knapsack\n"
            << table
            << "\n(SPEA-2/NSGA-II should reach >= 0.99 normalized "
               "hypervolume and clearly beat random search at the same "
               "evaluation budget)\n";
  return 0;
}
