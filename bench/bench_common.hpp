// Helpers shared by the reproduction benches: the per-row Table-I
// pipeline (build network -> random spec -> criticality analysis ->
// SPEA-2 -> solution extraction) and strictly parsed environment knobs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/registry.hpp"
#include "crit/analyzer.hpp"
#include "harden/hardening.hpp"
#include "moo/baselines.hpp"
#include "moo/spea2.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace rrsn::bench {

/// Environment knobs.  An unset or empty knob takes its default; a
/// malformed one stops the bench with exit status 2 and a message that
/// names it, so a typo never runs a different experiment.
[[noreturn]] inline void rejectKnob(const std::string& why) {
  std::cerr << "error: " << why << '\n';
  std::exit(2);
}

inline const char* knob(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

inline std::uint64_t envOrU64(const char* name, std::uint64_t fallback) {
  const char* v = knob(name);
  if (v == nullptr) return fallback;
  try {
    return parseUintBounded(v, name, 0,
                            std::numeric_limits<std::uint64_t>::max());
  } catch (const Error& e) {
    rejectKnob(e.what());
  }
}

/// A generation multiplier in (0, 100]; 1.0 is the paper's budget.
inline double envScale(const char* name, double fallback) {
  const char* v = knob(name);
  if (v == nullptr) return fallback;
  double scale = 0.0;
  try {
    scale = parseDouble(v, name);
  } catch (const Error& e) {
    rejectKnob(e.what());
  }
  if (!(scale > 0.0 && scale <= 100.0)) {  // also rejects nan
    rejectKnob(std::string("invalid value for ") + name + ": '" + v +
               "' is not a multiplier in (0, 100]");
  }
  return scale;
}

/// One of `choices`.
inline std::string envChoice(const char* name, const char* fallback,
                             std::initializer_list<std::string_view> choices) {
  const char* v = knob(name);
  if (v == nullptr) return fallback;
  std::string allowed;
  for (const std::string_view c : choices) {
    if (c == v) return v;
    allowed += (allowed.empty() ? "" : "|") + std::string(c);
  }
  rejectKnob(std::string("invalid value for ") + name + ": '" + v +
             "' is not one of " + allowed);
}

/// Everything one Table-I row produces.
struct RowResult {
  const benchgen::BenchmarkSpec* spec = nullptr;
  std::uint64_t maxCost = 0;
  std::uint64_t maxDamage = 0;
  std::size_t generationsUsed = 0;
  std::optional<moo::Objectives> minCost;    ///< min cost @ damage <= 10 %
  std::optional<moo::Objectives> minDamage;  ///< min damage @ cost <= 10 %
  double seconds = 0.0;
  std::size_t criticalExposuresMinCost = 0;  ///< must be 0 (paper claim)
};

/// Runs the full pipeline for one benchmark row.
/// `generationScale` scales the paper's generation count (1.0 = full
/// fidelity); the scaled count is floored at 50 generations.
inline RowResult runTable1Row(const benchgen::BenchmarkSpec& spec,
                              double generationScale, std::uint64_t seed) {
  Stopwatch total;
  RowResult row;
  row.spec = &spec;

  const rsn::Network net = benchgen::buildBenchmark(spec);
  Rng rng(seed ^ (std::hash<std::string>{}(spec.name)));
  const rsn::CriticalitySpec cspec = rsn::randomSpec(net, {}, rng);
  const crit::CriticalityResult analysis =
      crit::CriticalityAnalyzer(net, cspec).run();
  const harden::HardeningProblem problem =
      harden::HardeningProblem::assemble(net, analysis);
  row.maxCost = problem.maxCost;
  row.maxDamage = problem.maxDamage;

  moo::EvolutionOptions options;
  options.populationSize = spec.populationSize();
  options.generations = std::max<std::size_t>(
      50, static_cast<std::size_t>(
              static_cast<double>(spec.generations) * generationScale));
  options.seed = seed;
  // Bound the per-genome memory on the million-bit instances
  // (~4 MB/genome at the cap; the machine budget allows dense genomes).
  options.maxInitOnes = 1'000'000;
  row.generationsUsed = options.generations;

  // Diversified initialization: a handful of greedy-ratio prefixes from
  // across the front (see EvolutionOptions::seedGenomes for why).
  {
    const moo::RunResult greedy =
        moo::greedyFront(problem.linear, options.populationSize / 4);
    const auto& members = greedy.archive.members();
    const std::size_t want = std::min<std::size_t>(
        members.size(), options.populationSize / 4);
    for (std::size_t k = 0; k < want; ++k) {
      const std::size_t idx = k * (members.size() - 1) / std::max<std::size_t>(1, want - 1);
      options.seedGenomes.push_back(members[idx].genome);
    }
  }

  const moo::RunResult result = moo::runSpea2(problem.linear, options);
  const harden::PaperSolutions sols =
      harden::extractPaperSolutions(result.archive, problem);
  if (sols.minCost) row.minCost = sols.minCost->obj;
  if (sols.minDamage) row.minDamage = sols.minDamage->obj;

  row.seconds = total.seconds();
  return row;
}

}  // namespace rrsn::bench
