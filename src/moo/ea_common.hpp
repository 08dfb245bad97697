// Shared scaffolding of the evolutionary optimizers (SPEA-2, NSGA-II):
// option block, population initialization and variation operators.
//
// Variation is split into two halves so the mating loop can fan out on
// the thread pool without losing reproducibility:
//
//  * drawVariationPlan — consumes ALL randomness for one offspring
//    (tournament indices, crossover coin and point, mutation positions)
//    on the calling thread, in exactly the order of the historical
//    serial loop;
//  * applyVariationPlan — materializes one plan into an offspring.
//    Deterministic and side-effect-free given the plan, so plans can be
//    applied concurrently in any order with results bit-identical at
//    any RRSN_THREADS — including byte-identical Pareto fronts against
//    the old fully-serial loop at a fixed seed.
//
// applyVariationPlan also never re-scans the child: a crossover child's
// objectives come from the parents' WeightIndex prefix sums (two
// O(log ones) lookups), and each mutation flip adjusts them by the
// flipped bit's +-(cost, gain) in O(1).  Every 64th offspring is
// cross-checked against a full evaluate() in every build.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "moo/pareto.hpp"
#include "obs/obs.hpp"
#include "support/parallel.hpp"

namespace rrsn::moo {

/// Options common to both EAs; the defaults are the paper's Sec. VI
/// parameters (population is chosen per benchmark: 300 when the network
/// has more than 100 muxes, 100 otherwise).
struct EvolutionOptions {
  std::size_t populationSize = 100;
  std::size_t archiveSize = 0;   ///< 0: same as populationSize (SPEA-2 only)
  std::size_t generations = 300;
  double crossoverProb = 0.95;      ///< standard one-point crossover
  double mutationProbPerBit = 0.01; ///< independent bit mutation
  /// Initial genomes draw their one-density as u^2 with u ~ U[0, 1) —
  /// the whole density range is covered (both Pareto-front ends need
  /// seeds) with a bias toward the sparse region where the interesting
  /// trade-offs live.  Individuals 0 and 1 start all-zero / all-one,
  /// anchoring both Pareto endpoints from generation 0.
  double maxInitDensity = 1.0;
  /// Absolute cap on the expected ones of an initial genome, protecting
  /// memory on the ~10^6-bit instances.  0 disables the cap.
  std::size_t maxInitOnes = 250'000;
  std::uint64_t seed = 1;
  /// Extra genomes injected into the initial population (after the two
  /// endpoint anchors), e.g. greedy-ratio prefixes.  The paper only says
  /// the initial genes are "a diversified set"; on instances with
  /// hundreds of thousands of bits a purely random population cannot
  /// reach the sparse knee within the published generation budgets, so
  /// the Table-I harness seeds greedy prefixes here and lets the EA
  /// refine them.  Leave empty for a fully random start.
  std::vector<Genome> seedGenomes;
};

/// Progress callback: (generation index, current nondominated archive).
using ProgressFn =
    std::function<void(std::size_t, const std::vector<Individual>&)>;

namespace detail {

/// Diversified initial population (Sec. V step 2).
std::vector<Individual> initialPopulation(const LinearBiProblem& problem,
                                          std::uint64_t damageTotal,
                                          const EvolutionOptions& options,
                                          Rng& rng);

/// The pre-drawn recipe for one offspring: parent indices into the
/// mating pool, the crossover decision, and the sorted distinct bit
/// positions to flip afterwards.
struct VariationPlan {
  std::size_t parentA = 0;
  std::size_t parentB = 0;
  bool crossover = false;
  std::size_t point = 0;               ///< meaningful iff crossover
  std::vector<std::uint32_t> flips;    ///< ascending distinct positions
};

/// Draws one plan.  `tournament` returns an index into the mating pool
/// and may itself consume randomness (binary tournament draws two).
/// The draw order replays the replaced serial call site byte for byte:
/// parent B's tournament ran first there (the offspring expression
/// evaluated its arguments right to left), then parent A's, then the
/// crossover coin, the cut point, the binomial flip count and the flip
/// positions.  Keep this order — it is what makes new runs byte-
/// identical to the committed baseline fronts at a fixed seed.
template <typename TournamentFn>
VariationPlan drawVariationPlan(std::size_t bits,
                                const EvolutionOptions& options,
                                TournamentFn&& tournament, Rng& rng) {
  VariationPlan plan;
  plan.parentB = tournament();
  plan.parentA = tournament();
  plan.crossover = rng.chance(options.crossoverProb);
  if (plan.crossover)
    plan.point = bits == 0 ? 0 : static_cast<std::size_t>(rng.below(bits + 1));
  if (bits > 0 && options.mutationProbPerBit > 0.0) {
    const std::uint64_t draw =
        rng.binomial(bits, std::min(options.mutationProbPerBit, 1.0));
    if (draw > 0) {
      const auto sampled =
          rng.sampleIndices(bits, std::min<std::size_t>(draw, bits));
      plan.flips.assign(sampled.begin(), sampled.end());
    }
  }
  return plan;
}

/// Builds the WeightIndex of every distinct parent referenced by a
/// crossover plan, fanning the O(ones) builds out on the pool.  Must run
/// before applyVariationPlan calls are issued concurrently: the lazy
/// weightIndex() cache is not thread-safe per genome, and two plans may
/// share a parent.
void prepareParents(const LinearBiProblem& problem,
                    const std::vector<Individual>& pool,
                    const std::vector<VariationPlan>& plans);

/// Materializes one plan: crossover (or clone of parent A), mutation,
/// objectives — all incremental, no full re-evaluation.  Thread-safe for
/// concurrent calls over a shared pool once prepareParents ran.
///
/// `verifyObjectives` requests a full evaluate() cross-check of the
/// incremental objectives — the EAs sample every 64th offspring
/// (deterministic by index, consuming no randomness), so a drifting
/// incremental update is caught within one generation at ~1.6 % of the
/// O(ones) re-scan cost.  A mismatch throws obs::InvariantError.
/// genome_kernel_test compares every child against evaluate().
Individual applyVariationPlan(const LinearBiProblem& problem,
                              std::uint64_t damageTotal,
                              const std::vector<Individual>& pool,
                              const VariationPlan& plan,
                              bool verifyObjectives = false);

/// The full mating step both EAs share: draws `count` plans serially
/// (preserving the historical randomness order), pre-builds the parent
/// weight indexes, then materializes all offspring on the thread pool.
template <typename TournamentFn>
std::vector<Individual> makeOffspringBatch(const LinearBiProblem& problem,
                                           std::uint64_t damageTotal,
                                           const std::vector<Individual>& pool,
                                           std::size_t count,
                                           const EvolutionOptions& options,
                                           TournamentFn&& tournament,
                                           Rng& rng) {
  const std::size_t bits = problem.size();
  static const obs::MetricId kOffspring = obs::counter("moo.offspring");
  std::vector<VariationPlan> plans;
  plans.reserve(count);
  {
    RRSN_OBS_SPAN("moo.plan");
    for (std::size_t i = 0; i < count; ++i)
      plans.push_back(drawVariationPlan(bits, options, tournament, rng));
  }
  {
    RRSN_OBS_SPAN("moo.prepare_parents");
    prepareParents(problem, pool, plans);
  }
  std::vector<Individual> offspring(count);
  {
    RRSN_OBS_SPAN("moo.materialize");
    parallelFor(
        count,
        [&](std::size_t i) {
          // Every 64th offspring is re-evaluated from scratch as an
          // always-on oracle for the incremental objective bookkeeping;
          // the index-based sample keeps the check deterministic and
          // consumes no randomness.
          offspring[i] = applyVariationPlan(problem, damageTotal, pool,
                                            plans[i], (i % 64) == 0);
        },
        /*grain=*/1);
  }
  obs::count(kOffspring, count);
  return offspring;
}

}  // namespace detail
}  // namespace rrsn::moo
