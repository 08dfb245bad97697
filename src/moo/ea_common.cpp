#include "moo/ea_common.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "support/parallel.hpp"
#include "support/status.hpp"

namespace rrsn::moo::detail {

std::vector<Individual> initialPopulation(const LinearBiProblem& problem,
                                          std::uint64_t damageTotal,
                                          const EvolutionOptions& options,
                                          Rng& rng) {
  RRSN_CHECK(options.populationSize >= 1, "population needs >= 1 individual");
  const std::size_t bits = problem.size();
  std::vector<Individual> pop;
  pop.reserve(options.populationSize);
  // Genomes are drawn serially (the RNG stream is strictly ordered) …
  for (std::size_t i = 0; i < options.populationSize; ++i) {
    Genome g(bits);
    if (i >= 2 && i - 2 < options.seedGenomes.size()) {
      g = options.seedGenomes[i - 2];
      RRSN_CHECK(g.bits() == bits, "seed genome length mismatch");
    } else if (i == 1 && bits > 0) {
      // Individual 1: everything hardened — the expensive Pareto endpoint.
      // Together with the all-zero individual 0 both anchors exist from
      // generation 0, and one-point crossover against the dense anchor
      // lets the search descend from the low-damage end.
      g = Genome::allOnes(bits);
    } else if (i != 0 && bits > 0) {
      const double u = rng.uniform();
      double density = std::min(u * u, options.maxInitDensity);
      if (options.maxInitOnes > 0) {
        density = std::min(density, static_cast<double>(options.maxInitOnes) /
                                        static_cast<double>(bits));
      }
      g = Genome::random(bits, density, rng);
    }
    Individual ind;
    ind.genome = std::move(g);
    pop.push_back(std::move(ind));
  }
  // … and evaluated on the pool — each O(ones) scan writes only its own
  // objective slot, so the result is thread-count independent.
  parallelFor(
      pop.size(),
      [&](std::size_t i) {
        pop[i].obj = evaluate(problem, pop[i].genome, damageTotal);
      },
      /*grain=*/1);
  return pop;
}

void prepareParents(const LinearBiProblem& problem,
                    const std::vector<Individual>& pool,
                    const std::vector<VariationPlan>& plans) {
  std::vector<std::size_t> need;
  need.reserve(plans.size() * 2);
  for (const VariationPlan& p : plans) {
    if (!p.crossover) continue;
    need.push_back(p.parentA);
    need.push_back(p.parentB);
  }
  std::sort(need.begin(), need.end());
  need.erase(std::unique(need.begin(), need.end()), need.end());
  std::erase_if(need, [&](std::size_t i) {
    return pool[i].genome.hasWeightIndex();
  });
  // Distinct genomes — each lazy build touches only its own cache slot.
  parallelFor(
      need.size(),
      [&](std::size_t i) { pool[need[i]].genome.weightIndex(problem); },
      /*grain=*/1);
}

Individual applyVariationPlan(const LinearBiProblem& problem,
                              std::uint64_t damageTotal,
                              const std::vector<Individual>& pool,
                              const VariationPlan& plan,
                              bool verifyObjectives) {
  const Individual& a = pool[plan.parentA];
  Individual ind;
  if (plan.crossover) {
    const Individual& b = pool[plan.parentB];
    // Child objectives from the parents' prefix sums: O(log ones) for a
    // sparse parent, O(1) plus one partial word for a dense one —
    // instead of an O(ones) re-scan of the child.
    const WeightIndex& ia = a.genome.weightIndex(problem);
    const WeightIndex& ib = b.genome.weightIndex(problem);
    const WeightIndex::Prefix pa = ia.below(a.genome, plan.point);
    const WeightIndex::Prefix pb = ib.below(b.genome, plan.point);
    const WeightIndex::Prefix& tb = ib.total();
    ind.genome = Genome::crossoverWithCounts(a.genome, b.genome, plan.point,
                                             pa.ones, tb.ones - pb.ones);
    const std::uint64_t gain = pa.gain + (tb.gain - pb.gain);
    ind.obj.cost = pa.cost + (tb.cost - pb.cost);
    ind.obj.damage = damageTotal - gain;
  } else {
    ind.genome = a.genome;
    ind.obj = a.obj;
  }
  // Each flip shifts the objectives by the bit's weights in O(1).
  std::uint64_t cost = ind.obj.cost;
  std::uint64_t damage = ind.obj.damage;
  ind.genome.applyFlips(plan.flips, [&](std::uint32_t idx, bool nowSet) {
    if (nowSet) {
      cost += problem.cost[idx];
      damage -= problem.gain[idx];
    } else {
      cost -= problem.cost[idx];
      damage += problem.gain[idx];
    }
  });
  ind.obj.cost = cost;
  ind.obj.damage = damage;
  if (verifyObjectives) {
    const Objectives full = evaluate(problem, ind.genome, damageTotal);
    if (!(ind.obj == full)) {
      obs::raiseIfError(Status::internal(
          "incremental objectives diverged from full evaluation: got (cost " +
          std::to_string(ind.obj.cost) + ", damage " +
          std::to_string(ind.obj.damage) + "), expected (cost " +
          std::to_string(full.cost) + ", damage " +
          std::to_string(full.damage) + ")"));
    }
  }
  return ind;
}

}  // namespace rrsn::moo::detail
