// Microbenchmarks (google-benchmark) of the performance-critical kernels:
// decomposition-tree construction, weight annotation, per-primitive
// damage computation, the graph-oracle fault effect (the O(N) path we
// avoid), one fault-dictionary syndrome row (batched frontier sweeps vs
// the per-probe simulator reference), genome variation operators and one
// SPEA-2 generation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "benchgen/registry.hpp"
#include "crit/analyzer.hpp"
#include "diag/batched.hpp"
#include "diag/diagnosis.hpp"
#include "fault/effects.hpp"
#include "harden/hardening.hpp"
#include "moo/spea2.hpp"
#include "rsn/flat.hpp"
#include "support/parallel.hpp"

namespace {

using namespace rrsn;

const rsn::Network& netOf(const std::string& name) {
  static std::map<std::string, rsn::Network> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, benchgen::buildBenchmark(name)).first;
  return it->second;
}

const rsn::CriticalitySpec& specOf(const std::string& name) {
  static std::map<std::string, rsn::CriticalitySpec> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    Rng rng(7);
    it = cache.emplace(name, rsn::randomSpec(netOf(name), {}, rng)).first;
  }
  return it->second;
}

const rsn::FlatNetwork& flatOf(const std::string& name) {
  static std::map<std::string, std::shared_ptr<const rsn::FlatNetwork>> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, rsn::FlatNetwork::lower(netOf(name))).first;
  return *it->second;
}

void BM_DecompositionBuild(benchmark::State& state,
                           const std::string& name) {
  const rsn::Network& net = netOf(name);
  for (auto _ : state) {
    auto tree = sp::DecompositionTree::build(net);
    benchmark::DoNotOptimize(tree.nodeCount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.primitiveCount()));
}

void BM_Annotate(benchmark::State& state, const std::string& name) {
  const rsn::Network& net = netOf(name);
  auto tree = sp::DecompositionTree::build(net);
  const auto& spec = specOf(name);
  for (auto _ : state) {
    tree.annotate(spec);
    benchmark::DoNotOptimize(tree.node(tree.root()).sumObs);
  }
}

void BM_CriticalityAnalysis(benchmark::State& state,
                            const std::string& name) {
  const rsn::Network& net = netOf(name);
  const auto& spec = specOf(name);
  const crit::CriticalityAnalyzer analyzer(net, spec);
  for (auto _ : state) {
    const auto result = analyzer.run();
    benchmark::DoNotOptimize(result.totalDamage());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.primitiveCount()));
}

void BM_GraphOracleSingleFault(benchmark::State& state,
                               const std::string& name) {
  const rsn::FlatNetwork& flat = flatOf(name);
  const fault::Fault f = fault::Fault::segmentBreak(
      static_cast<rsn::SegmentId>(flat.segmentCount() / 2));
  for (auto _ : state) {
    const auto loss = fault::lossUnderFaultGraph(flat, f);
    benchmark::DoNotOptimize(loss.unobservable.count());
  }
}

// One syndrome row for a mid-network segment break.  The batched
// reference engine pays a handful of frontier sweeps over the flat
// control view; the per-probe simulator reference pays
// 2*|instruments| retargeted accesses on a fresh simulator.  The ratio
// of these two rows is the speedup of static rows over simulation.
void BM_DictRowBatched(benchmark::State& state, const std::string& name) {
  const rsn::Network& net = netOf(name);
  const diag::BatchedSyndromeEngine engine(net);
  const fault::Fault f = fault::Fault::segmentBreak(
      static_cast<rsn::SegmentId>(net.segments().size() / 2));
  for (auto _ : state) {
    const diag::Syndrome row = engine.row(&f, 0);
    benchmark::DoNotOptimize(row.passed.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.instruments().size()));
}

void BM_DictRowProbe(benchmark::State& state, const std::string& name) {
  const rsn::Network& net = netOf(name);
  const fault::Fault f = fault::Fault::segmentBreak(
      static_cast<rsn::SegmentId>(net.segments().size() / 2));
  for (auto _ : state) {
    const diag::Syndrome row = diag::FaultDictionary::measure(net, &f);
    benchmark::DoNotOptimize(row.passed.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.instruments().size()));
}

// Flat-vs-pointer iteration kernels: the same traversal against the
// Network's primitive records and against the FlatNetwork arena
// (contiguous id-indexed spans + CSR).  Their ratio quantifies what the
// SoA lowering buys the hot consumers.  The flat-only walks time the
// arena's CSR and control tuples on their own.

/// Sums every segment length through the Network's segment records.
void BM_SegmentScanPointer(benchmark::State& state, const std::string& name) {
  const rsn::Network& net = netOf(name);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const rsn::Segment& seg : net.segments()) sum += seg.length;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.segments().size()));
}

/// The same sum over the flat segLength span.
void BM_SegmentScanFlat(benchmark::State& state, const std::string& name) {
  const rsn::FlatNetwork& flat = flatOf(name);
  const auto lengths = flat.segLength();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const std::uint32_t len : lengths) sum += len;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lengths.size()));
}

/// Walks every vertex's successor row of the flat forward CSR (one
/// contiguous edge array).
void BM_NeighborWalkFlat(benchmark::State& state, const std::string& name) {
  const rsn::FlatNetwork& flat = flatOf(name);
  const auto offsets = flat.fwdOffsets();
  const auto edges = flat.fwdEdges();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t v = 0; v + 1 < offsets.size(); ++v)
      for (std::uint64_t e = offsets[v]; e < offsets[v + 1]; ++e)
        sum += edges[e].other;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}

/// Gathers every mux's control tuple (control segment + branch count)
/// from the flat arena (muxControl span + branch CSR offsets).
void BM_ControlGatherFlat(benchmark::State& state, const std::string& name) {
  const rsn::FlatNetwork& flat = flatOf(name);
  const auto control = flat.muxControl();
  const auto branchOffsets = flat.muxBranchOffsets();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t m = 0; m < control.size(); ++m)
      sum += control[m] + (branchOffsets[m + 1] - branchOffsets[m]);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(control.size()));
}

// Density 0.05 keeps the parents in the sparse representation; 0.3 puts
// them in the dense (word-packed) one — the two rows of the hybrid
// genome's crossover matrix.
void runGenomeCrossover(benchmark::State& state, double density) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const auto a = moo::Genome::random(bits, density, rng);
  const auto b = moo::Genome::random(bits, density, rng);
  std::size_t point = 0;
  for (auto _ : state) {
    auto child = moo::Genome::crossover(a, b, point);
    benchmark::DoNotOptimize(child.ones());
    point = (point + bits / 7 + 1) % (bits + 1);
  }
}

void BM_GenomeCrossover(benchmark::State& state) {
  runGenomeCrossover(state, 0.05);
}

void BM_GenomeCrossoverDense(benchmark::State& state) {
  runGenomeCrossover(state, 0.3);
}

void runGenomeMutate(benchmark::State& state, double density) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  auto g = moo::Genome::random(bits, density, rng);
  for (auto _ : state) {
    g.mutatePerBit(0.01, rng);
    benchmark::DoNotOptimize(g.ones());
  }
}

void BM_GenomeMutate(benchmark::State& state) { runGenomeMutate(state, 0.05); }

void BM_GenomeMutateDense(benchmark::State& state) {
  runGenomeMutate(state, 0.3);
}

moo::LinearBiProblem syntheticProblem(std::size_t bits) {
  Rng rng(11);
  moo::LinearBiProblem p;
  p.cost.reserve(bits);
  p.gain.reserve(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    p.cost.push_back(rng.below(1000) + 1);
    p.gain.push_back(rng.below(1000) + 1);
  }
  return p;
}

/// A crossover child's objectives the old way: materialize the child and
/// re-scan all of its one-bits.
void runCrossoverObjectivesFull(benchmark::State& state, double density) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto problem = syntheticProblem(bits);
  const std::uint64_t damageTotal = problem.damageTotal();
  Rng rng(5);
  const auto a = moo::Genome::random(bits, density, rng);
  const auto b = moo::Genome::random(bits, density, rng);
  std::size_t point = 0;
  for (auto _ : state) {
    const auto child = moo::Genome::crossover(a, b, point);
    const auto obj = moo::evaluate(problem, child, damageTotal);
    benchmark::DoNotOptimize(obj.cost);
    point = (point + bits / 7 + 1) % (bits + 1);
  }
}

/// The same objectives from the parents' WeightIndex prefix sums — two
/// O(log ones) lookups, no child scan.
void runCrossoverObjectivesIndexed(benchmark::State& state, double density) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto problem = syntheticProblem(bits);
  const std::uint64_t damageTotal = problem.damageTotal();
  Rng rng(5);
  const auto a = moo::Genome::random(bits, density, rng);
  const auto b = moo::Genome::random(bits, density, rng);
  const moo::WeightIndex& ia = a.weightIndex(problem);
  const moo::WeightIndex& ib = b.weightIndex(problem);
  std::size_t point = 0;
  for (auto _ : state) {
    const auto pa = ia.below(a, point);
    const auto pb = ib.below(b, point);
    moo::Objectives obj;
    obj.cost = pa.cost + (ib.total().cost - pb.cost);
    obj.damage = damageTotal - (pa.gain + (ib.total().gain - pb.gain));
    benchmark::DoNotOptimize(obj.cost);
    point = (point + bits / 7 + 1) % (bits + 1);
  }
}

void BM_CrossoverObjectivesFullSparse(benchmark::State& state) {
  runCrossoverObjectivesFull(state, 0.05);
}
void BM_CrossoverObjectivesFullDense(benchmark::State& state) {
  runCrossoverObjectivesFull(state, 0.3);
}
void BM_CrossoverObjectivesIndexedSparse(benchmark::State& state) {
  runCrossoverObjectivesIndexed(state, 0.05);
}
void BM_CrossoverObjectivesIndexedDense(benchmark::State& state) {
  runCrossoverObjectivesIndexed(state, 0.3);
}

/// Post-mutation objectives the old way: full O(ones) re-evaluation.
void BM_MutateObjectivesFull(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto problem = syntheticProblem(bits);
  const std::uint64_t damageTotal = problem.damageTotal();
  Rng rng(5);
  auto g = moo::Genome::random(bits, 0.3, rng);
  for (auto _ : state) {
    g.mutatePerBit(0.01, rng);
    const auto obj = moo::evaluate(problem, g, damageTotal);
    benchmark::DoNotOptimize(obj.cost);
  }
}

/// Post-mutation objectives incrementally: +-weight deltas in O(flips).
void BM_MutateObjectivesIncremental(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto problem = syntheticProblem(bits);
  const std::uint64_t damageTotal = problem.damageTotal();
  Rng rng(5);
  auto g = moo::Genome::random(bits, 0.3, rng);
  moo::Objectives obj = moo::evaluate(problem, g, damageTotal);
  for (auto _ : state) {
    const std::uint64_t draw = rng.binomial(bits, 0.01);
    const auto sampled =
        rng.sampleIndices(bits, std::min<std::size_t>(draw, bits));
    const std::vector<std::uint32_t> flips(sampled.begin(), sampled.end());
    g.applyFlips(flips, [&](std::uint32_t idx, bool nowSet) {
      if (nowSet) {
        obj.cost += problem.cost[idx];
        obj.damage -= problem.gain[idx];
      } else {
        obj.cost -= problem.cost[idx];
        obj.damage += problem.gain[idx];
      }
    });
    benchmark::DoNotOptimize(obj.cost);
  }
}

void BM_Spea2Generation(benchmark::State& state, const std::string& name) {
  const rsn::Network& net = netOf(name);
  const auto analysis =
      crit::CriticalityAnalyzer(net, specOf(name)).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = 100;
  options.seed = 3;
  options.generations = 1;
  for (auto _ : state) {
    const auto result = moo::runSpea2(problem.linear, options);
    benchmark::DoNotOptimize(result.archive.size());
  }
}

/// Console reporter that additionally collects every run so the results
/// can be re-emitted as BENCH_micro.json (same schema family as
/// BENCH_scalability.json: kernel timings + thread count, diffable
/// across PRs).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double realTime = 0.0;
    double cpuTime = 0.0;
    std::string timeUnit;
    std::int64_t iterations = 0;
    double itemsPerSecond = 0.0;
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) {
      Row row;
      row.name = r.benchmark_name();
      row.realTime = r.GetAdjustedRealTime();
      row.cpuTime = r.GetAdjustedCPUTime();
      row.timeUnit = benchmark::GetTimeUnitString(r.time_unit);
      row.iterations = r.iterations;
      const auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) row.itemsPerSecond = it->second;
      rows.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  std::vector<Row> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // This google-benchmark version registers by C-string name + callable;
  // bind the benchmark argument through a small lambda.
  const auto registerNamed = [](const std::string& title,
                                void (*fn)(benchmark::State&,
                                           const std::string&),
                                const std::string& arg) {
    benchmark::RegisterBenchmark(
        title.c_str(), [fn, arg](benchmark::State& st) { fn(st, arg); });
  };
  for (const char* name : {"q12710", "p93791", "MBIST_2_20_20"}) {
    registerNamed("DecompositionBuild/" + std::string(name),
                  BM_DecompositionBuild, name);
    registerNamed("Annotate/" + std::string(name), BM_Annotate, name);
    registerNamed("CriticalityAnalysis/" + std::string(name),
                  BM_CriticalityAnalysis, name);
  }
  registerNamed("GraphOracleSingleFault/q12710", BM_GraphOracleSingleFault,
                "q12710");
  registerNamed("GraphOracleSingleFault/p93791", BM_GraphOracleSingleFault,
                "p93791");
  for (const char* name : {"q12710", "MBIST_1_5_20"}) {
    registerNamed("DictRowBatched/" + std::string(name), BM_DictRowBatched,
                  name);
    registerNamed("DictRowProbe/" + std::string(name), BM_DictRowProbe, name);
  }
  for (const char* name : {"q12710", "MBIST_2_20_20"}) {
    registerNamed("SegmentScan/pointer/" + std::string(name),
                  BM_SegmentScanPointer, name);
    registerNamed("SegmentScan/flat/" + std::string(name), BM_SegmentScanFlat,
                  name);
    registerNamed("NeighborWalk/flat/" + std::string(name),
                  BM_NeighborWalkFlat, name);
    registerNamed("ControlGather/flat/" + std::string(name),
                  BM_ControlGatherFlat, name);
  }
  benchmark::RegisterBenchmark("GenomeCrossover", BM_GenomeCrossover)
      ->Arg(1 << 10)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("GenomeCrossoverDense", BM_GenomeCrossoverDense)
      ->Arg(1 << 10)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("GenomeMutate", BM_GenomeMutate)
      ->Arg(1 << 10)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("GenomeMutateDense", BM_GenomeMutateDense)
      ->Arg(1 << 10)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("CrossoverObjectivesFull/sparse",
                               BM_CrossoverObjectivesFullSparse)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("CrossoverObjectivesFull/dense",
                               BM_CrossoverObjectivesFullDense)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("CrossoverObjectivesIndexed/sparse",
                               BM_CrossoverObjectivesIndexedSparse)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("CrossoverObjectivesIndexed/dense",
                               BM_CrossoverObjectivesIndexedDense)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("MutateObjectivesFull", BM_MutateObjectivesFull)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  benchmark::RegisterBenchmark("MutateObjectivesIncremental",
                               BM_MutateObjectivesIncremental)
      ->Arg(1 << 16)
      ->Arg(1 << 20);
  registerNamed("Spea2Generation/q12710", BM_Spea2Generation, "q12710");
  registerNamed("Spea2Generation/p93791", BM_Spea2Generation, "p93791");

  benchmark::Initialize(&argc, argv);
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  std::ofstream jsonFile("BENCH_micro.json");
  bench::JsonWriter json(jsonFile);
  json.beginObject()
      .kv("bench", "micro")
      .kv("threads", static_cast<std::uint64_t>(threadCount()))
      .key("kernels")
      .beginArray();
  for (const CollectingReporter::Row& row : reporter.rows) {
    json.beginObject()
        .kv("name", row.name)
        .kv("real_time", row.realTime)
        .kv("cpu_time", row.cpuTime)
        .kv("time_unit", row.timeUnit)
        .kv("iterations", static_cast<std::int64_t>(row.iterations))
        .kv("items_per_second", row.itemsPerSecond)
        .endObject();
  }
  json.endArray().endObject();
  jsonFile << "\n";
  return 0;
}
