// Batch workloads: flow, certify_local and certify_dense.
//
// A run makes the corpus (set-up), runs one untimed warm-up pass, then
// repeats timed passes over the corpus until the run's seconds are
// spent.  A pass runs every job of the workload once; a job is one
// command on one design and starts from the netlist text.  Passes cycle
// through a few input streams derived from the workload seed.  The first
// pass of each stream carries the full correctness gate (outside the
// timing); later passes must reproduce its output digests.  Traced runs
// spend the first half untraced and the second half with obs recording
// on, so the tracing overhead is measured within the run.
#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <optional>

#include <malloc.h>

#include "benchgen/generators.hpp"
#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/batched.hpp"
#include "diag/diagnosis.hpp"
#include "fault/fault.hpp"
#include "harden/hardening.hpp"
#include "harness.hpp"
#include "lint/lint.hpp"
#include "moo/baselines.hpp"
#include "moo/spea2.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "verify/certifier.hpp"

namespace perfbench {
namespace {

using namespace rrsn;

enum class Command { Analyze, Harden, Certify, Diagnose, Campaign, Count };
constexpr std::size_t kCommandCount = static_cast<std::size_t>(Command::Count);

const char* commandName(Command c) {
  static const char* const names[] = {"analyze", "harden", "certify",
                                      "diagnose", "campaign"};
  return names[static_cast<std::size_t>(c)];
}

// ------------------------------------------------------------- corpus

struct DesignSpec {
  std::string name;
  std::function<rsn::Network()> build;
};

DesignSpec table1(const std::string& name) {
  return {name, [name] { return benchgen::buildBenchmark(name); }};
}

/// ITC'02-style SoC at `segments` segments with p93791's mux share.
DesignSpec soc(std::size_t segments) {
  const std::string name = "SOC_" + std::to_string(segments);
  const std::size_t muxes = segments * 653 / 1241;
  return {name, [=] { return benchgen::makeSoc(name, segments, muxes); }};
}

/// Deep 16-ary SIB tree in the HUGE_1M shape, scaled to `segments`.
DesignSpec sibTree(std::size_t segments) {
  const std::string name = "HUGE_" + std::to_string(segments);
  const std::size_t muxes = segments / 8;
  return {name, [=] { return benchgen::makeHuge(name, segments, muxes, 16); }};
}

struct WorkloadPlan {
  /// Designs that get `commands`, then designs that only get a campaign.
  std::vector<DesignSpec> designs;
  std::vector<Command> commands;
  std::vector<DesignSpec> campaignDesigns;
  std::size_t generations = 0;     ///< flow: SPEA-2 generation budget
  std::size_t diagnoseFaults = 0;  ///< injected faults per diagnose job
  /// Gate: this many injected faults are also measured on the simulator.
  std::size_t simulatedFaults = 0;
  std::size_t campaignSample = 0;
  std::size_t parityRows = 0;      ///< certifier rows replayed per result
};

WorkloadPlan planFor(const Options& o) {
  WorkloadPlan p;
  const bool s = o.shortTier;
  if (o.workload == "flow") {
    for (const char* n : s ? std::vector<const char*>{"q12710", "MBIST_1_5_5"}
                           : std::vector<const char*>{"p93791", "MBIST_2_20_20",
                                                      "MBIST_5_20_20",
                                                      "MBIST_5_100_20"}) {
      p.designs.push_back(table1(n));
    }
    p.commands = {Command::Analyze, Command::Harden};
    p.generations = s ? 10 : 40;
  } else if (o.workload == "certify_local") {
    for (const char* n : s ? std::vector<const char*>{"MBIST_1_5_5"}
                           : std::vector<const char*>{"MBIST_1_20_20",
                                                      "MBIST_2_5_20"}) {
      p.designs.push_back(table1(n));
    }
    p.commands = {Command::Certify, Command::Diagnose};
    p.diagnoseFaults = s ? 2 : 8;
    p.simulatedFaults = 2;
    p.parityRows = s ? 64 : 400;
  } else if (o.workload == "certify_dense") {
    if (s) {
      p.designs = {table1("q12710")};
      p.campaignDesigns = {table1("TreeFlat")};
    } else {
      p.designs = {table1("p93791"), soc(2000), sibTree(4096)};
      p.campaignDesigns = {table1("TreeUnbalanced"), table1("q12710"),
                           table1("a586710")};
    }
    p.commands = {Command::Certify, Command::Diagnose};
    p.diagnoseFaults = s ? 2 : 8;
    p.campaignSample = s ? 8 : 64;
    p.parityRows = s ? 64 : 400;
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  return p;
}

struct Design {
  std::string name;
  std::string text;
};

struct Corpus {
  std::vector<Design> designs;
  std::vector<Design> campaignDesigns;
};

Corpus makeCorpus(const WorkloadPlan& plan) {
  Corpus c;
  for (const DesignSpec& d : plan.designs) {
    c.designs.push_back({d.name, rsn::netlistToString(d.build())});
  }
  for (const DesignSpec& d : plan.campaignDesigns) {
    c.campaignDesigns.push_back({d.name, rsn::netlistToString(d.build())});
  }
  return c;
}

// --------------------------------------------------------------- jobs

/// Work-count outputs of one job; summed per pass.
struct Counts {
  double cells = 0, rows = 0, fastRows = 0, unknownCells = 0;
  double dictRows = 0, classes = 0;
  double probes = 0, mismatches = 0;
  double frontSize = 0, netlistMiB = 0;

  Counts& operator+=(const Counts& o) {
    cells += o.cells;
    rows += o.rows;
    fastRows += o.fastRows;
    unknownCells += o.unknownCells;
    dictRows += o.dictRows;
    classes += o.classes;
    probes += o.probes;
    mismatches += o.mismatches;
    frontSize += o.frontSize;
    netlistMiB += o.netlistMiB;
    return *this;
  }
};

/// One job's timing, outputs and gate verdicts.  Work that only serves
/// the gate or the digest runs through untimed() and is subtracted from
/// the job's wall time.
struct JobContext {
  const Options* options = nullptr;
  const WorkloadPlan* plan = nullptr;
  bool gate = false;  ///< warm-up pass: run the full correctness gate
  LayerTimes layers;
  double excluded = 0;
  Digest digest;
  Counts counts;
  std::vector<std::string> failures;

  template <typename Fn>
  void untimed(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    excluded += secondsSince(t0);
  }
  void check(bool ok, const std::string& message) {
    if (!ok) failures.push_back(message);
  }
};

/// Results the gate of one job hands to a later job of the same pass
/// (diagnosis compares its rows against the certifier's).
struct GateState {
  std::map<std::string, verify::CertificationResult> certified;
};

rsn::Network parse(JobContext& ctx, const Design& d) {
  ctx.counts.netlistMiB += static_cast<double>(d.text.size()) / (1 << 20);
  return timed(ctx.layers, Layer::Parse,
               [&] { return rsn::parseNetlistString(d.text); });
}

/// Criticality analysis the way the tools run it: lint fail-fast, the
/// paper's random spec, the tree analyzer.  The analyzer's own lint call
/// is switched off because the explicit one replaces it.
struct Analysis {
  rsn::CriticalitySpec spec;
  std::optional<crit::CriticalityAnalyzer> analyzer;
  std::optional<crit::CriticalityResult> result;
};

void analyze(JobContext& ctx, const rsn::Network& net, std::uint64_t specSeed,
             Analysis& out) {
  timed(ctx.layers, Layer::Lint,
        [&] { lint::enforceClean(net, "criticality analysis"); });
  timed(ctx.layers, Layer::CritInit, [&] {
    Rng rng(specSeed);
    out.spec = rsn::randomSpec(net, {}, rng);
    crit::AnalysisOptions options;
    options.lint = false;
    out.analyzer.emplace(net, out.spec, options);
  });
  timed(ctx.layers, Layer::CritRun,
        [&] { out.result.emplace(out.analyzer->run()); });
}

void analyzeJob(JobContext& ctx, const Design& d, std::uint64_t seed) {
  const rsn::Network net = parse(ctx, d);
  Analysis a{rsn::CriticalitySpec(0), {}, {}};
  analyze(ctx, net, deriveSeed(seed, "spec/" + d.name), a);
  const std::vector<std::size_t> ranking =
      timed(ctx.layers, Layer::CritRun, [&] { return a.result->ranking(); });
  ctx.untimed([&] {
    ctx.digest.add(a.result->totalDamage());
    for (std::uint64_t dmg : a.result->damages()) ctx.digest.add(dmg);
    for (std::size_t i = 0; i < std::min<std::size_t>(10, ranking.size()); ++i)
      ctx.digest.add(ranking[i]);
  });
}

std::size_t populationFor(const rsn::Network& net) {
  return net.muxes().size() > 100 ? 300 : 100;  // Sec. VI rule
}

void hardenJob(JobContext& ctx, const Design& d, std::uint64_t seed) {
  const rsn::Network net = parse(ctx, d);
  Analysis a{rsn::CriticalitySpec(0), {}, {}};
  analyze(ctx, net, deriveSeed(seed, "spec/" + d.name), a);
  const auto flat = timed(ctx.layers, Layer::Lower,
                          [&] { return rsn::FlatNetwork::lower(net); });
  const harden::HardeningProblem problem =
      timed(ctx.layers, Layer::Assemble, [&] {
        return harden::HardeningProblem::assemble(net, *flat, *a.result);
      });
  const moo::RunResult run = timed(ctx.layers, Layer::Spea2, [&] {
    moo::EvolutionOptions eo;
    eo.populationSize = populationFor(net);
    eo.generations = ctx.plan->generations;
    eo.seed = deriveSeed(seed, "ea/" + d.name);
    // Table-I harness initialization: greedy-ratio prefixes across the
    // front seed a quarter of the population.
    const moo::RunResult greedy =
        moo::greedyFront(problem.linear, eo.populationSize / 4);
    const auto& members = greedy.archive.members();
    const std::size_t want =
        std::min<std::size_t>(members.size(), eo.populationSize / 4);
    for (std::size_t k = 0; k < want; ++k) {
      const std::size_t idx =
          k * (members.size() - 1) / std::max<std::size_t>(1, want - 1);
      eo.seedGenomes.push_back(members[idx].genome);
    }
    return moo::runSpea2(problem.linear, eo);
  });
  std::optional<harden::HardeningPlan> plan;
  const harden::PaperSolutions sols = timed(ctx.layers, Layer::Extract, [&] {
    harden::PaperSolutions s =
        harden::extractPaperSolutions(run.archive, problem);
    if (s.minCost) plan.emplace(net, s.minCost->genome);
    return s;
  });
  ctx.counts.frontSize += static_cast<double>(run.archive.size());
  ctx.untimed([&] {
    for (const moo::Individual& ind : run.archive.members()) {
      ctx.digest.add(ind.obj.cost);
      ctx.digest.add(ind.obj.damage);
    }
    ctx.digest.add(sols.minCost ? sols.minCost->obj.cost : ~0ull);
    ctx.digest.add(sols.minDamage ? sols.minDamage->obj.damage : ~0ull);
    if (!ctx.gate) return;
    ctx.check(problem.maxDamage == a.result->totalDamage(),
              d.name + ": harden max damage differs from the analysis total");
    ctx.check(plan.has_value(), d.name + ": no min-cost plan at 10 % damage");
    if (!plan) return;
    ctx.check(sols.minCost->obj.damage * 10 <= problem.maxDamage,
              d.name + ": min-cost plan exceeds the 10 % damage bound");
    // The paper's safety claim: once the residual damage is below the
    // smallest critical weight, no critical instrument can be lost.  The
    // cheapest front member that far down the front must be exposure-free.
    std::uint64_t minCritical = ~0ull;
    for (rsn::InstrumentId i = 0; i < net.instruments().size(); ++i) {
      const rsn::DamageWeights& w = a.spec.of(i);
      if (w.criticalObs) minCritical = std::min(minCritical, w.obs);
      if (w.criticalSet) minCritical = std::min(minCritical, w.set);
    }
    for (const moo::Individual& ind : run.archive.members()) {
      if (ind.obj.damage >= minCritical) continue;
      ctx.check(harden::criticalExposures(net, a.spec,
                                          harden::HardeningPlan(net, ind.genome))
                    .empty(),
                d.name + ": a plan below the smallest critical weight leaves "
                         "a critical instrument exposed");
      break;
    }
  });
}

/// Replays every stride-th certifier row through the syndrome oracle
/// (the campaign's expected accessibility).
std::size_t parityMismatches(const diag::BatchedSyndromeEngine& oracle,
                             const verify::CertificationResult& r,
                             std::size_t maxRows) {
  const std::size_t faults = r.universe.size();
  const std::size_t stride =
      faults <= maxRows ? 1 : (faults + maxRows - 1) / maxRows;
  std::size_t bad = 0;
  for (std::size_t fi = 0; fi < faults; fi += stride) {
    const campaign::Expectation e =
        campaign::expectedAccessibility(oracle, r.instruments, r.universe[fi]);
    for (std::size_t i = 0; i < r.instruments; ++i) {
      bad += ((r.read(fi, i) == verify::Verdict::Proven) !=
              e.observable.test(i)) ||
             ((r.write(fi, i) == verify::Verdict::Proven) !=
              e.settable.test(i));
    }
  }
  return bad;
}

void countCertification(JobContext& ctx, const verify::CertificationResult& r) {
  const verify::CertifySummary s = r.summary();
  ctx.counts.rows += static_cast<double>(r.universe.size());
  ctx.counts.fastRows += static_cast<double>(r.fastRowCount);
  ctx.counts.cells += static_cast<double>(r.universe.size() * r.instruments);
  ctx.counts.unknownCells += static_cast<double>(s.unknownCells());
  ctx.digest.add(r.universe.size());
  ctx.digest.add(std::string_view(
      reinterpret_cast<const char*>(r.cells.data()),
      r.cells.size() * sizeof(std::uint16_t)));
}

void certifyJob(JobContext& ctx, const Design& d, std::uint64_t seed,
                GateState& state) {
  const rsn::Network net = parse(ctx, d);
  const auto flat = timed(ctx.layers, Layer::Lower,
                          [&] { return rsn::FlatNetwork::lower(net); });
  std::optional<verify::Certifier> certifier;
  timed(ctx.layers, Layer::VerifyBase, [&] { certifier.emplace(flat); });
  verify::CertifyOptions options;
  options.crossCheck = false;  // the gate below replays rows instead
  verify::CertificationResult original =
      timed(ctx.layers, Layer::VerifyRun, [&] { return certifier->run(options); });

  // Hardened variant: the greedy min-cost plan at 10 % damage leaves the
  // fault universe.
  Analysis a{rsn::CriticalitySpec(0), {}, {}};
  analyze(ctx, net, deriveSeed(seed, "spec/" + d.name), a);
  const harden::HardeningProblem problem =
      timed(ctx.layers, Layer::Assemble, [&] {
        return harden::HardeningProblem::assemble(net, *flat, *a.result);
      });
  verify::CertifyOptions hardenedOptions = options;
  timed(ctx.layers, Layer::Extract, [&] {
    const auto knee =
        moo::greedyMinCost(problem.linear, problem.maxDamage / 10);
    hardenedOptions.excludePrimitives = DynamicBitset(net.primitiveCount());
    if (knee) {
      for (std::uint32_t idx : knee->genome.indices())
        hardenedOptions.excludePrimitives.set(idx);
    }
  });
  verify::CertificationResult hardened = timed(
      ctx.layers, Layer::VerifyRun, [&] { return certifier->run(hardenedOptions); });

  ctx.untimed([&] {
    if (ctx.options->corrupt == "verdict") original.cells[0] ^= 1u;
    countCertification(ctx, original);
    countCertification(ctx, hardened);
    ctx.check(original.summary().unknownCells() == 0 &&
                  hardened.summary().unknownCells() == 0,
              d.name + ": certification left Unknown cells");
    if (!ctx.gate) return;
    // The original certification does not depend on the input stream, so
    // its rows are replayed once per design; hardened rows every stream.
    const diag::BatchedSyndromeEngine oracle(flat);
    const bool firstGate = state.certified.count(d.name) == 0;
    const std::size_t bad =
        (firstGate ? parityMismatches(oracle, original, ctx.plan->parityRows) : 0) +
        parityMismatches(oracle, hardened, ctx.plan->parityRows);
    ctx.check(bad == 0, d.name + ": " + std::to_string(bad) +
                            " certifier cells differ from the expected "
                            "accessibility oracle");
    bool excludedLeft = false;
    for (const fault::Fault& f : hardened.universe) {
      const std::size_t linear = f.kind == fault::FaultKind::SegmentBreak
                                     ? f.prim
                                     : net.segments().size() + f.prim;
      excludedLeft |= hardenedOptions.excludePrimitives.test(linear);
    }
    ctx.check(!excludedLeft,
              d.name + ": hardened universe still holds a hardened primitive");
    state.certified.insert_or_assign(d.name, std::move(original));
  });
}

void diagnoseJob(JobContext& ctx, const Design& d, std::uint64_t seed,
                 const GateState& state) {
  const rsn::Network net = parse(ctx, d);
  const diag::FaultDictionary dict = timed(
      ctx.layers, Layer::DiagBuild, [&] { return diag::FaultDictionary::build(net); });

  // Injected faults and their observed syndromes are the diagnosis input
  // (what a tester would measure), so they are made outside the timing:
  // the certifier's verdict row of the fault, Proven = pass.
  std::vector<std::size_t> injected;
  std::vector<diag::Syndrome> observed;
  const auto certified = state.certified.find(d.name);
  ctx.untimed([&] {
    if (certified == state.certified.end()) {
      ctx.failures.push_back(d.name + ": no certification to diagnose against");
      return;
    }
    const verify::CertificationResult& cr = certified->second;
    Rng rng(deriveSeed(seed, "faults/" + d.name));
    const std::size_t k = std::min(ctx.plan->diagnoseFaults, cr.universe.size());
    for (std::size_t fi : rng.sampleIndices(cr.universe.size(), k)) {
      injected.push_back(fi);
      diag::Syndrome s{DynamicBitset(2 * cr.instruments)};
      for (std::size_t i = 0; i < cr.instruments; ++i) {
        s.passed.set(2 * i, cr.read(fi, i) == verify::Verdict::Proven);
        s.passed.set(2 * i + 1, cr.write(fi, i) == verify::Verdict::Proven);
      }
      observed.push_back(std::move(s));
    }
  });

  std::vector<diag::Diagnosis> found;
  const diag::FaultDictionary::Resolution res =
      timed(ctx.layers, Layer::DiagDiagnose, [&] {
        for (const diag::Syndrome& s : observed) found.push_back(dict.diagnose(s));
        return dict.resolution();
      });

  ctx.counts.dictRows += static_cast<double>(dict.faults().size());
  ctx.counts.classes += static_cast<double>(res.classes);
  ctx.untimed([&] {
    ctx.digest.add(res.faults);
    ctx.digest.add(res.detectable);
    ctx.digest.add(res.classes);
    for (const diag::Diagnosis& dg : found) {
      ctx.digest.add(dg.faultFree);
      for (const fault::Fault& f : dg.exactMatches) {
        ctx.digest.add(f.prim);
        ctx.digest.add(f.stuckBranch);
      }
    }
    if (!ctx.gate || certified == state.certified.end()) return;
    const verify::CertificationResult& cr = certified->second;
    for (std::size_t k = 0; k < injected.size(); ++k) {
      const fault::Fault& f = cr.universe[injected[k]];
      const auto& faults = dict.faults();
      const auto at = std::find(faults.begin(), faults.end(), f);
      if (at == faults.end()) {
        ctx.failures.push_back(d.name + ": injected fault not in the dictionary");
        continue;
      }
      const diag::Syndrome& row =
          dict.syndromeOf(static_cast<std::size_t>(at - faults.begin()));
      const std::string what = d.name + " " + fault::describe(net, f);
      ctx.check(row == observed[k],
                what + ": dictionary row differs from the certifier row");
      const diag::Diagnosis& dg = found[k];
      ctx.check(dg.faultFree
                    ? row == dict.faultFreeSyndrome()
                    : std::find(dg.exactMatches.begin(), dg.exactMatches.end(),
                                f) != dg.exactMatches.end(),
                what + ": diagnosis misses the injected fault");
      if (k < ctx.plan->simulatedFaults) {
        ctx.check(diag::FaultDictionary::measure(net, &f) == row,
                  what + ": simulated syndrome differs from the dictionary");
      }
    }
  });
}

void campaignJob(JobContext& ctx, const Design& d, std::uint64_t seed) {
  const rsn::Network net = parse(ctx, d);
  timed(ctx.layers, Layer::Lint, [&] { lint::enforceClean(net, "campaign"); });
  const campaign::CampaignResult result =
      timed(ctx.layers, Layer::CampaignRun, [&] {
        campaign::CampaignConfig config;
        config.sample = ctx.plan->campaignSample;
        config.seed = deriveSeed(seed, "campaign/" + d.name);
        config.lint = false;
        campaign::CampaignEngine engine(net, config);
        return engine.run();
      });
  const campaign::CampaignSummary s = result.summary();
  const std::size_t mismatches = s.readMismatches + s.writeMismatches;
  ctx.counts.probes += static_cast<double>(2 * s.pairsDone());
  ctx.counts.mismatches += static_cast<double>(mismatches);
  ctx.untimed([&] {
    ctx.digest.add(json::serialize(campaign::reportJson(net, result)));
    ctx.check(s.complete(), d.name + ": campaign did not complete");
    ctx.check(mismatches == 0 && s.oracleDisagreements == 0,
              d.name + ": campaign simulation disagrees with the oracle");
  });
}

// --------------------------------------------------------------- pass

struct JobRecord {
  std::string key;  ///< "<design>/<command>"
  Command command;
  double wall = 0;
  double untimed = 0;  ///< gate and digest work, not part of `wall`
  LayerTimes layers;
  Counts counts;
  std::string digest;
  std::vector<std::string> failures;
};

struct PassRecord {
  double wall = 0;
  std::vector<JobRecord> jobs;
};

/// Scales the measured times of `passes` to reference host speed by the
/// factor of the probes taken during them (see HostProbe); returns it.
double scaleToReference(std::vector<PassRecord>& passes, const HostProbe& probe,
                        std::size_t probesFrom) {
  const double scale = probe.scaleSince(probesFrom);
  for (PassRecord& p : passes) {
    p.wall *= scale;
    for (JobRecord& j : p.jobs) {
      j.wall *= scale;
      for (double& t : j.layers.seconds) t *= scale;
    }
  }
  return scale;
}

PassRecord runPass(const Options& o, const WorkloadPlan& plan,
                   const Corpus& corpus, std::uint64_t seed, bool gate,
                   GateState& state, HostProbe& probe) {
  PassRecord pass;
  probe.sample();
  const auto passStart = Clock::now();
  double untimed = 0;
  const auto runJob = [&](const Design& d, Command c) {
    JobContext ctx;
    ctx.options = &o;
    ctx.plan = &plan;
    ctx.gate = gate;
    const auto t0 = Clock::now();
    try {
      switch (c) {
        case Command::Analyze: analyzeJob(ctx, d, seed); break;
        case Command::Harden: hardenJob(ctx, d, seed); break;
        case Command::Certify: certifyJob(ctx, d, seed, state); break;
        case Command::Diagnose: diagnoseJob(ctx, d, seed, state); break;
        case Command::Campaign: campaignJob(ctx, d, seed); break;
        case Command::Count: break;
      }
    } catch (const std::exception& e) {
      ctx.failures.push_back(d.name + "/" + commandName(c) + " threw: " +
                             e.what());
    }
    JobRecord r;
    r.wall = secondsSince(t0) - ctx.excluded;
    r.untimed = ctx.excluded;
    untimed += ctx.excluded;
    r.key = d.name + "/" + commandName(c);
    r.command = c;
    r.layers = ctx.layers;
    r.counts = ctx.counts;
    r.digest = ctx.digest.hex();
    r.failures = std::move(ctx.failures);
    pass.jobs.push_back(std::move(r));
    // Hand freed heap back between jobs, so peak RSS follows the largest
    // job instead of allocator history; then probe the host.
    const auto trim0 = Clock::now();
    malloc_trim(0);
    probe.sample();
    untimed += secondsSince(trim0);
  };
  for (const Design& d : corpus.designs) {
    for (Command c : plan.commands) runJob(d, c);
  }
  for (const Design& d : corpus.campaignDesigns) runJob(d, Command::Campaign);
  pass.wall = secondsSince(passStart) - untimed;
  return pass;
}

/// Layer coverage is held to jobs of at least this wall time; in a
/// shorter job, freeing its objects (which no layer wraps) is a visible
/// share on its own.
constexpr double kCoverageMinJobSeconds = 0.005;

bool coverageApplies(const JobRecord& j) { return j.wall >= kCoverageMinJobSeconds; }

/// Passes cycle through this many input streams derived from the
/// workload seed (spec draws, EA seeds, injected faults, campaign
/// samples), so a run's medians average over several inputs instead of
/// resting on one EA trajectory.
constexpr std::uint64_t kSeedStreams = 4;

/// Runs passes and keeps the gate.  The first pass of every stream runs
/// the full correctness gate and records the stream's output digests;
/// every later pass of that stream must reproduce them.
class PassRunner {
 public:
  PassRunner(const Options& o, const WorkloadPlan& plan, const Corpus& corpus,
             Gate& gate)
      : o_(o), plan_(plan), corpus_(corpus), gate_(gate) {}

  /// Traced passes also check layer coverage: the benchmark-owned layer
  /// spans must account for at least 90 % of every job's wall time.
  PassRecord runOne(bool checkCoverage) {
    const std::uint64_t stream = next_++ % kSeedStreams;
    const bool first = refs_.count(stream) == 0;
    // Peak RSS is taken over passes without the gate, whose oracle
    // engines and replays are the benchmark's, not the job's.
    if (!first) resetPeakRss();
    PassRecord pass = runPass(o_, plan_, corpus_,
                              deriveSeed(o_.seed, "pass", stream), first, state_,
                              probe_);
    if (!first) {
      peakMiB_ = std::max(peakMiB_, peakRssMiB());
      ++plainPasses_;
    }
    std::map<std::string, std::string>& ref = refs_[stream];
    for (const JobRecord& j : pass.jobs) {
      gate_.attempt();
      if (first) ref[j.key] = j.digest;
      if (!j.failures.empty()) {
        gate_.fail(j.failures.front());
      } else if (ref[j.key] != j.digest) {
        gate_.fail(j.key + ": output differs from an earlier pass on the same inputs");
      } else if (checkCoverage && coverageApplies(j) &&
                 j.layers.total() < 0.9 * j.wall) {
        gate_.fail(j.key + ": layer spans cover only " +
                   std::to_string(j.layers.total() / j.wall) + " of the job");
      }
    }
    return pass;
  }

  /// Runs passes until `seconds` of pass time have elapsed and at least
  /// one pass without the gate has run; calls `afterPass` after each.
  std::vector<PassRecord> runFor(double seconds, bool checkCoverage,
                                 const std::function<void()>& afterPass = {}) {
    std::vector<PassRecord> passes;
    double elapsed = 0;
    do {
      passes.push_back(runOne(checkCoverage));
      elapsed += passes.back().wall;
      if (afterPass) afterPass();
    } while (elapsed < seconds || plainPasses_ == 0);
    return passes;
  }

  /// High-water RSS over the passes without the gate, MiB.
  double peakMiB() const { return peakMiB_; }
  HostProbe& probe() { return probe_; }

 private:
  const Options& o_;
  const WorkloadPlan& plan_;
  const Corpus& corpus_;
  Gate& gate_;
  GateState state_;
  HostProbe probe_;
  std::map<std::uint64_t, std::map<std::string, std::string>> refs_;
  std::uint64_t next_ = 0;
  std::size_t plainPasses_ = 0;
  double peakMiB_ = 0;
};

/// Job latency quantiles are taken per pass (every pass runs the same
/// jobs) and reported as their median over the passes.  A pass holds a
/// handful of unlike jobs, so p50 interpolates between the two middle
/// ones rather than jumping from one job to the next.
void reportEndToEnd(const std::vector<PassRecord>& passes, Metrics& m) {
  std::vector<double> p50, p99;
  double wall = 0, jobs = 0;
  for (const PassRecord& p : passes) {
    std::vector<double> latencies;
    for (const JobRecord& j : p.jobs) latencies.push_back(j.wall * 1e3);
    p50.push_back(summarize(latencies).median);
    p99.push_back(nearestRank(latencies, 0.99));
    wall += p.wall;
    jobs += static_cast<double>(latencies.size());
  }
  m.setSamples("p50_ms", p50);
  m.setSamples("p99_ms", p99);
  m.set("rps", jobs / wall);
}

void reportPerLayer(const std::vector<PassRecord>& passes,
                    const obs::Snapshot& snap, double cpuSeconds,
                    double tracedWall, Metrics& m) {
  std::array<std::vector<double>, kLayerCount> layer;
  std::array<std::vector<double>, kCommandCount> command;
  std::vector<double> cellsPerS, probesPerS;
  Counts counts;  // per pass; every pass does the same work
  for (const PassRecord& p : passes) {
    LayerTimes lt;
    std::array<double, kCommandCount> cmd{};
    counts = Counts{};
    for (const JobRecord& j : p.jobs) {
      lt += j.layers;
      cmd[static_cast<std::size_t>(j.command)] += j.wall;
      counts += j.counts;
    }
    for (std::size_t i = 0; i < kLayerCount; ++i) layer[i].push_back(lt.seconds[i]);
    for (std::size_t i = 0; i < kCommandCount; ++i) command[i].push_back(cmd[i]);
    if (lt[Layer::VerifyRun] > 0) cellsPerS.push_back(counts.cells / lt[Layer::VerifyRun]);
    if (lt[Layer::CampaignRun] > 0)
      probesPerS.push_back(counts.probes / lt[Layer::CampaignRun]);
  }
  std::vector<double> coverage;
  for (const PassRecord& p : passes) {
    for (const JobRecord& j : p.jobs) {
      if (coverageApplies(j)) coverage.push_back(j.layers.total() / j.wall);
    }
  }
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    m.setSamples(layerMetric(static_cast<Layer>(i)), layer[i]);
  }
  for (std::size_t i = 0; i < kCommandCount; ++i) {
    m.setSamples(std::string(commandName(static_cast<Command>(i))) + "_s",
                 command[i]);
  }
  const double n = static_cast<double>(passes.size());
  m.set("rsn.netlist_mb", counts.netlistMiB);
  m.set("crit.faults", obsCounter(snap, "crit.faults_evaluated") / n);
  m.set("moo.offspring", obsCounter(snap, "moo.offspring") / n);
  m.set("moo.front_size", counts.frontSize);
  m.set("verify.rows", counts.rows);
  m.set("verify.fast_rows", counts.fastRows);
  m.set("verify.fast_ratio", counts.rows > 0 ? counts.fastRows / counts.rows : 0.0);
  m.set("verify.cells_per_s", cellsPerS.empty() ? 0.0 : summarize(cellsPerS).median);
  m.set("verify.unknown_cells", counts.unknownCells);
  m.set("diag.rows", counts.dictRows);
  m.set("diag.classes", counts.classes);
  m.set("campaign.probes", counts.probes);
  m.set("campaign.probes_per_s", probesPerS.empty() ? 0.0 : summarize(probesPerS).median);
  m.set("campaign.mismatches", counts.mismatches);
  for (const char* method : {"analyze", "lint", "harden", "certify", "diagnose", "campaign"}) {
    m.set(std::string("serve.") + method + ".p50_ms", 0.0);
  }
  for (const char* c : {"hit_ratio", "misses", "coalesced", "evictions"}) {
    m.set(std::string("serve.cache.") + c, 0.0);
  }
  m.set("pool.cpu_util", cpuSeconds / (tracedWall * static_cast<double>(threadCount())));
  m.set("trace.coverage", nearestRank(coverage, 0.0));
}

/// Set-up time samples.  A set-up takes milliseconds, so samples taken
/// in one burst at the start would read the host's speed in that one
/// moment; instead the corpus is made again after every timed pass
/// (repeatedly, for at least kSetupSecondsPerPass), so the median spans
/// the whole run like the job timings do.  Products made after the
/// first are discarded, untimed.
constexpr double kSetupSecondsPerPass = 0.05;

class SetupTimer {
 public:
  explicit SetupTimer(const WorkloadPlan& plan) : plan_(plan) {}

  Corpus make() {
    const auto t0 = Clock::now();
    Corpus c = makeCorpus(plan_);
    samples_.push_back(secondsSince(t0));
    return c;
  }
  void remake() {
    double spent = 0;
    while (spent < kSetupSecondsPerPass) {
      make();
      spent += samples_.back();
    }
  }
  double median() const { return summarize(samples_).median; }

 private:
  const WorkloadPlan& plan_;
  std::vector<double> samples_;
};

}  // namespace

RunOutput runBatchWorkload(const Options& o) {
  const WorkloadPlan plan = planFor(o);
  RunOutput out;
  SetupTimer setup(plan);
  const Corpus corpus = setup.make();
  for (const Design& d : corpus.designs) out.corpus.push_back(json::Value(d.name));
  for (const Design& d : corpus.campaignDesigns)
    out.corpus.push_back(json::Value(d.name));

  // Warm-up pass: first stream, full correctness gate, reference digests.
  PassRunner runner(o, plan, corpus, out.gate);
  for (const JobRecord& j : runner.runOne(false).jobs) {
    out.digests[j.key] = json::Value(j.digest);
    std::cerr << "perfbench: warm-up " << j.key << " " << j.wall
              << " s (gate " << j.untimed << " s)\n";
  }

  if (!o.trace) {
    const std::size_t probesFrom = runner.probe().count();
    auto passes = runner.runFor(o.seconds, false, [&] { setup.remake(); });
    std::map<std::string, std::vector<double>> perJob;
    for (const PassRecord& p : passes) {
      for (const JobRecord& j : p.jobs) perJob[j.key].push_back(j.wall);
    }
    for (const auto& [key, walls] : perJob) {
      out.jobSeconds[key] = json::Value(summarize(walls).median);
    }
    reportEndToEnd(passes, out.unscaled);
    out.unscaled.set("setup_s", setup.median());
    const double scale = scaleToReference(passes, runner.probe(), probesFrom);
    out.metrics.set("setup_s", setup.median() * scale);
    reportEndToEnd(passes, out.metrics);
    out.metrics.set("peak_rss_mb", runner.peakMiB());
    out.probeSeconds = runner.probe().samples();
    return out;
  }

  std::size_t probesFrom = runner.probe().count();
  auto untraced = runner.runFor(o.seconds / 2, false);
  scaleToReference(untraced, runner.probe(), probesFrom);
  probesFrom = runner.probe().count();
  obs::enable();
  obs::reset();
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  auto traced = runner.runFor(o.seconds / 2, true);
  const double tracedWall = secondsSince(t0);
  const double cpu = processCpuSeconds() - cpu0;
  const obs::Snapshot snap = obs::snapshot();
  obs::disable();
  scaleToReference(traced, runner.probe(), probesFrom);
  out.probeSeconds = runner.probe().samples();

  reportPerLayer(traced, snap, cpu, tracedWall, out.metrics);
  std::map<std::string, std::vector<double>> coverage;
  for (const PassRecord& p : traced) {
    for (const JobRecord& j : p.jobs) {
      if (coverageApplies(j)) coverage[j.key].push_back(j.layers.total() / j.wall);
    }
  }
  for (const auto& [key, c] : coverage) {
    out.jobCoverage[key] = json::Value(nearestRank(c, 0.0));
  }
  std::vector<double> plain, withTrace;
  for (const PassRecord& p : untraced) plain.push_back(p.wall);
  for (const PassRecord& p : traced) withTrace.push_back(p.wall);
  out.metrics.set("trace.overhead",
                  summarize(withTrace).median / summarize(plain).median - 1.0);
  return out;
}

}  // namespace perfbench
