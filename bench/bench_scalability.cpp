// Scalability study (the paper's Sec. VI claim: "efficient hierarchical
// processing enables scalability with the increasing RSN size and
// complexity").
//
// For the MBIST family (113 .. 1,080,305 segments) and the synthetic
// HUGE tier (2^20 segments, benchgen::hugeBenchmarks) this bench
// reports the wall-clock time of every pipeline stage separately:
//   network construction, the one-time FlatNetwork lowering (arena
//   bytes recorded alongside), decomposition-tree build + annotation,
//   the complete criticality analysis (all d_j), the full
//   fault-dictionary build (gated by RRSN_DICT_MAX_SEGMENTS with a
//   "skipped" JSON marker above the gate), an always-on sampled
//   dictionary stage (RRSN_DICT_SAMPLE_ROWS evenly-spaced syndrome rows
//   on the shared flat arena — the stage that proves the dictionary
//   kernel works at 10^6 segments where the full build is quadratic),
//   an always-on campaign-classification stage (RRSN_CAMPAIGN_SAMPLE
//   faults through campaign::expectedAccessibility, classified
//   accessible / degraded / lost), and a fixed-budget SPEA-2 run
//   (50 generations; gated by RRSN_EA_MAX_SEGMENTS).
//
// The parallel stages are timed twice — once at RRSN_THREADS=1 and once
// at the configured thread count — and the results are checked to be
// byte-identical (the runtime's determinism contract).  Stage timings,
// thread count, speedups and peak RSS land in BENCH_scalability.json.
#include <sys/resource.h>

#include <fstream>
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "diag/batched.hpp"
#include "diag/diagnosis.hpp"
#include "rsn/flat.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

using namespace rrsn;

/// One parallel stage measured serially and at the pool width.
struct StageTiming {
  double serialSeconds = 0.0;
  double pooledSeconds = 0.0;
  bool identical = false;

  double speedup() const {
    return pooledSeconds > 0.0 ? serialSeconds / pooledSeconds : 0.0;
  }
};

/// Times `run()` at 1 thread and at `threads`, checking `same`.
template <typename RunFn, typename SameFn>
StageTiming measureStage(std::size_t threads, RunFn&& run, SameFn&& same) {
  StageTiming t;
  setThreadCount(1);
  Stopwatch sw;
  const auto serial = run();
  t.serialSeconds = sw.seconds();
  setThreadCount(threads);
  sw.restart();
  const auto pooled = run();
  t.pooledSeconds = sw.seconds();
  t.identical = same(serial, pooled);
  return t;
}

/// High-water resident set size of this process, in MiB (ru_maxrss is
/// KiB on Linux).  Monotone: per-design values are max-so-far.
double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// `count` evenly-spaced indices over [0, universe).
std::vector<std::size_t> evenSample(std::size_t universe, std::size_t count) {
  count = std::min(std::max<std::size_t>(count, 1), universe);
  std::vector<std::size_t> idx(count);
  for (std::size_t k = 0; k < count; ++k)
    idx[k] = count > 1 ? k * (universe - 1) / (count - 1) : universe / 2;
  return idx;
}

/// Per-fault classification of a campaign expectation.
enum class Verdict : std::uint8_t { Accessible, Degraded, Lost };

Verdict classify(const campaign::Expectation& e, std::size_t instruments) {
  const std::size_t live = e.observable.count() + e.settable.count();
  if (live == 2 * instruments) return Verdict::Accessible;
  if (live == 0) return Verdict::Lost;
  return Verdict::Degraded;
}

}  // namespace

int main() {
  using namespace rrsn;
  const std::string set = bench::envOr("RRSN_SCALABILITY_SET", "medium");
  const std::size_t threads = threadCount();
  // The dictionary reads certifier rows, each derived from a few
  // reachability sweeps, so dictionary builds reach the 10^5-segment
  // tier in minutes where simulating every access needed
  // O(|faults|*|instruments|) retargeted accesses.  The gate remains for
  // the 10^6-segment runs — the full build is still
  // O(|faults| * |vertices|) — which is why the sampled dictionary stage
  // below runs unconditionally: it proves the batched row kernel at any
  // size without paying the quadratic sweep.  Skipped stages
  // carry an explicit "skipped" marker in the JSON so a missing stage
  // is distinguishable from a lost one.
  const std::uint64_t dictMaxSegments =
      bench::envOrU64("RRSN_DICT_MAX_SEGMENTS", 120'000);
  const std::uint64_t eaMaxSegments =
      bench::envOrU64("RRSN_EA_MAX_SEGMENTS", 200'000);
  const std::size_t dictSampleRows = static_cast<std::size_t>(
      bench::envOrU64("RRSN_DICT_SAMPLE_ROWS", 32));
  const std::size_t campaignSample = static_cast<std::size_t>(
      bench::envOrU64("RRSN_CAMPAIGN_SAMPLE", 64));

  // Tier selection.  "small" is the CI smoke tier (seconds); "medium"
  // is the committed-artifact default (<= 160k segments); "all" adds
  // the 10^6-segment MBIST and HUGE networks; "huge" runs only the
  // synthetic HUGE tier (RRSN_HUGE_SEGMENTS rescales it, e.g. for a
  // peak-RSS smoke on CI hardware).
  std::vector<benchgen::BenchmarkSpec> specs;
  if (set != "huge") {
    for (const benchgen::BenchmarkSpec& spec : benchgen::table1Benchmarks()) {
      if (spec.style != benchgen::Style::Mbist) continue;
      if (set == "small" && spec.segments > 40'000) continue;
      if (set != "all" && spec.segments > 160'000) continue;
      specs.push_back(spec);
    }
  }
  if (set == "all" || set == "huge") {
    const std::uint64_t hugeSegments =
        bench::envOrU64("RRSN_HUGE_SEGMENTS", 0);
    for (benchgen::BenchmarkSpec spec : benchgen::hugeBenchmarks()) {
      if (hugeSegments != 0) {
        // Rescale proportionally; makeHuge hits any (S, M) target
        // exactly, so the spec stays self-consistent.
        spec.muxes = std::max<std::size_t>(
            3, spec.muxes * static_cast<std::size_t>(hugeSegments) /
                   spec.segments);
        spec.segments = static_cast<std::size_t>(hugeSegments);
      }
      specs.push_back(std::move(spec));
    }
  }

  TextTable table({"Design", "#Seg", "#Mux", "build [s]", "lower [s]",
                   "flat [MB]", "tree [s]", "analysis [s]", "analysis x",
                   "dict [s]", "sampled [s]", "campaign [s]", "EA [s]",
                   "rss [MB]"});
  table.setAlign(0, TextTable::Align::Left);

  std::ofstream jsonFile("BENCH_scalability.json");
  bench::JsonWriter json(jsonFile);
  json.beginObject()
      .kv("bench", "scalability")
      .kv("set", set)
      .kv("threads", static_cast<std::uint64_t>(threads))
      .kv("dict_max_segments", dictMaxSegments)
      .kv("ea_max_segments", eaMaxSegments)
      .kv("dict_sample_rows", static_cast<std::uint64_t>(dictSampleRows))
      .kv("campaign_sample", static_cast<std::uint64_t>(campaignSample))
      .key("designs")
      .beginArray();

  bool allIdentical = true;
  for (const benchgen::BenchmarkSpec& spec : specs) {
    Stopwatch sw;
    const rsn::Network net = benchgen::buildBenchmark(spec);
    const double tBuild = sw.seconds();

    Rng rng(1);
    const rsn::CriticalitySpec cspec = rsn::randomSpec(net, {}, rng);

    // The one-time lowering every flat consumer below shares.
    sw.restart();
    const std::shared_ptr<const rsn::FlatNetwork> flat =
        rsn::FlatNetwork::lower(net, &cspec);
    const double tLower = sw.seconds();
    const std::uint64_t flatBytes = flat->buffer().size();

    sw.restart();
    sp::DecompositionTree tree = sp::DecompositionTree::build(net);
    tree.annotate(cspec);
    const double tTree = sw.seconds();
    const std::size_t depth = tree.depth();

    const crit::CriticalityAnalyzer analyzer(net, cspec);
    const StageTiming tAnalysis = measureStage(
        threads, [&] { return analyzer.run(); },
        [](const crit::CriticalityResult& a, const crit::CriticalityResult& b) {
          return a.damages() == b.damages();
        });

    std::optional<StageTiming> tDict;
    if (spec.segments <= dictMaxSegments) {
      tDict = measureStage(
          threads, [&] { return diag::FaultDictionary::build(net); },
          [](const diag::FaultDictionary& a, const diag::FaultDictionary& b) {
            if (a.faults().size() != b.faults().size()) return false;
            for (std::size_t k = 0; k < a.faults().size(); ++k)
              if (!(a.syndromeOf(k) == b.syndromeOf(k))) return false;
            return a.faultFreeSyndrome() == b.faultFreeSyndrome();
          });
    }

    // Sampled syndrome rows on the shared arena — the dictionary kernel
    // at full network size, decoupled from the quadratic full build.
    const fault::FaultUniverse universe(net);
    const std::vector<std::size_t> dictSample =
        evenSample(universe.size(), dictSampleRows);
    const StageTiming tSampled = measureStage(
        threads,
        [&] {
          const diag::BatchedSyndromeEngine engine(flat);
          std::vector<diag::Syndrome> rows(dictSample.size());
          parallelForChunks(
              dictSample.size(),
              [&](std::size_t begin, std::size_t end, std::size_t worker) {
                for (std::size_t k = begin; k < end; ++k)
                  rows[k] =
                      engine.row(&universe.faults()[dictSample[k]], worker);
              });
          return rows;
        },
        [](const std::vector<diag::Syndrome>& a,
           const std::vector<diag::Syndrome>& b) {
          if (a.size() != b.size()) return false;
          for (std::size_t k = 0; k < a.size(); ++k)
            if (!(a[k] == b[k])) return false;
          return true;
        });

    // Campaign classification over a fault sample: each scenario's
    // control-aware expected accessibility, folded to
    // accessible/degraded/lost (the campaign engine's oracle, on the
    // same shared arena).
    const std::size_t instruments = net.instruments().size();
    const std::vector<std::size_t> campSample =
        evenSample(universe.size(), campaignSample);
    const StageTiming tCampaign = measureStage(
        threads,
        [&] {
          const diag::BatchedSyndromeEngine engine(flat);
          std::vector<std::uint8_t> verdicts(campSample.size());
          parallelForChunks(
              campSample.size(),
              [&](std::size_t begin, std::size_t end, std::size_t worker) {
                for (std::size_t k = begin; k < end; ++k) {
                  const campaign::Expectation e =
                      campaign::expectedAccessibility(
                          engine, instruments,
                          universe.faults()[campSample[k]], worker);
                  verdicts[k] =
                      static_cast<std::uint8_t>(classify(e, instruments));
                }
              });
          return verdicts;
        },
        [](const std::vector<std::uint8_t>& a,
           const std::vector<std::uint8_t>& b) { return a == b; });
    // Rerun once (pooled state is current) to report the class counts.
    std::uint64_t nAccessible = 0, nDegraded = 0, nLost = 0;
    {
      const diag::BatchedSyndromeEngine engine(flat);
      for (const std::size_t f : campSample) {
        switch (classify(campaign::expectedAccessibility(
                             engine, instruments, universe.faults()[f], 0),
                         instruments)) {
          case Verdict::Accessible: nAccessible += 1; break;
          case Verdict::Degraded: nDegraded += 1; break;
          case Verdict::Lost: nLost += 1; break;
        }
      }
    }

    std::optional<StageTiming> tEa;
    if (spec.segments <= eaMaxSegments) {
      const auto analysis = analyzer.run();
      const auto problem =
          harden::HardeningProblem::assemble(net, *flat, analysis);
      moo::EvolutionOptions options;
      options.populationSize = spec.populationSize();
      options.generations = 50;
      options.maxInitOnes = 100'000;
      options.seed = 1;
      tEa = measureStage(
          threads, [&] { return moo::runSpea2(problem.linear, options); },
          [](const moo::RunResult& a, const moo::RunResult& b) {
            return a.archive.members().size() == b.archive.members().size() &&
                   [&] {
                     for (std::size_t i = 0; i < a.archive.members().size();
                          ++i)
                       if (!(a.archive.members()[i] == b.archive.members()[i]))
                         return false;
                     return true;
                   }();
          });
    }

    const double rssMb = peakRssMb();
    allIdentical = allIdentical && tAnalysis.identical &&
                   tSampled.identical && tCampaign.identical &&
                   (!tDict || tDict->identical) && (!tEa || tEa->identical);

    const auto fmt = [](double s) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", s);
      return std::string(buf);
    };
    const auto fmtX = [](const StageTiming& t) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2fx%s", t.speedup(),
                    t.identical ? "" : " !!DIFF");
      return std::string(buf);
    };
    table.addRow({spec.name, withThousands(std::uint64_t{spec.segments}),
                  withThousands(std::uint64_t{spec.muxes}), fmt(tBuild),
                  fmt(tLower),
                  fmt(static_cast<double>(flatBytes) / (1024.0 * 1024.0)),
                  fmt(tTree), fmt(tAnalysis.pooledSeconds), fmtX(tAnalysis),
                  tDict ? fmt(tDict->pooledSeconds) : "-",
                  fmt(tSampled.pooledSeconds), fmt(tCampaign.pooledSeconds),
                  tEa ? fmt(tEa->pooledSeconds) : "-", fmt(rssMb)});

    const auto emitStage = [&](const char* name, const StageTiming& t) {
      json.key(name)
          .beginObject()
          .kv("serial_s", t.serialSeconds)
          .kv("pooled_s", t.pooledSeconds)
          .kv("speedup", t.speedup())
          .kv("identical", t.identical)
          .endObject();
    };
    json.beginObject()
        .kv("name", spec.name)
        .kv("segments", std::uint64_t{spec.segments})
        .kv("muxes", std::uint64_t{spec.muxes})
        .kv("tree_depth", static_cast<std::uint64_t>(depth))
        .kv("build_s", tBuild)
        .kv("lower_s", tLower)
        .kv("flat_bytes", flatBytes)
        .kv("tree_s", tTree)
        .key("stages")
        .beginObject();
    emitStage("criticality", tAnalysis);
    if (tDict)
      emitStage("dictionary", *tDict);
    else
      json.kv("dictionary", "skipped");
    json.key("dictionary_sampled")
        .beginObject()
        .kv("rows", static_cast<std::uint64_t>(dictSample.size()))
        .kv("serial_s", tSampled.serialSeconds)
        .kv("pooled_s", tSampled.pooledSeconds)
        .kv("speedup", tSampled.speedup())
        .kv("identical", tSampled.identical)
        .endObject();
    json.key("campaign_classification")
        .beginObject()
        .kv("sampled", static_cast<std::uint64_t>(campSample.size()))
        .kv("accessible", nAccessible)
        .kv("degraded", nDegraded)
        .kv("lost", nLost)
        .kv("serial_s", tCampaign.serialSeconds)
        .kv("pooled_s", tCampaign.pooledSeconds)
        .kv("speedup", tCampaign.speedup())
        .kv("identical", tCampaign.identical)
        .endObject();
    if (tEa)
      emitStage("spea2_50gen", *tEa);
    else
      json.kv("spea2_50gen", "skipped");
    json.endObject().kv("peak_rss_mb", rssMb).endObject();
    std::cout << "." << std::flush;
  }
  json.endArray()
      .kv("all_identical", allIdentical)
      .kv("peak_rss_mb", peakRssMb());
  bench::writeObsMetrics(json);
  json.endObject();
  jsonFile << "\n";

  std::cout << "\n\nScalability over the MBIST + HUGE families (set=" << set
            << "; RRSN_SCALABILITY_SET=small|medium|all|huge — small is the "
               "CI smoke tier, all adds the 10^6-segment networks, huge runs "
               "only the synthetic tier; "
            << threads << " thread(s), RRSN_THREADS overrides)\n"
            << table
            << "\n(speedup columns compare RRSN_THREADS=1 against the pool "
               "width; results are checked byte-identical between the two "
               "runs.  'sampled' is " << dictSampleRows
            << " dictionary rows and 'campaign' " << campaignSample
            << " classified faults on the shared flat arena — both run at "
               "every size.  Full dictionary gated at "
            << dictMaxSegments << " segments, SPEA-2 at " << eaMaxSegments
            << "; gated stages carry \"skipped\" JSON markers.  Stage "
               "timings and peak RSS land in BENCH_scalability.json)\n";
  return allIdentical ? 0 : 1;
}
