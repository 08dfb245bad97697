// Static certification study.
//
// The certifier answers which instruments survive which single faults
// by dataflow proof, and the fault dictionary reads its rows.  This
// bench measures it on the paper networks and an MBIST-class design:
// wall-clock of a full-universe certification vs. a full dictionary
// build (the same certification plus syndrome packing and indexing),
// how much of the universe the O(1) fast tier absorbs, and the verdict
// mix.  A row-parity gate replays certifier verdicts through the
// batched reference engine (full universe on small nets, strided on
// large ones) and fails the bench on any divergence, so the numbers
// below are only ever printed for a certifier that agrees with its
// independent reference.  The hardened rows show the certifier
// consuming a hardening plan: excluded primitives leave the fault
// universe and the vulnerable count drops.
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "diag/batched.hpp"
#include "diag/diagnosis.hpp"
#include "fault/fault.hpp"
#include "rsn/example_networks.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "verify/certifier.hpp"

namespace {

struct DesignRow {
  std::string name;
  rrsn::verify::CertifySummary summary;
  double certifyMs = 0;
  double dictMs = 0;
  std::size_t parityChecked = 0;
  std::size_t hardenedUniverse = 0;    // 0 when no hardened variant ran
  std::uint64_t hardenedVulnRead = 0;
};

/// Replays every `stride`-th certifier row through the batched reference.
/// Returns the number of rows checked; any divergence aborts the bench.
std::size_t parityGate(const rrsn::rsn::Network& net,
                       const rrsn::verify::CertificationResult& result,
                       std::size_t stride) {
  using namespace rrsn;
  const diag::BatchedSyndromeEngine oracle(net);
  std::size_t checked = 0;
  for (std::size_t fi = 0; fi < result.universe.size(); fi += stride) {
    const fault::Fault& f = result.universe[fi];
    const campaign::Expectation expect = campaign::expectedAccessibility(
        oracle, result.instruments, f, /*worker=*/0);
    for (std::size_t i = 0; i < result.instruments; ++i) {
      const bool readOk =
          (result.read(fi, i) == verify::Verdict::Proven) ==
          expect.observable.test(i);
      const bool writeOk =
          (result.write(fi, i) == verify::Verdict::Proven) ==
          expect.settable.test(i);
      if (!readOk || !writeOk) {
        std::cerr << "\nPARITY FAILURE: " << fault::describe(net, f)
                  << " / instrument " << i << " ("
                  << (readOk ? "write" : "read") << " verdict diverges from "
                  << "the syndrome oracle)\n";
        std::exit(1);
      }
    }
    ++checked;
  }
  return checked;
}

}  // namespace

int main() {
  using namespace rrsn;
  const std::uint64_t seed = bench::envOrU64("RRSN_SEED", 2022);
  // Full-universe parity below this fault count, strided above it.
  const std::uint64_t parityCap = bench::envOrU64("RRSN_PARITY_CAP", 2000);

  TextTable table({"Design", "faults", "instr", "certify", "dict build",
                   "fast rows", "P/V read", "parity"});
  table.setAlign(0, TextTable::Align::Left);

  std::vector<DesignRow> rows;
  for (const char* name :
       {"fig1", "TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5",
        "MBIST_1_5_20"}) {
    const rsn::Network net = std::string(name) == "fig1"
                                 ? rsn::makeFig1Network()
                                 : benchgen::buildBenchmark(name);

    DesignRow row;
    row.name = name;

    const verify::Certifier certifier(net);
    verify::CertifyOptions options;
    options.crossCheck = false;  // the parity gate below is the check
    Stopwatch certifyWatch;
    const verify::CertificationResult result = certifier.run(options);
    row.certifyMs = certifyWatch.millis();
    row.summary = result.summary();

    Stopwatch dictWatch;
    const diag::FaultDictionary dict = diag::FaultDictionary::build(net);
    row.dictMs = dictWatch.millis();
    (void)dict;

    const std::size_t stride =
        result.universe.size() <= parityCap
            ? 1
            : (result.universe.size() + parityCap - 1) / parityCap;
    row.parityChecked = parityGate(net, result, stride);

    // Hardened variant: feed the min-cost @ damage<=10% plan back into
    // the certifier as an exclusion set.
    Rng rng(seed);
    const auto cspec = rsn::randomSpec(net, {}, rng);
    const auto analysis = crit::CriticalityAnalyzer(net, cspec).run();
    const auto problem = harden::HardeningProblem::assemble(net, analysis);
    const auto knee = moo::greedyMinCost(
        problem.linear, static_cast<std::uint64_t>(
                            0.10 * static_cast<double>(problem.maxDamage)));
    if (knee) {
      verify::CertifyOptions hardenedOptions;
      hardenedOptions.crossCheck = false;
      hardenedOptions.excludePrimitives = DynamicBitset(net.primitiveCount());
      for (std::uint32_t idx : knee->genome.indices()) {
        hardenedOptions.excludePrimitives.set(idx);
      }
      const verify::CertificationResult hardened =
          certifier.run(hardenedOptions);
      row.hardenedUniverse = hardened.universe.size();
      row.hardenedVulnRead = hardened.summary().vulnerableRead;
    }

    char certifyBuf[32], dictBuf[32];
    std::snprintf(certifyBuf, sizeof certifyBuf, "%.1f ms", row.certifyMs);
    std::snprintf(dictBuf, sizeof dictBuf, "%.1f ms", row.dictMs);
    table.addRow(
        {row.name, std::to_string(row.summary.faults),
         std::to_string(row.summary.instruments), certifyBuf, dictBuf,
         std::to_string(row.summary.fastRows),
         std::to_string(row.summary.provenRead) + "/" +
             std::to_string(row.summary.vulnerableRead),
         std::to_string(row.parityChecked) + " rows"});
    rows.push_back(row);
    std::cout << "." << std::flush;
  }

  std::cout << "\n\nStatic certification vs. dictionary build\n"
            << table
            << "\n(certify = full single-fault universe, both directions; "
               "'fast rows' is the share decided by the O(1) dominator/"
               "stuck-mask tier without running the fixpoint; the parity "
               "column counts rows replayed through the batched reference "
               "engine — a divergence fails this bench, so printed numbers "
               "always agree with it.  Unknown cells: "
            << rows.back().summary.unknownCells() << " on "
            << rows.back().name << ")\n";

  {
    std::ofstream out("BENCH_certify.json");
    bench::JsonWriter json(out);
    json.beginObject()
        .kv("bench", "certify")
        .kv("threads", static_cast<std::uint64_t>(threadCount()))
        .key("designs")
        .beginArray();
    for (const DesignRow& row : rows) {
      json.beginObject()
          .kv("name", row.name)
          .kv("faults", static_cast<std::uint64_t>(row.summary.faults))
          .kv("instruments",
              static_cast<std::uint64_t>(row.summary.instruments))
          .kv("certify_ms", row.certifyMs)
          .kv("dict_build_ms", row.dictMs)
          .kv("fast_rows", static_cast<std::uint64_t>(row.summary.fastRows))
          .kv("fixpoint_rows",
              static_cast<std::uint64_t>(row.summary.fixpointRows))
          .kv("proven_read", row.summary.provenRead)
          .kv("vulnerable_read", row.summary.vulnerableRead)
          .kv("proven_write", row.summary.provenWrite)
          .kv("vulnerable_write", row.summary.vulnerableWrite)
          .kv("unknown_cells", row.summary.unknownCells())
          .kv("parity_rows_checked",
              static_cast<std::uint64_t>(row.parityChecked))
          .kv("hardened_universe",
              static_cast<std::uint64_t>(row.hardenedUniverse))
          .kv("hardened_vulnerable_read", row.hardenedVulnRead)
          .endObject();
    }
    json.endArray().endObject();
    out << "\n";
  }
  std::cout << "wrote BENCH_certify.json\n";
  return 0;
}
