// perfbench — the repository benchmark driver.
//
//   perfbench --workload <flow|certify_local|certify_dense|serve_mixed>
//             --seed N --seconds S --trace 0|1 [--short]
//             [--corrupt verdict|reply|summary]
//   perfbench --list-metrics
//
// Prints one JSON report line: provenance, gate counts and failures,
// output digests, and the metrics of the run's scope (end-to-end when
// untraced, per-layer when traced) with their quartiles.  run.py builds
// this binary from source and turns the report into the result line.
#include <iostream>
#include <string>
#include <thread>

#include <sched.h>

#include "harness.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace {

using namespace rrsn;
using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--short] [--corrupt verdict|reply|summary] | "
               "--list-metrics\n";
  std::exit(2);
}

json::Value catalogueJson() {
  json::Object out;
  for (const perfbench::MetricSpec& m : perfbench::metricCatalogue()) {
    json::Object o;
    o["unit"] = json::Value(m.unit);
    o["scope"] = json::Value(m.scope == perfbench::Scope::EndToEnd
                                 ? "end_to_end"
                                 : "per_layer");
    out[m.name] = json::Value(std::move(o));
  }
  return json::Value(std::move(out));
}

std::size_t cpusAvailable() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--list-metrics") {
        std::cout << json::serialize(catalogueJson()) << '\n';
        return 0;
      } else if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = parseUintBounded(value(), "--seed", 0, ~0ull);
        haveSeed = true;
      } else if (arg == "--seconds") {
        o.seconds = static_cast<double>(
            parseUintBounded(value(), "--seconds", 1, 3600));
        haveSeconds = true;
      } else if (arg == "--trace") {
        o.trace = parseUintBounded(value(), "--trace", 0, 1) == 1;
        haveTrace = true;
      } else if (arg == "--short") {
        o.shortTier = true;
      } else if (arg == "--corrupt") {
        o.corrupt = value();
        if (o.corrupt != "verdict" && o.corrupt != "reply" &&
            o.corrupt != "summary")
          usage("--corrupt takes verdict, reply or summary");
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const Error& e) {
      usage(e.what());
    }
  }
  if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
    usage("--workload, --seed, --seconds and --trace are required");

  try {
    perfbench::RunOutput run = o.workload == "serve_mixed"
                                   ? perfbench::runServeMixed(o)
                                   : perfbench::runBatchWorkload(o);
    const double attempted = static_cast<double>(run.gate.attempted());
    if (o.trace) {
      run.metrics.set("fail_ratio",
                      attempted > 0 ? static_cast<double>(run.gate.failed()) /
                                          attempted
                                    : 1.0);
    }

    json::Object provenance;
    provenance["nproc"] = json::Value(static_cast<std::uint64_t>(cpusAvailable()));
    provenance["rrsn_threads"] = json::Value(static_cast<std::uint64_t>(threadCount()));
    provenance["build_type"] = json::Value(PERFBENCH_BUILD_TYPE);
    provenance["compiler"] = json::Value(std::string("g++ ") + __VERSION__);
    provenance["seed"] = json::Value(o.seed);
    provenance["tier"] = json::Value(o.shortTier ? "short" : "full");
    provenance["corpus"] = json::Value(std::move(run.corpus));

    json::Object report;
    report["workload"] = json::Value(o.workload);
    report["trace"] = json::Value(o.trace);
    report["seconds"] = json::Value(o.seconds);
    report["provenance"] = json::Value(std::move(provenance));
    report["attempted"] = json::Value(static_cast<std::uint64_t>(run.gate.attempted()));
    report["failed"] = json::Value(static_cast<std::uint64_t>(run.gate.failed()));
    report["failures"] = run.gate.messages();
    report["digests"] = json::Value(std::move(run.digests));
    report["job_seconds"] = json::Value(std::move(run.jobSeconds));
    report["job_coverage"] = json::Value(std::move(run.jobCoverage));
    // Host speed: the probe's samples and the untraced timings as
    // measured, before scaling to reference host speed.
    const perfbench::Summary probe = perfbench::summarize(run.probeSeconds);
    json::Object host;
    host["reference_probe_s"] = json::Value(perfbench::HostProbe::kReferenceSeconds);
    host["probe_median_s"] = json::Value(probe.median);
    host["probe_q1_s"] = json::Value(probe.q1);
    host["probe_q3_s"] = json::Value(probe.q3);
    host["probe_samples"] = json::Value(static_cast<std::uint64_t>(probe.n));
    host["unscaled"] = run.unscaled.valuesJson();
    report["host"] = json::Value(std::move(host));
    report["metrics"] = run.metrics.toJson(o.trace ? perfbench::Scope::PerLayer
                                                   : perfbench::Scope::EndToEnd);
    std::cout << json::serialize(json::Value(std::move(report))) << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
