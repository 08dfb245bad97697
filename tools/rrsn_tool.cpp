// rrsn_tool — command-line driver for the robust-RSN library.
//
// Each subcommand is one row of commands(): its name, arguments,
// summary, the flags it reads and its handler.  Run the tool without
// arguments for the usage text built from the rows.  Numeric flags
// share their names, bounds and defaults with rrsn_serve's request
// params (api/params.hpp).  Every subcommand also accepts --trace and
// --metrics files; stdout is byte-identical with and without them.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "api/params.hpp"
#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/diagnosis.hpp"
#include "harden/hardening.hpp"
#include "lint/lint.hpp"
#include "moo/spea2.hpp"
#include "obs/obs.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "sim/retarget.hpp"
#include "sp/decomposition.hpp"
#include "verify/certifier.hpp"
#include "support/io.hpp"
#include "support/strings.hpp"

namespace {

using namespace rrsn;

/// A flag a subcommand reads: "--name", "--name <value>", or a numeric
/// param of the shared schema.
struct Flag {
  Flag(const char* text) : spelling(text) {}
  Flag(const api::Param& p) : spelling(api::flagOf(p) + " N"), number(&p) {}
  std::string_view name() const {
    return std::string_view(spelling).substr(0, spelling.find(' '));
  }
  std::string spelling;
  const api::Param* number = nullptr;
};

/// A parsed command line: positionals and the text of every flag given
/// (a switch maps to "").
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string, std::less<>> flags;

  const std::string* get(std::string_view flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? nullptr : &it->second;
  }
  bool has(std::string_view flag) const { return get(flag) != nullptr; }
  std::uint64_t num(const api::Param& p) const {
    const std::string* text = get(api::flagOf(p));
    return text ? api::fromArg(p, *text) : p.fallback;
  }
};

struct Command {
  std::string_view name, args, summary;
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

const std::vector<Command>& commands();

std::string usageText() {
  std::string text =
      "usage: rrsn_tool <command> <netlist> [args] [flags] [--trace file] "
      "[--metrics file]\n";
  for (const Command& c : commands()) {
    text += "  " + std::string(c.name) + ' ' + std::string(c.args);
    for (const Flag& f : c.flags) text += " [" + f.spelling + ']';
    text += "\n      " + std::string(c.summary) + '\n';
  }
  return text +
         "<netlist> is - (stdin), example:fig1, example:tiny, a netlist "
         "file, or a Table-I or huge benchmark name\n"
         "F is break:<segment> or stuck:<mux>:<branch>\n";
}

[[noreturn]] void usage(const std::string& why = {}) {
  if (!why.empty()) std::cerr << "rrsn_tool: " << why << '\n';
  std::cerr << usageText();
  std::exit(2);
}

Args parseArgs(const Command& cmd, int argc, char** argv) {
  std::vector<Flag> flags = cmd.flags;
  flags.insert(flags.end(), {"--trace file", "--metrics file"});
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-' || arg == "-") {
      a.positional.push_back(arg);
      continue;
    }
    // Both "--opt value" and "--opt=value" are accepted for every
    // value-taking option.
    std::optional<std::string> value;
    if (const auto eq = arg.find('=');
        startsWith(arg, "--") && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const auto flag = std::find_if(
        flags.begin(), flags.end(),
        [&arg](const Flag& f) { return f.name() == arg; });
    if (flag == flags.end()) {
      usage(std::string(cmd.name) + " does not read " + arg);
    }
    const bool takesValue = flag->spelling.find(' ') != std::string::npos;
    if (value && !takesValue) usage(arg + " takes no value");
    if (takesValue && !value) {
      if (i + 1 >= argc) usage(arg + " needs a value");
      value = argv[++i];
    }
    // Numeric values are checked before any work starts.
    if (flag->number) (void)api::fromArg(*flag->number, *value);
    a.flags[arg] = value.value_or("");
  }
  if (a.positional.empty()) usage();
  return a;
}

/// Writes one report file and checks the flush: an ofstream swallows
/// ENOSPC/EPIPE silently until checked.
void writeFile(const std::string& path, const std::string& what,
               std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write " + what + " '" + path + "'");
  out << content;
  out.flush();
  if (!out) throw IoError("short write to " + what + " '" + path + "'");
}

std::string jsonText(const json::Value& doc) {
  return json::serialize(doc, 1) + '\n';
}

/// The generated netlist text of a Table-I or huge benchmark name.
/// Parsing it renumbers segments in some designs, so every subcommand
/// reads a benchmark through this text and sees what `bench` prints.
std::optional<std::string> benchmarkText(const std::string& name) {
  for (const auto* tier :
       {&benchgen::table1Benchmarks(), &benchgen::hugeBenchmarks()}) {
    for (const benchgen::BenchmarkSpec& spec : *tier) {
      if (spec.name == name)
        return rsn::netlistToString(benchgen::buildBenchmark(spec));
    }
  }
  return std::nullopt;
}

/// Resolves <netlist>: "-" (stdin), example:fig1|tiny, an existing
/// file, then a benchmark name.  `read` parses stdin, files and
/// benchmark text.
template <typename Read>
auto resolveNetwork(const std::string& arg, Read read)
    -> decltype(read(std::cin)) {
  if (arg == "-") return read(std::cin);
  if (arg == "example:fig1") return rsn::makeFig1Network();
  if (arg == "example:tiny") return rsn::makeTinyNetwork();
  if (std::ifstream file(arg); file) return read(file);
  if (const auto text = benchmarkText(arg)) {
    std::istringstream in(*text);
    return read(in);
  }
  throw Error("cannot resolve netlist '" + arg +
              "': not - (stdin), example:fig1|tiny, a netlist file or a "
              "benchmark name");
}

rsn::Network loadNetwork(const std::string& arg) {
  return resolveNetwork(arg,
                        [](std::istream& in) { return rsn::parseNetlist(in); });
}

std::string artifactName(const Args& a) {
  return a.positional[0] == "-" ? "<stdin>" : a.positional[0];
}

rsn::CriticalitySpec loadSpec(const Args& a, const rsn::Network& net) {
  if (const std::string* path = a.get("--spec")) {
    std::ifstream in(*path);
    if (!in) throw Error("cannot open spec '" + *path + "'");
    return rsn::readSpec(in, net);
  }
  Rng rng(a.num(api::kSeed));
  return rsn::randomSpec(net, {}, rng);
}

fault::Fault parseFault(const rsn::Network& net, const std::string& text) {
  const auto parts = split(text, ':');
  if (parts.size() == 2 && parts[0] == "break") {
    const rsn::SegmentId seg = net.findSegment(parts[1]);
    if (seg == rsn::kNone)
      throw ParseError("unknown segment '" + parts[1] + "'");
    return fault::Fault::segmentBreak(seg);
  }
  if (parts.size() == 3 && parts[0] == "stuck") {
    const rsn::MuxId mux = net.findMux(parts[1]);
    if (mux == rsn::kNone)
      throw ParseError("unknown mux '" + parts[1] + "'");
    const std::uint32_t arity = rsn::FlatNetwork::lower(net)->muxArity()[mux];
    return fault::Fault::muxStuck(
        mux, static_cast<std::uint32_t>(parseUintBounded(
                 parts[2], "--fault branch of mux '" + parts[1] + "'", 0,
                 arity - 1)));
  }
  throw ParseError("--fault expects break:<segment> or stuck:<mux>:<branch>");
}

int cmdInfo(const Args& a) {
  const rsn::Network net = loadNetwork(a.positional[0]);
  const rsn::NetworkStats s = net.stats();
  std::cout << "network:       " << net.name() << '\n'
            << "segments:      " << s.segments << '\n'
            << "multiplexers:  " << s.muxes << '\n'
            << "instruments:   " << s.instruments << '\n'
            << "scan cells:    " << s.scanCells << '\n'
            << "mux nesting:   " << s.maxMuxNesting << '\n';
  // Netlists and NetworkBuilder compose only series and parallel parts.
  std::cout << "series-parallel: yes\n";
  const auto tree = sp::DecompositionTree::build(net);
  std::cout << "decomposition tree: " << tree.nodeCount() << " nodes, depth "
            << tree.depth() << '\n';
  return 0;
}

int cmdDot(const Args& a) {
  std::cout << rsn::toDot(loadNetwork(a.positional[0]));
  return 0;
}

int cmdTree(const Args& a) {
  const rsn::Network net = loadNetwork(a.positional[0]);
  auto tree = sp::DecompositionTree::build(net);
  tree.annotate(loadSpec(a, net));
  std::cout << tree.toAscii();
  return 0;
}

/// Criticality under --spec, or the random spec drawn from --seed.
crit::CriticalityResult analyze(const Args& a, const rsn::Network& net) {
  crit::AnalysisOptions options;
  options.lint = !a.has("--no-lint");
  return crit::CriticalityAnalyzer(net, loadSpec(a, net), options).run();
}

int cmdAnalyze(const Args& a) {
  const rsn::Network net = loadNetwork(a.positional[0]);
  const auto analysis = analyze(a, net);
  std::cout << "accumulated single-defect damage (nothing hardened): "
            << withThousands(analysis.totalDamage()) << "\n\n"
            << analysis.report(a.num(api::kTop));
  return 0;
}

int cmdHarden(const Args& a) {
  const rsn::Network net = loadNetwork(a.positional[0]);
  const auto analysis = analyze(a, net);
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = a.num(api::kPopulation);
  options.generations = a.num(api::kGenerations);
  options.seed = a.num(api::kSeed);
  const auto result = moo::runSpea2(problem.linear, options);

  std::cout << "max cost " << withThousands(problem.maxCost)
            << ", max damage " << withThousands(problem.maxDamage)
            << ", Pareto front with " << result.archive.size()
            << " solutions:\n";
  for (const moo::Individual& ind : result.archive.members())
    std::cout << "  cost " << withThousands(ind.obj.cost) << "  damage "
              << withThousands(ind.obj.damage) << '\n';
  const auto sols = harden::extractPaperSolutions(result.archive, problem);
  if (sols.minCost) {
    const harden::HardeningPlan plan(net, sols.minCost->genome);
    std::cout << "\nmin cost @ damage <= 10%:\n" << plan.report(analysis);
    if (const std::string* path = a.get("--plan-out")) {
      std::ostringstream text;
      harden::writePlan(text, plan);
      writeFile(*path, "plan", text.str());
      std::cout << "plan written to " << *path << '\n';
    }
  }
  if (sols.minDamage) {
    std::cout << "\nmin damage @ cost <= 10%:\n"
              << harden::HardeningPlan(net, sols.minDamage->genome)
                     .report(analysis);
  }
  return 0;
}

int cmdAccess(const Args& a) {
  if (a.positional.size() < 2) usage();
  const rsn::Network net = loadNetwork(a.positional[0]);
  const rsn::InstrumentId inst = net.findInstrument(a.positional[1]);
  if (inst == rsn::kNone)
    throw ParseError("unknown instrument '" + a.positional[1] + "'");
  sim::ScanSimulator simulator(net);
  if (const std::string* f = a.get("--fault"))
    simulator.injectFault(parseFault(net, *f));
  const auto flat = rsn::FlatNetwork::lower(net);
  sim::Retargeter rt(simulator, *flat);
  simulator.setInstrumentValue(
      inst, sim::accessMarker(net.segment(net.instrument(inst).segment).length));
  const auto res = rt.readInstrument(inst);
  std::cout << "read " << net.instrument(inst).name << ": "
            << (res.success ? "OK" : "INACCESSIBLE") << " (" << res.rounds
            << " CSU rounds)\n";
  for (std::size_t k = 0; k < res.patterns.size(); ++k) {
    std::cout << "  csu[" << k << "] in  " << toString(res.patterns[k].shiftIn)
              << "\n  csu[" << k << "] out " << toString(res.patterns[k].shiftOut)
              << '\n';
  }
  return res.success ? 0 : 1;
}

int cmdDiagnose(const Args& a) {
  const rsn::Network net = loadNetwork(a.positional[0]);
  const std::string* faultText = a.get("--fault");
  if (faultText == nullptr) throw UsageError("diagnose requires --fault");
  const fault::Fault f = parseFault(net, *faultText);
  const auto dict = diag::FaultDictionary::build(net);
  const auto observed = diag::FaultDictionary::measure(net, &f);
  const auto d = dict.diagnose(observed);
  std::cout << "injected: " << fault::describe(net, f) << '\n';
  if (d.faultFree) {
    std::cout << "syndrome is fault-free: the defect is undetectable by "
                 "instrument accesses\n";
    return 0;
  }
  std::cout << "candidates (" << d.exactMatches.size() << "):";
  for (const auto& c : d.exactMatches) std::cout << ' ' << describe(net, c);
  std::cout << '\n';
  const auto r = dict.resolution();
  std::cout << "dictionary: " << r.faults << " faults, " << r.detectable
            << " detectable, " << r.classes << " classes, avg ambiguity "
            << r.avgAmbiguity << '\n';
  return 0;
}

int cmdCampaign(const Args& a) {
  const rsn::Network net = loadNetwork(a.positional[0]);

  if (a.has("--pairs") && a.has("--transient")) {
    std::cerr << "rrsn_tool: --pairs and --transient are mutually exclusive\n";
    return 2;
  }
  campaign::CampaignConfig config;
  if (a.has("--pairs")) config.mode = campaign::CampaignMode::Pairs;
  if (a.has("--transient")) config.mode = campaign::CampaignMode::Transient;
  config.sample = a.num(api::kSample);
  if (const std::string* f = a.get("--sample-fraction"))
    config.sampleFraction = parseDouble(*f, "--sample-fraction");
  if (const std::string* rounds = a.get("--transient-rounds")) {
    config.transientRounds.clear();
    for (const std::string& part : split(*rounds, ','))
      config.transientRounds.push_back(static_cast<std::uint32_t>(
          parseUintBounded(part, "--transient-rounds", 0, 1000000)));
  }
  config.seed = a.num(api::kSeed);
  config.retarget.maxReroutes = a.num(api::kMaxReroutes);
  config.checkpointEvery = a.num(api::kBatch);
  config.lint = !a.has("--no-lint");
  const std::string* checkpoint = a.get("--checkpoint");
  if (checkpoint) config.checkpointPath = *checkpoint;
  // The deadline starts at the first progress report, which run() makes
  // once the oracle table is built: a resumed run whose budget is
  // shorter than that build still probes something.
  CancellationToken deadline;
  bool armed = !a.has("--deadline-ms");
  if (!armed) config.cancel = &deadline;
  config.progress = [&, budget = a.num(api::kDeadlineMs)](std::size_t done,
                                                          std::size_t total) {
    if (!armed) deadline.setDeadlineFromNow(std::chrono::milliseconds(budget));
    armed = true;
    std::cerr << "campaign: " << done << "/" << total << " scenarios\n";
  };

  campaign::CampaignEngine engine(net, std::move(config));
  const campaign::CampaignResult result = engine.run();
  const campaign::CampaignSummary s = result.summary();

  std::cout << "network: " << net.name() << " — "
            << campaign::campaignModeName(result.mode) << " campaign, "
            << s.faultsDone << "/" << s.faultsTotal << " scenarios x "
            << s.instruments << " instruments\n\n"
            << campaign::summaryTable(s).render() << '\n';
  if (result.mode != campaign::CampaignMode::Single) {
    std::cout << '\n' << campaign::robustnessTable(result.robustness()).render();
  }
  const auto items = result.mismatches();
  if (!items.empty()) {
    std::cout << "\nexpected-vs-simulated MISMATCHES (" << items.size()
              << "; these indicate an engine or analysis bug):\n"
              << campaign::mismatchTable(net, items).render();
  } else if (s.faultsDone > 0) {
    std::cout << "\nno expected-vs-simulated mismatches\n";
  }
  const auto interactions = result.pairInteractions();
  if (!interactions.empty()) {
    std::cout << "\npair interaction effects vs the composed single-fault "
                 "oracle ("
              << interactions.size()
              << "; compounded = composition predicted access, masked = "
                 "composition predicted loss):\n"
              << campaign::mismatchTable(net, interactions).render();
  }
  const auto gaps = result.structuralGaps();
  if (!gaps.empty()) {
    std::cout << "\ncontrol-dependency gaps vs the plain structural oracle ("
              << gaps.size() << "; documented, itemized):\n"
              << campaign::mismatchTable(net, gaps).render();
  }
  if (s.oracleDisagreements != 0) {
    std::cout << "\nWARNING: tree and graph oracles disagreed on "
              << s.oracleDisagreements << " (fault, instrument) pairs\n";
  }

  if (const std::string* path = a.get("--csv")) {
    writeFile(*path, "csv", campaign::outcomeTable(net, result).renderCsv());
    std::cout << "\nper-fault outcomes written to " << *path << '\n';
  }
  if (const std::string* path = a.get("--json")) {
    writeFile(*path, "json", jsonText(campaign::reportJson(net, result)));
    std::cout << "report written to " << *path << '\n';
  }
  if (!s.complete()) {
    std::cout << "\ncampaign interrupted by deadline after " << s.faultsDone
              << "/" << s.faultsTotal << " scenarios";
    if (checkpoint) std::cout << "; rerun with the same --checkpoint to resume";
    std::cout << '\n';
    return 1;
  }
  return 0;
}

int cmdBench(const Args& a) {
  const auto text = benchmarkText(a.positional[0]);
  std::cout << (text ? *text
                     : rsn::netlistToString(loadNetwork(a.positional[0])));
  return 0;
}

int cmdLint(const Args& a) {
  lint::LintResult result;
  rsn::NetlistSources sources;
  // Files, stdin and benchmark text take the lenient parse, which turns
  // malformed input into findings instead of an exception.
  const std::optional<rsn::Network> net =
      resolveNetwork(a.positional[0], [&](std::istream& in) {
        return lint::parseForLint(in, sources, result);
      });

  std::optional<rsn::CriticalitySpec> spec;
  std::vector<std::string> planNames;
  const std::string* planPath = a.get("--plan");
  if (net) {
    if (const std::string* path = a.get("--spec")) {
      std::ifstream in(*path);
      if (!in) throw Error("cannot open spec '" + *path + "'");
      spec = lint::lintSpec(in, *net, result);
    }
    if (planPath) {
      std::ifstream in(*planPath);
      if (!in) throw Error("cannot open plan '" + *planPath + "'");
      planNames = lint::readPlanNames(in);
    }
    lint::LintOptions options;
    options.sources = &sources;
    if (spec) options.spec = &*spec;
    if (planPath) options.hardenedNames = &planNames;
    lint::LintResult model = lint::runLint(*net, options);
    for (lint::Finding& f : model.findings) result.add(std::move(f));
  }
  result.sort();

  const std::string artifact = artifactName(a);
  std::cout << lint::textReport(result, artifact);
  if (const std::string* path = a.get("--json"))
    writeFile(*path, "json", jsonText(lint::jsonReport(result, artifact)));
  if (const std::string* path = a.get("--sarif"))
    writeFile(*path, "sarif", jsonText(lint::sarifReport(result, artifact)));
  return result.clean() ? 0 : 1;
}

int cmdCertify(const Args& a) {
  const rsn::Network net = loadNetwork(a.positional[0]);
  if (!a.has("--no-lint")) lint::enforceClean(net, "certification");

  verify::CertifyOptions options;
  if (const std::string* path = a.get("--plan")) {
    // A hardened primitive cannot fail, so its faults leave the universe.
    std::ifstream in(*path);
    if (!in) throw Error("cannot open plan '" + *path + "'");
    options.excludePrimitives = DynamicBitset(net.primitiveCount());
    for (const rsn::PrimitiveRef ref :
         harden::readPlan(in, net).hardenedPrimitives())
      options.excludePrimitives.set(net.linearId(ref));
  }
  options.crossCheck = verify::crossCheckDefault();

  const verify::Certifier certifier(net);
  const verify::CertificationResult result = certifier.run(options);
  const verify::CertifySummary s = result.summary();

  std::cout << "network: " << net.name() << " — "
            << withThousands(std::uint64_t{s.faults}) << " faults x "
            << withThousands(std::uint64_t{s.instruments})
            << " instruments, " << s.reachableInstruments << "/"
            << s.instruments << " reachable fault-free\n"
            << "tiers: " << withThousands(std::uint64_t{s.fastRows})
            << " rows fast, " << withThousands(std::uint64_t{s.localRows})
            << " rows local, " << withThousands(std::uint64_t{s.fixpointRows})
            << " rows fixpoint, "
            << withThousands(std::uint64_t{s.crossCheckedRows})
            << " rows cross-checked against the syndrome oracle\n\n"
            << verify::summaryTable(s).render();
  if (s.vulnerableRead + s.vulnerableWrite + s.unknownCells() > 0) {
    std::cout << '\n'
              << verify::vulnerabilityTable(net, result, a.num(api::kTop))
                     .render();
  }
  if (s.unknownCells() > 0) {
    std::cout << "\nWARNING: " << s.unknownCells()
              << " verdicts exhausted the fixpoint budget (Unknown) — the "
                 "certification is incomplete\n";
  }

  if (const std::string* path = a.get("--json")) {
    writeFile(*path, "json", jsonText(verify::reportJson(net, result)));
    std::cout << "report written to " << *path << '\n';
  }
  if (const std::string* path = a.get("--sarif")) {
    writeFile(*path, "sarif",
              jsonText(verify::sarifReport(net, result, artifactName(a))));
    std::cout << "sarif written to " << *path << '\n';
  }
  return s.unknownCells() == 0 ? 0 : 1;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"info", "<netlist>", "network statistics + series-parallel check", {},
       cmdInfo},
      {"dot", "<netlist>", "Graphviz DOT of the scan graph", {}, cmdDot},
      {"tree", "<netlist>", "annotated decomposition tree",
       {"--spec file", api::kSeed}, cmdTree},
      {"analyze", "<netlist>", "criticality report (top k)",
       {"--spec file", api::kSeed, api::kTop, "--no-lint"}, cmdAnalyze},
      {"harden", "<netlist>", "SPEA-2 Pareto front + hardening plans",
       {"--spec file", api::kSeed, api::kGenerations, api::kPopulation,
        "--plan-out file", "--no-lint"},
       cmdHarden},
      {"access", "<netlist> <instrument>",
       "retarget a read and print its CSU patterns, optionally under F",
       {"--fault F"}, cmdAccess},
      {"diagnose", "<netlist>",
       "diagnose the injected fault F with the fault dictionary",
       {"--fault F"}, cmdDiagnose},
      {"campaign", "<netlist>",
       "fault-injection campaign (single, --pairs or --transient faults), "
       "cross-validated against the structural oracles",
       {"--pairs", "--transient", "--transient-rounds N,...", api::kSample,
        "--sample-fraction F", api::kSeed, api::kDeadlineMs,
        "--checkpoint file", api::kBatch, api::kMaxReroutes,
        "--csv file", "--json file", "--no-lint"},
       cmdCampaign},
      {"bench", "<netlist>", "print the network as netlist text", {},
       cmdBench},
      {"lint", "<netlist>", "rrsn_lint findings (exit 1 on an error)",
       {"--spec file", "--plan file", "--json file", "--sarif file"},
       cmdLint},
      {"certify", "<netlist>",
       "certify every instrument under every single fault outside the "
       "--plan (exit 1 on an Unknown verdict)",
       {"--plan file", api::kTop, "--json file", "--sarif file", "--no-lint"},
       cmdCertify},
  };
  return kCommands;
}

/// Writes the requested trace / metrics exports and a timing summary to
/// stderr (stdout carries the command's result and must stay identical
/// with and without profiling).
void exportObservability(const Args& a) {
  const std::string* tracePath = a.get("--trace");
  const std::string* metricsPath = a.get("--metrics");
  if (!tracePath && !metricsPath && !obs::enabled()) return;
  const obs::Snapshot snap = obs::snapshot();
  if (tracePath) {
    writeFile(*tracePath, "trace", obs::traceEventJson(snap) + '\n');
    std::cerr << "trace written to " << *tracePath << '\n';
  }
  if (metricsPath) {
    writeFile(*metricsPath, "metrics", jsonText(obs::metricsJson(snap)));
    std::cerr << "metrics written to " << *metricsPath << '\n';
  }
  if (tracePath || metricsPath)
    std::cerr << obs::summaryTable(snap).render();
  obs::raiseIfError(obs::checkSpanBalance());
}

}  // namespace

int main(int argc, char** argv) {
  // With SIGPIPE ignored, `rrsn_tool ... | head` makes stdout writes
  // fail with EPIPE (badbit on std::cout) instead of killing the
  // process; the flush check below turns that into a typed error.
  rrsn::io::ignoreSigpipe();
  try {
    if (argc < 3) usage();
    const auto& table = commands();
    const auto cmd = std::find_if(
        table.begin(), table.end(),
        [&](const Command& c) { return c.name == argv[1]; });
    if (cmd == table.end()) usage(std::string("unknown command ") + argv[1]);
    const Args args = parseArgs(*cmd, argc, argv);
    if (args.has("--trace") || args.has("--metrics")) obs::enable();
    const int code = cmd->run(args);
    std::cout.flush();
    if (!std::cout) {
      throw rrsn::IoError("stdout write failed (consumer closed the pipe?)");
    }
    exportObservability(args);
    return code;
  } catch (const rrsn::UsageError& e) {
    std::cerr << "error: " << e.what() << '\n' << usageText();
    return 1;
  } catch (const rrsn::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
