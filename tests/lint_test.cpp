// Tests for the rrsn_lint static verification subsystem: rule registry
// integrity, one firing test per expressible rule (the acceptance gate
// requires >= 12 distinct rule ids across this corpus), source-line
// attribution, report formats (text / JSON / SARIF 2.1.0), byte-level
// determinism, and the fail-fast wiring into the criticality and
// campaign entry points.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "lint/lint.hpp"
#include "rsn/builder.hpp"
#include "rsn/flat.hpp"
#include "rsn/spec.hpp"
#include "support/json.hpp"
#include "test_util.hpp"

namespace rrsn {
namespace {

std::set<std::string> ruleIds(const lint::LintResult& r) {
  std::set<std::string> ids;
  for (const auto& f : r.findings) ids.insert(f.ruleId);
  return ids;
}

bool hasRule(const lint::LintResult& r, const std::string& id) {
  return ruleIds(r).count(id) != 0;
}

const lint::Finding* findingOf(const lint::LintResult& r,
                               const std::string& id) {
  for (const auto& f : r.findings)
    if (f.ruleId == id) return &f;
  return nullptr;
}

/// A network whose control wiring deadlocks from reset: each mux's
/// control register sits in the *non-reset* branch of the other, so
/// neither register can ever be reached to open the other's branch.
/// Only the NetworkBuilder can express this (the parser resolves control
/// references at declaration time and rejects self-containment).
rsn::Network deadlockNetwork() {
  rsn::NetworkBuilder b("deadlock");
  const auto ca = b.segment("ca", 1);
  const auto cb = b.segment("cb", 1);
  const auto muxA = b.mux("A", {b.wire(), cb}, "ca");
  const auto muxB = b.mux("B", {b.wire(), ca}, "cb");
  b.setTop(b.chain({muxA, muxB}));
  return b.build();
}

// ------------------------------------------------------------ registry

TEST(LintRegistry, SortedUniqueAndResolvable) {
  const auto& reg = lint::ruleRegistry();
  ASSERT_GE(reg.size(), 20u);
  for (std::size_t i = 1; i < reg.size(); ++i)
    EXPECT_LT(std::string(reg[i - 1].id), std::string(reg[i].id))
        << "registry must be sorted by id";
  for (const auto& rule : reg) {
    const auto* found = lint::findRule(rule.id);
    ASSERT_NE(found, nullptr) << rule.id;
    EXPECT_EQ(found->id, std::string(rule.id));
    EXPECT_NE(std::string(rule.summary), "");
  }
  EXPECT_EQ(lint::findRule("no.such-rule"), nullptr);
  EXPECT_EQ(lint::findRule(""), nullptr);
}

// ------------------------------------------------- rule firing corpus

struct NetlistCase {
  const char* label;
  const char* rule;
  lint::Severity severity;
  std::string text;
};

std::vector<NetlistCase> netlistCorpus() {
  std::vector<NetlistCase> cases = {
      {"truncated input", "parse.syntax", lint::Severity::Error,
       "network n { segment"},
      {"duplicate segment name", "struct.duplicate-id", lint::Severity::Error,
       "network n { chain { segment a; segment a; } }"},
      {"unknown control reference", "sem.ctrl-unknown", lint::Severity::Error,
       "network n { chain { segment c;\n"
       "  mux m ctrl=ghost { branch { segment a; } branch { wire; } } } }"},
      {"wire-only mux", "struct.wire-only-mux", lint::Severity::Error,
       "network n { chain { segment a;\n"
       "  mux m { branch { wire; } branch { wire; } } } }"},
      {"1-bit control on a 3-way mux", "struct.ctrl-width",
       lint::Severity::Error,
       "network n { chain { segment c;\n"
       "  mux m ctrl=c { branch { segment a; } branch { segment b; }\n"
       "                 branch { segment d; } } } }"},
      {"unaddressable branch segment", "struct.unreachable",
       lint::Severity::Error,
       "network n { chain { segment c;\n"
       "  mux m ctrl=c { branch { segment a; } branch { segment b; }\n"
       "                 branch { segment d; } } } }"},
      {"SIB gating no instruments", "struct.dead-sib", lint::Severity::Warning,
       "network n { chain { segment t instrument=i0;\n"
       "  sib s { segment x; } } }"},
      {"two bypass branches", "struct.duplicate-branch",
       lint::Severity::Warning,
       "network n { chain {\n"
       "  mux m { branch { segment a; } branch { wire; } branch { wire; } }\n"
       "  segment t instrument=i0; } }"},
      {"case-confusable names", "struct.confusable-names",
       lint::Severity::Note,
       "network n { chain { segment Foo; segment foo; } }"},
      {"TAP-steered mux", "sem.unconstrained-mux", lint::Severity::Note,
       "network n { chain {\n"
       "  mux m { branch { segment a; } branch { wire; } } } }"},
      {"wire in series composition", "sem.orphan-wire", lint::Severity::Note,
       "network n { chain { wire; segment a; } }"},
      {"control register driving two muxes", "sem.shared-ctrl",
       lint::Severity::Note,
       "network n { chain { segment c;\n"
       "  mux m1 ctrl=c { branch { segment a; } branch { wire; } }\n"
       "  mux m2 ctrl=c { branch { segment b; } branch { wire; } } } }"},
  };
  // Deep SIB tower: 70 nesting levels blow past the depth guard while
  // staying well inside the parser's nesting cap (256).
  std::string deep = "network deep { chain { ";
  const int kLevels = 70;
  for (int i = 0; i < kLevels; ++i)
    deep += "sib s" + std::to_string(i) + " { ";
  deep += "segment x instrument=ix; ";
  for (int i = 0; i < kLevels + 1; ++i) deep += "} ";
  deep += "}";
  cases.push_back({"deep SIB tower", "ready.depth", lint::Severity::Warning,
                   std::move(deep)});
  return cases;
}

TEST(LintRules, CorpusFiresAtLeastTwelveDistinctRules) {
  std::set<std::string> firedIds;
  for (const auto& c : netlistCorpus()) {
    const auto linted = lint::lintNetlistText(c.text);
    EXPECT_TRUE(hasRule(linted.result, c.rule))
        << c.label << ": expected " << c.rule << ", got "
        << lint::textReport(linted.result, "<case>");
    const auto* f = findingOf(linted.result, c.rule);
    if (f != nullptr) {
      EXPECT_EQ(f->severity, c.severity) << c.label;
      EXPECT_NE(f->message, "") << c.label;
    }
    if (c.severity == lint::Severity::Error) {
      EXPECT_FALSE(linted.result.clean()) << c.label;
    }
    for (const auto& id : ruleIds(linted.result)) firedIds.insert(id);
  }

  // Builder-only and side-input rules join the tally below.
  {
    const auto result = lint::runLint(deadlockNetwork());
    EXPECT_TRUE(hasRule(result, "struct.ctrl-cycle"));
    for (const auto& id : ruleIds(result)) firedIds.insert(id);
  }
  EXPECT_GE(firedIds.size(), 12u)
      << "acceptance gate: >= 12 distinct rule ids across the corpus";
}

TEST(LintRules, CtrlCycleReportsTheDeadlockedMuxes) {
  const auto result = lint::runLint(deadlockNetwork());
  const auto* cycle = findingOf(result, "struct.ctrl-cycle");
  ASSERT_NE(cycle, nullptr) << lint::textReport(result, "<builder>");
  EXPECT_EQ(cycle->severity, lint::Severity::Error);
  EXPECT_NE(cycle->message.find("A"), std::string::npos);
  EXPECT_NE(cycle->message.find("B"), std::string::npos);
  // Both control registers hide behind the deadlock, so neither can
  // ever appear on the active scan path.
  EXPECT_TRUE(hasRule(result, "struct.unreachable"));
  EXPECT_FALSE(result.clean());
}

TEST(LintRules, CtrlDownstreamOfItsMux) {
  rsn::NetworkBuilder b("downstream");
  const auto c = b.segment("c", 1);
  const auto m = b.mux("m", {b.segment("a", 2, "ia"), b.wire()}, "c");
  b.setTop(b.chain({m, c}));  // control register serially after its mux
  const auto result = lint::runLint(b.build());
  const auto* f = findingOf(result, "sem.ctrl-downstream");
  ASSERT_NE(f, nullptr) << lint::textReport(result, "<builder>");
  EXPECT_EQ(f->severity, lint::Severity::Warning);
  EXPECT_EQ(f->subject, "m");  // anchored on the mux; names the register
  EXPECT_NE(f->message.find("'c'"), std::string::npos);
}

TEST(LintRules, SpecRulesFireOnDegenerateWeights) {
  std::istringstream netlist(
      "network n { chain { segment a instrument=ia;\n"
      "  segment b instrument=ib; segment c instrument=ic; } }");
  const auto linted = lint::lintNetlist(netlist);
  ASSERT_TRUE(linted.net.has_value());
  const auto& net = *linted.net;

  rsn::CriticalitySpec spec(net.instruments().size());
  // ia: flagged critical for observation but dominated by the uncritical
  // mass (2 + 9 = 11 > 10).  ib/ic carry the uncritical weights; ic has
  // no weight at all on the settability side.
  spec.of(0) = {10, 1, true, false};
  spec.of(1) = {2, 0, false, false};
  spec.of(2) = {9, 0, false, false};
  lint::LintOptions opts;
  opts.spec = &spec;
  const auto result = lint::runLint(net, opts);
  EXPECT_TRUE(hasRule(result, "spec.dominance"))
      << lint::textReport(result, "<spec>");
  EXPECT_TRUE(result.clean());  // spec smells are warnings, not errors

  rsn::CriticalitySpec zero(net.instruments().size());
  lint::LintOptions zopts;
  zopts.spec = &zero;
  EXPECT_TRUE(hasRule(lint::runLint(net, zopts), "spec.zero-weight"));

  // Size mismatch is an outright error.
  rsn::CriticalitySpec wrongSize(1);
  lint::LintOptions wopts;
  wopts.spec = &wrongSize;
  const auto bad = lint::runLint(net, wopts);
  EXPECT_TRUE(hasRule(bad, "spec.invalid"));
  EXPECT_FALSE(bad.clean());
}

TEST(LintRules, PlanNamesResolveAgainstThePrimitiveTable) {
  std::istringstream netlist(
      "network n { chain { segment c;\n"
      "  mux m ctrl=c { branch { segment a instrument=ia; }\n"
      "                 branch { wire; } } } }");
  const auto linted = lint::lintNetlist(netlist);
  ASSERT_TRUE(linted.net.has_value());

  const std::vector<std::string> good = {"c", "m", "a"};
  lint::LintOptions gopts;
  gopts.hardenedNames = &good;
  EXPECT_FALSE(hasRule(lint::runLint(*linted.net, gopts),
                       "plan.unknown-primitive"));

  const std::vector<std::string> bad = {"c", "no_such_register"};
  lint::LintOptions bopts;
  bopts.hardenedNames = &bad;
  const auto result = lint::runLint(*linted.net, bopts);
  const auto* f = findingOf(result, "plan.unknown-primitive");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->subject, "no_such_register");
  EXPECT_FALSE(result.clean());

  std::istringstream plan("# hardened set\n  c  \n\nno_such_register\n");
  EXPECT_EQ(lint::readPlanNames(plan),
            (std::vector<std::string>{"c", "no_such_register"}));
}

// ------------------------------------------- reachability property

/// Random network whose muxes are steered by random earlier segments.
/// 1- and 2-bit registers on muxes of up to five branches leave some
/// branches unaddressable, and registers nested in other muxes'
/// non-reset branches need several fixpoint rounds.  Segments created
/// before a mux lie outside its branches, so the model always validates
/// (and its control dependencies are acyclic).
rsn::Network narrowControlNetwork(Rng& rng) {
  rsn::NetworkBuilder b("narrow");
  std::vector<std::string> segments;
  const auto segment = [&] {
    const std::string name = "s" + std::to_string(segments.size());
    segments.push_back(name);
    return b.segment(name, static_cast<std::uint32_t>(rng.range(1, 2)));
  };
  std::size_t muxes = 0;
  const auto unit = [&](auto&& self, int depth) -> rsn::NodeId {
    if (depth > 3 || !rng.chance(0.65)) return segment();
    const std::size_t earlier = segments.size();
    const auto arity = static_cast<std::size_t>(rng.range(2, 5));
    const std::size_t content = rng.below(arity);
    std::vector<rsn::NodeId> branches;
    for (std::size_t k = 0; k < arity; ++k)
      branches.push_back(k != content && rng.chance(0.3)
                             ? b.wire()
                             : self(self, depth + 1));
    std::string ctrl;
    if (earlier > 0 && rng.chance(0.8)) ctrl = segments[rng.below(earlier)];
    return b.mux("m" + std::to_string(muxes++), std::move(branches), ctrl);
  };
  std::vector<rsn::NodeId> top;
  for (std::int64_t k = rng.range(2, 4); k > 0; --k)
    top.push_back(unit(unit, 0));
  b.setTop(b.chain(std::move(top)));
  return b.build();
}

/// The reference struct.unreachable algorithm: the growing steerability
/// fixpoint, deciding each round by a forward sweep from scan-in and a
/// backward sweep from scan-out over the arena's guarded CSR.  An edge
/// into a mux is usable iff some branch of its span is steerable.
std::set<std::string> referenceUnreachable(const rsn::Network& net) {
  const auto flat = rsn::FlatNetwork::lower(net);
  const std::size_t M = flat->muxCount();
  const std::size_t V = flat->vertexCount();
  const auto controlOf = [&](std::size_t m) {
    return net.mux(static_cast<rsn::MuxId>(m)).controlSegment;
  };
  const auto addressable = [&](std::size_t m, std::size_t b) {
    const std::uint32_t ctrl = controlOf(m);
    if (ctrl == rsn::kNone) return true;
    const std::uint32_t len = flat->segLength()[ctrl];
    return len >= 32 || b < (std::size_t{1} << len);
  };
  std::vector<std::vector<char>> steer(M);
  for (std::size_t m = 0; m < M; ++m) {
    steer[m].assign(flat->muxArity()[m], 0);
    for (std::size_t b = 0; b < steer[m].size(); ++b)
      steer[m][b] =
          addressable(m, b) && (b == 0 || controlOf(m) == rsn::kNone);
  }
  const auto usable = [&](const rsn::FlatNetwork::Edge& e) {
    if (e.mux == rsn::kNone) return true;
    for (std::uint32_t k = e.branchBegin; k < e.branchEnd; ++k)
      if (steer[e.mux][flat->branchPool()[k]] != 0) return true;
    return false;
  };
  const auto sweep = [&](graph::VertexId start, bool forward) {
    const auto offsets = forward ? flat->fwdOffsets() : flat->bwdOffsets();
    const auto edges = forward ? flat->fwdEdges() : flat->bwdEdges();
    std::vector<char> seen(V, 0);
    std::vector<graph::VertexId> stack{start};
    seen[start] = 1;
    while (!stack.empty()) {
      const graph::VertexId u = stack.back();
      stack.pop_back();
      for (std::uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
        if (seen[edges[i].other] != 0 || !usable(edges[i])) continue;
        seen[edges[i].other] = 1;
        stack.push_back(edges[i].other);
      }
    }
    return seen;
  };
  std::vector<char> fwd, bwd;
  for (bool changed = true; changed;) {
    fwd = sweep(flat->scanIn(), true);
    bwd = sweep(flat->scanOut(), false);
    changed = false;
    for (std::size_t m = 0; m < M; ++m) {
      const std::uint32_t ctrl = controlOf(m);
      if (ctrl == rsn::kNone) continue;
      const graph::VertexId cv = flat->segmentVertex()[ctrl];
      if (fwd[cv] == 0 || bwd[cv] == 0) continue;
      for (std::size_t b = 0; b < steer[m].size(); ++b) {
        if (steer[m][b] == 0 && addressable(m, b)) {
          steer[m][b] = 1;
          changed = true;
        }
      }
    }
  }
  std::set<std::string> out;
  for (std::size_t s = 0; s < flat->segmentCount(); ++s) {
    const graph::VertexId sv = flat->segmentVertex()[s];
    if (fwd[sv] == 0 || bwd[sv] == 0)
      out.insert(net.segment(static_cast<rsn::SegmentId>(s)).name);
  }
  return out;
}

std::set<std::string> unreachableSubjects(const lint::LintResult& r) {
  std::set<std::string> out;
  for (const auto& f : r.findings)
    if (f.ruleId == "struct.unreachable") out.insert(f.subject);
  return out;
}

TEST(LintReachability, StructureWalkMatchesGraphFixpoint) {
  Rng rng(2022);
  std::size_t withUnreachable = 0;
  constexpr int kNetworks = 300;
  for (int k = 0; k < kNetworks; ++k) {
    const rsn::Network net = narrowControlNetwork(rng);
    const auto expected = referenceUnreachable(net);
    lint::LintOptions errorsOnly;
    errorsOnly.errorsOnly = true;
    EXPECT_EQ(unreachableSubjects(lint::runLint(net, errorsOnly)), expected)
        << "network " << k << "\n" << rsn::netlistToString(net);
    if (!expected.empty()) ++withUnreachable;
  }
  // The generator must exercise the rule, not just clean networks.
  EXPECT_GE(withUnreachable, static_cast<std::size_t>(kNetworks / 10));
}

// ------------------------------------------------ source-line anchors

TEST(LintSources, FindingsCarryDeclarationLines) {
  const std::string text =
      "network n {\n"
      "  chain {\n"
      "    segment a;\n"
      "    segment a;\n"
      "  }\n"
      "}\n";
  const auto linted = lint::lintNetlistText(text);
  EXPECT_FALSE(linted.net.has_value());
  const auto* dup = findingOf(linted.result, "struct.duplicate-id");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->subject, "a");
  EXPECT_EQ(dup->line, 3u) << "anchor is the first declaration";

  const std::string widthText =
      "network n {\n"
      "  chain {\n"
      "    segment c;\n"
      "    mux m ctrl=c {\n"
      "      branch { segment a; }\n"
      "      branch { segment b; }\n"
      "      branch { segment d; }\n"
      "    }\n"
      "  }\n"
      "}\n";
  const auto width = lint::lintNetlistText(widthText);
  ASSERT_TRUE(width.net.has_value());
  const auto* w = findingOf(width.result, "struct.ctrl-width");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->line, 4u);
  const auto* u = findingOf(width.result, "struct.unreachable");
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->subject, "d");
  EXPECT_EQ(u->line, 7u);
}

// ------------------------------------------------------------ reports

TEST(LintReports, TextReportListsFindingsAndTally) {
  const auto linted = lint::lintNetlistText(
      "network n { chain { segment c;\n"
      "  mux m ctrl=c { branch { segment a; } branch { segment b; }\n"
      "                 branch { segment d; } } } }");
  const std::string text = lint::textReport(linted.result, "demo.rsn");
  EXPECT_NE(text.find("demo.rsn:"), std::string::npos);
  EXPECT_NE(text.find("[struct.ctrl-width]"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("fix:"), std::string::npos);
  EXPECT_NE(text.find("error(s)"), std::string::npos);
}

TEST(LintReports, JsonReportRoundTripsCounts) {
  const auto linted = lint::lintNetlistText(
      "network n { chain { segment c;\n"
      "  mux m ctrl=c { branch { segment a; } branch { segment b; }\n"
      "                 branch { segment d; } } } }");
  const json::Value doc = lint::jsonReport(linted.result, "demo.rsn");
  EXPECT_EQ(doc.at("artifact").asString(), "demo.rsn");
  EXPECT_EQ(static_cast<std::size_t>(doc.at("errors").asInt()),
            linted.result.errors);
  EXPECT_EQ(doc.at("findings").asArray().size(),
            linted.result.findings.size());
  // The document parses back to itself (canonical serialization).
  EXPECT_EQ(json::parse(json::serialize(doc)), doc);
}

TEST(LintReports, SarifDocumentHasTheRequiredShape) {
  const auto linted = lint::lintNetlistText(
      "network n { chain { segment c;\n"
      "  mux m ctrl=c { branch { segment a; } branch { segment b; }\n"
      "                 branch { segment d; } } } }");
  ASSERT_FALSE(linted.result.findings.empty());
  const json::Value doc = lint::sarifReport(linted.result, "demo.rsn");

  EXPECT_NE(doc.at("$schema").asString().find("sarif-2.1.0"),
            std::string::npos);
  EXPECT_EQ(doc.at("version").asString(), "2.1.0");
  const auto& runs = doc.at("runs").asArray();
  ASSERT_EQ(runs.size(), 1u);
  const auto& driver = runs[0].at("tool").at("driver");
  EXPECT_EQ(driver.at("name").asString(), "rrsn_lint");
  const auto& rules = driver.at("rules").asArray();
  EXPECT_EQ(rules.size(), lint::ruleRegistry().size());

  const auto& results = runs[0].at("results").asArray();
  ASSERT_EQ(results.size(), linted.result.findings.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& res = results[i];
    const auto& finding = linted.result.findings[i];
    EXPECT_EQ(res.at("ruleId").asString(), finding.ruleId);
    // ruleIndex must point at the matching registry entry.
    const auto idx = static_cast<std::size_t>(res.at("ruleIndex").asInt());
    ASSERT_LT(idx, rules.size());
    EXPECT_EQ(rules[idx].at("id").asString(), finding.ruleId);
    const std::string level = res.at("level").asString();
    EXPECT_TRUE(level == "error" || level == "warning" || level == "note")
        << level;
    const auto& loc = res.at("locations").asArray();
    ASSERT_EQ(loc.size(), 1u);
    const auto& phys = loc[0].at("physicalLocation");
    EXPECT_EQ(phys.at("artifactLocation").at("uri").asString(), "demo.rsn");
    if (finding.line != 0) {
      EXPECT_EQ(static_cast<std::size_t>(
                    phys.at("region").at("startLine").asInt()),
                finding.line);
    }
  }
}

// ------------------------------------------------------- determinism

TEST(LintDeterminism, ReportsAreByteIdenticalAcrossRuns) {
  // A findings-rich input: errors, warnings and notes all present.
  const std::string text =
      "network n { chain { segment c; wire;\n"
      "  mux m ctrl=c { branch { segment a; } branch { segment b; }\n"
      "                 branch { segment d; } }\n"
      "  mux m2 { branch { segment E; } branch { wire; } branch { wire; } }\n"
      "  segment e instrument=ie;\n"
      "  sib s { segment x; } } }";
  const auto first = lint::lintNetlistText(text);
  const auto second = lint::lintNetlistText(text);
  EXPECT_EQ(first.result.findings, second.result.findings);
  EXPECT_EQ(json::serialize(lint::jsonReport(first.result, "a.rsn"), 1),
            json::serialize(lint::jsonReport(second.result, "a.rsn"), 1));
  EXPECT_EQ(json::serialize(lint::sarifReport(first.result, "a.rsn"), 1),
            json::serialize(lint::sarifReport(second.result, "a.rsn"), 1));
  // Findings arrive sorted by (line, ruleId, subject, message).
  for (std::size_t i = 1; i < first.result.findings.size(); ++i) {
    const auto& p = first.result.findings[i - 1];
    const auto& q = first.result.findings[i];
    EXPECT_LE(std::tie(p.line, p.ruleId, p.subject, p.message),
              std::tie(q.line, q.ruleId, q.subject, q.message));
  }
}

// --------------------------------------------------------- fail-fast

TEST(LintFailFast, CriticalityAnalyzerRejectsDeadlockedNetworks) {
  const rsn::Network net = deadlockNetwork();
  const rsn::CriticalitySpec spec(net.instruments().size());
  EXPECT_THROW(crit::CriticalityAnalyzer(net, spec), lint::LintError);
  try {
    crit::CriticalityAnalyzer analyzer(net, spec);
    FAIL() << "expected lint::LintError";
  } catch (const lint::LintError& e) {
    EXPECT_NE(std::string(e.what()).find("struct.ctrl-cycle"),
              std::string::npos);
    EXPECT_GE(e.result().errors, 1u);
  }
  crit::AnalysisOptions off;
  off.lint = false;
  EXPECT_NO_THROW(crit::CriticalityAnalyzer(net, spec, off));
}

TEST(LintFailFast, CampaignEngineRejectsDeadlockedNetworks) {
  const rsn::Network net = deadlockNetwork();
  campaign::CampaignEngine engine(net);
  EXPECT_THROW(engine.run(), lint::LintError);

  campaign::CampaignConfig off;
  off.lint = false;
  campaign::CampaignEngine permissive(net, off);
  EXPECT_NO_THROW(permissive.run());
}

TEST(LintFailFast, RejectionIsFast) {
  const rsn::Network net = deadlockNetwork();
  // Warm up allocators/caches, then take the best of a few runs so a
  // scheduler hiccup cannot fail the gate spuriously.
  auto once = [&] {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(lint::enforceClean(net, "test"), lint::LintError);
    return std::chrono::steady_clock::now() - start;
  };
  auto best = once();
  for (int i = 0; i < 4; ++i) best = std::min(best, once());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(best),
            std::chrono::milliseconds(10))
      << "fail-fast must reject in < 10 ms";
}

// ------------------------------------------------- clean-model corpus

TEST(LintClean, ExampleNetlistsLintWithoutErrors) {
  namespace fs = std::filesystem;
  std::vector<fs::path> netlists;
  for (const auto& entry : fs::directory_iterator(RRSN_EXAMPLES_DIR))
    if (entry.path().extension() == ".rsn") netlists.push_back(entry.path());
  std::sort(netlists.begin(), netlists.end());
  ASSERT_GE(netlists.size(), 4u) << "examples/*.rsn corpus missing";
  for (const auto& path : netlists) {
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    const auto linted = lint::lintNetlist(is);
    EXPECT_TRUE(linted.net.has_value()) << path;
    EXPECT_EQ(linted.result.errors, 0u)
        << path << "\n" << lint::textReport(linted.result, path.string());
  }
}

TEST(LintClean, GeneratedBenchmarksLintWithoutErrors) {
  for (const char* name : {"TreeFlat", "TreeUnbalanced", "q12710"}) {
    const rsn::Network net = benchgen::buildBenchmark(name);
    const auto result = lint::runLint(net);
    EXPECT_EQ(result.errors, 0u)
        << name << "\n" << lint::textReport(result, name);
  }
}

}  // namespace
}  // namespace rrsn
