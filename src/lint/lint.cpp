// Rule registry, the lenient file pipeline, and the report writers of
// rrsn_lint.  The model-level passes live in rules.cpp, the SARIF
// export in sarif.cpp.
#include "lint/lint.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <tuple>

#include "support/strings.hpp"

namespace rrsn::lint {

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
  }
  return "error";
}

const std::vector<RuleInfo>& ruleRegistry() {
  // Sorted by id; findRule binary-searches.  The summary states what the
  // rule *proves* when it is silent, the fixit how to silence it.
  static const std::vector<RuleInfo> kRules = {
      {"model.invalid", Severity::Error,
       "the model satisfies every structural invariant that has no dedicated "
       "rule (root set, primitives used exactly once, instruments mirrored)",
       "the network cannot be constructed as written; see the message for the "
       "violated invariant"},
      {"parse.syntax", Severity::Error,
       "the netlist conforms to the .rsn grammar and its input limits",
       "fix the syntax at the reported line; see the grammar comment in "
       "netlist_io.hpp"},
      {"plan.unknown-primitive", Severity::Error,
       "every hardened-set entry resolves to a segment or mux of the network",
       "remove the stale entry or fix its spelling (plans list one primitive "
       "name per line)"},
      {"ready.depth", Severity::Warning,
       "the decomposition tree stays near-logarithmic, keeping per-segment "
       "criticality walks O(log n)",
       "flatten needless nesting (e.g. long sib-in-sib towers) so series "
       "chains can be rebalanced"},
      {"sem.ctrl-downstream", Severity::Warning,
       "every explicit (non-SIB) control register precedes its mux in scan "
       "order, so one CSU cycle both writes and applies it",
       "move the control register in front of the mux region it steers, or "
       "model the pair as a sib"},
      {"sem.ctrl-unknown", Severity::Error,
       "every mux ctrl reference names an already-declared segment",
       "declare the control register before the mux that references it"},
      {"sem.orphan-wire", Severity::Note,
       "serial chains carry no bare wires (a wire in series is a no-op)",
       "delete the wire, or put scan content in the empty body"},
      {"sem.shared-ctrl", Severity::Note,
       "each control register steers at most one mux",
       "intended sharing is fine; otherwise give each mux its own register "
       "so they reconfigure independently"},
      {"sem.unconstrained-mux", Severity::Note,
       "every mux documents its address source",
       "add ctrl=<segment> unless the mux is really steered from outside the "
       "network (e.g. TAP instruction decode)"},
      {"spec.dominance", Severity::Warning,
       "every critical damage weight dominates the sum of the uncritical "
       "weights of its kind (Sec. IV-A), so low-damage solutions necessarily "
       "keep critical instruments accessible",
       "raise the critical weight to at least the sum of all uncritical "
       "weights of the same kind"},
      {"spec.invalid", Severity::Error,
       "the criticality spec file parses and matches the network's "
       "instruments",
       "each line must read '<instrument> obs=<w>[*] set=<w>[*]' and name an "
       "instrument of this network"},
      {"spec.zero-weight", Severity::Warning,
       "every instrument carries at least one non-zero damage weight",
       "assign do/ds weights, or drop the instrument from the model — "
       "zero-weight instruments never influence hardening"},
      {"struct.confusable-names", Severity::Note,
       "no two identities differ only by letter case",
       "rename one of the pair; case-only variants invite plan/spec typos"},
      {"struct.ctrl-cycle", Severity::Error,
       "mux control dependencies are acyclic from the reset configuration, "
       "so a CSU sequence can reach every branch combination",
       "break the cycle: keep each control register on the reset-selected "
       "(branch 0) path of the muxes enclosing it"},
      {"struct.ctrl-width", Severity::Error,
       "every control register is wide enough to address all branches of its "
       "mux",
       "widen the control register to ceil(log2(branches)) bits or drop the "
       "unselectable branches"},
      {"struct.dead-sib", Severity::Warning,
       "every SIB gates at least one instrument",
       "remove the SIB or attach instruments; an empty SIB only adds length "
       "and a fault site"},
      {"struct.duplicate-branch", Severity::Warning,
       "no mux has more than one bypass (wire) branch",
       "merge duplicate wire branches; extra bypasses waste address space"},
      {"struct.duplicate-id", Severity::Error,
       "segment, mux and instrument names are unique",
       "rename one of the colliding declarations"},
      {"struct.unreachable", Severity::Error,
       "every segment lies on an active scan path of some configuration "
       "reachable from reset",
       "check the control values needed to select the segment's branch; "
       "widen narrow control registers or rewire the deadlocked controls"},
      {"struct.wire-only-mux", Severity::Error,
       "every mux selects at least one branch with scan content",
       "put a segment in some branch or remove the mux"},
  };
  return kRules;
}

const RuleInfo* findRule(const std::string& id) {
  const auto& rules = ruleRegistry();
  const auto it = std::lower_bound(
      rules.begin(), rules.end(), id,
      [](const RuleInfo& r, const std::string& key) { return key > r.id; });
  if (it == rules.end() || id != it->id) return nullptr;
  return &*it;
}

void LintResult::add(Finding f) {
  switch (f.severity) {
    case Severity::Error: ++errors; break;
    case Severity::Warning: ++warnings; break;
    case Severity::Note: ++notes; break;
  }
  findings.push_back(std::move(f));
}

void LintResult::sort() {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.line, a.ruleId, a.subject, a.message) <
                            std::tie(b.line, b.ruleId, b.subject, b.message);
                   });
}

namespace {

/// Builds a finding for `ruleId` taking severity and fixit from the
/// registry (the id must be registered).
Finding makeFinding(const char* ruleId, std::string subject,
                    std::string message, std::size_t line) {
  const RuleInfo* info = findRule(ruleId);
  RRSN_CHECK(info != nullptr, std::string("unregistered lint rule ") + ruleId);
  Finding f;
  f.ruleId = ruleId;
  f.severity = info->severity;
  f.message = std::move(message);
  f.fixit = info->fixit;
  f.subject = std::move(subject);
  f.line = line;
  return f;
}

/// Extracts N from the first "line N" in an error message (the parser
/// and spec reader format locations that way); 0 when absent.
std::size_t lineFromMessage(const std::string& msg) {
  const auto pos = msg.find("line ");
  if (pos == std::string::npos) return 0;
  std::size_t line = 0;
  bool any = false;
  for (std::size_t i = pos + 5; i < msg.size(); ++i) {
    const char c = msg[i];
    if (c < '0' || c > '9') break;
    line = line * 10 + static_cast<std::size_t>(c - '0');
    any = true;
  }
  return any ? line : 0;
}

/// First 'single-quoted' token of a message — the rejection messages all
/// quote the offending identity first.
std::string firstQuoted(const std::string& msg) {
  const auto open = msg.find('\'');
  if (open == std::string::npos) return {};
  const auto close = msg.find('\'', open + 1);
  if (close == std::string::npos) return {};
  return msg.substr(open + 1, close - open - 1);
}

const char* ruleOfValidationCode(ValidationCode code) {
  switch (code) {
    case ValidationCode::DuplicateName: return "struct.duplicate-id";
    case ValidationCode::WireOnlyMux: return "struct.wire-only-mux";
    case ValidationCode::CtrlCycle: return "struct.ctrl-cycle";
    case ValidationCode::UnknownCtrl: return "sem.ctrl-unknown";
    case ValidationCode::Generic: break;
  }
  return "model.invalid";
}

}  // namespace

std::optional<rsn::Network> parseForLint(std::istream& is,
                                         rsn::NetlistSources& sources,
                                         LintResult& result) {
  try {
    return rsn::parseNetlist(is, sources);
  } catch (const ParseError& e) {
    result.add(makeFinding("parse.syntax", {}, e.what(),
                           lineFromMessage(e.what())));
  } catch (const ValidationError& e) {
    const std::string subject = firstQuoted(e.what());
    result.add(makeFinding(ruleOfValidationCode(e.code()), subject, e.what(),
                           sources.line(subject)));
  } catch (const Error& e) {
    result.add(makeFinding("model.invalid", {}, e.what(), 0));
  }
  return std::nullopt;
}

LintedNetlist lintNetlist(std::istream& is, const LintOptions& options) {
  LintedNetlist out;
  out.net = parseForLint(is, out.sources, out.result);
  if (out.net.has_value()) {
    LintOptions withSources = options;
    if (withSources.sources == nullptr) withSources.sources = &out.sources;
    LintResult model = runLint(*out.net, withSources);
    for (Finding& f : model.findings) out.result.add(std::move(f));
  }
  out.result.sort();
  return out;
}

LintedNetlist lintNetlistText(const std::string& text,
                              const LintOptions& options) {
  std::istringstream is(text);
  return lintNetlist(is, options);
}

std::optional<rsn::CriticalitySpec> lintSpec(std::istream& is,
                                             const rsn::Network& net,
                                             LintResult& result) {
  try {
    return rsn::readSpec(is, net);
  } catch (const Error& e) {
    result.add(makeFinding("spec.invalid", firstQuoted(e.what()), e.what(),
                           lineFromMessage(e.what())));
  }
  return std::nullopt;
}

std::vector<std::string> readPlanNames(std::istream& is) {
  std::vector<std::string> names;
  std::string line;
  while (std::getline(is, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    const std::string_view name = trim(line);
    if (!name.empty()) names.emplace_back(name);
  }
  return names;
}

// --------------------------------------------------------------- reports

std::string textReport(const LintResult& result, const std::string& artifact) {
  std::ostringstream os;
  for (const Finding& f : result.findings) {
    os << artifact;
    if (f.line != 0) os << ':' << f.line;
    os << ": " << severityName(f.severity) << ": [" << f.ruleId << "] "
       << f.message << '\n';
    if (!f.fixit.empty()) os << "    fix: " << f.fixit << '\n';
  }
  os << result.errors << " error(s), " << result.warnings << " warning(s), "
     << result.notes << " note(s)\n";
  return os.str();
}

json::Value jsonReport(const LintResult& result, const std::string& artifact) {
  json::Array findings;
  for (const Finding& f : result.findings) {
    json::Object o;
    o["rule"] = f.ruleId;
    o["severity"] = severityName(f.severity);
    o["message"] = f.message;
    if (!f.fixit.empty()) o["fixit"] = f.fixit;
    if (!f.subject.empty()) o["subject"] = f.subject;
    if (f.line != 0) o["line"] = static_cast<std::uint64_t>(f.line);
    findings.emplace_back(std::move(o));
  }
  json::Object doc;
  doc["artifact"] = artifact;
  doc["errors"] = static_cast<std::uint64_t>(result.errors);
  doc["warnings"] = static_cast<std::uint64_t>(result.warnings);
  doc["notes"] = static_cast<std::uint64_t>(result.notes);
  doc["findings"] = std::move(findings);
  return json::Value(std::move(doc));
}

// ------------------------------------------------------------- fail-fast

void enforceClean(const rsn::Network& net, const std::string& context) {
  LintOptions options;
  options.errorsOnly = true;
  LintResult result = runLint(net, options);
  if (result.clean()) return;
  std::ostringstream os;
  os << context << ": network '" << net.name()
     << "' fails static verification (" << result.errors << " error(s)):";
  for (const Finding& f : result.findings) {
    if (f.severity != Severity::Error) continue;
    os << "\n  [" << f.ruleId << "] " << f.message;
  }
  os << "\n(run 'rrsn_tool lint' for the full report; pass --no-lint to "
        "skip this check)";
  throw LintError(os.str(), std::move(result));
}

}  // namespace rrsn::lint
