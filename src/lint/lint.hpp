// rrsn_lint: static verification of RSN models.
//
// A multi-pass checker over the typed Network model — its primitive
// tables and Structure tree — running a fixed registry of rules, none of
// which lowers the network:
//
//   * structural  — scan-path/control problems: control deadlock cycles,
//     control registers too narrow for their mux, segments that no
//     reachable configuration can place on the active scan path, dead
//     SIBs, duplicate mux branches, duplicate/confusable identities;
//   * semantic    — modeling smells: unconstrained (TAP-steered) muxes,
//     shared control registers, control registers serially behind the
//     mux they steer, orphan wires;
//   * readiness   — analysis preconditions: decomposition-tree depth
//     blowups, criticality specs with zero or non-dominant weights,
//     hardened-set references to unknown primitives.
//
// Every finding carries a stable rule id, a severity, the source line of
// its subject (when the netlist parser's NetlistSources side-table is
// supplied) and a fix-it hint.  Results export as a text report, a JSON
// document, and SARIF 2.1.0 for CI ingestion.
//
// The checker is single-threaded and allocation-light by design: its
// findings are a pure function of the model, byte-identical across runs
// and thread counts, and `enforceClean` (the fail-fast hook at the head
// of the analysis/campaign/EA entry points) needs no lowered graph: one
// walk of the structure tree per control nesting level — microseconds
// on hand-written netlists.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "rsn/netlist_io.hpp"
#include "rsn/network.hpp"
#include "rsn/spec.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace rrsn::lint {

enum class Severity : std::uint8_t { Error, Warning, Note };

/// "error" / "warning" / "note" — also the SARIF 2.1.0 `level` strings.
const char* severityName(Severity s);

/// One diagnostic produced by a rule.
struct Finding {
  std::string ruleId;    ///< stable id, e.g. "struct.ctrl-cycle"
  Severity severity = Severity::Error;
  std::string message;   ///< what is wrong, naming the subject
  std::string fixit;     ///< how to fix it (may be empty)
  std::string subject;   ///< primitive/instrument name (may be empty)
  std::size_t line = 0;  ///< 1-based netlist line; 0 = unknown

  bool operator==(const Finding&) const = default;
};

/// Registry entry describing one rule.
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;  ///< what the rule proves when it stays silent
  const char* fixit;    ///< generic remediation advice
};

/// The full rule registry, sorted by id.
const std::vector<RuleInfo>& ruleRegistry();

/// Registry lookup; nullptr for unknown ids.
const RuleInfo* findRule(const std::string& id);

/// Optional side inputs of a lint run.
struct LintOptions {
  /// Criticality spec to check (spec.* rules); nullptr skips them.
  const rsn::CriticalitySpec* spec = nullptr;
  /// Hardened-set primitive names to resolve (plan.* rules).
  const std::vector<std::string>* hardenedNames = nullptr;
  /// Parser side-table resolving finding subjects to source lines.
  const rsn::NetlistSources* sources = nullptr;
  /// Only run error-severity rules (the fail-fast configuration).
  bool errorsOnly = false;
};

/// Outcome of a lint run: findings in deterministic order plus counts.
struct LintResult {
  std::vector<Finding> findings;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;

  bool clean() const { return errors == 0; }

  /// Appends a finding and updates the severity counts.
  void add(Finding f);

  /// Sorts findings by (line, ruleId, subject, message); called by the
  /// runners so reports are byte-stable.
  void sort();
};

/// Runs every applicable rule against a validated network.
LintResult runLint(const rsn::Network& net, const LintOptions& options = {});

/// Result of linting netlist text end to end (parse + validate + rules).
struct LintedNetlist {
  std::optional<rsn::Network> net;  ///< empty when the input was rejected
  rsn::NetlistSources sources;
  LintResult result;
};

/// Parses a netlist leniently: parser/validator rejections become
/// findings (parse.syntax, struct.duplicate-id, ...) instead of
/// exceptions, and declaration lines recorded before the rejection are
/// kept in `sources`.  Returns the network when the input is valid.
std::optional<rsn::Network> parseForLint(std::istream& is,
                                         rsn::NetlistSources& sources,
                                         LintResult& result);

/// Full pipeline over netlist text or a stream: parseForLint + runLint.
LintedNetlist lintNetlist(std::istream& is, const LintOptions& options = {});
LintedNetlist lintNetlistText(const std::string& text,
                              const LintOptions& options = {});

/// Reads a criticality spec leniently: a rejection becomes a
/// spec.invalid finding and nullopt is returned.
std::optional<rsn::CriticalitySpec> lintSpec(std::istream& is,
                                             const rsn::Network& net,
                                             LintResult& result);

/// Reads a hardened-set plan file leniently (one primitive name per
/// line, '#' comments) for the plan.* rules.  Never throws.
std::vector<std::string> readPlanNames(std::istream& is);

// ------------------------------------------------------------- reports

/// Compiler-style text report: "<artifact>:<line>: <severity>: ..."
/// plus a severity tally line.
std::string textReport(const LintResult& result, const std::string& artifact);

/// Canonical JSON document (sorted keys): findings + counts.
json::Value jsonReport(const LintResult& result, const std::string& artifact);

/// SARIF 2.1.0 document: one run, the rule registry as
/// tool.driver.rules, one result per finding with a physicalLocation
/// into `artifactUri`.
json::Value sarifReport(const LintResult& result,
                        const std::string& artifactUri);

// ----------------------------------------------------------- fail-fast

/// Thrown by enforceClean when error-severity findings exist.
class LintError : public Error {
 public:
  LintError(const std::string& what, LintResult result)
      : Error(what), result_(std::move(result)) {}
  const LintResult& result() const { return result_; }

 private:
  LintResult result_;
};

/// Fail-fast hook for analysis entry points: runs the error-severity
/// rules and throws LintError (message lists every error finding,
/// prefixed by `context`) unless the network lints clean.
void enforceClean(const rsn::Network& net, const std::string& context);

}  // namespace rrsn::lint
