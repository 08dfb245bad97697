// Report surfaces of the static certifier: CLI tables, canonical JSON
// and SARIF 2.1.0 (via the shared support/sarif emitter).  Everything
// here is a pure function of the CertificationResult, so byte-equality
// of two serialized reports proves certification determinism.
#include <algorithm>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "support/sarif.hpp"
#include "verify/certifier.hpp"

namespace rrsn::verify {

namespace {

/// Resolves a witness subject to a primitive name.  The subject id
/// space is kind-dependent (see Witness), and the GuardCut subject is
/// the faulty primitive itself — a segment for breaks, a mux for
/// stucks.
std::string subjectName(const rsn::Network& net, const fault::Fault& f,
                        const Witness& w) {
  if (w.subject == rsn::kNone) return "";
  switch (w.kind) {
    case WitnessKind::SelfFault:
    case WitnessKind::DominatorCut:
    case WitnessKind::Unreachable:
      return net.segment(w.subject).name;
    case WitnessKind::ControlCollapse:
      return net.mux(w.subject).name;
    case WitnessKind::GuardCut:
      return f.kind == fault::FaultKind::SegmentBreak
                 ? net.segment(w.subject).name
                 : net.mux(w.subject).name;
    default:
      return "";
  }
}

std::string witnessText(const rsn::Network& net, const fault::Fault& f,
                        const Witness& w) {
  std::string text = witnessKindName(w.kind);
  const std::string subject = subjectName(net, f, w);
  if (!subject.empty()) text += "(" + subject + ")";
  return text;
}

/// One itemized problem cell: a (fault, instrument) pair with a
/// Vulnerable or Unknown verdict in either direction.
struct ProblemCell {
  std::size_t faultIdx = 0;
  std::size_t inst = 0;
};

rsn::InstrumentId instId(std::size_t i) {
  return static_cast<rsn::InstrumentId>(i);
}

template <typename Fn>
void forEachProblemCell(const CertificationResult& result, Fn&& fn) {
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    for (std::size_t i = 0; i < result.instruments; ++i) {
      if (result.read(fi, i) != Verdict::Proven ||
          result.write(fi, i) != Verdict::Proven)
        fn(ProblemCell{fi, i});
    }
  }
}

}  // namespace

TextTable summaryTable(const CertifySummary& s) {
  TextTable t({"dir", "proven", "vulnerable", "unknown", "pairs"});
  t.setAlign(0, TextTable::Align::Left);
  t.addRow({"read", withThousands(std::uint64_t{s.provenRead}),
            withThousands(std::uint64_t{s.vulnerableRead}),
            withThousands(std::uint64_t{s.unknownRead}),
            withThousands(std::uint64_t{s.faults * s.instruments})});
  t.addRow({"write", withThousands(std::uint64_t{s.provenWrite}),
            withThousands(std::uint64_t{s.vulnerableWrite}),
            withThousands(std::uint64_t{s.unknownWrite}),
            withThousands(std::uint64_t{s.faults * s.instruments})});
  return t;
}

TextTable vulnerabilityTable(const rsn::Network& net,
                             const CertificationResult& result,
                             std::size_t limit) {
  TextTable t({"fault", "instrument", "read", "write", "witness"});
  t.setAlign(0, TextTable::Align::Left);
  t.setAlign(1, TextTable::Align::Left);
  t.setAlign(4, TextTable::Align::Left);
  forEachProblemCell(result, [&](const ProblemCell& c) {
    if (t.rowCount() >= limit) return;
    const fault::Fault& f = result.universe[c.faultIdx];
    const Verdict rv = result.read(c.faultIdx, c.inst);
    const Verdict wv = result.write(c.faultIdx, c.inst);
    // Show the witness of the losing direction (read first).
    const Witness w = rv != Verdict::Proven
                          ? result.readWitness(c.faultIdx, c.inst)
                          : result.writeWitness(c.faultIdx, c.inst);
    t.addRow({fault::describe(net, f), net.instrument(instId(c.inst)).name,
              std::string(1, toChar(rv)), std::string(1, toChar(wv)),
              witnessText(net, f, w)});
  });
  return t;
}

json::Value reportJson(const rsn::Network& net,
                       const CertificationResult& result) {
  const CertifySummary s = result.summary();

  json::Object summary;
  summary["instruments"] = static_cast<std::uint64_t>(s.instruments);
  summary["faults"] = static_cast<std::uint64_t>(s.faults);
  summary["reachable_instruments"] =
      static_cast<std::uint64_t>(s.reachableInstruments);
  summary["proven_read"] = static_cast<std::uint64_t>(s.provenRead);
  summary["proven_write"] = static_cast<std::uint64_t>(s.provenWrite);
  summary["vulnerable_read"] = static_cast<std::uint64_t>(s.vulnerableRead);
  summary["vulnerable_write"] = static_cast<std::uint64_t>(s.vulnerableWrite);
  summary["unknown_read"] = static_cast<std::uint64_t>(s.unknownRead);
  summary["unknown_write"] = static_cast<std::uint64_t>(s.unknownWrite);
  summary["fast_rows"] = static_cast<std::uint64_t>(s.fastRows);
  summary["local_rows"] = static_cast<std::uint64_t>(s.localRows);
  summary["fixpoint_rows"] = static_cast<std::uint64_t>(s.fixpointRows);
  summary["control_collapse_cells"] =
      static_cast<std::uint64_t>(s.controlCollapseCells);
  summary["crosschecked_rows"] =
      static_cast<std::uint64_t>(s.crossCheckedRows);

  std::string reachable(result.instruments, '0');
  for (std::size_t i = 0; i < result.instruments; ++i)
    if (result.reachable.test(i)) reachable[i] = '1';

  json::Array faults;
  for (std::size_t fi = 0; fi < result.universe.size(); ++fi) {
    json::Object row;
    row["fault"] = fault::describe(net, result.universe[fi]);
    row["read"] = result.readRow(fi);
    row["write"] = result.writeRow(fi);
    faults.emplace_back(std::move(row));
  }

  json::Array witnesses;
  forEachProblemCell(result, [&](const ProblemCell& c) {
    const fault::Fault& f = result.universe[c.faultIdx];
    json::Object item;
    item["fault"] = fault::describe(net, f);
    item["instrument"] = net.instrument(instId(c.inst)).name;
    const Verdict rv = result.read(c.faultIdx, c.inst);
    const Verdict wv = result.write(c.faultIdx, c.inst);
    item["read"] = std::string(1, toChar(rv));
    item["write"] = std::string(1, toChar(wv));
    if (rv != Verdict::Proven)
      item["read_witness"] =
          witnessText(net, f, result.readWitness(c.faultIdx, c.inst));
    if (wv != Verdict::Proven)
      item["write_witness"] =
          witnessText(net, f, result.writeWitness(c.faultIdx, c.inst));
    witnesses.emplace_back(std::move(item));
  });

  json::Object doc;
  doc["design"] = net.name();
  doc["summary"] = std::move(summary);
  doc["reachable"] = std::move(reachable);
  doc["faults"] = std::move(faults);
  doc["witnesses"] = std::move(witnesses);
  return json::Value(std::move(doc));
}

json::Value sarifReport(const rsn::Network& net,
                        const CertificationResult& result,
                        const std::string& artifactUri) {
  const std::vector<sarif::Rule> rules = {
      {"verify.control-safety",
       "a gating control register keeps an access path under every "
       "single fault",
       "re-route the control register or duplicate the scan path that "
       "feeds it",
       "warning"},
      {"verify.single-fault",
       "every instrument stays accessible under every single structural "
       "fault",
       "harden the severing primitive or add a redundant scan path "
       "around it",
       "warning"},
      {"verify.unknown",
       "the certifier reached a verdict within its fixpoint budget",
       "raise the fixpoint budget (the control nesting exceeds it)",
       "warning"},
      {"verify.unreachable",
       "a satisfiable control assignment puts the instrument on the "
       "active scan path",
       "fix the control structure so the hosting segment becomes "
       "selectable", "error"},
  };

  std::vector<sarif::Result> results;
  for (std::size_t i = 0; i < result.instruments; ++i) {
    if (result.reachable.test(i)) continue;
    results.push_back({"verify.unreachable", "error",
                       "instrument '" + net.instrument(instId(i)).name +
                           "' is inaccessible under every control "
                           "assignment",
                       0});
  }
  forEachProblemCell(result, [&](const ProblemCell& c) {
    const fault::Fault& f = result.universe[c.faultIdx];
    const Verdict rv = result.read(c.faultIdx, c.inst);
    const Verdict wv = result.write(c.faultIdx, c.inst);
    if (rv == Verdict::Unknown || wv == Verdict::Unknown) {
      results.push_back({"verify.unknown", "warning",
                         "verdict for instrument '" +
                             net.instrument(instId(c.inst)).name + "' under " +
                             fault::describe(net, f) +
                             " exceeded the fixpoint budget",
                         0});
      return;
    }
    const Witness w = rv != Verdict::Proven
                          ? result.readWitness(c.faultIdx, c.inst)
                          : result.writeWitness(c.faultIdx, c.inst);
    // Unreachable cells are covered once by the per-instrument
    // verify.unreachable result above — repeating them per fault would
    // drown the actionable findings.
    if (w.kind == WitnessKind::Unreachable) return;
    const char* rule = w.kind == WitnessKind::ControlCollapse
                           ? "verify.control-safety"
                           : "verify.single-fault";
    const char* dir = rv != Verdict::Proven && wv != Verdict::Proven
                          ? "read/write"
                          : (rv != Verdict::Proven ? "read" : "write");
    results.push_back({rule, "warning",
                       fault::describe(net, f) + " severs every " +
                           std::string(dir) + " access to instrument '" +
                           net.instrument(instId(c.inst)).name +
                           "' — witness: " + witnessText(net, f, w),
                       0});
  });

  const sarif::Driver driver{
      "rrsn_verify",
      "https://example.invalid/rrsn",  // repo-local tool, no public URI
      "1.0.0"};
  return sarif::document(driver, rules, results, artifactUri);
}

}  // namespace rrsn::verify
