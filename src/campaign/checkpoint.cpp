#include "campaign/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "rsn/netlist_io.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"

namespace rrsn::campaign {

namespace {

using hash::fnvMix;
using hash::kFnvOffset;

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string bitsToString(const DynamicBitset& b) {
  std::string s(b.size(), '0');
  for (std::size_t i = 0; i < b.size(); ++i)
    if (b.test(i)) s[i] = '1';
  return s;
}

}  // namespace

std::uint64_t campaignFingerprint(const rsn::Network& net,
                                  const CampaignConfig& config) {
  std::uint64_t h = kFnvOffset;
  fnvMix(h, rsn::netlistToString(net));
  fnvMix(h, static_cast<std::uint64_t>(config.mode));
  fnvMix(h, static_cast<std::uint64_t>(config.sample));
  fnvMix(h, std::bit_cast<std::uint64_t>(config.sampleFraction));
  fnvMix(h, config.seed);
  if (config.mode == CampaignMode::Transient) {
    fnvMix(h, static_cast<std::uint64_t>(config.transientRounds.size()));
    for (const std::uint32_t round : config.transientRounds)
      fnvMix(h, static_cast<std::uint64_t>(round));
  }
  fnvMix(h, static_cast<std::uint64_t>(config.retarget.maxRounds));
  // Redundant with the next field, but part of the fingerprint format:
  // dropping it would orphan every stored checkpoint.
  fnvMix(h, static_cast<std::uint64_t>(config.retarget.maxReroutes != 0));
  fnvMix(h, static_cast<std::uint64_t>(config.retarget.maxReroutes));
  fnvMix(h, bitsToString(config.excludePrimitives));
  return h;
}

Status saveCheckpoint(const std::string& path, std::uint64_t fingerprint,
                      const CampaignResult& result) {
  json::Array records;
  for (std::size_t k = 0; k < result.records.size(); ++k) {
    const FaultRecord& rec = result.records[k];
    if (!rec.done) continue;
    json::Object o;
    o["index"] = json::Value(static_cast<std::uint64_t>(k));
    o["read"] = json::Value(rec.read);
    o["write"] = json::Value(rec.write);
    records.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["version"] = json::Value(kCheckpointVersion);
  root["mode"] = json::Value(campaignModeName(result.mode));
  root["fingerprint"] = json::Value(hex(fingerprint));
  root["faults_total"] =
      json::Value(static_cast<std::uint64_t>(result.records.size()));
  root["instruments"] =
      json::Value(static_cast<std::uint64_t>(result.instruments));
  root["records"] = json::Value(std::move(records));

  const std::string text =
      json::serialize(json::Value(std::move(root)), 1) + '\n';
  // io::atomicWriteFile checks every write, fsyncs before the rename
  // and cleans up the temp file on failure, so a full disk or short
  // write can never commit a truncated checkpoint.
  Status st = io::atomicWriteFile(path, text);
  if (!st.ok()) {
    return Status::dataLoss("checkpoint save to " + path + " failed — " +
                            st.toString());
  }
  return Status{};
}

CheckpointLoad loadCheckpoint(const std::string& path,
                              std::uint64_t fingerprint,
                              CampaignResult& result) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {Status{}, 0};  // fresh start
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad())
    return {Status::dataLoss("cannot read checkpoint file: " + path), 0};

  json::Value doc;
  try {
    doc = json::parse(text.str());
  } catch (const Error& e) {
    return {Status::dataLoss("corrupt checkpoint file " + path + ": " +
                             e.what()),
            0};
  }
  // Decode everything into staged copies first and merge into `result`
  // only when the whole file checked out — a record that turns out torn
  // halfway through must not leave earlier records half-applied.
  std::vector<std::pair<std::size_t, FaultRecord>> staged;
  try {
    // Version-1 files carry no version field at all; any version other
    // than ours degrades to a restart, never a throw.
    const std::uint64_t version =
        doc.get("version", json::Value(std::uint64_t{1})).asUnsigned();
    if (version != kCheckpointVersion)
      return {Status::failedPrecondition(
                  "checkpoint " + path + " has format version " +
                  std::to_string(version) + "; this engine reads version " +
                  std::to_string(kCheckpointVersion)),
              0};
    const std::string mode =
        doc.get("mode", json::Value("single")).asString();
    if (mode != campaignModeName(result.mode))
      return {Status::failedPrecondition(
                  "checkpoint " + path + " was written by a " + mode +
                  " campaign, not a " + campaignModeName(result.mode) +
                  " one"),
              0};
    if (doc.at("fingerprint").asString() != hex(fingerprint))
      return {Status::failedPrecondition(
                  "checkpoint " + path +
                  " was written for a different network or campaign "
                  "configuration"),
              0};
    if (doc.at("faults_total").asUnsigned() != result.records.size() ||
        doc.at("instruments").asUnsigned() != result.instruments)
      return {Status::failedPrecondition("checkpoint " + path +
                                         " has inconsistent dimensions"),
              0};

    for (const json::Value& v : doc.at("records").asArray()) {
      const std::uint64_t k = v.at("index").asUnsigned();
      if (k >= result.records.size())
        return {Status::dataLoss("checkpoint " + path +
                                 " has a record index out of range"),
                0};
      FaultRecord rec;
      rec.read = v.at("read").asString();
      rec.write = v.at("write").asString();
      if (rec.read.size() != result.instruments ||
          rec.write.size() != result.instruments)
        return {Status::dataLoss("checkpoint " + path +
                                 " has a record with wrong instrument count"),
                0};
      for (const char c : rec.read) outcomeFromChar(c);
      for (const char c : rec.write) outcomeFromChar(c);
      rec.done = true;
      staged.emplace_back(static_cast<std::size_t>(k), std::move(rec));
    }
  } catch (const Error& e) {
    return {Status::dataLoss("corrupt checkpoint file " + path + ": " +
                             e.what()),
            0};
  }
  for (auto& [k, rec] : staged) {
    // Decoded records carry no scenario identity: the fingerprint (and
    // version/mode checks above) guarantee index k names the same
    // scenario as this engine's universe, so re-attach it from there.
    rec.scenario = result.records[k].scenario;
    result.records[k] = std::move(rec);
  }
  return {Status{}, staged.size()};
}

}  // namespace rrsn::campaign
