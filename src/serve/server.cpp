#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/diagnosis.hpp"
#include "harden/hardening.hpp"
#include "lint/lint.hpp"
#include "moo/pareto.hpp"
#include "moo/spea2.hpp"
#include "obs/obs.hpp"
#include "rsn/netlist_io.hpp"
#include "rsn/spec.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"
#include "verify/certifier.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rrsn::serve {
namespace {

/// Endpoint failure with an explicit protocol error code (the generic
/// exception->code mapping in handle() covers everything else).
struct RequestError {
  std::string code;
  std::string message;
};

std::uint64_t textFingerprint(const std::string& text) {
  std::uint64_t h = hash::kFnvOffset;
  hash::fnvMix(h, text);
  return h;
}

// Per-endpoint observability: request/error counters plus a latency
// histogram (microseconds).  obs metric names must be literals, hence
// the explicit table instead of concatenation.
struct EndpointMetrics {
  obs::MetricId requests, errors, latencyUs;
};

const EndpointMetrics* endpointMetrics(const std::string& method) {
  static const std::map<std::string, EndpointMetrics> kTable = [] {
    std::map<std::string, EndpointMetrics> t;
    t["ping"] = {obs::counter("serve.ping.requests"),
                 obs::counter("serve.ping.errors"),
                 obs::histogram("serve.ping.latency_us")};
    t["analyze"] = {obs::counter("serve.analyze.requests"),
                    obs::counter("serve.analyze.errors"),
                    obs::histogram("serve.analyze.latency_us")};
    t["lint"] = {obs::counter("serve.lint.requests"),
                 obs::counter("serve.lint.errors"),
                 obs::histogram("serve.lint.latency_us")};
    t["harden"] = {obs::counter("serve.harden.requests"),
                   obs::counter("serve.harden.errors"),
                   obs::histogram("serve.harden.latency_us")};
    t["campaign"] = {obs::counter("serve.campaign.requests"),
                     obs::counter("serve.campaign.errors"),
                     obs::histogram("serve.campaign.latency_us")};
    t["diagnose"] = {obs::counter("serve.diagnose.requests"),
                     obs::counter("serve.diagnose.errors"),
                     obs::histogram("serve.diagnose.latency_us")};
    t["whatif"] = {obs::counter("serve.whatif.requests"),
                   obs::counter("serve.whatif.errors"),
                   obs::histogram("serve.whatif.latency_us")};
    t["certify"] = {obs::counter("serve.certify.requests"),
                    obs::counter("serve.certify.errors"),
                    obs::histogram("serve.certify.latency_us")};
    t["stats"] = {obs::counter("serve.stats.requests"),
                  obs::counter("serve.stats.errors"),
                  obs::histogram("serve.stats.latency_us")};
    t["shutdown"] = {obs::counter("serve.shutdown.requests"),
                     obs::counter("serve.shutdown.errors"),
                     obs::histogram("serve.shutdown.latency_us")};
    return t;
  }();
  auto it = kTable.find(method);
  return it == kTable.end() ? nullptr : &it->second;
}

// ------------------------------------------------------ param helpers
//
// Numeric request params accept a JSON integer or a decimal string; the
// string route goes through the same parseUintBounded validator that
// guards the rrsn_tool command line, so "--sample 1e6" and
// {"sample": "1e6"} are rejected with the same wording.

const json::Value& kNullValue() {
  static const json::Value v;
  return v;
}

std::uint64_t uintParam(const json::Value& params, const std::string& key,
                        std::uint64_t fallback, std::uint64_t lo,
                        std::uint64_t hi) {
  const json::Value& v = params.get(key, kNullValue());
  if (v.isNull()) return fallback;
  if (v.kind() == json::Kind::String) {
    return parseUintBounded(v.asString(), "param " + key, lo, hi);
  }
  if (v.kind() != json::Kind::Int) {
    throw UsageError("param " + key + " must be an unsigned integer");
  }
  const std::int64_t i = v.asInt();
  if (i < 0 || static_cast<std::uint64_t>(i) < lo ||
      static_cast<std::uint64_t>(i) > hi) {
    throw UsageError("value out of range for param " + key + ": " +
                     std::to_string(i) + " not in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]");
  }
  return static_cast<std::uint64_t>(i);
}

const std::string& stringParam(const json::Value& params,
                               const std::string& key) {
  const json::Value& v = params.get(key, kNullValue());
  if (v.isNull()) throw UsageError("missing required param: " + key);
  if (v.kind() != json::Kind::String) {
    throw UsageError("param " + key + " must be a string");
  }
  return v.asString();
}

campaign::CampaignMode modeParam(const json::Value& params) {
  const json::Value& v = params.get("mode", kNullValue());
  if (v.isNull()) return campaign::CampaignMode::Single;
  const std::string& name =
      v.kind() == json::Kind::String
          ? v.asString()
          : throw UsageError("param mode must be a string");
  if (name == "single") return campaign::CampaignMode::Single;
  if (name == "pairs") return campaign::CampaignMode::Pairs;
  if (name == "transient") return campaign::CampaignMode::Transient;
  throw UsageError("param mode must be one of single|pairs|transient, got '" +
                   name + "'");
}

// --------------------------------------------------- cached artifacts

/// Plain-data criticality artifact (no pointer back into the network,
/// so cache eviction order can never dangle).
struct CritEntry {
  std::vector<std::uint64_t> damages;
  std::uint64_t total = 0;
  std::vector<std::size_t> ranking;

  std::size_t approxBytes() const {
    return damages.size() * sizeof(std::uint64_t) +
           ranking.size() * sizeof(std::size_t) + 64;
  }
};

struct ResolutionEntry {
  std::size_t faults = 0, detectable = 0, classes = 0;
  double avgAmbiguity = 0.0;
};

struct FrontEntry {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;  ///< cost, damage
  std::uint64_t totalDamage = 0;
};

struct LintEntry {
  std::string rawText;  ///< collision verification
  json::Value report;
  std::size_t reportBytes = 0;
};

struct SummaryEntry {
  json::Value summary;
};

}  // namespace

/// The interned parse of one netlist text: the raw request bytes (for
/// fingerprint-collision verification), the validated model, and the
/// canonical re-serialization whose fingerprint keys every derived
/// artifact (two textual variants of the same design share their flat
/// arena, criticality vectors, dictionary, ...).
struct Server::NetworkEntry {
  std::string rawText;
  rsn::Network net;
  std::string canonicalText;
  std::uint64_t canonicalFp = 0;

  NetworkEntry(std::string raw, rsn::Network n)
      : rawText(std::move(raw)), net(std::move(n)) {}

  std::size_t approxBytes() const {
    return rawText.size() + canonicalText.size() +
           net.segments().size() * 64 + net.muxes().size() * 64 +
           net.instruments().size() * 32 + 512;
  }
};

Server::Server(ServerOptions options)
    : options_(options),
      cache_(options.cacheBudgetBytes),
      flatStore_(options.cacheDir) {}

std::shared_ptr<const Server::NetworkEntry> Server::internNetwork(
    const std::string& text) {
  const std::uint64_t fp = textFingerprint(text);
  const auto verify = [&text](const std::shared_ptr<const void>& v) {
    return static_cast<const NetworkEntry*>(v.get())->rawText == text;
  };
  return cache_.getOrComputeAs<NetworkEntry>(
      fp, "network",
      [&]() -> std::pair<std::shared_ptr<const NetworkEntry>, std::size_t> {
        auto parsed = [&]() -> rsn::Network {
          try {
            return rsn::parseNetlistString(text);
          } catch (const Error& e) {
            throw UsageError(std::string("netlist rejected: ") + e.what());
          }
        }();
        auto entry = std::make_shared<NetworkEntry>(text, std::move(parsed));
        entry->canonicalText = rsn::netlistToString(entry->net);
        entry->canonicalFp = textFingerprint(entry->canonicalText);
        return {entry, entry->approxBytes()};
      },
      verify);
}

std::shared_ptr<const rsn::FlatNetwork> Server::flatOf(
    const NetworkEntry& entry) {
  return cache_.getOrComputeAs<rsn::FlatNetwork>(
      entry.canonicalFp, "flat",
      [&]()
          -> std::pair<std::shared_ptr<const rsn::FlatNetwork>, std::size_t> {
        auto flat = flatStore_.loadOrLower(entry.canonicalFp, entry.net);
        return {flat, flat->bytes().size()};
      });
}

json::Value Server::dispatch(const std::string& method,
                             const json::Value& params) {
  if (method == "ping") {
    json::Object o;
    o["pong"] = json::Value(true);
    return json::Value(std::move(o));
  }

  if (method == "stats") return statsJson();

  if (method == "shutdown") {
    requestStop();
    json::Object o;
    o["stopping"] = json::Value(true);
    return json::Value(std::move(o));
  }

  if (method == "lint") {
    const std::string& text = stringParam(params, "netlist");
    const std::uint64_t fp = textFingerprint(text);
    const auto verify = [&text](const std::shared_ptr<const void>& v) {
      return static_cast<const LintEntry*>(v.get())->rawText == text;
    };
    const auto hit = cache_.getOrComputeAs<LintEntry>(
        fp, "lint",
        [&]() -> std::pair<std::shared_ptr<const LintEntry>, std::size_t> {
          auto fresh = std::make_shared<LintEntry>();
          fresh->rawText = text;
          const lint::LintedNetlist linted = lint::lintNetlistText(text);
          fresh->report = lint::jsonReport(linted.result, "<request>");
          fresh->reportBytes = json::serialize(fresh->report).size();
          return {fresh, text.size() + fresh->reportBytes + 64};
        },
        verify);
    return hit->report;
  }

  if (method != "analyze" && method != "harden" && method != "diagnose" &&
      method != "campaign" && method != "certify" && method != "whatif") {
    throw RequestError{"UNIMPLEMENTED", "unknown method: " + method};
  }

  // Every remaining endpoint analyzes a parsed network.
  const auto entry = internNetwork(stringParam(params, "netlist"));

  if (method == "whatif") {
    // Validation first (netlist parse above, change shape here), so a
    // malformed request is INVALID_ARGUMENT — never a cheery stub
    // acknowledgement of garbage.
    const std::string& change = stringParam(params, "change");
    const auto parts = split(change, ':');
    const bool isBreak = parts.size() == 2 && parts[0] == "break";
    const bool isStuck = parts.size() == 3 && parts[0] == "stuck";
    if (!isBreak && !isStuck) {
      throw UsageError(
          "param change must be break:<segment> or stuck:<mux>:<branch>, "
          "got '" + change + "'");
    }
    if (isBreak && entry->net.findSegment(parts[1]) == rsn::kNone) {
      throw UsageError("param change names unknown segment '" + parts[1] +
                       "'");
    }
    if (isStuck) {
      const rsn::MuxId mux = entry->net.findMux(parts[1]);
      if (mux == rsn::kNone) {
        throw UsageError("param change names unknown mux '" + parts[1] + "'");
      }
      const auto flat = flatOf(*entry);
      (void)parseUintBounded(parts[2], "param change branch", 0,
                             flat->muxArity()[mux] - 1);
    }
    // Placeholder until the incremental delta-update engine lands (see
    // ROADMAP "what-if" item): acknowledges the validated request shape
    // without pretending to compute anything.
    json::Object o;
    o["stub"] = json::Value(true);
    o["change"] = json::Value(change);
    o["note"] = json::Value(
        "what-if re-analysis is not implemented yet; full analyze runs "
        "are cached per design, so re-submitting the edited netlist is "
        "the supported path");
    return json::Value(std::move(o));
  }

  if (method == "analyze") {
    const std::uint64_t seed = uintParam(params, "seed", 1, 0, ~0ull);
    const std::uint64_t top = uintParam(params, "top", 10, 1, 1'000'000);
    const std::string key = "crit:" + std::to_string(seed);
    const auto crit = cache_.getOrComputeAs<CritEntry>(
        entry->canonicalFp, key,
        [&]() -> std::pair<std::shared_ptr<const CritEntry>, std::size_t> {
          Rng rng(seed);
          const rsn::CriticalitySpec spec =
              rsn::randomSpec(entry->net, {}, rng);
          const crit::CriticalityResult result =
              crit::CriticalityAnalyzer(entry->net, spec).run();
          auto fresh = std::make_shared<CritEntry>();
          fresh->damages = result.damages();
          fresh->total = result.totalDamage();
          fresh->ranking = result.ranking();
          return {fresh, fresh->approxBytes()};
        });
    const auto flat = flatOf(*entry);

    json::Object o;
    o["segments"] = json::Value(std::uint64_t(entry->net.segments().size()));
    o["muxes"] = json::Value(std::uint64_t(entry->net.muxes().size()));
    o["instruments"] =
        json::Value(std::uint64_t(entry->net.instruments().size()));
    o["total_damage"] = json::Value(crit->total);
    o["flat_fingerprint"] = json::Value(flat->fingerprint());
    json::Array ranking;
    const std::size_t k =
        std::min<std::size_t>(top, crit->ranking.size());
    for (std::size_t i = 0; i < k; ++i) {
      json::Object row;
      row["linear_id"] = json::Value(std::uint64_t(crit->ranking[i]));
      row["damage"] = json::Value(crit->damages[crit->ranking[i]]);
      ranking.push_back(json::Value(std::move(row)));
    }
    o["ranking"] = json::Value(std::move(ranking));
    return json::Value(std::move(o));
  }

  if (method == "harden") {
    const std::uint64_t seed = uintParam(params, "seed", 1, 0, ~0ull);
    const std::uint64_t generations =
        uintParam(params, "generations", 16, 1, 1'000'000);
    const std::uint64_t population =
        uintParam(params, "population", 32, 2, 1'000'000);
    const std::string key = "harden:" + std::to_string(seed) + ":" +
                            std::to_string(generations) + ":" +
                            std::to_string(population);
    const auto front = cache_.getOrComputeAs<FrontEntry>(
        entry->canonicalFp, key,
        [&]() -> std::pair<std::shared_ptr<const FrontEntry>, std::size_t> {
          Rng rng(seed);
          const rsn::CriticalitySpec spec =
              rsn::randomSpec(entry->net, {}, rng);
          const crit::CriticalityResult analysis =
              crit::CriticalityAnalyzer(entry->net, spec).run();
          const auto flat = flatOf(*entry);
          const harden::HardeningProblem problem =
              harden::HardeningProblem::assemble(entry->net, *flat, analysis);
          moo::EvolutionOptions eo;
          eo.populationSize = population;
          eo.generations = generations;
          eo.seed = seed;
          const moo::RunResult run = moo::runSpea2(problem.linear, eo);
          auto fresh = std::make_shared<FrontEntry>();
          fresh->totalDamage = analysis.totalDamage();
          for (const moo::Individual& ind : run.archive.members()) {
            fresh->rows.emplace_back(ind.obj.cost, ind.obj.damage);
          }
          return {fresh, fresh->rows.size() * 16 + 64};
        });
    json::Object o;
    o["total_damage"] = json::Value(front->totalDamage);
    o["front_size"] = json::Value(std::uint64_t(front->rows.size()));
    json::Array rows;
    for (const auto& [cost, damage] : front->rows) {
      json::Object row;
      row["cost"] = json::Value(cost);
      row["damage"] = json::Value(damage);
      rows.push_back(json::Value(std::move(row)));
    }
    o["front"] = json::Value(std::move(rows));
    return json::Value(std::move(o));
  }

  if (method == "diagnose") {
    const auto res = cache_.getOrComputeAs<ResolutionEntry>(
        entry->canonicalFp, "dict",
        [&]()
            -> std::pair<std::shared_ptr<const ResolutionEntry>, std::size_t> {
          const diag::FaultDictionary dict =
              diag::FaultDictionary::build(entry->net);
          const auto r = dict.resolution();
          auto fresh = std::make_shared<ResolutionEntry>();
          fresh->faults = r.faults;
          fresh->detectable = r.detectable;
          fresh->classes = r.classes;
          fresh->avgAmbiguity = r.avgAmbiguity;
          return {fresh, sizeof(ResolutionEntry)};
        });
    json::Object o;
    o["faults"] = json::Value(std::uint64_t(res->faults));
    o["detectable"] = json::Value(std::uint64_t(res->detectable));
    o["classes"] = json::Value(std::uint64_t(res->classes));
    o["avg_ambiguity"] = json::Value(res->avgAmbiguity);
    return json::Value(std::move(o));
  }

  if (method == "campaign") {
    const campaign::CampaignMode mode = modeParam(params);
    const std::uint64_t sample =
        uintParam(params, "sample", 64, 0, 100'000'000);
    const std::uint64_t seed = uintParam(params, "seed", 2022, 0, ~0ull);
    const std::uint64_t deadlineMs =
        uintParam(params, "deadline_ms", options_.defaultDeadlineMs, 1,
                  86'400'000);
    const std::string key =
        std::string("campaign:") + campaign::campaignModeName(mode) + ":" +
        std::to_string(sample) + ":" + std::to_string(seed);
    // Complete summaries are deterministic in (design, mode, sample,
    // seed) — the deadline only decides whether we got one, so it stays
    // out of the key, incomplete runs are never cached, and a deadline
    // failure propagates to every coalesced waiter.
    const auto cached = cache_.getOrComputeAs<SummaryEntry>(
        entry->canonicalFp, key,
        [&]() -> std::pair<std::shared_ptr<const SummaryEntry>, std::size_t> {
          campaign::CampaignConfig cfg;
          cfg.mode = mode;
          cfg.sample = sample;
          cfg.seed = seed;
          CancellationToken token;
          token.setDeadlineFromNow(std::chrono::milliseconds(deadlineMs));
          cfg.cancel = &token;
          campaign::CampaignEngine engine(entry->net, cfg);
          const campaign::CampaignResult result = engine.run();
          const campaign::CampaignSummary s = result.summary();
          if (!s.complete()) {
            throw RequestError{
                "DEADLINE_EXCEEDED",
                "campaign interrupted after " + std::to_string(s.faultsDone) +
                    " of " + std::to_string(s.faultsTotal) + " scenarios (" +
                    std::to_string(deadlineMs) + " ms deadline)"};
          }
          json::Object o;
          o["mode"] = json::Value(campaign::campaignModeName(s.mode));
          o["faults_total"] = json::Value(std::uint64_t(s.faultsTotal));
          o["faults_done"] = json::Value(std::uint64_t(s.faultsDone));
          o["instruments"] = json::Value(std::uint64_t(s.instruments));
          o["read_accessible"] = json::Value(std::uint64_t(s.readAccessible));
          o["read_recovered"] = json::Value(std::uint64_t(s.readRecovered));
          o["read_lost"] = json::Value(std::uint64_t(s.readLost));
          o["write_accessible"] =
              json::Value(std::uint64_t(s.writeAccessible));
          o["write_recovered"] = json::Value(std::uint64_t(s.writeRecovered));
          o["write_lost"] = json::Value(std::uint64_t(s.writeLost));
          o["read_mismatches"] = json::Value(std::uint64_t(s.readMismatches));
          o["write_mismatches"] =
              json::Value(std::uint64_t(s.writeMismatches));
          auto fresh = std::make_shared<SummaryEntry>();
          fresh->summary = json::Value(std::move(o));
          return {fresh, json::serialize(fresh->summary).size() + 64};
        });
    return cached->summary;
  }

  if (method == "certify") {
    const std::uint64_t budget =
        uintParam(params, "budget", 1024, 1, 1'000'000);
    const std::string key = "certify:" + std::to_string(budget);
    // The full canonical certification report is the artifact: verdict
    // rows, witnesses and tier counters are deterministic in (design,
    // budget), so coalesced and repeated requests share one run.
    const auto cached = cache_.getOrComputeAs<SummaryEntry>(
        entry->canonicalFp, key,
        [&]() -> std::pair<std::shared_ptr<const SummaryEntry>, std::size_t> {
          const auto flat = flatOf(*entry);
          const verify::Certifier certifier(flat);
          verify::CertifyOptions co;
          co.fixpointBudget = budget;
          co.crossCheck = verify::crossCheckDefault();
          const verify::CertificationResult result = certifier.run(co);
          auto fresh = std::make_shared<SummaryEntry>();
          fresh->summary = verify::reportJson(entry->net, result);
          return {fresh, json::serialize(fresh->summary).size() + 64};
        });
    return cached->summary;
  }

  throw RequestError{"UNIMPLEMENTED", "unknown method: " + method};
}

json::Value Server::handle(const json::Value& request) {
  json::Value id;
  const EndpointMetrics* em = nullptr;
  try {
    if (request.kind() != json::Kind::Object) {
      throw UsageError("request must be a JSON object");
    }
    id = request.get("id", kNullValue());
    const json::Value& methodValue = request.get("method", kNullValue());
    if (methodValue.kind() != json::Kind::String) {
      throw UsageError("request.method must be a string");
    }
    const std::string& method = methodValue.asString();
    em = endpointMetrics(method);
    if (em) obs::count(em->requests);
    static const json::Value kEmptyParams{json::Object{}};
    const json::Value& params = request.get("params", kEmptyParams);
    if (params.kind() != json::Kind::Object) {
      throw UsageError("request.params must be a JSON object");
    }
    const auto t0 = std::chrono::steady_clock::now();
    json::Value result = dispatch(method, params);
    if (em) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      obs::sample(em->latencyUs, static_cast<std::uint64_t>(us));
    }
    return okResponse(id, std::move(result));
  } catch (const RequestError& e) {
    if (em) obs::count(em->errors);
    return errorResponse(id, e.code, e.message);
  } catch (const UsageError& e) {
    if (em) obs::count(em->errors);
    return errorResponse(id, "INVALID_ARGUMENT", e.what());
  } catch (const lint::LintError& e) {
    if (em) obs::count(em->errors);
    return errorResponse(id, "FAILED_PRECONDITION", e.what());
  } catch (const Error& e) {
    if (em) obs::count(em->errors);
    return errorResponse(id, "INTERNAL", e.what());
  } catch (const std::exception& e) {
    if (em) obs::count(em->errors);
    return errorResponse(id, "INTERNAL", e.what());
  }
}

json::Value Server::statsJson() const {
  const ArtifactCache::Stats c = cache_.stats();
  const FlatStore::Stats f = flatStore_.stats();
  json::Object cache;
  cache["hits"] = json::Value(c.hits);
  cache["misses"] = json::Value(c.misses);
  cache["coalesced"] = json::Value(c.coalesced);
  cache["evictions"] = json::Value(c.evictions);
  cache["collisions"] = json::Value(c.collisions);
  cache["bytes"] = json::Value(std::uint64_t(c.bytes));
  cache["entries"] = json::Value(std::uint64_t(c.entries));
  cache["byte_budget"] = json::Value(std::uint64_t(c.byteBudget));
  cache["hit_rate"] = json::Value(c.hitRate());
  json::Object store;
  store["map_hits"] = json::Value(f.mapHits);
  store["lowers"] = json::Value(f.lowers);
  store["published"] = json::Value(f.published);
  store["rejected"] = json::Value(f.rejected);
  json::Object o;
  o["cache"] = json::Value(std::move(cache));
  o["flat_store"] = json::Value(std::move(store));
  return json::Value(std::move(o));
}

Status Server::serveStream(int inFd, int outFd) {
  while (!stopRequested()) {
    std::string payload;
    bool eof = false;
    Status st = readFrame(inFd, payload, eof);
    if (!st.ok()) return st;
    if (eof) return Status{};
    json::Value response;
    try {
      response = handle(json::parse(payload));
    } catch (const Error& e) {
      // The frame arrived intact but is not JSON — the stream framing
      // is still in sync, so answer and keep serving.
      response = errorResponse(
          kNullValue(), "INVALID_ARGUMENT",
          std::string("request is not valid JSON: ") + e.what());
    }
    st = writeFrame(outFd, json::serialize(response));
    if (!st.ok()) return st;
  }
  return Status{};
}

Status Server::serveSocket(const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    return Status::unavailable(std::string("socket() failed: ") +
                               std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(listener);
    return Status::invalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket from a dead daemon
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listener);
    return Status::unavailable("cannot listen on " + path + ": " + why);
  }

  std::vector<std::thread> workers;
  while (!stopRequested()) {
    pollfd pfd{listener, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);  // wake periodically for stop_
    if (rc < 0) {
      if (errno == EINTR) continue;
      ::close(listener);
      for (auto& w : workers) w.join();
      return Status::unavailable(std::string("poll() failed: ") +
                                 std::strerror(errno));
    }
    if (rc == 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) continue;
    workers.emplace_back([this, conn] {
      (void)serveStream(conn, conn);
      ::close(conn);
    });
  }
  ::close(listener);
  ::unlink(path.c_str());
  for (auto& w : workers) w.join();
  return Status{};
}

}  // namespace rrsn::serve
