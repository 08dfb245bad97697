#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/params.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/diagnosis.hpp"
#include "harden/hardening.hpp"
#include "lint/lint.hpp"
#include "moo/spea2.hpp"
#include "obs/obs.hpp"
#include "rsn/netlist_io.hpp"
#include "rsn/spec.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "verify/certifier.hpp"

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

const json::Value& kNullValue() {
  static const json::Value v;
  return v;
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
  for (const auto mode : {campaign::CampaignMode::Single,
                          campaign::CampaignMode::Pairs,
                          campaign::CampaignMode::Transient}) {
    if (name == campaign::campaignModeName(mode)) return mode;
  }
  throw UsageError("param mode must be one of single|pairs|transient, got '" +
                   name + "'");
}

// ------------------------------------------------- analysis endpoints

/// A validated analysis request on an interned network.
struct Job {
  const json::Value* params = nullptr;
  const rsn::Network* net = nullptr;
  std::function<std::shared_ptr<const rsn::FlatNetwork>()> flat;
  campaign::CampaignMode mode = campaign::CampaignMode::Single;
  std::uint64_t deadlineMs = 0;

  std::uint64_t operator[](const api::Param& p) const {
    return api::fromFrame(p, *params).value_or(p.fallback);
  }
};

/// Criticality under the random spec drawn from the request's seed.
crit::CriticalityResult seededAnalysis(const Job& job) {
  Rng rng(job[api::kSeed]);
  return crit::CriticalityAnalyzer(*job.net,
                                   rsn::randomSpec(*job.net, {}, rng))
      .run();
}

json::Value analyzeReply(const Job& job) {
  const crit::CriticalityResult result = seededAnalysis(job);
  const std::vector<std::size_t> order = result.ranking();
  json::Array ranking;
  const std::size_t k = std::min<std::size_t>(job[api::kTop], order.size());
  for (std::size_t i = 0; i < k; ++i) {
    ranking.push_back(json::Object{{"linear_id", std::uint64_t(order[i])},
                                   {"damage", result.damages()[order[i]]}});
  }
  return json::Object{
      {"segments", std::uint64_t(job.net->segments().size())},
      {"muxes", std::uint64_t(job.net->muxes().size())},
      {"instruments", std::uint64_t(job.net->instruments().size())},
      {"total_damage", result.totalDamage()},
      {"flat_fingerprint", job.flat()->fingerprint()},
      {"ranking", std::move(ranking)}};
}

json::Value hardenReply(const Job& job) {
  const crit::CriticalityResult analysis = seededAnalysis(job);
  const harden::HardeningProblem problem =
      harden::HardeningProblem::assemble(*job.net, *job.flat(), analysis);
  moo::EvolutionOptions eo;
  eo.populationSize = job[api::kPopulation];
  eo.generations = job[api::kGenerations];
  eo.seed = job[api::kSeed];
  const moo::RunResult run = moo::runSpea2(problem.linear, eo);
  json::Array front;
  for (const moo::Individual& ind : run.archive.members()) {
    front.push_back(
        json::Object{{"cost", ind.obj.cost}, {"damage", ind.obj.damage}});
  }
  return json::Object{{"total_damage", analysis.totalDamage()},
                      {"front_size", std::uint64_t(front.size())},
                      {"front", std::move(front)}};
}

json::Value diagnoseReply(const Job& job) {
  const auto r = diag::FaultDictionary::build(*job.net).resolution();
  return json::Object{{"faults", std::uint64_t(r.faults)},
                      {"detectable", std::uint64_t(r.detectable)},
                      {"classes", std::uint64_t(r.classes)},
                      {"avg_ambiguity", r.avgAmbiguity}};
}

json::Value campaignReply(const Job& job) {
  campaign::CampaignConfig cfg;
  cfg.mode = job.mode;
  cfg.sample = job[api::kSample];
  cfg.seed = job[api::kSeed];
  CancellationToken token;
  token.setDeadlineFromNow(std::chrono::milliseconds(job.deadlineMs));
  cfg.cancel = &token;
  campaign::CampaignEngine engine(*job.net, cfg);
  const campaign::CampaignSummary s = engine.run().summary();
  // Thrown, an incomplete summary stays out of the cache and reaches
  // every coalesced waiter.
  if (!s.complete()) {
    throw RequestError{
        "DEADLINE_EXCEEDED",
        "campaign interrupted after " + std::to_string(s.faultsDone) +
            " of " + std::to_string(s.faultsTotal) + " scenarios (" +
            std::to_string(job.deadlineMs) + " ms deadline)"};
  }
  return json::Object{
      {"mode", campaign::campaignModeName(s.mode)},
      {"faults_total", std::uint64_t(s.faultsTotal)},
      {"faults_done", std::uint64_t(s.faultsDone)},
      {"instruments", std::uint64_t(s.instruments)},
      {"read_accessible", std::uint64_t(s.readAccessible)},
      {"read_recovered", std::uint64_t(s.readRecovered)},
      {"read_lost", std::uint64_t(s.readLost)},
      {"write_accessible", std::uint64_t(s.writeAccessible)},
      {"write_recovered", std::uint64_t(s.writeRecovered)},
      {"write_lost", std::uint64_t(s.writeLost)},
      {"read_mismatches", std::uint64_t(s.readMismatches)},
      {"write_mismatches", std::uint64_t(s.writeMismatches)}};
}

json::Value certifyReply(const Job& job) {
  lint::enforceClean(*job.net, "certification");
  const verify::Certifier certifier(job.flat());
  verify::CertifyOptions co;
  co.fixpointBudget = job[api::kBudget];
  co.crossCheck = verify::crossCheckDefault();
  return verify::reportJson(*job.net, certifier.run(co));
}

/// An analysis method: the numeric params that shape its reply, in
/// cache-key order, and how a miss computes the reply.
struct Endpoint {
  std::string_view method;
  std::vector<api::Param> keyed;
  json::Value (*reply)(const Job&);
};

const Endpoint kEndpoints[] = {
    {"analyze", {api::kSeed, api::kTop}, analyzeReply},
    {"harden", {api::kSeed, api::kGenerations, api::kPopulation}, hardenReply},
    {"diagnose", {}, diagnoseReply},
    {"campaign", {api::kSample, api::kSeed}, campaignReply},
    {"certify", {api::kBudget}, certifyReply},
};

/// Methods answered without an interned network.
constexpr std::string_view kPlainMethods[] = {"ping", "lint", "stats",
                                              "shutdown"};

// serve.<method>.{requests,errors,latency_us} of every method.
struct EndpointMetrics {
  obs::MetricId requests, errors, latencyUs;
};

const EndpointMetrics* endpointMetrics(const std::string& method) {
  static const std::map<std::string, EndpointMetrics> kTable = [] {
    std::map<std::string, EndpointMetrics> t;
    const auto add = [&t](std::string_view m) {
      const std::string prefix = "serve." + std::string(m) + ".";
      t[std::string(m)] = {obs::counter((prefix + "requests").c_str()),
                           obs::counter((prefix + "errors").c_str()),
                           obs::histogram((prefix + "latency_us").c_str())};
    };
    for (const std::string_view m : kPlainMethods) add(m);
    for (const Endpoint& e : kEndpoints) add(e.method);
    return t;
  }();
  auto it = kTable.find(method);
  return it == kTable.end() ? nullptr : &it->second;
}

/// Lint report cached under the raw text, which the verifier compares:
/// findings carry source lines that the canonical text erases.
struct LintEntry {
  std::string rawText;
  json::Value report;
};

}  // namespace

/// The interned parse of one netlist text: the raw request bytes (for
/// fingerprint-collision verification), the validated model, and the
/// canonical re-serialization whose fingerprint keys every derived
/// artifact (two textual variants of the same design share their flat
/// arena and every analysis reply).
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
  if (method == "ping") return json::Object{{"pong", true}};
  if (method == "stats") return statsJson();
  if (method == "shutdown") {
    requestStop();
    return json::Object{{"stopping", true}};
  }

  if (method == "lint") {
    const std::string& text = stringParam(params, "netlist");
    const auto verify = [&text](const std::shared_ptr<const void>& v) {
      return static_cast<const LintEntry*>(v.get())->rawText == text;
    };
    const auto hit = cache_.getOrComputeAs<LintEntry>(
        textFingerprint(text), "lint",
        [&]() -> std::pair<std::shared_ptr<const LintEntry>, std::size_t> {
          auto fresh = std::make_shared<LintEntry>();
          fresh->rawText = text;
          fresh->report = lint::jsonReport(lint::lintNetlistText(text).result,
                                           "<request>");
          return {fresh,
                  text.size() + json::serialize(fresh->report).size() + 64};
        },
        verify);
    return hit->report;
  }

  const auto row = std::find_if(
      std::begin(kEndpoints), std::end(kEndpoints),
      [&method](const Endpoint& e) { return e.method == method; });
  if (row == std::end(kEndpoints)) {
    throw RequestError{"UNIMPLEMENTED", "unknown method: " + method};
  }

  // The cache key is the method plus every validated value that shapes
  // the reply.  A campaign's deadline only decides whether a reply comes
  // back in time, so it stays out of the key.
  Job job;
  job.params = &params;
  std::string key(row->method);
  for (const api::Param& p : row->keyed) key += ':' + std::to_string(job[p]);
  if (row->method == "campaign") {
    job.mode = modeParam(params);
    key += std::string(":") + campaign::campaignModeName(job.mode);
    job.deadlineMs = api::fromFrame(api::kDeadlineMs, params)
                         .value_or(options_.defaultDeadlineMs);
  }

  const auto entry = internNetwork(stringParam(params, "netlist"));
  job.net = &entry->net;
  job.flat = [this, &entry] { return flatOf(*entry); };
  const auto reply = cache_.getOrComputeAs<json::Value>(
      entry->canonicalFp, key,
      [&]() -> std::pair<std::shared_ptr<const json::Value>, std::size_t> {
        auto fresh = std::make_shared<const json::Value>(row->reply(job));
        return {fresh, json::serialize(*fresh).size() + 64};
      });
  return *reply;
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

  // One thread per connection.  A finished connection's thread is
  // joined on the next pass of the accept loop, so a long-lived daemon
  // holds threads (and their stacks) only for the connections still open.
  struct Worker {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Worker> workers;
  const auto reap = [&workers](bool all) {
    for (auto it = workers.begin(); it != workers.end();) {
      if (!all && !it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = workers.erase(it);
    }
  };
  while (!stopRequested()) {
    reap(false);
    pollfd pfd{listener, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);  // wake periodically for stop_
    if (rc < 0) {
      if (errno == EINTR) continue;
      ::close(listener);
      reap(true);
      return Status::unavailable(std::string("poll() failed: ") +
                                 std::strerror(errno));
    }
    if (rc == 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) continue;
    Worker& w = workers.emplace_back();
    w.thread = std::thread([this, conn, &done = w.done] {
      (void)serveStream(conn, conn);
      ::close(conn);
      done.store(true, std::memory_order_release);
    });
  }
  ::close(listener);
  ::unlink(path.c_str());
  reap(true);
  return Status{};
}

}  // namespace rrsn::serve
