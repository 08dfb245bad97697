// serve_mixed: the rrsn_serve Server in process, driven over socketpairs
// by a closed loop of nproc / 2 client connections.
//
// The request sequence is a pure function of the workload seed: request
// i picks a design, a method and parameters.  Most requests reuse one of
// two "hot" parameter sets per (design, method); a fixed share carries
// fresh parameters and must miss the artifact cache.  The cache budget
// holds the hot set but not the fresh artifacts, so those are evicted.
// Set-up builds the corpus, starts the server and warms the hot keys.
//
// Gate: every reply must be ok, certify replies must hold no Unknown cell
// and campaign replies no mismatch, replies to one key must agree,
// analyze replies must carry the flat fingerprint of an in-process
// lowering, and a seeded sample of keys is recomputed in process and
// compared byte for byte.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/diagnosis.hpp"
#include "harden/hardening.hpp"
#include "harness.hpp"
#include "lint/lint.hpp"
#include "moo/spea2.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "verify/certifier.hpp"

namespace perfbench {
namespace {

using namespace rrsn;

constexpr const char* kMethods[] = {"analyze", "lint",     "harden",
                                    "certify", "diagnose", "campaign"};
constexpr std::size_t kMethodCount = std::size(kMethods);
/// Request mix: one method index per share.  The repo has no recorded
/// daemon traffic; these are bench_serve's mixed-phase shares
/// (bench/bench_serve.cpp, mixedCall: analyze 2 of 6, one each of lint,
/// harden, diagnose and campaign) with certify added as one more share.
constexpr std::size_t kShareMethod[] = {0, 0, 1, 2, 3, 4, 5};
constexpr std::size_t kShares = std::size(kShareMethod);
/// Requests per (share, design) in one block of the sequence, and how
/// many of them carry fresh parameters (guaranteed cache misses);
/// diagnose has no parameters and never gets fresh ones.  No traffic
/// source gives this share either.  At 3 of 20 (15 %), misses of the
/// slowest method (campaign) alone are over 2 % of all requests, more
/// than the 1 % tail that p99_ms reads, so p99 reads miss-path compute
/// while p50 stays on the hit path.
constexpr std::size_t kRepeats = 20;
constexpr std::size_t kFreshRepeats = 3;
/// Blocks laid out ahead; the sequence wraps after them.
constexpr std::size_t kBlocks = 16;
/// Artifact cache budget: room for the 3.3 MiB of hot artifacts plus the
/// fresh ones made between two uses of a hot key, so hot keys stay
/// resident and only fresh artifacts are evicted; far below everything a
/// run touches.
constexpr std::size_t kCacheBudgetBytes = 8u << 20;
/// Length of one slice of a measured window (see runServeMixed).
constexpr double kSliceSeconds = 0.25;

struct ServeDesign {
  std::string name;
  std::string text;
  std::uint64_t flatFingerprint = 0;
};

struct Request {
  std::size_t method = 0;
  std::size_t design = 0;
  std::string netlist;  ///< the design text, possibly with a variant comment
  json::Object params;
  std::string key;      ///< method + design + parameters: equal keys, equal replies
  bool fresh = false;
};

/// Parameters of one request: hot variant 0/1, or a fresh value `n`.
Request makeRequest(const std::vector<ServeDesign>& corpus, std::size_t method,
                    std::size_t design, std::uint64_t seed, bool fresh,
                    std::uint64_t variant) {
  Request r;
  r.method = method;
  r.design = design;
  r.fresh = fresh;
  r.netlist = corpus[design].text;
  const std::string m = kMethods[method];
  const std::uint64_t v = fresh ? variant + 2 : variant;
  const auto value = [&](const char* stream, std::uint64_t mod) {
    return json::Value(deriveSeed(seed, m + "/" + stream, v) % mod);
  };
  if (m == "analyze") {
    r.params["seed"] = value("seed", 1'000'000'000);
    r.params["top"] = json::Value(std::uint64_t{10});
  } else if (m == "lint") {
    // Lint artifacts are keyed by the raw text; a trailing comment makes
    // a textual variant of the same design.
    r.netlist += "# variant " + std::to_string(v) + "\n";
  } else if (m == "harden") {
    r.params["seed"] = value("seed", 1'000'000'000);
    r.params["generations"] = json::Value(std::uint64_t{8} << (v % 2));
    r.params["population"] = json::Value(std::uint64_t{32});
  } else if (m == "certify") {
    r.params["budget"] = json::Value(std::uint64_t{1024} + v);
  } else if (m == "campaign") {
    r.params["sample"] = json::Value(std::uint64_t{8});
    r.params["seed"] = value("seed", 1'000'000'000);
  }
  r.key = m + "|" + corpus[design].name + "|" +
          json::serialize(json::Value(r.params)) + "|" +
          std::to_string(r.netlist.size());
  return r;
}

/// The workload's request sequence.  Every block holds each (share,
/// design) kRepeats times, kFreshRepeats of them fresh, so the mix is
/// exact in every block; the seed shuffles each block and draws the
/// parameters.  Seeds then differ in order and values, not in how many
/// costly misses a run gets.
class Sequence {
 public:
  Sequence(const std::vector<ServeDesign>& corpus, std::uint64_t seed)
      : corpus_(corpus), seed_(seed) {
    const std::size_t block = kShares * corpus.size() * kRepeats;
    Rng rng(deriveSeed(seed, "serve/sequence"));
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::vector<std::uint32_t> slots(block);
      for (std::size_t s = 0; s < block; ++s) slots[s] = static_cast<std::uint32_t>(s);
      rng.shuffle(slots);
      slots_.insert(slots_.end(), slots.begin(), slots.end());
    }
  }

  /// Request i.  Fresh requests take their parameters from i, so they
  /// stay fresh after the sequence wraps.
  Request at(std::uint64_t i) const {
    const std::size_t slot = slots_[i % slots_.size()];
    const std::size_t repeat = slot % kRepeats;
    const std::size_t design = slot / kRepeats % corpus_.size();
    const std::size_t method = kShareMethod[slot / kRepeats / corpus_.size()];
    const bool fresh =
        std::string(kMethods[method]) != "diagnose" && repeat < kFreshRepeats;
    return makeRequest(corpus_, method, design, seed_, fresh,
                       fresh ? i : repeat % 2);
  }

 private:
  const std::vector<ServeDesign>& corpus_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> slots_;
};

/// The hot keys: every (method, design, variant) the sequence reuses.
std::vector<Request> hotRequests(const std::vector<ServeDesign>& corpus,
                                 std::uint64_t seed) {
  std::vector<Request> out;
  for (std::size_t m = 0; m < kMethodCount; ++m) {
    for (std::size_t d = 0; d < corpus.size(); ++d) {
      const std::uint64_t variants =
          std::string(kMethods[m]) == "diagnose" ? 1 : 2;
      for (std::uint64_t v = 0; v < variants; ++v) {
        out.push_back(makeRequest(corpus, m, d, seed, false, v));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------- transport

/// One client connection: the near end of a socketpair whose far end is
/// pumped by Server::serveStream on its own thread.
class Connection {
 public:
  explicit Connection(serve::Server& server) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw IoError(std::string("socketpair() failed: ") + std::strerror(errno));
    }
    fd_ = sv[0];
    pump_ = std::thread([&server, fd = sv[1]] {
      (void)server.serveStream(fd, fd);
      ::close(fd);
    });
  }
  ~Connection() {
    ::close(fd_);  // EOF ends the pump's serveStream loop
    pump_.join();
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  json::Value call(const std::string& frame) {
    Status st = serve::writeFrame(fd_, frame);
    if (!st.ok()) throw IoError("request write failed: " + st.toString());
    std::string payload;
    bool eof = false;
    st = serve::readFrame(fd_, payload, eof);
    if (!st.ok()) throw IoError("response read failed: " + st.toString());
    if (eof) throw IoError("server closed the stream");
    return json::parse(payload);
  }

 private:
  int fd_ = -1;
  std::thread pump_;
};

std::string frameOf(const Request& r, std::uint64_t id) {
  json::Object params = r.params;
  params["netlist"] = json::Value(r.netlist);
  json::Object req;
  req["id"] = json::Value(id);
  req["method"] = json::Value(kMethods[r.method]);
  req["params"] = json::Value(std::move(params));
  return json::serialize(json::Value(std::move(req)));
}

/// Client connections.  Every connection has its own pump thread and
/// misses fan out over the nproc-wide compute pool, so nproc / 2 clients
/// leave cores to the pool while requests still overlap.
std::size_t clientCount() {
  return std::max<std::size_t>(1, threadCount() / 2);
}

/// The server with clientCount() connections.  Connections always go
/// first, so every pump thread has ended before its server is destroyed.
struct Service {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<Connection>> connections;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  Service(Service&&) = default;
  Service& operator=(Service&& other) noexcept {
    connections.clear();
    server = std::move(other.server);
    connections = std::move(other.connections);
    return *this;
  }
  ~Service() { connections.clear(); }
};

// ---------------------------------------------------------- recording

/// The first reply served for every key, with its digest.
class Replies {
 public:
  /// Records `result` unless the key already has a reply; returns the
  /// result's digest.
  std::uint64_t remember(const std::string& key, std::string result) {
    Digest d;
    d.add(result);
    std::lock_guard<std::mutex> lock(mu_);
    byKey_.try_emplace(key, d.value(), std::move(result));
    return d.value();
  }
  /// The first reply to `key`, or nullptr.
  const std::pair<std::uint64_t, std::string>* find(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = byKey_.find(key);
    return it == byKey_.end() ? nullptr : &it->second;
  }
  Digest digest() const {
    std::lock_guard<std::mutex> lock(mu_);
    Digest d;
    for (const auto& [key, reply] : byKey_) {
      d.add(key);
      d.add(reply.first);
    }
    return d;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<std::uint64_t, std::string>> byKey_;
};

struct Outcome {
  std::size_t method = 0;
  std::size_t design = 0;
  double latencyMs = 0;
  bool ok = false;
  std::string key;
  std::uint64_t digest = 0;        ///< of the serialized result
  std::uint64_t flatFingerprint = 0;  ///< analyze replies
  std::string error;               ///< error envelope when !ok
  std::string defect;              ///< what an ok reply reports as wrong
};

/// What an ok reply itself reports as wrong: a certification that left
/// Unknown cells, or a campaign whose simulation disagrees with its
/// oracle.  Empty when nothing is.  `corrupt` adds one Unknown cell and
/// one mismatch (the self-tests' check that the gate can fail).
std::string replyDefect(const std::string& method, const json::Value& result,
                        bool corrupt) {
  const std::uint64_t extra = corrupt ? 1 : 0;
  if (method == "certify") {
    const json::Value& s = result.at("summary");
    if (s.at("unknown_read").asUnsigned() + s.at("unknown_write").asUnsigned() +
            extra > 0) {
      return "certification left Unknown cells";
    }
  } else if (method == "campaign") {
    if (result.at("read_mismatches").asUnsigned() +
            result.at("write_mismatches").asUnsigned() + extra > 0) {
      return "campaign simulation disagrees with the oracle (mismatches)";
    }
  }
  return {};
}

/// Sends one request and records its outcome.
Outcome issue(const Options& opt, Connection& c, const Request& r,
              std::uint64_t id, Replies& replies) {
  const std::string frame = frameOf(r, id);
  const auto t0 = Clock::now();
  const json::Value reply = c.call(frame);
  Outcome o;
  o.latencyMs = secondsSince(t0) * 1e3;
  o.method = r.method;
  o.design = r.design;
  o.key = r.key;
  o.ok = reply.at("ok").asBool();
  if (!o.ok) {
    o.error = json::serialize(reply);
    return o;
  }
  const json::Value& result = reply.at("result");
  if (r.method == 0) {
    o.flatFingerprint =
        static_cast<std::uint64_t>(result.at("flat_fingerprint").asInt());
  }
  o.defect = replyDefect(kMethods[r.method], result, opt.corrupt == "summary");
  o.digest = replies.remember(r.key, json::serialize(result));
  return o;
}

/// Runs `client(connection, local outcomes)` on every connection at once
/// and gathers the outcomes.
template <typename Fn>
std::vector<Outcome> onAllConnections(Service& svc, Fn&& client) {
  std::mutex mu;
  std::vector<Outcome> all;
  std::vector<std::thread> threads;
  std::atomic<bool> broken{false};
  for (auto& conn : svc.connections) {
    threads.emplace_back([&, c = conn.get()] {
      std::vector<Outcome> local;
      try {
        client(*c, local);
      } catch (const std::exception&) {
        broken = true;
      }
      std::lock_guard<std::mutex> lock(mu);
      for (Outcome& o : local) all.push_back(std::move(o));
    });
  }
  for (std::thread& t : threads) t.join();
  if (broken) throw IoError("a client connection failed");
  return all;
}

/// Runs the closed loop on every connection until `seconds` elapse,
/// drawing requests from the shared sequence cursor.  Requests in flight
/// at the deadline complete.
std::vector<Outcome> runWindow(const Options& opt, Service& svc,
                               const Sequence& sequence,
                               std::atomic<std::uint64_t>& cursor,
                               double seconds, Replies& replies) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  return onAllConnections(svc, [&](Connection& c, std::vector<Outcome>& out) {
    while (Clock::now() < deadline) {
      const std::uint64_t i = cursor.fetch_add(1);
      out.push_back(issue(opt, c, sequence.at(i), i, replies));
    }
  });
}

/// Returns once every server thread has finished its last request: a
/// server thread frees a request's objects after sending the reply and
/// before reading the next frame, so a ping answered on every connection
/// means none of that work is left running.
void quiesce(Service& svc) {
  for (auto& conn : svc.connections) {
    const json::Value reply = conn->call(R"({"id":0,"method":"ping","params":{}})");
    if (!reply.at("ok").asBool()) throw IoError("ping failed");
  }
}

json::Value statsOf(Service& svc) {
  const json::Value reply = svc.connections.front()->call(
      R"({"id":0,"method":"stats","params":{}})");
  return reply.at("result").at("cache");
}

// ------------------------------------------------------- direct check

/// Recomputes one request's result in process, the way the endpoint
/// defines it, without the server's cache.
json::Value directResult(const Request& r) {
  const std::string m = kMethods[r.method];
  if (m == "lint") {
    return lint::jsonReport(lint::lintNetlistText(r.netlist).result, "<request>");
  }
  const rsn::Network net = rsn::parseNetlistString(r.netlist);
  const auto param = [&](const char* k) { return r.params.at(k).asUnsigned(); };
  json::Object o;
  if (m == "analyze" || m == "harden") {
    Rng rng(param("seed"));
    const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
    const crit::CriticalityResult analysis =
        crit::CriticalityAnalyzer(net, spec).run();
    const auto flat = rsn::FlatNetwork::lower(net);
    o["total_damage"] = json::Value(analysis.totalDamage());
    if (m == "analyze") {
      o["segments"] = json::Value(std::uint64_t(net.segments().size()));
      o["muxes"] = json::Value(std::uint64_t(net.muxes().size()));
      o["instruments"] = json::Value(std::uint64_t(net.instruments().size()));
      o["flat_fingerprint"] = json::Value(flat->fingerprint());
      json::Array ranking;
      const auto order = analysis.ranking();
      for (std::size_t i = 0; i < std::min<std::size_t>(param("top"), order.size()); ++i) {
        json::Object row;
        row["linear_id"] = json::Value(std::uint64_t(order[i]));
        row["damage"] = json::Value(analysis.damages()[order[i]]);
        ranking.push_back(json::Value(std::move(row)));
      }
      o["ranking"] = json::Value(std::move(ranking));
      return json::Value(std::move(o));
    }
    const harden::HardeningProblem problem =
        harden::HardeningProblem::assemble(net, *flat, analysis);
    moo::EvolutionOptions eo;
    eo.populationSize = param("population");
    eo.generations = param("generations");
    eo.seed = param("seed");
    const moo::RunResult run = moo::runSpea2(problem.linear, eo);
    json::Array rows;
    for (const moo::Individual& ind : run.archive.members()) {
      json::Object row;
      row["cost"] = json::Value(ind.obj.cost);
      row["damage"] = json::Value(ind.obj.damage);
      rows.push_back(json::Value(std::move(row)));
    }
    o["front_size"] = json::Value(std::uint64_t(rows.size()));
    o["front"] = json::Value(std::move(rows));
    return json::Value(std::move(o));
  }
  if (m == "certify") {
    const verify::Certifier certifier(rsn::FlatNetwork::lower(net));
    verify::CertifyOptions co;
    co.fixpointBudget = param("budget");
    co.crossCheck = verify::crossCheckDefault();
    return verify::reportJson(net, certifier.run(co));
  }
  if (m == "diagnose") {
    const auto res = diag::FaultDictionary::build(net).resolution();
    o["faults"] = json::Value(std::uint64_t(res.faults));
    o["detectable"] = json::Value(std::uint64_t(res.detectable));
    o["classes"] = json::Value(std::uint64_t(res.classes));
    o["avg_ambiguity"] = json::Value(res.avgAmbiguity);
    return json::Value(std::move(o));
  }
  campaign::CampaignConfig cfg;
  cfg.sample = param("sample");
  cfg.seed = param("seed");
  const campaign::CampaignSummary s = campaign::CampaignEngine(net, cfg).run().summary();
  o["mode"] = json::Value(campaign::campaignModeName(s.mode));
  o["faults_total"] = json::Value(std::uint64_t(s.faultsTotal));
  o["faults_done"] = json::Value(std::uint64_t(s.faultsDone));
  o["instruments"] = json::Value(std::uint64_t(s.instruments));
  o["read_accessible"] = json::Value(std::uint64_t(s.readAccessible));
  o["read_recovered"] = json::Value(std::uint64_t(s.readRecovered));
  o["read_lost"] = json::Value(std::uint64_t(s.readLost));
  o["write_accessible"] = json::Value(std::uint64_t(s.writeAccessible));
  o["write_recovered"] = json::Value(std::uint64_t(s.writeRecovered));
  o["write_lost"] = json::Value(std::uint64_t(s.writeLost));
  o["read_mismatches"] = json::Value(std::uint64_t(s.readMismatches));
  o["write_mismatches"] = json::Value(std::uint64_t(s.writeMismatches));
  return json::Value(std::move(o));
}

/// Gate over outcomes: every reply ok and free of Unknown cells and
/// campaign mismatches, the same reply for the same key, analyze
/// fingerprints equal to an in-process lowering.
void judge(const std::vector<Outcome>& outcomes,
           const std::vector<ServeDesign>& corpus, const Replies& replies,
           Gate& gate) {
  for (const Outcome& o : outcomes) {
    gate.attempt();
    if (!o.ok) {
      gate.fail(std::string(kMethods[o.method]) + " on " +
                corpus[o.design].name + " failed: " + o.error);
    } else if (!o.defect.empty()) {
      gate.fail(o.key + ": " + o.defect);
    } else if (replies.find(o.key)->first != o.digest) {
      gate.fail(o.key + ": reply differs from an earlier reply to the same key");
    } else if (o.method == 0 &&
               o.flatFingerprint != corpus[o.design].flatFingerprint) {
      gate.fail(o.key + ": flat fingerprint differs from an in-process lowering");
    }
  }
}

std::vector<ServeDesign> makeCorpus(const Options& o) {
  const std::vector<const char*> names =
      o.shortTier
          ? std::vector<const char*>{"TreeFlat", "q12710"}
          : std::vector<const char*>{"TreeFlat", "TreeBalanced", "q12710",
                                     "a586710", "MBIST_1_5_5", "MBIST_2_5_5",
                                     "MBIST_1_5_20"};
  std::vector<ServeDesign> corpus;
  for (const char* name : names) {
    ServeDesign d;
    d.name = name;
    d.text = rsn::netlistToString(benchgen::buildBenchmark(name));
    d.flatFingerprint =
        rsn::FlatNetwork::lower(rsn::parseNetlistString(d.text))->fingerprint();
    corpus.push_back(std::move(d));
  }
  return corpus;
}

struct Setup {
  std::vector<ServeDesign> corpus;
  Service service;
  std::unique_ptr<Replies> replies = std::make_unique<Replies>();
  std::vector<Outcome> warm;
};

/// Corpus, server start and warm-up of every hot key, spread over the
/// connections.
Setup makeSetup(const Options& o) {
  Setup s;
  s.corpus = makeCorpus(o);
  serve::ServerOptions so;
  so.cacheBudgetBytes = o.shortTier ? 64u << 10 : kCacheBudgetBytes;
  s.service.server = std::make_unique<serve::Server>(so);
  for (std::size_t c = 0; c < clientCount(); ++c) {
    s.service.connections.push_back(
        std::make_unique<Connection>(*s.service.server));
  }
  const std::vector<Request> hot = hotRequests(s.corpus, o.seed);
  std::atomic<std::size_t> next{0};
  s.warm = onAllConnections(s.service, [&](Connection& c, std::vector<Outcome>& out) {
    for (std::size_t i; (i = next.fetch_add(1)) < hot.size();) {
      out.push_back(issue(o, c, hot[i], i, *s.replies));
    }
  });
  return s;
}

std::uint64_t cacheDelta(const json::Value& before, const json::Value& after,
                         const char* field) {
  const json::Value zero(std::int64_t{0});
  return after.get(field, zero).asUnsigned() - before.get(field, zero).asUnsigned();
}

/// Per-layer metrics of a traced window.  Layer work happens inside the
/// server, so layer times and counts come from the program's own spans
/// and counters, per completed request.
void reportPerLayer(const std::vector<ServeDesign>& corpus,
                    const std::vector<Outcome>& window, double wall,
                    double scale, const obs::Snapshot& snap,
                    const json::Value& before, const json::Value& after,
                    double cpu, Metrics& m) {
  const double n = static_cast<double>(window.size());
  for (std::size_t i = 0; i < kMethodCount; ++i) {
    std::vector<double> lat;
    for (const Outcome& o : window) {
      if (o.method == i) lat.push_back(o.latencyMs);
    }
    const double p50 = summarize(lat).median;
    m.set(std::string("serve.") + kMethods[i] + ".p50_ms", p50);
    if (std::string(kMethods[i]) != "lint")
      m.set(std::string(kMethods[i]) + "_s", p50 / 1e3);
  }
  for (std::size_t i = 0; i < kLayerCount; ++i)
    m.set(layerMetric(static_cast<Layer>(i)), 0.0);
  const std::pair<Layer, const char*> fromSpans[] = {
      {Layer::Lower, "flat.lower"},
      {Layer::Lint, "lint.run"},
      {Layer::CritRun, "crit.run"},
      {Layer::Spea2, "moo.spea2.generation"},
      {Layer::VerifyRun, "verify.certify"},
      {Layer::DiagBuild, "diag.dictionary_build"},
      {Layer::CampaignRun, "campaign.run"},
  };
  for (const auto& [layer, span] : fromSpans) {
    m.set(layerMetric(layer), obsSpanSeconds(snap, span) * scale / n);
  }
  double textBytes = 0;
  for (const Outcome& o : window)
    textBytes += static_cast<double>(corpus[o.design].text.size());
  const double fast = obsCounter(snap, "verify.rows_fast");
  const double rows = fast + obsCounter(snap, "verify.rows_fixpoint");
  const double probes = obsCounter(snap, "campaign.probes");
  const double campaignS = obsSpanSeconds(snap, "campaign.run") * scale;
  m.set("rsn.netlist_mb", textBytes / n / (1 << 20));
  m.set("crit.faults", obsCounter(snap, "crit.faults_evaluated") / n);
  m.set("moo.offspring", obsCounter(snap, "moo.offspring") / n);
  m.set("moo.front_size", 0.0);
  m.set("verify.rows", rows / n);
  m.set("verify.fast_rows", fast / n);
  m.set("verify.fast_ratio", rows > 0 ? fast / rows : 0.0);
  m.set("verify.cells_per_s", 0.0);
  m.set("verify.unknown_cells", obsCounter(snap, "verify.cells_unknown"));
  m.set("diag.rows", obsCounter(snap, "diag.syndromes") / n);
  m.set("diag.classes", 0.0);
  m.set("campaign.probes", probes / n);
  m.set("campaign.probes_per_s", campaignS > 0 ? probes / campaignS : 0.0);
  m.set("campaign.mismatches", 0.0);
  const double hits = static_cast<double>(cacheDelta(before, after, "hits"));
  const double misses = static_cast<double>(cacheDelta(before, after, "misses"));
  m.set("serve.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  m.set("serve.cache.misses", misses);
  m.set("serve.cache.coalesced",
        static_cast<double>(cacheDelta(before, after, "coalesced")));
  m.set("serve.cache.evictions",
        static_cast<double>(cacheDelta(before, after, "evictions")));
  m.set("pool.cpu_util", cpu / (wall * static_cast<double>(threadCount())));
  m.set("trace.coverage", 0.0);
}

}  // namespace

RunOutput runServeMixed(const Options& o) {
  io::ignoreSigpipe();
  RunOutput out;
  Setup setup;
  const double setupSeconds = timedSetup(setup, [&] { return makeSetup(o); });
  for (const ServeDesign& d : setup.corpus) out.corpus.push_back(json::Value(d.name));
  std::cerr << "perfbench: serve set-up " << setupSeconds << " s, cache "
            << json::serialize(statsOf(setup.service)) << "\n";
  Replies& replies = *setup.replies;
  judge(setup.warm, setup.corpus, replies, out.gate);
  HostProbe probe;
  // Replies to the hot keys: identical for identical code and seed.
  out.digests["hot_replies"] = json::Value(replies.digest().hex());

  const Sequence sequence(setup.corpus, o.seed);
  std::atomic<std::uint64_t> cursor{0};
  // A window runs in slices with every client idle between them, so the
  // host probe runs between slices without competing with requests.
  // `wall` is the measured time of the window; `scale` takes measured
  // times to reference host speed by the median probe (see HostProbe).
  struct Window {
    std::vector<Outcome> outcomes;
    double wall = 0, scale = 1;
  };
  const auto window = [&](double seconds) {
    Window w;
    const std::size_t probesFrom = probe.count();
    quiesce(setup.service);
    probe.sample();
    while (w.wall < seconds) {
      const auto t0 = Clock::now();
      std::vector<Outcome> slice =
          runWindow(o, setup.service, sequence, cursor,
                    std::min(kSliceSeconds, seconds - w.wall), replies);
      w.wall += secondsSince(t0);
      quiesce(setup.service);
      probe.sample();
      for (Outcome& r : slice) w.outcomes.push_back(std::move(r));
    }
    judge(w.outcomes, setup.corpus, replies, out.gate);
    w.scale = probe.scaleSince(probesFrom);
    return w;
  };
  if (!o.trace) {
    // Peak RSS of the measured window alone: set-up and warm-up are done.
    resetPeakRss();
    const Window w = window(o.seconds);
    out.metrics.set("peak_rss_mb", peakRssMiB());
    const double n = static_cast<double>(w.outcomes.size());
    for (const double scale : {1.0, w.scale}) {
      std::vector<double> lat;
      for (const Outcome& r : w.outcomes) lat.push_back(r.latencyMs * scale);
      Metrics& m = scale == 1.0 ? out.unscaled : out.metrics;
      m.set("setup_s", setupSeconds * scale);
      m.set("p50_ms", nearestRank(lat, 0.50));
      m.set("p99_ms", nearestRank(lat, 0.99));
      m.set("rps", n / (w.wall * scale));
    }
  } else {
    const Window plain = window(o.seconds / 2);
    obs::enable();
    obs::reset();
    const json::Value before = statsOf(setup.service);
    const double cpu0 = processCpuSeconds();
    Window traced = window(o.seconds / 2);
    const double cpu = processCpuSeconds() - cpu0;
    const json::Value after = statsOf(setup.service);
    const obs::Snapshot snap = obs::snapshot();
    obs::disable();
    for (Outcome& r : traced.outcomes) r.latencyMs *= traced.scale;
    reportPerLayer(setup.corpus, traced.outcomes, traced.wall, traced.scale,
                   snap, before, after, cpu, out.metrics);
    // Time per request traced over time per request untraced.
    const auto perRequest = [](const Window& w) {
      return w.wall * w.scale / static_cast<double>(w.outcomes.size());
    };
    out.metrics.set("trace.overhead", perRequest(traced) / perRequest(plain) - 1.0);
  }
  out.probeSeconds = probe.samples();

  // Direct recomputation of a seeded sample of hot keys and of the
  // first fresh keys of the run.
  std::vector<Request> sample = hotRequests(setup.corpus, o.seed);
  Rng rng(deriveSeed(o.seed, "serve/sample"));
  rng.shuffle(sample);
  sample.resize(std::min<std::size_t>(sample.size(), o.shortTier ? 4 : 16));
  for (std::uint64_t i = 0, fresh = 0; i < cursor.load() && fresh < 4; ++i) {
    Request r = sequence.at(i);
    if (!r.fresh || replies.find(r.key) == nullptr) continue;
    sample.push_back(std::move(r));
    ++fresh;
  }
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const Request& r = sample[k];
    out.gate.attempt();
    const auto* served = replies.find(r.key);
    std::string text = served == nullptr ? "" : served->second;
    if (o.corrupt == "reply" && k == 0) text += " ";
    std::string expected;
    try {
      expected = json::serialize(directResult(r));
    } catch (const std::exception& e) {
      expected = std::string("threw: ") + e.what();
    }
    if (text != expected) {
      out.gate.fail(r.key + ": served reply differs from the in-process result");
    }
  }
  return out;
}

}  // namespace perfbench
