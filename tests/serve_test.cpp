// rrsn_serve daemon: wire protocol framing, the content-addressed
// artifact cache (LRU eviction, fingerprint-collision verification),
// endpoint dispatch over a real socketpair transport, thread-count
// determinism of cached responses, deadline-expired campaigns as typed
// errors, the FlatStore mmap-adopt tier, the command surface the daemon
// shares with rrsn_tool (param schema, network names, per-subcommand
// flags, the lint fail-fast), the daemon binary over stdio and over a
// Unix socket — plus regression tests for the I/O-robustness fixes
// (strict numeric CLI parsing, checkpoint save failures surfaced as
// Status, SIGPIPE immunity of the tools).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/params.hpp"
#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "moo/spea2.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "verify/certifier.hpp"

namespace rrsn::serve {
namespace {

namespace fs = std::filesystem;

std::string fig1Text() {
  return rsn::netlistToString(rsn::makeFig1Network());
}

// ------------------------------------------------------------ protocol

TEST(Protocol, FrameRoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string messages[] = {"", "x", R"({"id":1,"method":"ping"})",
                                  std::string(100000, 'z')};
  // The 100 kB frame exceeds the pipe buffer, so a writer thread pumps
  // while this thread reads (also proves writeAll handles short writes).
  std::thread writer([&] {
    for (const std::string& m : messages) {
      EXPECT_TRUE(writeFrame(fds[1], m).ok());
    }
  });
  for (const std::string& m : messages) {
    std::string payload = "sentinel";
    bool eof = true;
    const Status st = readFrame(fds[0], payload, eof);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_FALSE(eof);
    EXPECT_EQ(payload, m);
  }
  writer.join();
  ::close(fds[1]);
  std::string payload;
  bool eof = false;
  const Status st = readFrame(fds[0], payload, eof);
  EXPECT_TRUE(st.ok()) << st.toString();
  EXPECT_TRUE(eof) << "clean close between frames must report eof, not error";
  ::close(fds[0]);
}

TEST(Protocol, TruncatedFrameIsDataLoss) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Announce 100 bytes, deliver 3, close.
  const std::uint8_t prefix[4] = {100, 0, 0, 0};
  ASSERT_TRUE(io::writeAll(fds[1], prefix, 4).ok());
  ASSERT_TRUE(io::writeAll(fds[1], "abc", 3).ok());
  ::close(fds[1]);
  std::string payload;
  bool eof = false;
  const Status st = readFrame(fds[0], payload, eof);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.toString();
  ::close(fds[0]);
}

TEST(Protocol, OversizedFrameRejectedBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_TRUE(io::writeAll(fds[1], prefix, 4).ok());
  std::string payload;
  bool eof = false;
  const Status st = readFrame(fds[0], payload, eof);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.toString();
  ::close(fds[0]);
  ::close(fds[1]);
}

// ------------------------------------------------------- ArtifactCache

TEST(ArtifactCache, HitMissAndLruEviction) {
  ArtifactCache cache(100);
  auto blob = [](char c) { return std::make_shared<std::string>(10, c); };
  cache.put(1, "k", blob('a'), 40);
  cache.put(2, "k", blob('b'), 40);
  EXPECT_NE(cache.get(1, "k"), nullptr);  // 1 is now hotter than 2
  cache.put(3, "k", blob('c'), 40);       // evicts the cold entry: 2
  EXPECT_EQ(cache.get(2, "k"), nullptr);
  EXPECT_NE(cache.get(1, "k"), nullptr);
  EXPECT_NE(cache.get(3, "k"), nullptr);

  const ArtifactCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 80u);
  EXPECT_EQ(s.misses, 1u);  // only the get of the evicted key
  EXPECT_EQ(s.hits, 3u);
}

TEST(ArtifactCache, OverBudgetEntryIsKeptAloneInCache) {
  ArtifactCache cache(50);
  cache.put(1, "k", std::make_shared<int>(1), 10);
  cache.put(2, "k", std::make_shared<int>(2), 500);  // alone over budget
  EXPECT_EQ(cache.get(1, "k"), nullptr) << "cold entry must be evicted";
  EXPECT_NE(cache.get(2, "k"), nullptr)
      << "the fresh entry itself is never evicted by its own insert";
}

TEST(ArtifactCache, VerifierRejectionCountsCollisionAndEvicts) {
  ArtifactCache cache(0);
  cache.put(7, "net", std::make_shared<std::string>("contentA"), 8);
  const auto reject = [](const std::shared_ptr<const void>& v) {
    return *static_cast<const std::string*>(v.get()) == "contentB";
  };
  EXPECT_EQ(cache.get(7, "net", reject), nullptr);
  const ArtifactCache::Stats s = cache.stats();
  EXPECT_EQ(s.collisions, 1u);
  EXPECT_EQ(s.entries, 0u) << "the impostor entry must be erased";
  // The slot is free for the verified content now.
  cache.put(7, "net", std::make_shared<std::string>("contentB"), 8);
  EXPECT_NE(cache.get(7, "net", reject), nullptr);
}

TEST(ArtifactCache, GetOrComputeCoalescesConcurrentMisses) {
  ArtifactCache cache(0);
  std::atomic<int> invocations{0};
  std::atomic<int> inFlight{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const void>> values(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      values[static_cast<std::size_t>(t)] = cache.getOrCompute(
          42, "slow", [&]() {
            invocations.fetch_add(1);
            inFlight.fetch_add(1);
            // Park long enough that the other threads all arrive while
            // this compute is still in flight.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            inFlight.fetch_sub(1);
            return std::pair<std::shared_ptr<const void>, std::size_t>{
                std::make_shared<std::string>("artifact"), 8};
          });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(invocations.load(), 1)
      << "identical in-flight misses must coalesce onto one compute";
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(values[static_cast<std::size_t>(t)], values[0])
        << "every waiter must receive the winner's value";
  }
  const ArtifactCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.coalesced, kThreads - 1u);
}

TEST(ArtifactCache, GetOrComputeExceptionReachesEveryWaiter) {
  ArtifactCache cache(0);
  std::atomic<int> invocations{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        (void)cache.getOrCompute(7, "boom", [&]() {
          invocations.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          throw Error("compute failed");
          return std::pair<std::shared_ptr<const void>, std::size_t>{};
        });
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(invocations.load(), 1);
  EXPECT_EQ(failures.load(), 4)
      << "a compute failure must propagate to every coalesced waiter";
  EXPECT_EQ(cache.get(7, "boom"), nullptr) << "failures are never cached";
}

TEST(ArtifactCache, GetOrComputeServesCachedEntryWithoutComputing) {
  ArtifactCache cache(0);
  cache.put(9, "k", std::make_shared<std::string>("cached"), 8);
  bool computed = false;
  const auto value = cache.getOrCompute(9, "k", [&]() {
    computed = true;
    return std::pair<std::shared_ptr<const void>, std::size_t>{
        std::make_shared<std::string>("fresh"), 8};
  });
  EXPECT_FALSE(computed);
  EXPECT_EQ(*std::static_pointer_cast<const std::string>(value), "cached");
}

TEST(ArtifactCache, GetOrComputeVerifierRejectionRecomputes) {
  ArtifactCache cache(0);
  cache.put(5, "net", std::make_shared<std::string>("impostor"), 8);
  const auto wantFresh = [](const std::shared_ptr<const void>& v) {
    return *static_cast<const std::string*>(v.get()) == "fresh";
  };
  const auto value = cache.getOrCompute(
      5, "net",
      [] {
        return std::pair<std::shared_ptr<const void>, std::size_t>{
            std::make_shared<std::string>("fresh"), 8};
      },
      wantFresh);
  EXPECT_EQ(*std::static_pointer_cast<const std::string>(value), "fresh");
  EXPECT_EQ(cache.stats().collisions, 1u);
  // The verified content replaced the impostor.
  EXPECT_NE(cache.get(5, "net", wantFresh), nullptr);
}

TEST(ArtifactCache, SharedPtrSurvivesEviction) {
  ArtifactCache cache(10);
  cache.put(1, "k", std::make_shared<std::string>("alive"), 8);
  auto held = cache.getAs<std::string>(1, "k");
  ASSERT_NE(held, nullptr);
  cache.put(2, "k", std::make_shared<std::string>("pusher"), 8);  // evicts 1
  EXPECT_EQ(cache.get(1, "k"), nullptr);
  EXPECT_EQ(*held, "alive") << "readers keep evicted values alive";
}

// ------------------------------------------------------ rrsn_tool runs

/// Runs rrsn_tool with `args` and returns its exit code.  stdout and
/// stderr go to /dev/null unless `out` / `err` capture them.
int runTool(const std::vector<std::string>& args, bool closeStdout = false,
            std::string* out = nullptr, std::string* err = nullptr) {
  std::vector<const char*> argv;
  argv.push_back(RRSN_TOOL_BIN);
  for (const std::string& a : args) argv.push_back(a.c_str());
  argv.push_back(nullptr);
  int outPipe[2] = {-1, -1}, errPipe[2] = {-1, -1};
  if (out != nullptr && ::pipe(outPipe) != 0) return -1;
  if (err != nullptr && ::pipe(errPipe) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (closeStdout) {
      // Simulate `rrsn_tool ... | head`: stdout is a pipe whose read
      // end is already gone, so the first flush hits EPIPE.
      int fds[2];
      if (::pipe(fds) != 0) _exit(97);
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
    } else {
      ::dup2(out != nullptr ? outPipe[1] : devnull, STDOUT_FILENO);
    }
    ::dup2(err != nullptr ? errPipe[1] : devnull, STDERR_FILENO);
    ::execv(RRSN_TOOL_BIN, const_cast<char**>(argv.data()));
    _exit(98);
  }
  // Drain both pipes together: a child blocked on a full stderr pipe
  // would never close its stdout.
  std::vector<std::pair<int, std::string*>> open;
  for (auto [fds, sink] : {std::pair{outPipe, out}, std::pair{errPipe, err}}) {
    if (sink == nullptr) continue;
    ::close(fds[1]);
    open.emplace_back(fds[0], sink);
  }
  while (!open.empty()) {
    std::vector<pollfd> polled;
    for (const auto& [fd, sink] : open) polled.push_back({fd, POLLIN, 0});
    if (::poll(polled.data(), polled.size(), -1) < 0) break;
    for (std::size_t k = polled.size(); k-- > 0;) {
      if (polled[k].revents == 0) continue;
      char buf[4096];
      const ssize_t n = ::read(polled[k].fd, buf, sizeof buf);
      if (n > 0) {
        open[k].second->append(buf, static_cast<std::size_t>(n));
      } else {
        ::close(polled[k].fd);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status))
      << "tool must exit, not die on a signal (status " << status << ")";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ------------------------------------------------- server over stream

/// One request/reply exchange: writes the request frame to `out`, reads
/// the reply frame from `in`.
json::Value exchange(int in, int out, const std::string& method,
                     json::Object params = {}, std::uint64_t id = 1) {
  json::Object req;
  req["id"] = json::Value(id);
  req["method"] = json::Value(method);
  req["params"] = json::Value(std::move(params));
  const Status ws = writeFrame(out, json::serialize(json::Value(std::move(req))));
  EXPECT_TRUE(ws.ok()) << ws.toString();
  std::string payload;
  bool eof = false;
  const Status rs = readFrame(in, payload, eof);
  EXPECT_TRUE(rs.ok() && !eof) << rs.toString();
  return json::parse(payload);
}

/// One in-process client: socketpair + a thread pumping serveStream.
class StreamClient {
 public:
  explicit StreamClient(Server& server) {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    fd_ = sv[0];
    pump_ = std::thread([&server, fd = sv[1]] {
      (void)server.serveStream(fd, fd);
      ::close(fd);
    });
  }
  ~StreamClient() {
    ::close(fd_);
    pump_.join();
  }

  json::Value call(const std::string& method, json::Object params = {},
                   std::uint64_t id = 1) {
    return exchange(fd_, fd_, method, std::move(params), id);
  }

  int fd() const { return fd_; }

 private:
  int fd_;
  std::thread pump_;
};

json::Object netlistParams(const std::string& text) {
  json::Object p;
  p["netlist"] = json::Value(text);
  return p;
}

TEST(Server, PingAndUnknownMethod) {
  Server server;
  StreamClient client(server);
  const json::Value pong = client.call("ping");
  EXPECT_TRUE(pong.at("ok").asBool());
  EXPECT_TRUE(pong.at("result").at("pong").asBool());

  // whatif has no engine behind it, so it is unknown like any other name.
  for (const char* method : {"frobnicate", "whatif"}) {
    const json::Value unknown = client.call(method, netlistParams(fig1Text()));
    EXPECT_FALSE(unknown.at("ok").asBool()) << method;
    EXPECT_EQ(unknown.at("error").at("code").asString(), "UNIMPLEMENTED")
        << method;
  }
}

TEST(Server, MalformedFrameGetsErrorResponseAndStreamSurvives) {
  Server server;
  StreamClient client(server);
  ASSERT_TRUE(writeFrame(client.fd(), "this is not json").ok());
  std::string payload;
  bool eof = false;
  ASSERT_TRUE(readFrame(client.fd(), payload, eof).ok());
  const json::Value resp = json::parse(payload);
  EXPECT_FALSE(resp.at("ok").asBool());
  EXPECT_EQ(resp.at("error").at("code").asString(), "INVALID_ARGUMENT");
  // The framing stayed in sync: the next request works.
  EXPECT_TRUE(client.call("ping").at("ok").asBool());
}

TEST(Server, AnalyzeIsCachedAndByteIdentical) {
  Server server;
  StreamClient client(server);
  const std::string text = fig1Text();
  const json::Value first = client.call("analyze", netlistParams(text), 1);
  ASSERT_TRUE(first.at("ok").asBool()) << json::serialize(first);
  const json::Value second = client.call("analyze", netlistParams(text), 2);
  ASSERT_TRUE(second.at("ok").asBool());
  // The envelope differs (echoed ids); the result payload must not.
  EXPECT_EQ(json::serialize(first.at("result")),
            json::serialize(second.at("result")));

  StreamClient other(server);  // cache is per-server, not per-connection
  const json::Value third = other.call("analyze", netlistParams(text), 3);
  EXPECT_EQ(json::serialize(first.at("result")),
            json::serialize(third.at("result")));

  const json::Value stats = client.call("stats");
  EXPECT_GE(stats.at("result").at("cache").at("hits").asUnsigned(), 2u);
}

TEST(Server, NumericParamsShareTheCliValidator) {
  Server server;
  StreamClient client(server);
  json::Object params = netlistParams(fig1Text());
  params["top"] = json::Value("0x10");  // strings take the strict CLI path
  const json::Value resp = client.call("analyze", std::move(params));
  ASSERT_FALSE(resp.at("ok").asBool());
  EXPECT_EQ(resp.at("error").at("code").asString(), "INVALID_ARGUMENT");
  EXPECT_NE(resp.at("error").at("message").asString().find(
                "not an unsigned integer"),
            std::string::npos);

  json::Object negative = netlistParams(fig1Text());
  negative["top"] = json::Value(std::int64_t{-3});
  const json::Value resp2 = client.call("analyze", std::move(negative));
  ASSERT_FALSE(resp2.at("ok").asBool());
  EXPECT_EQ(resp2.at("error").at("code").asString(), "INVALID_ARGUMENT");

  json::Object good = netlistParams(fig1Text());
  good["top"] = json::Value("3");  // valid decimal string is accepted
  EXPECT_TRUE(client.call("analyze", std::move(good)).at("ok").asBool());

  // The population bound is the schema's on both front ends: 1 is what
  // the EA accepts, 0 is rejected by the daemon and by the CLI.
  json::Object single = netlistParams(fig1Text());
  single["generations"] = json::Value(std::uint64_t{2});
  single["population"] = json::Value(std::uint64_t{1});
  const json::Value one = client.call("harden", std::move(single));
  EXPECT_TRUE(one.at("ok").asBool()) << json::serialize(one);

  json::Object empty = netlistParams(fig1Text());
  empty["population"] = json::Value(std::uint64_t{0});
  const json::Value zero = client.call("harden", std::move(empty));
  ASSERT_FALSE(zero.at("ok").asBool());
  EXPECT_EQ(zero.at("error").at("code").asString(), "INVALID_ARGUMENT");
  EXPECT_EQ(runTool({"harden", "example:fig1", "--population", "0"}), 1);
}

TEST(ParamSchema, DefaultsAreTheLibraryDefaults) {
  EXPECT_EQ(api::kGenerations.fallback, moo::EvolutionOptions{}.generations);
  EXPECT_EQ(api::kPopulation.fallback,
            moo::EvolutionOptions{}.populationSize);
  EXPECT_EQ(api::kSample.fallback, campaign::CampaignConfig{}.sample);
  EXPECT_EQ(api::kSeed.fallback, campaign::CampaignConfig{}.seed);
  EXPECT_EQ(api::kBudget.fallback, verify::CertifyOptions{}.fixpointBudget);
  EXPECT_EQ(api::kBatch.fallback, campaign::CampaignConfig{}.checkpointEvery);
  EXPECT_EQ(api::kMaxReroutes.fallback,
            campaign::CampaignConfig{}.retarget.maxReroutes);
  EXPECT_EQ(api::flagOf(api::kDeadlineMs), "--deadline-ms");
}

TEST(Server, BadNetlistIsInvalidArgumentNotInternal) {
  Server server;
  StreamClient client(server);
  const json::Value resp =
      client.call("analyze", netlistParams("segment s1 length=banana"));
  ASSERT_FALSE(resp.at("ok").asBool());
  EXPECT_EQ(resp.at("error").at("code").asString(), "INVALID_ARGUMENT");
}

TEST(Server, CampaignDeadlineExpiresAsTypedError) {
  Server server;
  StreamClient client(server);
  // Exhaustive pair campaign on a large SoC design with a 1 ms budget:
  // the deadline fires mid-run and must surface as DEADLINE_EXCEEDED,
  // not as a truncated success.
  json::Object params = netlistParams(
      rsn::netlistToString(benchgen::buildBenchmark("q12710")));
  params["mode"] = json::Value("pairs");
  params["sample"] = json::Value(std::uint64_t{0});
  params["deadline_ms"] = json::Value(std::uint64_t{1});
  const json::Value resp = client.call("campaign", std::move(params));
  ASSERT_FALSE(resp.at("ok").asBool()) << json::serialize(resp);
  EXPECT_EQ(resp.at("error").at("code").asString(), "DEADLINE_EXCEEDED");
}

TEST(Server, CertifyEndpointIsCachedAndByteIdentical) {
  Server server;
  StreamClient client(server);
  const std::string text = fig1Text();
  const json::Value first = client.call("certify", netlistParams(text), 1);
  ASSERT_TRUE(first.at("ok").asBool()) << json::serialize(first);
  const json::Value& summary = first.at("result").at("summary");
  EXPECT_GT(summary.at("faults").asUnsigned(), 0u);
  EXPECT_EQ(summary.at("unknown_read").asUnsigned(), 0u);
  EXPECT_EQ(summary.at("unknown_write").asUnsigned(), 0u);

  const std::uint64_t missesAfterFirst =
      client.call("stats").at("result").at("cache").at("misses").asUnsigned();
  const json::Value second = client.call("certify", netlistParams(text), 2);
  ASSERT_TRUE(second.at("ok").asBool());
  EXPECT_EQ(json::serialize(first.at("result")),
            json::serialize(second.at("result")));
  // The repeat was served from the artifact cache: no new certify miss.
  EXPECT_EQ(
      client.call("stats").at("result").at("cache").at("misses").asUnsigned(),
      missesAfterFirst);

  // Malformed netlist text stays a typed argument error.
  const json::Value bad =
      client.call("certify", netlistParams("segment s1 length=banana"));
  ASSERT_FALSE(bad.at("ok").asBool());
  EXPECT_EQ(bad.at("error").at("code").asString(), "INVALID_ARGUMENT");
}

TEST(Server, CertifyReplyEqualsCliJsonReport) {
  // Both front ends read the same certifier options, so the daemon's
  // reply is the document `rrsn_tool certify --json` writes.
  const fs::path report = fs::temp_directory_path() /
                          ("rrsn_certify_cli_" + std::to_string(::getpid()) +
                           ".json");
  ASSERT_EQ(runTool({"certify", "example:fig1", "--json", report.string()}),
            0);
  std::ifstream in(report);
  const std::string cliText((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  fs::remove(report);

  Server server;
  StreamClient client(server);
  const json::Value reply = client.call("certify", netlistParams(fig1Text()));
  ASSERT_TRUE(reply.at("ok").asBool()) << json::serialize(reply);
  EXPECT_EQ(json::serialize(reply.at("result")),
            json::serialize(json::parse(cliText)));
}

TEST(Server, CertifyFailsFastOnLintErrorsAsTheCliDoes) {
  // A 1-bit register steering a 3-branch mux: struct.ctrl-width and
  // struct.unreachable are errors.  `rrsn_tool certify` exits 1 on
  // them, and the daemon refuses certify as it refuses analyze.
  const std::string text =
      "network n { chain { segment c;\n"
      "  mux m ctrl=c { branch { segment a; } branch { segment b; }\n"
      "                 branch { segment d; } } } }\n";
  const fs::path file = fs::temp_directory_path() /
                        ("rrsn_lint_error_" + std::to_string(::getpid()) +
                         ".rsn");
  std::ofstream(file) << text;
  EXPECT_EQ(runTool({"certify", file.string()}), 1);
  fs::remove(file);

  Server server;
  StreamClient client(server);
  for (const char* method : {"analyze", "certify"}) {
    const json::Value resp = client.call(method, netlistParams(text));
    ASSERT_FALSE(resp.at("ok").asBool()) << method;
    EXPECT_EQ(resp.at("error").at("code").asString(), "FAILED_PRECONDITION")
        << method;
  }
}

TEST(Server, ConcurrentClientsThreadCountInvariance) {
  const std::string text = fig1Text();
  std::vector<std::string> perThreadCount;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    setThreadCount(threads);
    Server server;
    // 4 concurrent clients hammer the same design; every response
    // result for a given request must be identical across clients,
    // connections and RRSN_THREADS.
    std::vector<std::string> results(4);
    {
      std::vector<std::unique_ptr<StreamClient>> clients;
      for (std::size_t c = 0; c < 4; ++c)
        clients.push_back(std::make_unique<StreamClient>(server));
      std::vector<std::thread> drivers;
      for (std::size_t c = 0; c < 4; ++c) {
        drivers.emplace_back([&, c] {
          std::string acc;
          acc += json::serialize(
              clients[c]->call("analyze", netlistParams(text)).at("result"));
          acc += json::serialize(
              clients[c]->call("diagnose", netlistParams(text)).at("result"));
          json::Object h = netlistParams(text);
          h["generations"] = json::Value(std::uint64_t{4});
          h["population"] = json::Value(std::uint64_t{8});
          acc += json::serialize(
              clients[c]->call("harden", std::move(h)).at("result"));
          results[c] = std::move(acc);
        });
      }
      for (auto& d : drivers) d.join();
    }
    for (std::size_t c = 1; c < 4; ++c) EXPECT_EQ(results[0], results[c]);
    perThreadCount.push_back(results[0]);
  }
  setThreadCount(1);
  ASSERT_EQ(perThreadCount.size(), 3u);
  EXPECT_EQ(perThreadCount[0], perThreadCount[1])
      << "responses must be byte-identical at RRSN_THREADS=1 vs 2";
  EXPECT_EQ(perThreadCount[0], perThreadCount[2])
      << "responses must be byte-identical at RRSN_THREADS=1 vs 4";
}

TEST(Server, StatsReplyCountsCoalescedMisses) {
  // Concurrent first requests for one design: every cache lookup counts
  // once, as a hit, a miss or a coalesced wait on the in-flight compute,
  // so the stats reply must carry all three for the tally to add up.
  Server server;
  const std::string text =
      rsn::netlistToString(benchgen::buildBenchmark("q12710"));
  constexpr std::uint64_t kClients = 4;
  std::vector<std::unique_ptr<StreamClient>> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.push_back(std::make_unique<StreamClient>(server));
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      const json::Value resp = clients[c]->call("diagnose", netlistParams(text));
      EXPECT_TRUE(resp.at("ok").asBool()) << json::serialize(resp);
    });
  }
  for (auto& d : drivers) d.join();
  const json::Value cache =
      clients[0]->call("stats").at("result").at("cache");
  // Each diagnose looks up the interned network and its reply, and each
  // of the two keys misses exactly once.
  const std::uint64_t misses = cache.at("misses").asUnsigned();
  EXPECT_EQ(misses, 2u);
  EXPECT_EQ(cache.at("hits").asUnsigned() + misses +
                cache.at("coalesced").asUnsigned(),
            2 * kClients);
}

// -------------------------------------------------- FlatStore (mmap)

TEST(FlatStore, PublishesThenMapsAcrossServerInstances) {
  const fs::path dir =
      fs::temp_directory_path() / "rrsn_serve_flatstore_test";
  fs::remove_all(dir);
  const std::string text = fig1Text();

  ServerOptions opts;
  opts.cacheDir = dir.string();
  std::string firstFingerprint, secondFingerprint;
  {
    Server server(opts);
    StreamClient client(server);
    const json::Value resp = client.call("analyze", netlistParams(text));
    ASSERT_TRUE(resp.at("ok").asBool());
    firstFingerprint =
        json::serialize(resp.at("result").at("flat_fingerprint"));
    const json::Value stats = client.call("stats");
    EXPECT_EQ(
        stats.at("result").at("flat_store").at("published").asUnsigned(), 1u);
  }
  ASSERT_FALSE(fs::is_empty(dir)) << "arena file must be on disk";
  {
    // A fresh daemon process (modelled by a fresh Server) adopts the
    // published arena zero-copy instead of re-lowering.
    Server server(opts);
    StreamClient client(server);
    const json::Value resp = client.call("analyze", netlistParams(text));
    ASSERT_TRUE(resp.at("ok").asBool());
    secondFingerprint =
        json::serialize(resp.at("result").at("flat_fingerprint"));
    const json::Value stats = client.call("stats");
    EXPECT_GE(stats.at("result").at("flat_store").at("map_hits").asUnsigned(),
              1u);
    EXPECT_EQ(stats.at("result").at("flat_store").at("lowers").asUnsigned(),
              0u);
  }
  EXPECT_EQ(firstFingerprint, secondFingerprint)
      << "mmap-adopted arena must be byte-identical to in-process lowering";
  fs::remove_all(dir);
}

TEST(FlatStore, CorruptArenaFileIsRejectedAndRepublished) {
  const fs::path dir =
      fs::temp_directory_path() / "rrsn_serve_flatstore_corrupt";
  fs::remove_all(dir);
  const std::string text = fig1Text();
  ServerOptions opts;
  opts.cacheDir = dir.string();
  {
    // A cold start finds no file: a plain miss, nothing rejected.
    Server server(opts);
    StreamClient client(server);
    ASSERT_TRUE(client.call("analyze", netlistParams(text)).at("ok").asBool());
    const json::Value store =
        client.call("stats").at("result").at("flat_store");
    EXPECT_EQ(store.at("rejected").asUnsigned(), 0u);
    EXPECT_EQ(store.at("published").asUnsigned(), 1u);
  }
  // Flip bytes in the published arena.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    ASSERT_EQ(::pwrite(fd, garbage, sizeof garbage, 64), 8);
    ::close(fd);
  }
  const auto relowersAndRepublishes = [&] {
    Server server(opts);
    StreamClient client(server);
    const json::Value resp = client.call("analyze", netlistParams(text));
    ASSERT_TRUE(resp.at("ok").asBool())
        << "corrupt disk tier must degrade to re-lowering, not fail";
    const json::Value store =
        client.call("stats").at("result").at("flat_store");
    EXPECT_EQ(store.at("map_hits").asUnsigned(), 0u);
    EXPECT_GE(store.at("lowers").asUnsigned(), 1u);
    EXPECT_EQ(store.at("published").asUnsigned(), 1u);
    // The file on disk was there and failed validation.
    EXPECT_EQ(store.at("rejected").asUnsigned(), 1u);
  };
  relowersAndRepublishes();

  // An arena an older release published (format field, the u32 at byte
  // 8, set to 1) is likewise re-lowered and replaced by the current
  // format, which the next daemon maps.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const std::uint32_t oldVersion = 1;
    ASSERT_EQ(::pwrite(fd, &oldVersion, sizeof oldVersion, 8),
              static_cast<ssize_t>(sizeof oldVersion));
    ::close(fd);
  }
  relowersAndRepublishes();
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::shared_ptr<const rsn::FlatNetwork> mapped;
    EXPECT_TRUE(rsn::FlatNetwork::mapFile(entry.path().string(), mapped).ok())
        << entry.path();
  }
  {
    Server server(opts);
    StreamClient client(server);
    ASSERT_TRUE(client.call("analyze", netlistParams(text)).at("ok").asBool());
    EXPECT_GE(client.call("stats")
                  .at("result")
                  .at("flat_store")
                  .at("map_hits")
                  .asUnsigned(),
              1u);
  }
  fs::remove_all(dir);
}

// ----------------------------------------------- daemon binary (stdio)

TEST(DaemonBinary, StdioProtocolRoundTripAndCleanShutdown) {
  int toChild[2], fromChild[2];
  ASSERT_EQ(::pipe(toChild), 0);
  ASSERT_EQ(::pipe(fromChild), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(toChild[0], STDIN_FILENO);
    ::dup2(fromChild[1], STDOUT_FILENO);
    ::close(toChild[0]);
    ::close(toChild[1]);
    ::close(fromChild[0]);
    ::close(fromChild[1]);
    ::execl(RRSN_SERVE_BIN, RRSN_SERVE_BIN, "--stdio",
            static_cast<char*>(nullptr));
    _exit(98);
  }
  ::close(toChild[0]);
  ::close(fromChild[1]);

  auto call = [&](const std::string& method) {
    return exchange(fromChild[0], toChild[1], method);
  };
  EXPECT_TRUE(call("ping").at("result").at("pong").asBool());
  EXPECT_TRUE(call("shutdown").at("result").at("stopping").asBool());
  ::close(toChild[1]);
  ::close(fromChild[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "shutdown must exit the daemon cleanly";
}

// ---------------------------------------------- daemon binary (socket)

/// Connects to a Unix socket; -1 while nothing listens there.
int connectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Lines of /proc/<pid>/maps: one per mapping the process holds.
std::size_t mappingCount(pid_t pid) {
  std::ifstream maps("/proc/" + std::to_string(pid) + "/maps");
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(maps),
                 std::istreambuf_iterator<char>(), '\n'));
}

TEST(DaemonBinary, SocketClientsShareTheCachesAndConnectionsAreReaped) {
  const fs::path dir = fs::temp_directory_path() /
                       ("rrsn_serve_socket_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socketPath = (dir / "rrsn.sock").string();
  const fs::path cacheDir = dir / "cache";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDERR_FILENO);
    ::execl(RRSN_SERVE_BIN, RRSN_SERVE_BIN, "--socket", socketPath.c_str(),
            "--cache-dir", cacheDir.c_str(), static_cast<char*>(nullptr));
    _exit(98);
  }
  // Whatever fails below, neither the daemon nor its files outlive the
  // test.
  struct Cleanup {
    pid_t pid;
    fs::path dir;
    ~Cleanup() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{pid, dir};
  const auto connectClient = [&] {
    int fd = connectUnix(socketPath);
    for (int attempt = 0; fd < 0 && attempt < 500; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      fd = connectUnix(socketPath);
    }
    EXPECT_GE(fd, 0) << "the daemon never listened on " << socketPath;
    return fd;
  };

  // Four Table-I designs, and each one's arena lowered in-process from
  // the exact request text.
  std::vector<std::string> corpus;
  std::vector<std::uint64_t> fingerprints;
  for (const char* name : {"TreeFlat", "TreeBalanced", "q12710",
                           "MBIST_2_5_5"}) {
    corpus.push_back(rsn::netlistToString(benchgen::buildBenchmark(name)));
    fingerprints.push_back(
        rsn::FlatNetwork::lower(rsn::parseNetlistString(corpus.back()))
            ->fingerprint());
  }

  // First analyze of each design: the served arena (published to and
  // re-adopted from the disk tier) is the in-process lowering.
  std::string firstAnalyze;
  std::uint64_t hitsBefore = 0;
  {
    const int fd = connectClient();
    ASSERT_GE(fd, 0);
    for (std::size_t d = 0; d < corpus.size(); ++d) {
      const json::Value resp =
          exchange(fd, fd, "analyze", netlistParams(corpus[d]));
      ASSERT_TRUE(resp.at("ok").asBool()) << json::serialize(resp);
      // Fingerprints travel as the bits of a JSON integer.
      EXPECT_EQ(static_cast<std::uint64_t>(
                    resp.at("result").at("flat_fingerprint").asInt()),
                fingerprints[d]);
      if (d == 0) firstAnalyze = json::serialize(resp.at("result"));
    }
    hitsBefore = exchange(fd, fd, "stats")
                     .at("result").at("cache").at("hits").asUnsigned();
    ::close(fd);
  }

  // Two concurrent clients, ten requests each, cycling through the
  // designs and this mix.
  const std::pair<std::string, json::Object> kMix[] = {
      {"analyze", {}},
      {"lint", {}},
      {"diagnose", {}},
      {"campaign", {{"sample", json::Value(std::uint64_t{8})}}},
      {"analyze", {}},
      {"harden",
       {{"generations", json::Value(std::uint64_t{4})},
        {"population", json::Value(std::uint64_t{8})}}}};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connectClient();
      if (fd < 0) return;
      for (std::size_t i = c * 10; i < c * 10 + 10; ++i) {
        auto [method, params] = kMix[i % std::size(kMix)];
        params["netlist"] = json::Value(corpus[(c + i) % corpus.size()]);
        const json::Value resp = exchange(fd, fd, method, std::move(params));
        EXPECT_TRUE(resp.at("ok").asBool())
            << method << ": " << json::serialize(resp);
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();

  // The mix was served from the cache, and a repeated request gets the
  // first reply byte for byte.
  {
    const int fd = connectClient();
    ASSERT_GE(fd, 0);
    EXPECT_GT(exchange(fd, fd, "stats")
                  .at("result").at("cache").at("hits").asUnsigned(),
              hitsBefore);
    const json::Value again =
        exchange(fd, fd, "analyze", netlistParams(corpus[0]));
    EXPECT_EQ(json::serialize(again.at("result")), firstAnalyze);
    ::close(fd);
  }

  // A finished connection's thread is joined while the daemon runs:
  // 64 sequential clients leave its mappings about where one left them
  // (each thread kept until shutdown holds its stack mapping).
  const auto pingOnce = [&] {
    const int fd = connectClient();
    if (fd < 0) return;
    EXPECT_TRUE(exchange(fd, fd, "ping").at("ok").asBool());
    ::close(fd);
  };
  pingOnce();
  const std::size_t mappingsBefore = mappingCount(pid);
  for (int k = 0; k < 64; ++k) pingOnce();
  EXPECT_LE(mappingCount(pid), mappingsBefore + 16);

  {
    const int fd = connectClient();
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(
        exchange(fd, fd, "shutdown").at("result").at("stopping").asBool());
    ::close(fd);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  cleanup.pid = -1;
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "shutdown must exit the daemon cleanly";

  // The disk tier holds one arena per design, each the in-process one.
  std::vector<std::uint64_t> published;
  for (const auto& entry : fs::directory_iterator(cacheDir)) {
    EXPECT_EQ(entry.path().extension(), ".rrsnflat") << entry.path();
    std::shared_ptr<const rsn::FlatNetwork> mapped;
    ASSERT_TRUE(rsn::FlatNetwork::mapFile(entry.path().string(), mapped).ok())
        << entry.path();
    published.push_back(mapped->fingerprint());
  }
  std::sort(published.begin(), published.end());
  std::sort(fingerprints.begin(), fingerprints.end());
  EXPECT_EQ(published, fingerprints);
}

TEST(DaemonBinary, MalformedCliOptionExitsOneWithUsage) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execl(RRSN_SERVE_BIN, RRSN_SERVE_BIN, "--stdio", "--cache-bytes",
            "banana", static_cast<char*>(nullptr));
    _exit(98);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1)
      << "the daemon shares the strict numeric validator with rrsn_tool";
}

// --------------------------------------- bugfix regressions: CLI args

TEST(ToolRegression, MalformedNumericOptionExitsOneNotGarbage) {
  // Pre-fix, "--seed banana" was silently parsed as 0 by atoll-style
  // parsing; now every numeric option rejects with a usage error.
  EXPECT_EQ(runTool({"analyze", "example:fig1", "--seed", "banana"}), 1);
  EXPECT_EQ(runTool({"analyze", "example:fig1", "--top", "12abc"}), 1);
  EXPECT_EQ(runTool({"campaign", "example:fig1", "--sample", "1e6"}), 1);
  EXPECT_EQ(runTool({"campaign", "example:fig1", "--deadline-ms",
                     "99999999999999999999999999"}),
            1);
  EXPECT_EQ(runTool({"harden", "example:fig1", "--population", "-5"}), 1);
  // Sanity: a valid invocation still succeeds.
  EXPECT_EQ(runTool({"info", "example:fig1"}), 0);
}

TEST(ToolRegression, SigpipeDoesNotKillTheTool) {
  // Dot output into a pipe whose read end is closed: pre-fix the
  // process died on SIGPIPE (exit status 141); now the EPIPE write
  // error is reported on stderr and the tool exits 1.
  EXPECT_EQ(runTool({"dot", "example:fig1"}, /*closeStdout=*/true), 1);
}

TEST(ToolRegression, FaultBranchIsBoundedByMuxArity) {
  // Pre-fix the branch went through an unbounded parse and a uint32
  // cast: 4294967297 ran as branch 1 and 99 as a branch fig1's m0 lacks.
  EXPECT_EQ(runTool({"diagnose", "example:fig1", "--fault",
                     "stuck:m0:4294967297"}),
            1);
  EXPECT_EQ(runTool({"diagnose", "example:fig1", "--fault", "stuck:m0:99"}),
            1);
  EXPECT_EQ(runTool({"diagnose", "example:fig1", "--fault", "stuck:m0:1"}),
            0);
}

TEST(ToolRegression, BadNamesAreTypedErrorsNotInternalChecks) {
  // Pre-fix each of these tripped an internal check and printed
  // "check failed: <expr> at <file>:<line>" before the message.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"diagnose", "example:fig1", "--fault", "break:nope"},
       "unknown segment 'nope'"},
      {{"diagnose", "example:fig1", "--fault", "stuck:nope:0"},
       "unknown mux 'nope'"},
      {{"access", "example:fig1", "nope"}, "unknown instrument 'nope'"},
      {{"diagnose", "example:fig1"}, "diagnose requires --fault"},
  };
  for (const auto& [args, message] : cases) {
    std::string err;
    EXPECT_EQ(runTool(args, false, nullptr, &err), 1) << message;
    EXPECT_NE(err.find("error: " + message), std::string::npos) << err;
    EXPECT_EQ(err.find("check failed"), std::string::npos) << err;
  }
}

TEST(ToolRegression, FlagsASubcommandDoesNotReadAreUsageErrors) {
  EXPECT_EQ(runTool({"info", "example:fig1", "--pairs", "--generations", "5"}),
            2);
  EXPECT_EQ(runTool({"lint", "example:fig1", "--top", "3"}), 2);
  EXPECT_EQ(runTool({"certify", "example:fig1", "--seed", "9", "--transient"}),
            2);
  EXPECT_EQ(runTool({"campaign", "example:fig1", "--pairs", "--sample", "4"}),
            0);
}

TEST(ToolRegression, BenchmarkNamesResolveInEverySubcommand) {
  EXPECT_EQ(runTool({"certify", "MBIST_1_5_5"}), 0);
  EXPECT_EQ(runTool({"info", "TreeFlat"}), 0);
  EXPECT_EQ(runTool({"analyze", "no_such_design"}), 1);
  // Parsing q12710's generated text renumbers its segments; a name
  // resolves through that text, as the checked-in netlist was written.
  std::string byName, byFile;
  EXPECT_EQ(runTool({"analyze", "q12710", "--top", "6"}, false, &byName), 0);
  EXPECT_EQ(runTool({"analyze", RRSN_EXAMPLES_DIR "/q12710.rsn", "--top", "6"},
                    false, &byFile),
            0);
  EXPECT_FALSE(byName.empty());
  EXPECT_EQ(byName, byFile);
}

// ------------------------------------ bugfix regression: checkpoints

TEST(CheckpointRegression, SaveFailureIsTypedStatusNotSilentSuccess) {
  campaign::CampaignResult result;
  // Parent directory does not exist: the staged tmp file cannot even be
  // created.  Pre-fix this returned void with the stream error ignored.
  const Status st = campaign::saveCheckpoint(
      "/nonexistent-dir-for-rrsn-test/checkpoint.json", 42, result);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.toString();

  // And the success path still round-trips.
  const fs::path ok =
      fs::temp_directory_path() / "rrsn_serve_checkpoint_ok.json";
  fs::remove(ok);
  const Status good = campaign::saveCheckpoint(ok.string(), 42, result);
  EXPECT_TRUE(good.ok()) << good.toString();
  EXPECT_TRUE(fs::exists(ok));
  EXPECT_FALSE(fs::exists(ok.string() + ".tmp"))
      << "staged tmp file must not linger after a successful rename";
  fs::remove(ok);
}

}  // namespace
}  // namespace rrsn::serve
