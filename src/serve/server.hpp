// Request dispatch core of the rrsn_serve analysis daemon.
//
// The daemon keeps one Server for its whole lifetime; the Server owns
// the content-addressed ArtifactCache (interned networks, flat arenas,
// lint reports, the reply of every analysis request) and the
// FlatStore disk tier, so repeated requests against the
// same design pay the parse/lower/analyze cost exactly once.
//
// Transports: serveStream() pumps one frame stream sequentially (the
// --stdio test mode and one socket connection); serveSocket() listens
// on a Unix socket and runs serveStream per connection on its own
// thread, so requests from different clients are concurrent.  The heavy
// analysis kernels inside each request additionally fan out on the
// shared support::parallel pool (RRSN_THREADS) — the daemon adds
// connection concurrency on top of, not instead of, data parallelism.
//
// handle() itself never throws: every failure becomes the protocol
// error envelope (UsageError -> INVALID_ARGUMENT, lint::LintError ->
// FAILED_PRECONDITION, expired campaign deadline -> DEADLINE_EXCEEDED,
// anything else -> INTERNAL), so one bad request can never take the
// daemon down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/cache.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

namespace rrsn::serve {

struct ServerOptions {
  /// ArtifactCache byte budget (0 = unbounded).
  std::size_t cacheBudgetBytes = 256u << 20;
  /// FlatStore directory for mmap-adopted arenas; empty disables the
  /// disk tier (every design lowers in-process once per daemon).
  std::string cacheDir;
  /// Deadline applied to campaign requests that do not pass their own
  /// `deadline_ms`.
  std::uint64_t defaultDeadlineMs = 30'000;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Dispatches one request envelope to its endpoint and returns the
  /// response envelope.  Thread-safe; never throws.
  ///
  /// Methods: ping, analyze, lint, harden, campaign, diagnose, certify,
  /// stats, shutdown.  Every analysis method takes the netlist
  /// text inline in params.netlist; numeric params accept JSON integers
  /// or decimal strings (strings go through the same parseUintBounded
  /// validator as the rrsn_tool command line).
  json::Value handle(const json::Value& request);

  /// Sequential frame loop over a byte stream: read request, handle,
  /// write response, until clean EOF, a transport error, or shutdown.
  /// `inFd`/`outFd` may be the same descriptor (socket) or a pipe pair
  /// (--stdio).  Unparseable request frames get an INVALID_ARGUMENT
  /// response with a null id (the stream stays up).
  Status serveStream(int inFd, int outFd);

  /// Unix-socket listener: binds `path` (replacing a stale socket
  /// file), accepts until shutdown, one serveStream thread per open
  /// connection (joined once its client hangs up).  Returns once every
  /// connection thread has drained.
  Status serveSocket(const std::string& path);

  /// Trips the stop flag: serveSocket stops accepting and serveStream
  /// loops exit after the in-flight response.  Also triggered by the
  /// shutdown method.
  void requestStop() { stop_.store(true, std::memory_order_release); }
  bool stopRequested() const { return stop_.load(std::memory_order_acquire); }

  /// Cache + store counters as a JSON object (the stats endpoint).
  json::Value statsJson() const;

 private:
  json::Value dispatch(const std::string& method, const json::Value& params);

  /// Parses (or recalls) the interned network for raw netlist text.
  struct NetworkEntry;
  std::shared_ptr<const NetworkEntry> internNetwork(const std::string& text);

  std::shared_ptr<const rsn::FlatNetwork> flatOf(const NetworkEntry& entry);

  ServerOptions options_;
  ArtifactCache cache_;
  FlatStore flatStore_;
  std::atomic<bool> stop_{false};
};

}  // namespace rrsn::serve
