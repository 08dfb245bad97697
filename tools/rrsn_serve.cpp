// rrsn_serve — long-running analysis daemon.
//
//   rrsn_serve --socket /tmp/rrsn.sock [--cache-dir DIR]
//              [--cache-bytes N] [--deadline-ms N] [--threads N]
//   rrsn_serve --stdio [...]
//
// Speaks the length-prefixed JSON protocol of serve/protocol.hpp.
// --stdio serves exactly one client over stdin/stdout (tests, shells,
// ssh tunnels); --socket accepts any number of concurrent clients on a
// Unix socket.  The process lives until a client sends {"method":
// "shutdown"} or SIGINT/SIGTERM arrives, so the content-addressed
// artifact cache — parsed networks, mmap-adopted flat arenas and
// analysis replies — amortizes across every request the daemon serves.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include <unistd.h>

#include "api/params.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace {

using rrsn::serve::Server;
using rrsn::serve::ServerOptions;

const char* usageText() {
  return
      "usage: rrsn_serve (--socket PATH | --stdio) [options]\n"
      "\n"
      "transport (exactly one):\n"
      "  --socket PATH     listen on a Unix socket, concurrent clients\n"
      "  --stdio           serve one client over stdin/stdout\n"
      "\n"
      "options:\n"
      "  --cache-dir DIR   disk tier for mmap-adopted flat arenas\n"
      "  --cache-bytes N   artifact cache budget in bytes (default 256 MiB,\n"
      "                    0 = unbounded)\n"
      "  --deadline-ms N   default campaign deadline (default 30000)\n"
      "  --threads N       analysis pool width (default: RRSN_THREADS)\n";
}

struct Options {
  std::string socketPath;
  bool stdio = false;
  ServerOptions server;
  std::uint64_t threads = 0;
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  auto next = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      throw rrsn::UsageError(std::string(flag) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      opt.socketPath = next(i, "--socket");
    } else if (arg == "--stdio") {
      opt.stdio = true;
    } else if (arg == "--cache-dir") {
      opt.server.cacheDir = next(i, "--cache-dir");
    } else if (arg == "--cache-bytes") {
      opt.server.cacheBudgetBytes = static_cast<std::size_t>(
          rrsn::parseUintBounded(next(i, "--cache-bytes"), "--cache-bytes", 0,
                                 std::uint64_t(1) << 40));
    } else if (arg == "--deadline-ms") {
      opt.server.defaultDeadlineMs =
          rrsn::api::fromArg(rrsn::api::kDeadlineMs, next(i, "--deadline-ms"));
    } else if (arg == "--threads") {
      opt.threads =
          rrsn::parseUintBounded(next(i, "--threads"), "--threads", 1, 256);
    } else {
      throw rrsn::UsageError("unknown option: " + arg);
    }
  }
  if (opt.stdio == !opt.socketPath.empty()) {
    throw rrsn::UsageError("pass exactly one of --socket PATH or --stdio");
  }
  return opt;
}

Server* gServer = nullptr;

void onSignal(int) {
  if (gServer != nullptr) gServer->requestStop();
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disconnects mid-response must surface as a Status on
  // the write path, never kill the daemon.
  rrsn::io::ignoreSigpipe();
  try {
    const Options opt = parseArgs(argc, argv);
    if (opt.threads != 0) {
      rrsn::setThreadCount(static_cast<std::size_t>(opt.threads));
    }
    rrsn::obs::enable();  // per-endpoint counters for the stats endpoint

    Server server(opt.server);
    gServer = &server;
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    rrsn::Status st;
    if (opt.stdio) {
      st = server.serveStream(STDIN_FILENO, STDOUT_FILENO);
    } else {
      std::cerr << "rrsn_serve: listening on " << opt.socketPath << '\n';
      st = server.serveSocket(opt.socketPath);
    }
    gServer = nullptr;
    if (!st.ok()) {
      std::cerr << "rrsn_serve: " << st.toString() << '\n';
      return 1;
    }
    return 0;
  } catch (const rrsn::UsageError& e) {
    std::cerr << "error: " << e.what() << '\n' << usageText();
    return 1;
  } catch (const rrsn::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
