//===- tools/weaver_serve.cpp - Networked compile service daemon ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Long-running TCP daemon for the compile service: binds net::Server on
/// a port (0 picks an ephemeral one), prints
///
///     listening on <address>:<port>
///
/// once ready (tools/load_gen and the subprocess tests parse this line),
/// and serves the frame protocol until SIGTERM/SIGINT. Termination runs
/// the graceful drain: stop accepting, GOING_AWAY to clients, finish or
/// deadline-cancel in-flight jobs inside --drain-budget seconds, flush
/// every pending result, and persist the --cache-file snapshot.
///
///     weaver_serve [--port N] [--bind ADDR] [--threads N] [--queue N]
///                  [--cache-file PATH] [--drain-budget SECONDS]
///                  [--max-connections N] [--max-inflight N]
///                  [--faults SPEC]
///
/// WEAVER_FAULTS, or --faults SPEC in its place, installs a seeded
/// fault schedule in support/FaultInjection's grammar; the transport
/// consults net.kill, net.read.delay, net.read.truncate and
/// net.write.partial, e.g. "seed=7;net.write.partial:p=0.3;net.kill:p=0.02".
/// A malformed spec is a startup error.
///
//===----------------------------------------------------------------------===//

#include "ArgReader.h"
#include "net/Server.h"

#include "support/FaultInjection.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace weaver;

namespace {

volatile std::sig_atomic_t StopFlag = 0;
void onSignal(int) { StopFlag = 1; }

const char *Usage =
    "usage: weaver_serve [--port N] [--bind ADDR] [--threads N] "
    "[--queue N] [--cache-file PATH] [--drain-budget SECONDS] "
    "[--max-connections N] [--max-inflight N] [--faults SPEC]\n";

} // namespace

int main(int Argc, char **Argv) {
  if (Status S = fault::initGlobalFromEnv()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 1;
  }
  net::ServerOptions Options;
  Options.StopFlag = &StopFlag;
  std::string FaultSpec;
  if (const char *Env = std::getenv("WEAVER_FAULTS"))
    FaultSpec = Env;

  ArgReader Args(Argc, Argv, Usage);
  while (Args.next()) {
    const std::string &Arg = Args.arg();
    if (Arg == "--port")
      // 0 binds an ephemeral port (the subprocess tests rely on it).
      Options.Port = static_cast<uint16_t>(Args.intValue(0, 65535));
    else if (Arg == "--bind")
      Options.BindAddress = Args.value();
    else if (Arg == "--threads")
      // 0 selects hardware concurrency (the ServiceOptions default).
      Options.Service.NumThreads = static_cast<int>(Args.intValue(0, 512));
    else if (Arg == "--queue")
      Options.Service.QueueCapacity =
          static_cast<size_t>(Args.intValue(1, 1048576));
    else if (Arg == "--cache-file")
      Options.Service.CacheFile = Args.value();
    else if (Arg == "--drain-budget")
      Options.DrainBudgetSeconds = Args.doubleValue(0.0, 3600.0);
    else if (Arg == "--max-connections")
      Options.MaxConnections = static_cast<size_t>(Args.intValue(1, 65536));
    else if (Arg == "--max-inflight")
      Options.MaxInFlightPerConnection =
          static_cast<size_t>(Args.intValue(1, 65536));
    else if (Arg == "--faults") {
      FaultSpec = Args.value();
      if (Status S = fault::configureGlobal(FaultSpec)) {
        std::fprintf(stderr, "error: --faults: %s\n%s", S.message().c_str(),
                     Usage);
        return 1;
      }
    } else {
      std::fprintf(stderr, "%s", Usage);
      return Arg == "--help" ? 0 : 1;
    }
  }

  if (fault::enabled())
    std::fprintf(stderr, "fault injection enabled: %s\n", FaultSpec.c_str());

  struct sigaction Sa = {};
  Sa.sa_handler = onSignal;
  sigemptyset(&Sa.sa_mask);
  Sa.sa_flags = 0; // no SA_RESTART: poll returns EINTR and sees the flag
  sigaction(SIGTERM, &Sa, nullptr);
  sigaction(SIGINT, &Sa, nullptr);

  net::Server Server(Options);
  if (Status S = Server.start()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", Options.BindAddress.c_str(),
              static_cast<unsigned>(Server.port()));
  std::fflush(stdout);

  Status RunStatus = Server.run();

  net::TransportStats T = Server.transportStats();
  std::printf("drained: accepted=%llu frames_in=%llu results=%llu "
              "shed=%llu malformed=%llu slow_drops=%llu "
              "injected_kills=%llu\n",
              static_cast<unsigned long long>(T.Accepted),
              static_cast<unsigned long long>(T.FramesIn),
              static_cast<unsigned long long>(T.ResultsSent),
              static_cast<unsigned long long>(T.Shed),
              static_cast<unsigned long long>(T.MalformedFrames),
              static_cast<unsigned long long>(T.SlowClientDrops),
              static_cast<unsigned long long>(T.InjectedKills));
  std::printf("%s", Server.service().statsTable().render().c_str());
  std::fflush(stdout);
  if (RunStatus) {
    std::fprintf(stderr, "error: %s\n", RunStatus.message().c_str());
    return 1;
  }
  return 0;
}
