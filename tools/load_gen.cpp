//===- tools/load_gen.cpp - Concurrent load generator for weaver_serve ----===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Drives a weaver_serve instance with many concurrent pipelined compile
/// requests and reports latency percentiles, throughput, and response-
/// code counts. With --verify, every OK response's wQASM is compared
/// byte-for-byte against a direct in-process compile of the same request
/// — the transport must never change compiler output, fault injection or
/// not.
///
///     load_gen --port N [--host ADDR] [--connections N] [--inflight N]
///              [--requests N] [--mix 20,50,75] [--deadline-ms N]
///              [--seed N] [--verify] [--expect-drain] [--json PATH]
///
/// Concurrency = connections * inflight requests pipelined per
/// connection; the default 16 x 64 sustains ~1000 in flight. Responses
/// shed with RETRYING_LATER are resubmitted after the server's suggested
/// backoff. A lost connection (e.g. the server's fault injector killed
/// it) is reconnected with backoff and its pending requests resubmitted,
/// so a fault-injection run still completes every request. With
/// --expect-drain the server is allowed to go away mid-test (SIGTERM
/// drain): the tool reports what resolved and exits 0. The process exits
/// non-zero on an unexpected transport error or any byte-identity
/// violation.
///
//===----------------------------------------------------------------------===//

#include "ArgReader.h"
#include "baselines/Backend.h"
#include "net/Client.h"
#include "sat/Generator.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <poll.h>
#include <string>
#include <vector>

using namespace weaver;

namespace {

using Clock = std::chrono::steady_clock;

struct GenConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  size_t Connections = 16;
  size_t InFlightPerConnection = 64;
  size_t TotalRequests = 2000;
  std::vector<int> Mix = {20, 50, 75};
  uint32_t DeadlineMs = 0;
  uint64_t Seed = 1;
  bool Verify = false;
  /// The server may drain away mid-test; partial completion is success.
  bool ExpectDrain = false;
  std::string JsonPath;
};

/// One request cycling through the SATLIB mix. Small index range so the
/// server's PassCache sees realistic template reuse.
net::CompileFrame makeRequest(const GenConfig &Config, uint64_t Sequence,
                              uint64_t RequestId) {
  net::CompileFrame F;
  F.RequestId = RequestId;
  F.NumVars = Config.Mix[Sequence % Config.Mix.size()];
  F.Index = 1 + static_cast<int32_t>((Sequence / Config.Mix.size()) % 20);
  F.DeadlineMs = Config.DeadlineMs;
  return F;
}

struct PendingRequest {
  uint64_t Sequence = 0;
  Clock::time_point SentAt;
};

struct ConnState {
  std::unique_ptr<net::Client> Client;
  std::map<uint64_t, PendingRequest> Pending; ///< request id -> send info
  uint64_t NextRequestId = 1;
};

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * (Sorted.size() - 1));
  return Sorted[Idx];
}

const char *Usage =
    "usage: load_gen --port N [--host ADDR] "
    "[--connections N] [--inflight N] [--requests N] "
    "[--mix 20,50,75] [--deadline-ms N] [--seed N] "
    "[--verify] [--expect-drain] [--json PATH]\n";

} // namespace

int main(int Argc, char **Argv) {
  GenConfig Config;
  ArgReader Args(Argc, Argv, Usage);
  while (Args.next()) {
    const std::string &Arg = Args.arg();
    if (Arg == "--port")
      Config.Port = static_cast<uint16_t>(Args.intValue(1, 65535));
    else if (Arg == "--host")
      Config.Host = Args.value();
    else if (Arg == "--connections")
      Config.Connections = static_cast<size_t>(Args.intValue(1, 4096));
    else if (Arg == "--inflight")
      Config.InFlightPerConnection =
          static_cast<size_t>(Args.intValue(1, 65536));
    else if (Arg == "--requests")
      Config.TotalRequests = static_cast<size_t>(Args.intValue(1, 100000000));
    else if (Arg == "--mix") {
      // A typo'd mix must fail loudly: a silently-zero entry would skew
      // every latency number the tool exists to measure.
      Config.Mix.clear();
      std::string MixSpec = Args.value();
      for (std::string_view Tok : split(MixSpec, ',', /*KeepEmpty=*/true))
        Config.Mix.push_back(static_cast<int>(
            Args.checked("--mix entry", parseInt(Tok, 1, 1000))));
      if (Config.Mix.empty()) {
        std::fprintf(stderr, "error: --mix: empty size list\n%s", Usage);
        return 1;
      }
    } else if (Arg == "--deadline-ms")
      Config.DeadlineMs = static_cast<uint32_t>(Args.intValue(0, 3600000));
    else if (Arg == "--seed")
      Config.Seed = static_cast<uint64_t>(Args.intValue(0, (1LL << 62)));
    else if (Arg == "--verify")
      Config.Verify = true;
    else if (Arg == "--expect-drain")
      Config.ExpectDrain = true;
    else if (Arg == "--json")
      Config.JsonPath = Args.value();
    else {
      std::fprintf(stderr, "%s", Usage);
      return Arg == "--help" ? 0 : 1;
    }
  }
  if (Config.Port == 0) {
    std::fprintf(stderr, "error: --port is required\n");
    return 1;
  }

  // Direct-compile references for --verify, computed lazily per distinct
  // (nvars, index) since the QAOA parameters never vary here.
  std::unique_ptr<baselines::Backend> Direct =
      baselines::createBackend(baselines::BackendKind::Weaver);
  std::map<std::pair<int, int>, std::string> References;
  auto referenceFor = [&](const net::CompileFrame &F) -> const std::string & {
    auto Key = std::make_pair(F.NumVars, F.Index);
    auto It = References.find(Key);
    if (It == References.end()) {
      qaoa::QaoaParams Qaoa;
      Qaoa.Gamma = F.Gamma;
      Qaoa.Beta = F.Beta;
      Qaoa.Layers = F.Layers;
      baselines::CompileOutput Ref = Direct->compileFull(
          sat::satlibInstance(F.NumVars, F.Index), Qaoa);
      It = References.emplace(Key, std::move(Ref.Wqasm)).first;
    }
    return It->second;
  };

  // -- Connect -------------------------------------------------------------
  std::vector<ConnState> Conns(Config.Connections);
  for (size_t I = 0; I < Conns.size(); ++I) {
    net::ClientOptions CO;
    CO.Host = Config.Host;
    CO.Port = Config.Port;
    CO.Seed = Config.Seed * 1000003 + I;
    Conns[I].Client = std::make_unique<net::Client>(CO);
    if (Status S = Conns[I].Client->connect()) {
      std::fprintf(stderr, "error: connection %zu: %s\n", I,
                   S.message().c_str());
      return 1;
    }
  }

  // -- Drive ---------------------------------------------------------------
  uint64_t NextSequence = 0;
  std::vector<uint64_t> Resubmit; ///< sequences shed with RETRYING_LATER
  size_t Outstanding = 0, Done = 0;
  size_t OkCount = 0, FailedCount = 0, CancelledCount = 0, DeadlineCount = 0,
         ShedCount = 0, GoingAwayCount = 0, VerifyChecked = 0,
         VerifyMismatches = 0, ConnectionLosses = 0;
  uint64_t PeakInFlight = 0;
  std::vector<double> LatenciesMs;
  LatenciesMs.reserve(Config.TotalRequests);
  Xoshiro256 Rng(Config.Seed);
  Clock::time_point Start = Clock::now();

  auto issuedAll = [&]() {
    return NextSequence >= Config.TotalRequests && Resubmit.empty();
  };

  // A lost connection returns its pending work to the resubmit queue and
  // reconnects (jittered backoff inside Client::connect). During an
  // expected drain the reconnect is skipped: the server is leaving.
  // Returns false when the loss is fatal to the whole run.
  auto recoverConnection = [&](ConnState &Conn) {
    ++ConnectionLosses;
    for (auto &Entry : Conn.Pending) {
      Resubmit.push_back(Entry.second.Sequence);
      --Outstanding;
    }
    Conn.Pending.clear();
    Conn.Client->close();
    if (Config.ExpectDrain)
      return true; // stay down; the drain check below ends the run
    if (Status S = Conn.Client->connect()) {
      std::fprintf(stderr, "error: reconnect failed: %s\n",
                   S.message().c_str());
      return false;
    }
    return true;
  };
  bool DrainedAway = false;

  while (Done < Config.TotalRequests) {
    // Top every connection up to its pipelined in-flight target.
    for (ConnState &Conn : Conns) {
      while (Conn.Client->connected() &&
             Conn.Pending.size() < Config.InFlightPerConnection &&
             !issuedAll()) {
        uint64_t Sequence;
        if (!Resubmit.empty()) {
          Sequence = Resubmit.back();
          Resubmit.pop_back();
        } else if (NextSequence < Config.TotalRequests) {
          Sequence = NextSequence++;
        } else {
          break;
        }
        uint64_t RequestId = Conn.NextRequestId++;
        net::CompileFrame F = makeRequest(Config, Sequence, RequestId);
        if (Status S = Conn.Client->sendBytes(net::encodeCompile(F))) {
          Resubmit.push_back(Sequence);
          if (!recoverConnection(Conn))
            return 1;
          break;
        }
        Conn.Pending[RequestId] = {Sequence, Clock::now()};
        ++Outstanding;
      }
    }
    PeakInFlight = std::max(PeakInFlight, static_cast<uint64_t>(Outstanding));

    // Wait for any socket to become readable.
    std::vector<pollfd> Fds;
    for (ConnState &Conn : Conns)
      if (Conn.Client->connected())
        Fds.push_back({Conn.Client->fd(), POLLIN, 0});
    if (Fds.empty()) {
      if (Config.ExpectDrain) {
        DrainedAway = true;
        break; // the server went away, as the caller said it would
      }
      std::fprintf(stderr, "error: all connections lost with %zu/%zu done\n",
                   Done, Config.TotalRequests);
      return 1;
    }
    ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), 200);

    // Drain every complete frame from every connection.
    for (ConnState &Conn : Conns) {
      if (!Conn.Client->connected())
        continue;
      net::Frame F;
      while (Conn.Client->tryReadFrame(F)) {
        if (F.Type != net::FrameType::Result)
          continue; // pongs / going-away notices
        auto R = net::decodeResult(F.Payload);
        if (!R) {
          std::fprintf(stderr, "error: bad result frame: %s\n",
                       R.message().c_str());
          return 1;
        }
        auto It = Conn.Pending.find(R->RequestId);
        if (It == Conn.Pending.end())
          continue;
        PendingRequest Sent = It->second;
        Conn.Pending.erase(It);
        --Outstanding;
        if (R->Code == net::ResponseCode::RetryLater) {
          ++ShedCount;
          Resubmit.push_back(Sent.Sequence);
          continue;
        }
        double Ms = std::chrono::duration<double>(Clock::now() - Sent.SentAt)
                        .count() *
                    1e3;
        LatenciesMs.push_back(Ms);
        ++Done;
        switch (R->Code) {
        case net::ResponseCode::Ok: {
          ++OkCount;
          if (Config.Verify) {
            net::CompileFrame Req = makeRequest(Config, Sent.Sequence, 0);
            ++VerifyChecked;
            if (R->Wqasm != referenceFor(Req)) {
              ++VerifyMismatches;
              std::fprintf(stderr,
                           "error: wQASM mismatch for uf%d-%d (seq %llu)\n",
                           Req.NumVars, Req.Index,
                           static_cast<unsigned long long>(Sent.Sequence));
            }
          }
          break;
        }
        case net::ResponseCode::DeadlineExceeded:
          ++DeadlineCount;
          break;
        case net::ResponseCode::Cancelled:
          ++CancelledCount;
          break;
        case net::ResponseCode::GoingAway:
          ++GoingAwayCount;
          break;
        default:
          ++FailedCount;
          std::fprintf(stderr, "request failed: %s\n",
                       R->Diagnostic.c_str());
          break;
        }
      }
      // tryReadFrame closes the client on EOF/error; recover it.
      if (!Conn.Client->connected() && !recoverConnection(Conn))
        return 1;
    }
  }
  double WallSeconds =
      std::chrono::duration<double>(Clock::now() - Start).count();

  // -- Report --------------------------------------------------------------
  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  double P50 = percentile(LatenciesMs, 0.50);
  double P95 = percentile(LatenciesMs, 0.95);
  double P99 = percentile(LatenciesMs, 0.99);
  std::printf("%zu requests in %.2f s (%.0f req/s), peak in-flight %llu\n",
              Done, WallSeconds, Done / WallSeconds,
              static_cast<unsigned long long>(PeakInFlight));
  std::printf("latency ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f\n", P50, P95,
              P99, LatenciesMs.empty() ? 0 : LatenciesMs.back());
  std::printf("codes: ok=%zu deadline=%zu cancelled=%zu going_away=%zu "
              "failed=%zu shed_retries=%zu conn_losses=%zu\n",
              OkCount, DeadlineCount, CancelledCount, GoingAwayCount,
              FailedCount, ShedCount, ConnectionLosses);
  if (DrainedAway)
    std::printf("server drained away with %zu/%zu requests resolved\n", Done,
                Config.TotalRequests);
  if (Config.Verify)
    std::printf("byte-identity: %zu/%zu identical%s\n",
                VerifyChecked - VerifyMismatches, VerifyChecked,
                VerifyMismatches ? "  [MISMATCH]" : "");

  if (!Config.JsonPath.empty()) {
    std::ofstream Out(Config.JsonPath);
    Out << "{\n"
        << "  \"requests\": " << Done << ",\n"
        << "  \"wall_seconds\": " << WallSeconds << ",\n"
        << "  \"requests_per_second\": " << (Done / WallSeconds) << ",\n"
        << "  \"peak_in_flight\": " << PeakInFlight << ",\n"
        << "  \"p50_ms\": " << P50 << ",\n"
        << "  \"p95_ms\": " << P95 << ",\n"
        << "  \"p99_ms\": " << P99 << ",\n"
        << "  \"ok\": " << OkCount << ",\n"
        << "  \"shed_retries\": " << ShedCount << ",\n"
        << "  \"verify_checked\": " << VerifyChecked << ",\n"
        << "  \"verify_mismatches\": " << VerifyMismatches << "\n"
        << "}\n";
  }

  if (VerifyMismatches > 0 || FailedCount > 0)
    return 1;
  return 0;
}
