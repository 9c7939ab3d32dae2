//===- tests/net_test.cpp - Socket transport tests ------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The transport contract: every frame codec round-trips and rejects
/// hostile payloads (truncated, trailing bytes, out-of-range fields);
/// FrameParser reassembles byte-dribbled streams and poisons on corrupt
/// length prefixes; and an in-process net::Server enforces deadlines,
/// admission shedding, per-connection caps, slow-client disconnects,
/// cancellation, graceful drain, and byte-identity of served wQASM vs a
/// direct compile — including under seeded fault injection. The SIGTERM
/// subprocess drain (exactly-once resolution plus a loadable cache
/// snapshot), the WEAVER_FAULTS start-up contract, and argv validation
/// run against the real weaver_serve binary.
///
//===----------------------------------------------------------------------===//

#include "baselines/Backend.h"
#include "core/pipeline/PassCache.h"
#include "net/Client.h"
#include "net/Server.h"
#include "sat/Dimacs.h"
#include "sat/Generator.h"
#include "support/BinaryIO.h"
#include "support/FaultInjection.h"

#include "TestPaths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace weaver;
using namespace weaver::net;

namespace {

/// Wait bound for anything asynchronous; far above any real compile so a
/// hit means a lost wakeup or deadlock, not a slow machine.
constexpr double WaitSeconds = 120.0;

CompileFrame satlibRequest(uint64_t Id, int Vars = 20, int Index = 1) {
  CompileFrame F;
  F.RequestId = Id;
  F.NumVars = Vars;
  F.Index = Index;
  return F;
}

/// Direct (no service, no cache) compile of the same satlib instance a
/// request names — the byte-identity reference.
std::string directWqasm(int Vars, int Index) {
  baselines::WeaverBackend Direct;
  return Direct
      .compileFull(sat::satlibInstance(Vars, Index), qaoa::QaoaParams())
      .Wqasm;
}

/// An in-process server on an ephemeral port, its poll loop on a
/// background thread. Destruction requests a drain and joins.
class TestServer {
public:
  explicit TestServer(ServerOptions Options = ServerOptions()) {
    Options.Port = 0;
    Server.emplace(Options);
    Status S = Server->start();
    EXPECT_FALSE(S) << S.message();
    Loop = std::thread([this]() { RunStatus = Server->run(); });
  }
  ~TestServer() { stop(); }

  void stop() {
    if (!Loop.joinable())
      return;
    Server->requestStop();
    Loop.join();
    EXPECT_FALSE(RunStatus) << RunStatus.message();
  }

  uint16_t port() const { return Server->port(); }
  net::Server &operator*() { return *Server; }
  net::Server *operator->() { return &*Server; }

private:
  std::optional<net::Server> Server;
  std::thread Loop;
  Status RunStatus;
};

Client makeClient(const TestServer &S, uint64_t Seed = 1) {
  ClientOptions Opt;
  Opt.Port = S.port();
  Opt.Seed = Seed;
  return Client(Opt);
}

} // namespace

// --- Frame codec round-trips ---------------------------------------------

TEST(NetProtocol, CompileFrameRoundTripsSatlib) {
  CompileFrame F;
  F.RequestId = 0xDEADBEEFCAFEF00DULL;
  F.Kind = baselines::BackendKind::Atomique;
  F.Priority = -42;
  F.DeadlineMs = 1500;
  F.Gamma = 1.25;
  F.Beta = -0.75;
  F.Layers = 3;
  F.Measure = true;
  F.Compressed = true;
  F.NumVars = 75;
  F.Index = 17;

  std::string Bytes = encodeCompile(F);
  FrameParser P(MaxRequestFrameBytes);
  ASSERT_TRUE(P.feed(Bytes.data(), Bytes.size()));
  Frame Out;
  ASSERT_TRUE(P.next(Out));
  EXPECT_EQ(Out.Type, FrameType::CompileRequest);

  auto D = decodeCompile(Out.Payload);
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(D->RequestId, F.RequestId);
  EXPECT_EQ(D->Kind, F.Kind);
  EXPECT_EQ(D->Priority, F.Priority);
  EXPECT_EQ(D->DeadlineMs, F.DeadlineMs);
  EXPECT_EQ(D->Gamma, F.Gamma);
  EXPECT_EQ(D->Beta, F.Beta);
  EXPECT_EQ(D->Layers, F.Layers);
  EXPECT_TRUE(D->Measure);
  EXPECT_TRUE(D->Compressed);
  EXPECT_EQ(D->Source, FormulaSource::Satlib);
  EXPECT_EQ(D->NumVars, F.NumVars);
  EXPECT_EQ(D->Index, F.Index);
}

TEST(NetProtocol, CompileFrameRoundTripsDimacs) {
  CompileFrame F;
  F.RequestId = 7;
  F.Source = FormulaSource::Dimacs;
  F.Dimacs = sat::printDimacs(sat::satlibInstance(20, 2));

  std::string Bytes = encodeCompile(F);
  Frame Out;
  FrameParser P(MaxRequestFrameBytes);
  ASSERT_TRUE(P.feed(Bytes.data(), Bytes.size()));
  ASSERT_TRUE(P.next(Out));
  auto D = decodeCompile(Out.Payload);
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(D->Source, FormulaSource::Dimacs);
  EXPECT_EQ(D->Dimacs, F.Dimacs);
}

TEST(NetProtocol, ResultFrameRoundTrips) {
  ResultFrame R;
  R.RequestId = 99;
  R.Code = ResponseCode::RetryLater;
  R.BackoffMs = 250;
  R.QueueSeconds = 0.5;
  R.CompileSeconds = 1.5;
  R.CacheTier = 2;
  R.Pulses = 123456789;
  R.Diagnostic = "queue full";
  R.Wqasm = std::string("pulse data \0 with NUL", 21);

  std::string Bytes = encodeResult(R);
  Frame Out;
  FrameParser P(MaxResponseFrameBytes);
  ASSERT_TRUE(P.feed(Bytes.data(), Bytes.size()));
  ASSERT_TRUE(P.next(Out));
  EXPECT_EQ(Out.Type, FrameType::Result);
  auto D = decodeResult(Out.Payload);
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(D->RequestId, R.RequestId);
  EXPECT_EQ(D->Code, ResponseCode::RetryLater);
  EXPECT_EQ(D->BackoffMs, 250u);
  EXPECT_EQ(D->Pulses, R.Pulses);
  EXPECT_EQ(D->Diagnostic, R.Diagnostic);
  EXPECT_EQ(D->Wqasm, R.Wqasm);
}

TEST(NetProtocol, StatsCancelErrorGoingAwayRoundTrip) {
  StatsFrame S;
  S.Counters = {{"accepted", 5}, {"shed", 2}};
  S.Text = "table";
  auto SD = decodeStats(std::string_view(encodeStats(S))
                            .substr(FrameHeaderBytes));
  ASSERT_TRUE(SD.ok()) << SD.message();
  EXPECT_EQ(SD->counter("accepted"), 5u);
  EXPECT_EQ(SD->counter("shed"), 2u);
  EXPECT_EQ(SD->counter("missing"), 0u);
  EXPECT_EQ(SD->Text, "table");

  CancelFrame C;
  C.RequestId = 31337;
  auto CD = decodeCancel(std::string_view(encodeCancel(C))
                             .substr(FrameHeaderBytes));
  ASSERT_TRUE(CD.ok()) << CD.message();
  EXPECT_EQ(CD->RequestId, 31337u);

  ErrorFrame E;
  E.Code = ResponseCode::Malformed;
  E.Message = "bad frame";
  auto ED = decodeError(std::string_view(encodeError(E))
                            .substr(FrameHeaderBytes));
  ASSERT_TRUE(ED.ok()) << ED.message();
  EXPECT_EQ(ED->Code, ResponseCode::Malformed);
  EXPECT_EQ(ED->Message, "bad frame");

  auto GD = decodeGoingAway(
      std::string_view(encodeGoingAway("draining")).substr(FrameHeaderBytes));
  ASSERT_TRUE(GD.ok()) << GD.message();
  EXPECT_EQ(*GD, "draining");
}

// --- Hostile payloads -----------------------------------------------------

TEST(NetProtocol, EncodingsAreByteIdenticalToRecordedFrames) {
  // Length and FNV-1a of fixed encodings, recorded when frames were still
  // assembled by copying a finished payload behind a separate header.
  // Writing the payload straight into the frame must not move a byte.
  auto Fingerprint = [](const std::string &Frame) {
    return std::make_pair(Frame.size(), fnv1a64(Frame.data(), Frame.size()));
  };
  ResultFrame R;
  R.RequestId = 42;
  R.Code = ResponseCode::Ok;
  R.BackoffMs = 7;
  R.QueueSeconds = 0.25;
  R.CompileSeconds = 1.5;
  R.CacheTier = 2;
  R.Pulses = 1234;
  R.Diagnostic = "diag";
  R.Wqasm = "OPENQASM 3.0;\nqubit[2] q;\nh q[0];\n";
  EXPECT_EQ(Fingerprint(encodeResult(R)),
            std::make_pair(size_t{97}, uint64_t{0x646321fe877d00acULL}));
  CompileFrame C;
  C.RequestId = 9;
  C.Priority = -3;
  C.DeadlineMs = 500;
  C.Gamma = 0.7;
  C.Beta = 0.3;
  C.Layers = 2;
  C.Measure = true;
  C.Compressed = true;
  C.Source = FormulaSource::Dimacs;
  C.Dimacs = "p cnf 3 1\n1 -2 3 0\n";
  EXPECT_EQ(Fingerprint(encodeCompile(C)),
            std::make_pair(size_t{80}, uint64_t{0x116de670dd83350bULL}));
  StatsFrame S;
  S.Counters = {{"submitted", 5}, {"completed", 4}};
  S.Text = "table\n";
  EXPECT_EQ(Fingerprint(encodeStats(S)),
            std::make_pair(size_t{77}, uint64_t{0xbf9d6f16b8f2e005ULL}));
}

TEST(NetProtocol, DecodeRejectsTruncatedAndOversuppliedPayloads) {
  std::string Bytes = encodeCompile(satlibRequest(1));
  std::string Payload = Bytes.substr(FrameHeaderBytes);

  // Every proper prefix must fail cleanly, never crash or misparse.
  for (size_t Len = 0; Len < Payload.size(); ++Len)
    EXPECT_FALSE(decodeCompile(std::string_view(Payload.data(), Len)).ok())
        << "prefix of " << Len << " bytes decoded";

  // Trailing garbage is an error too: a frame is exactly one request.
  EXPECT_FALSE(decodeCompile(Payload + "x").ok());
  EXPECT_FALSE(decodeResult(std::string_view("\x01", 1)).ok());
  EXPECT_FALSE(decodeCancel(std::string_view()).ok());
  EXPECT_FALSE(decodeStats(std::string_view("\xff\xff\xff\xff", 4)).ok());
}

TEST(NetProtocol, DecodeRejectsOutOfRangeFields) {
  auto Corrupt = [](CompileFrame F) {
    std::string Bytes = encodeCompile(F);
    return decodeCompile(
        std::string_view(Bytes).substr(FrameHeaderBytes));
  };

  CompileFrame F = satlibRequest(1);
  F.NumVars = static_cast<int32_t>(MaxRequestVars) + 1;
  EXPECT_FALSE(Corrupt(F).ok());
  F = satlibRequest(1);
  F.NumVars = 0;
  EXPECT_FALSE(Corrupt(F).ok());
  F = satlibRequest(1);
  F.Index = 0; // satlib indices are 1-based
  EXPECT_FALSE(Corrupt(F).ok());
  F = satlibRequest(1);
  F.Layers = 0;
  EXPECT_FALSE(Corrupt(F).ok());
  F = satlibRequest(1);
  F.Layers = static_cast<int32_t>(MaxRequestLayers) + 1;
  EXPECT_FALSE(Corrupt(F).ok());
  F = satlibRequest(1);
  F.Gamma = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(Corrupt(F).ok());
  F = satlibRequest(1);
  F.Beta = std::nan("");
  EXPECT_FALSE(Corrupt(F).ok());
  F = satlibRequest(1);
  F.Priority = static_cast<int32_t>(MaxRequestPriority) + 1;
  EXPECT_FALSE(Corrupt(F).ok());
}

// --- FrameParser ----------------------------------------------------------

TEST(NetFrameParser, ReassemblesByteDribbledStream) {
  std::string Stream = encodeCompile(satlibRequest(1)) + encodePing() +
                       encodeCancel(CancelFrame{2});
  FrameParser P(MaxRequestFrameBytes);
  std::vector<FrameType> Seen;
  Frame F;
  for (char C : Stream) {
    ASSERT_TRUE(P.feed(&C, 1));
    while (P.next(F))
      Seen.push_back(F.Type);
  }
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_EQ(Seen[0], FrameType::CompileRequest);
  EXPECT_EQ(Seen[1], FrameType::Ping);
  EXPECT_EQ(Seen[2], FrameType::CancelRequest);
  EXPECT_EQ(P.pendingBytes(), 0u);
  EXPECT_FALSE(P.poisoned());
}

TEST(NetFrameParser, PoisonsOnOversizedAndZeroLengthPrefixes) {
  // Length 0xFFFFFFFF: a hostile allocation request.
  FrameParser P(MaxRequestFrameBytes);
  std::string Huge("\xff\xff\xff\xff", 4);
  EXPECT_FALSE(P.feed(Huge.data(), Huge.size()));
  EXPECT_TRUE(P.poisoned());
  Frame F;
  EXPECT_FALSE(P.next(F));
  // Once poisoned, further feeds stay rejected.
  EXPECT_FALSE(P.feed("x", 1));

  // Length 0: cannot even hold the type byte; framing is lost.
  FrameParser Z(MaxRequestFrameBytes);
  std::string Zero("\x00\x00\x00\x00", 4);
  EXPECT_FALSE(Z.feed(Zero.data(), Zero.size()));
  EXPECT_TRUE(Z.poisoned());
}

TEST(NetFrameParser, PartialFrameStaysPending) {
  std::string Bytes = encodeCompile(satlibRequest(1));
  FrameParser P(MaxRequestFrameBytes);
  ASSERT_TRUE(P.feed(Bytes.data(), Bytes.size() - 1));
  Frame F;
  EXPECT_FALSE(P.next(F));
  EXPECT_GT(P.pendingBytes(), 0u);
  ASSERT_TRUE(P.feed(Bytes.data() + Bytes.size() - 1, 1));
  EXPECT_TRUE(P.next(F));
  EXPECT_EQ(P.pendingBytes(), 0u);
}

// --- In-process server: happy path and byte identity ----------------------

TEST(NetServer, CompileRoundTripIsByteIdenticalToDirect) {
  TestServer S;
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  auto R = C.compileSync(satlibRequest(1, 20, 1));
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->Code, ResponseCode::Ok) << R->Diagnostic;
  EXPECT_GT(R->Pulses, 0u);
  EXPECT_EQ(R->Wqasm, directWqasm(20, 1));

  // The same formula shipped as DIMACS text must compile to the same
  // bytes: the two formula sources converge before the pipeline.
  CompileFrame D;
  D.RequestId = 2;
  D.Source = FormulaSource::Dimacs;
  D.Dimacs = sat::printDimacs(sat::satlibInstance(20, 1));
  auto RD = C.compileSync(D);
  ASSERT_TRUE(RD.ok()) << RD.message();
  EXPECT_EQ(RD->Code, ResponseCode::Ok) << RD->Diagnostic;
  EXPECT_EQ(RD->Wqasm, R->Wqasm);
}

TEST(NetServer, PingStatsAndMalformedDimacs) {
  // Warm-start the service from a snapshot so the Stats frame has a
  // non-zero cache_entries_loaded to report.
  std::string CacheFile = testTempDir() + "/warm.bin";
  core::pipeline::PassCache Warm;
  core::WeaverOptions WarmOpt;
  WarmOpt.Cache = &Warm;
  ASSERT_TRUE(core::compileWeaver(sat::satlibInstance(20, 2), WarmOpt).ok());
  ASSERT_FALSE(Warm.saveSnapshot(CacheFile));
  ASSERT_GT(Warm.size(), 0u);
  ServerOptions Opt;
  Opt.Service.CacheFile = CacheFile;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  ASSERT_FALSE(C.sendPing());
  auto Pong = C.readFrame(WaitSeconds);
  ASSERT_TRUE(Pong.ok()) << Pong.message();
  EXPECT_EQ(Pong->Type, FrameType::Pong);

  // A request with an unparseable formula fails that request only; the
  // connection (and the next request on it) survives.
  CompileFrame Bad;
  Bad.RequestId = 5;
  Bad.Source = FormulaSource::Dimacs;
  Bad.Dimacs = "p cnf 3 1\n1 2 999999999999999999 0\n";
  auto RB = C.compileSync(Bad);
  ASSERT_TRUE(RB.ok()) << RB.message();
  EXPECT_EQ(RB->Code, ResponseCode::Failed);
  EXPECT_FALSE(RB->Diagnostic.empty());
  // INT_MIN, whose magnitude does not fit an int, fails the same way.
  Bad.RequestId = 7;
  Bad.Dimacs = "p cnf 3 1\n-2147483648 0\n";
  RB = C.compileSync(Bad);
  ASSERT_TRUE(RB.ok()) << RB.message();
  EXPECT_EQ(RB->Code, ResponseCode::Failed);
  EXPECT_FALSE(RB->Diagnostic.empty());

  auto R = C.compileSync(satlibRequest(6));
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->Code, ResponseCode::Ok) << R->Diagnostic;

  auto Stats = C.stats();
  ASSERT_TRUE(Stats.ok()) << Stats.message();
  EXPECT_GE(Stats->counter("accepted"), 1u);
  EXPECT_GE(Stats->counter("results_sent"), 2u);
  // Only the valid request reached the service; the bad DIMACS failed
  // at the transport's parse step.
  EXPECT_GE(Stats->counter("completed"), 1u);
  // Every ServiceStats counter the text table shows has a pair too.
  EXPECT_EQ(Stats->counter("cache_entries_loaded"), Warm.size());
  EXPECT_TRUE(std::any_of(
      Stats->Counters.begin(), Stats->Counters.end(),
      [](const auto &Pair) { return Pair.first == "watchdog_timeouts"; }));
  EXPECT_FALSE(Stats->Text.empty());
}

// --- In-process server: hostile clients -----------------------------------

TEST(NetServer, MalformedFrameGetsErrorThenDisconnect) {
  TestServer S;
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  // Well-framed but semantically hostile: NumVars beyond the cap.
  CompileFrame F = satlibRequest(1);
  F.NumVars = static_cast<int32_t>(MaxRequestVars) + 1;
  ASSERT_FALSE(C.sendBytes(encodeCompile(F)));

  auto E = C.readFrame(WaitSeconds);
  ASSERT_TRUE(E.ok()) << E.message();
  ASSERT_EQ(E->Type, FrameType::Error);
  auto D = decodeError(E->Payload);
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(D->Code, ResponseCode::Malformed);

  // The server closes after a malformed frame: framing past it is not
  // trustworthy.
  auto Next = C.readFrame(WaitSeconds);
  EXPECT_FALSE(Next.ok());
  EXPECT_FALSE(C.connected());
}

TEST(NetServer, PoisonedStreamDisconnectsWithoutResponse) {
  TestServer S;
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  // A length prefix claiming 256 MiB: alignment is unrecoverable.
  ASSERT_FALSE(C.sendBytes(std::string("\x00\x00\x00\x10", 4) +
                           std::string(64, 'x')));
  auto R = C.readFrame(10.0);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(C.connected());
}

TEST(NetServer, DuplicateRequestIdIsAProtocolError) {
  ServerOptions Opt;
  Opt.Service.NumThreads = 1;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  // Pin the worker so the first id=1 is still in flight when the second
  // id=1 arrives.
  CompileFrame Pin = satlibRequest(1, 150, 1);
  ASSERT_FALSE(C.sendCompile(Pin));
  ASSERT_FALSE(C.sendCompile(satlibRequest(1, 20, 1)));

  // The duplicate is answered with an Error frame and a disconnect; the
  // original may or may not complete first depending on timing.
  bool SawError = false;
  while (true) {
    auto F = C.readFrame(WaitSeconds);
    if (!F.ok())
      break;
    if (F->Type == FrameType::Error) {
      auto D = decodeError(F->Payload);
      ASSERT_TRUE(D.ok()) << D.message();
      EXPECT_EQ(D->Code, ResponseCode::Malformed);
      SawError = true;
    }
  }
  EXPECT_TRUE(SawError);
}

// --- In-process server: deadlines, shedding, caps, cancel ----------------

TEST(NetServer, DeadlineExpiresQueuedRequest) {
  ServerOptions Opt;
  Opt.Service.NumThreads = 1;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  // Pin the single worker with a large compile, then queue a request
  // whose deadline lapses long before the worker frees up.
  CompileFrame Pin = satlibRequest(1, 150, 1);
  ASSERT_FALSE(C.sendCompile(Pin));
  CompileFrame Doomed = satlibRequest(2, 20, 1);
  Doomed.DeadlineMs = 1;
  ASSERT_FALSE(C.sendCompile(Doomed));

  std::map<uint64_t, ResponseCode> Codes;
  while (Codes.size() < 2) {
    auto F = C.readFrame(WaitSeconds);
    ASSERT_TRUE(F.ok()) << F.message();
    if (F->Type != FrameType::Result)
      continue;
    auto R = decodeResult(F->Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_TRUE(Codes.emplace(R->RequestId, R->Code).second)
        << "request " << R->RequestId << " resolved twice";
  }
  EXPECT_EQ(Codes[1], ResponseCode::Ok);
  EXPECT_EQ(Codes[2], ResponseCode::DeadlineExceeded);
}

TEST(NetServer, FullQueueShedsWithBackoffHint) {
  ServerOptions Opt;
  Opt.Service.NumThreads = 1;
  Opt.Service.QueueCapacity = 1;
  Opt.MaxInFlightPerConnection = 64;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  // Worker pinned + queue capacity 1: the first request runs, the second
  // occupies the queue, and everything after is shed with RETRYING_LATER.
  ASSERT_FALSE(C.sendCompile(satlibRequest(1, 150, 1)));
  for (uint64_t Id = 2; Id <= 8; ++Id)
    ASSERT_FALSE(C.sendCompile(satlibRequest(Id, 20, 1 + Id % 10)));

  size_t Shed = 0, Completed = 0;
  std::map<uint64_t, int> Resolutions;
  while (Shed + Completed < 8) {
    auto F = C.readFrame(WaitSeconds);
    TransportStats TS = (*S).transportStats();
    ASSERT_TRUE(F.ok()) << F.message() << " after " << Shed << " shed + "
                        << Completed << " completed; disconnected="
                        << TS.Disconnected << " slow=" << TS.SlowClientDrops
                        << " idle=" << TS.IdleDrops << " poisoned="
                        << TS.PoisonedStreams << " malformed="
                        << TS.MalformedFrames << " kills="
                        << TS.InjectedKills << " results=" << TS.ResultsSent
                        << " admitted=" << TS.RequestsAdmitted
                        << " accepted=" << TS.Accepted << " frames_in="
                        << TS.FramesIn << " goingaway=" << TS.GoingAwaySent;
    if (F->Type != FrameType::Result)
      continue;
    auto R = decodeResult(F->Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_EQ(++Resolutions[R->RequestId], 1);
    if (R->Code == ResponseCode::RetryLater) {
      ++Shed;
      EXPECT_GT(R->BackoffMs, 0u) << "shed response must carry a hint";
    } else {
      ASSERT_EQ(R->Code, ResponseCode::Ok) << R->Diagnostic;
      ++Completed;
    }
  }
  // The pinned job always completes; most of the burst is shed (whether
  // one more squeezes into the single queue slot before the worker
  // dequeues the blocker is a race either way).
  EXPECT_GE(Completed, 1u);
  EXPECT_GE(Shed, 5u);
  EXPECT_GE((*S).transportStats().Shed, Shed);

  // Shedding is advisory, not terminal: once the queue frees up, the
  // RETRYING_LATER backoff-and-resubmit loop must land the request.
  auto Retry = C.compileSync(satlibRequest(100, 20, 1));
  ASSERT_TRUE(Retry.ok()) << Retry.message();
  EXPECT_EQ(Retry->Code, ResponseCode::Ok) << Retry->Diagnostic;
}

TEST(NetServer, PerConnectionInFlightCapSheds) {
  ServerOptions Opt;
  Opt.Service.NumThreads = 1;
  Opt.Service.QueueCapacity = 256;
  Opt.MaxInFlightPerConnection = 2;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  // Worker pinned: requests 2..5 arrive while 1 is running. With a cap
  // of 2 in flight per connection, at least two of them must be shed
  // even though the service queue has plenty of room.
  ASSERT_FALSE(C.sendCompile(satlibRequest(1, 150, 1)));
  for (uint64_t Id = 2; Id <= 5; ++Id)
    ASSERT_FALSE(C.sendCompile(satlibRequest(Id, 20, Id)));

  size_t Shed = 0, Resolved = 0;
  while (Resolved < 5) {
    auto F = C.readFrame(WaitSeconds);
    ASSERT_TRUE(F.ok()) << F.message();
    if (F->Type != FrameType::Result)
      continue;
    auto R = decodeResult(F->Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    ++Resolved;
    if (R->Code == ResponseCode::RetryLater)
      ++Shed;
  }
  EXPECT_GE(Shed, 2u);
}

TEST(NetServer, CancelFrameCancelsQueuedRequest) {
  ServerOptions Opt;
  Opt.Service.NumThreads = 1;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  ASSERT_FALSE(C.sendCompile(satlibRequest(1, 150, 1))); // pins the worker
  ASSERT_FALSE(C.sendCompile(satlibRequest(2, 50, 1)));  // stays queued
  ASSERT_FALSE(C.sendCancel(2));
  // Cancelling an id the server has never seen is tolerated: the result
  // may simply have raced the cancel onto the wire.
  ASSERT_FALSE(C.sendCancel(999));

  std::map<uint64_t, ResponseCode> Codes;
  while (Codes.size() < 2) {
    auto F = C.readFrame(WaitSeconds);
    ASSERT_TRUE(F.ok()) << F.message();
    if (F->Type != FrameType::Result)
      continue;
    auto R = decodeResult(F->Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    Codes[R->RequestId] = R->Code;
  }
  EXPECT_EQ(Codes[1], ResponseCode::Ok);
  EXPECT_EQ(Codes[2], ResponseCode::Cancelled);
}

// --- In-process server: slow client and drain -----------------------------

TEST(NetServer, SlowClientIsDisconnectedNotBuffered) {
  ServerOptions Opt;
  // A uf50 wQASM program is far larger than this write-queue cap, so the
  // first result overflows it immediately.
  Opt.MaxWriteQueueBytes = 1024;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  ASSERT_FALSE(C.sendCompile(satlibRequest(1, 50, 1)));
  // Never read: the server must drop us rather than buffer unboundedly.
  auto F = C.readFrame(WaitSeconds);
  EXPECT_FALSE(F.ok());
  EXPECT_FALSE(C.connected());

  // Poll the counter (the drop happens on the poll thread).
  bool Dropped = false;
  for (int I = 0; I < 100 && !Dropped; ++I) {
    Dropped = (*S).transportStats().SlowClientDrops > 0;
    if (!Dropped)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(Dropped);
}

TEST(NetServer, DrainDeliversInFlightResultsThenGoingAway) {
  ServerOptions Opt;
  Opt.Service.NumThreads = 1;
  Opt.DrainBudgetSeconds = WaitSeconds;
  TestServer S(Opt);
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  // Submit, wait until the request is admitted (a stop that lands before
  // the server even accepts the socket legitimately refuses everything),
  // then request the drain: the in-flight compile must still resolve Ok
  // and reach the wire before the socket closes.
  ASSERT_FALSE(C.sendCompile(satlibRequest(1, 50, 1)));
  for (int I = 0; I < 1000 && (*S).transportStats().RequestsAdmitted == 0;
       ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_GT((*S).transportStats().RequestsAdmitted, 0u);
  (*S).requestStop();

  bool SawGoingAway = false, SawResult = false;
  while (true) {
    auto F = C.readFrame(WaitSeconds);
    if (!F.ok())
      break; // server closed after the drain
    if (F->Type == FrameType::GoingAway)
      SawGoingAway = true;
    if (F->Type == FrameType::Result) {
      auto R = decodeResult(F->Payload);
      ASSERT_TRUE(R.ok()) << R.message();
      EXPECT_EQ(R->RequestId, 1u);
      EXPECT_EQ(R->Code, ResponseCode::Ok) << R->Diagnostic;
      EXPECT_EQ(R->Wqasm, directWqasm(50, 1));
      SawResult = true;
    }
  }
  EXPECT_TRUE(SawGoingAway);
  EXPECT_TRUE(SawResult);
  S.stop();

  // The server is gone entirely now; a late connect must fail fast.
  ClientOptions LateOpt;
  LateOpt.Port = S.port();
  LateOpt.MaxConnectAttempts = 1;
  Client L(LateOpt);
  EXPECT_TRUE(L.connect());
}

// --- In-process server: fault injection -----------------------------------

namespace {
/// Guarantees the process-global fault engine is disabled on scope exit,
/// whatever the test body did (the engine outlives the test otherwise).
struct FaultGuard {
  ~FaultGuard() { fault::resetGlobal(); }
};
} // namespace

TEST(NetServer, SurvivesFaultInjectionWithByteIdentity) {
  FaultGuard Guard;
  // No kills/truncation here: every request must survive, and the test
  // asserts all of them — kill recovery is load_gen's and the smoke
  // script's job.
  ASSERT_FALSE(fault::configureGlobal(
      "seed=42;net.write.partial:p=0.5;net.read.delay:p=0.3"));
  TestServer S;
  Client C = makeClient(S);
  ASSERT_FALSE(C.connect());

  std::string Reference = directWqasm(20, 1);
  for (uint64_t Id = 1; Id <= 10; ++Id) {
    auto R = C.compileSync(satlibRequest(Id, 20, 1));
    ASSERT_TRUE(R.ok()) << R.message();
    ASSERT_EQ(R->Code, ResponseCode::Ok) << R->Diagnostic;
    EXPECT_EQ(R->Wqasm, Reference)
        << "request " << Id << " corrupted under write fragmentation";
  }
  uint64_t PartialWrites = 0;
  for (const fault::SiteCount &Count : fault::globalEngine().counters())
    if (Count.Site == "net.write.partial")
      PartialWrites = Count.Fired;
  EXPECT_GT(PartialWrites, 0u) << "fault never fired; test is vacuous";
}

// --- Subprocess: SIGTERM drain of the real daemon -------------------------

#ifdef WEAVER_SERVE_BIN
namespace {

/// Spawns weaver_serve with stdout redirected to \p LogPath and stderr to
/// LogPath + ".err"; the child's WEAVER_FAULTS is \p Faults (unset when
/// empty). Returns the child pid or -1.
pid_t spawnServe(const std::vector<std::string> &Args,
                 const std::string &LogPath, const std::string &Faults = "") {
  // The scratch dir persists across runs; a stale log from a previous
  // run would let waitForPort() race the child's O_TRUNC and hand back
  // the dead port of the last daemon.
  ::unlink(LogPath.c_str());
  std::string ErrPath = LogPath + ".err";
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(WEAVER_SERVE_BIN));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  std::string FaultsVar = "WEAVER_FAULTS=" + Faults;
  std::vector<char *> Envp;
  for (char **E = environ; *E; ++E)
    if (std::string_view(*E).rfind("WEAVER_FAULTS=", 0) != 0)
      Envp.push_back(*E);
  if (!Faults.empty())
    Envp.push_back(FaultsVar.data());
  Envp.push_back(nullptr);
  pid_t Pid = fork();
  if (Pid != 0)
    return Pid;
  // Child.
  int LogFd = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (LogFd >= 0) {
    ::dup2(LogFd, STDOUT_FILENO);
    ::close(LogFd);
  }
  int ErrFd = ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (ErrFd >= 0) {
    ::dup2(ErrFd, STDERR_FILENO);
    ::close(ErrFd);
  }
  ::execve(WEAVER_SERVE_BIN, Argv.data(), Envp.data());
  _exit(127);
}

/// Kills the daemon on early test exit (a failed ASSERT must not leave
/// an orphan holding inherited pipes open for whoever runs us).
struct ServeGuard {
  pid_t Pid;
  ~ServeGuard() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
  void disarm() { Pid = -1; }
};

/// Polls \p LogPath for the "listening on <addr>:<port>" line.
uint16_t waitForPort(const std::string &LogPath) {
  for (int I = 0; I < 600; ++I) {
    std::ifstream In(LogPath);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t Pos = Line.rfind(':');
      if (Line.rfind("listening on ", 0) == 0 && Pos != std::string::npos)
        return static_cast<uint16_t>(std::stoi(Line.substr(Pos + 1)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return 0;
}

/// Waits up to \p Seconds for \p Pid to exit and reaps it. Returns its
/// wait status, or -1 while it is still running.
int waitExit(pid_t Pid, double Seconds) {
  for (int I = 0; I < Seconds * 10; ++I) {
    int WaitStatus = 0;
    if (::waitpid(Pid, &WaitStatus, WNOHANG) == Pid)
      return WaitStatus;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return -1;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

} // namespace

TEST(NetServeProcess, SigtermDrainResolvesEveryRequestOnceAndFlushesCache) {
  std::string Dir = testTempDir();
  std::string CacheFile = Dir + "/snapshot.bin";
  std::string LogFile = Dir + "/serve.log";

  pid_t Pid = spawnServe({"--port", "0", "--threads", "2", "--cache-file",
                          CacheFile, "--drain-budget", "60"},
                         LogFile);
  ASSERT_GT(Pid, 0);
  ServeGuard Guard{Pid};
  uint16_t Port = waitForPort(LogFile);
  ASSERT_NE(Port, 0) << "daemon never printed its listening line";

  ClientOptions Opt;
  Opt.Port = Port;
  Client C(Opt);
  ASSERT_FALSE(C.connect());

  // Pipeline a burst, SIGTERM the daemon mid-flight, then read until the
  // socket closes: every request must resolve exactly once, each either
  // completed or refused — never lost, never doubled.
  constexpr uint64_t NumRequests = 12;
  for (uint64_t Id = 1; Id <= NumRequests; ++Id)
    ASSERT_FALSE(C.sendCompile(satlibRequest(Id, 20, 1 + Id % 10)));

  // Wait for the first result so the burst is genuinely mid-flight (and
  // at least one compile has populated the cache) before the SIGTERM.
  std::map<uint64_t, ResponseCode> Resolved;
  while (Resolved.empty()) {
    auto F = C.readFrame(WaitSeconds);
    ASSERT_TRUE(F.ok()) << F.message();
    if (F->Type != FrameType::Result)
      continue;
    auto R = decodeResult(F->Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    Resolved.emplace(R->RequestId, R->Code);
  }
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);

  while (true) {
    auto F = C.readFrame(WaitSeconds);
    if (!F.ok())
      break;
    if (F->Type != FrameType::Result)
      continue;
    auto R = decodeResult(F->Payload);
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_TRUE(Resolved.emplace(R->RequestId, R->Code).second)
        << "request " << R->RequestId << " resolved twice";
  }
  EXPECT_EQ(Resolved.size(), NumRequests)
      << "drain lost " << (NumRequests - Resolved.size()) << " requests";
  size_t CompletedOk = 0;
  for (const auto &[Id, Code] : Resolved) {
    EXPECT_TRUE(Code == ResponseCode::Ok ||
                Code == ResponseCode::DeadlineExceeded ||
                Code == ResponseCode::Cancelled ||
                Code == ResponseCode::GoingAway)
        << "request " << Id << " resolved " << responseCodeName(Code);
    CompletedOk += Code == ResponseCode::Ok;
  }
  EXPECT_GT(CompletedOk, 0u) << "drain completed nothing";

  int WaitStatus = 0;
  ASSERT_EQ(::waitpid(Pid, &WaitStatus, 0), Pid);
  Guard.disarm();
  EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 0)
      << "daemon exit status " << WaitStatus;

  // The drain must have flushed a loadable cache snapshot.
  core::pipeline::PassCache Cache;
  Status Loaded = Cache.loadSnapshot(CacheFile);
  EXPECT_FALSE(Loaded) << Loaded.message();
  EXPECT_GT(Cache.size(), 0u);
}

TEST(NetServeProcess, WeaverFaultsSpecIsServedByteIdentically) {
  // The environment spec uses the one fault grammar every other site
  // reads; the transport sites fire and the daemon still serves every
  // request byte-identically, then drains clean.
  std::string LogFile = testTempDir() + "/serve.log";
  pid_t Pid =
      spawnServe({"--port", "0", "--threads", "2"}, LogFile,
                 "seed=7;net.write.partial:p=0.5;net.read.delay:p=0.3");
  ASSERT_GT(Pid, 0);
  ServeGuard Guard{Pid};
  uint16_t Port = waitForPort(LogFile);
  ASSERT_NE(Port, 0) << "daemon never listened: " << readFile(LogFile + ".err");

  ClientOptions Opt;
  Opt.Port = Port;
  Client C(Opt);
  ASSERT_FALSE(C.connect());
  for (uint64_t Id = 1; Id <= 8; ++Id) {
    auto R = C.compileSync(satlibRequest(Id, 20, static_cast<int>(Id)));
    ASSERT_TRUE(R.ok()) << R.message();
    ASSERT_EQ(R->Code, ResponseCode::Ok) << R->Diagnostic;
    EXPECT_EQ(R->Wqasm, directWqasm(20, static_cast<int>(Id)))
        << "request " << Id << " corrupted under transport faults";
  }

  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int WaitStatus = 0;
  ASSERT_EQ(::waitpid(Pid, &WaitStatus, 0), Pid);
  Guard.disarm();
  EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 0)
      << "daemon exit status " << WaitStatus;
  EXPECT_NE(readFile(LogFile + ".err").find("fault injection enabled"),
            std::string::npos);
}

TEST(NetServeProcess, MalformedWeaverFaultsIsAStartupError) {
  std::string LogFile = testTempDir() + "/serve.log";
  pid_t Pid = spawnServe({"--port", "0"}, LogFile, "seed=7;net.kill:p=2");
  ASSERT_GT(Pid, 0);
  ServeGuard Guard{Pid};
  int WaitStatus = waitExit(Pid, 30);
  ASSERT_NE(WaitStatus, -1) << "daemon kept running on a malformed spec";
  Guard.disarm();
  EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) != 0)
      << "daemon exit status " << WaitStatus;
  std::string Err = readFile(LogFile + ".err");
  EXPECT_NE(Err.find("error: WEAVER_FAULTS: fault spec: p:"),
            std::string::npos)
      << Err;
  EXPECT_EQ(readFile(LogFile).find("listening on"), std::string::npos);
}

TEST(NetServeProcess, FlagWithoutValueIsAUsageError) {
  // A trailing string flag must not silently take an empty value (no
  // cache, no faults) and start serving.
  for (const char *Flag : {"--cache-file", "--faults"}) {
    std::string LogFile = testTempDir() + "/serve.log";
    pid_t Pid = spawnServe({"--port", "0", Flag}, LogFile);
    ASSERT_GT(Pid, 0);
    ServeGuard Guard{Pid};
    int WaitStatus = waitExit(Pid, 30);
    ASSERT_NE(WaitStatus, -1) << "daemon started with a valueless " << Flag;
    Guard.disarm();
    EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 1)
        << Flag << ": daemon exit status " << WaitStatus;
  }
}
#endif // WEAVER_SERVE_BIN
