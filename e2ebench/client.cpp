//===- e2ebench/client.cpp - End-to-end serving benchmark client ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measurement half of the end-to-end benchmark (run.py is the other half:
/// it builds this binary, runs it, and turns its raw samples into metrics).
///
///     e2e_client --serve-bin PATH --golden-dir DIR --workload NAME
///                --seed N --seconds S --trace 0|1 --out RAW.json
///                [--spans SPANS.json]
///
/// One run:
///  1. Set-up, repeated SetupRepeats times: spawn weaver_serve, wait for
///     its listening line, connect, send the three golden inputs (they must
///     come back byte-identical to tests/data), and on sweep-uf100 warm one
///     cold compile per formula. All but the last server are stopped again.
///  2. The timed closed loop over loopback TCP for --seconds, in steps of
///     Workload::StepRequests requests with at most one in flight per
///     connection; a step is timed until its last result is in. On
///     verify-uf50 the client parses and wChecks each result before the
///     request counts.
///  3. Off the clock: read VmHWM, SIGTERM the server, then parse, wCheck
///     and replay every distinct returned program (3 threads, the server
///     is gone), checking the replayed pulse count against the frame's.
///  4. With --trace 1: an in-process run over the first requests of the
///     same sequence that calls each layer's public function and records
///     one span per call (name, start, end, parent, request id).
///
/// Everything is written as raw JSON; run.py owns percentiles, ratios and
/// the correctness verdict. The exit code is non-zero only when the run
/// could not be carried out (no server, lost connection, bad arguments).
///
//===----------------------------------------------------------------------===//

#include "core/WChecker.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/ClauseColoringPass.h"
#include "core/pipeline/GateLoweringPass.h"
#include "core/pipeline/PassCache.h"
#include "core/pipeline/PulseEmissionPass.h"
#include "core/pipeline/ShuttleSchedulingPass.h"
#include "core/pipeline/ZonePlanningPass.h"
#include "fpqa/Analysis.h"
#include "net/Client.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "sat/Dimacs.h"
#include "sat/Generator.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace weaver;
namespace pipeline = weaver::core::pipeline;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start, Clock::time_point End = Clock::now()) {
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

// --- Workloads ------------------------------------------------------------

/// One seeded closed-loop traffic mix. The reasons each exists are in
/// BENCHMARK.json and README.md.
struct Workload {
  const char *Name;
  int NumVars;
  size_t Connections;
  /// Formulas a parameter sweep cycles through; 0 gives every request its
  /// own formula at the default QAOA point.
  uint64_t Formulas;
  /// Seeded (gamma, beta) points per sweep formula. Requests cycle through
  /// Formulas x PointPool distinct programs, so the client stores each
  /// once; the server has no result cache, so a repeat costs it exactly
  /// what a new point would.
  uint64_t PointPool;
  /// The client parses and wChecks each result inside the latency.
  bool ClientVerifies;
  /// Requests, from the start of the sequence, that the deterministic
  /// program metrics average over.
  uint64_t QualityRequests;
  /// Completed requests after which the server's VmHWM is read: a fixed
  /// amount of work, so a faster server does not read as a bigger one.
  uint64_t RssRequests;
  /// Requests per closed-loop step: the client sends a step's requests
  /// over its connections, one in flight on each, and the step's latency
  /// runs until it has every result of the step.
  uint64_t StepRequests;
  /// Requests, from the start of the sequence, the traced run replays.
  uint64_t TracedRequests;

  bool sweeps() const { return Formulas != 0; }
};

const Workload Workloads[] = {
    {"cold-uf250", 250, 1, 0, 0, false, 16, 48, 1, 8},
    {"sweep-uf100", 100, 2, 4, 32, false, 32, 384, 8, 16},
    {"verify-uf50", 50, 1, 0, 0, true, 64, 192, 1, 32},
};

/// Set-ups per run; run.py reports their median as setup_s.
constexpr int SetupRepeats = 9;
/// Worker threads of the server under test. Workers + its poll thread +
/// this single-threaded client stay within a 4-CPU machine.
constexpr const char *ServerThreads = "2";
/// A run that sees no result for this long is abandoned.
constexpr double StallSeconds = 60;

uint64_t mixSeed(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  SplitMix64 S(Seed * 0x9e3779b97f4a7c15ULL ^ (Stream << 48) ^ Index);
  return S.next();
}

/// What request \c Seq of a workload sends. A pure function of (seed,
/// Seq), so the socket run, the traced run and a rerun agree.
struct RequestInput {
  uint64_t Key = 0; ///< identifies the expected program
  sat::CnfFormula Formula;
  std::string Dimacs;
  double Gamma = 0.7;
  double Beta = 0.3;
};

class RequestSource {
public:
  RequestSource(const Workload &W, uint64_t Seed) : W(W), Seed(Seed) {
    for (uint64_t J = 0; J < W.Formulas; ++J)
      Shared.push_back(formula(J));
  }

  uint64_t keyOf(uint64_t Seq) const {
    return W.sweeps() ? Seq % (W.Formulas * W.PointPool) : Seq;
  }

  RequestInput at(uint64_t Seq) const {
    RequestInput In;
    In.Key = keyOf(Seq);
    if (W.sweeps()) {
      In.Formula = Shared[In.Key % W.Formulas];
      Xoshiro256 Rng(mixSeed(Seed, 2, In.Key / W.Formulas));
      In.Gamma = 0.1 + 2.9 * Rng.nextDouble();
      In.Beta = 0.1 + 1.4 * Rng.nextDouble();
    } else {
      In.Formula = formula(Seq);
    }
    In.Dimacs = sat::printDimacs(In.Formula);
    return In;
  }

  /// The shared formulas (sweep-uf100 warms one compile per formula).
  const std::vector<sat::CnfFormula> &shared() const { return Shared; }

private:
  sat::CnfFormula formula(uint64_t Index) const {
    size_t Clauses =
        static_cast<size_t>(std::lround(W.NumVars * sat::SatlibClauseRatio));
    return sat::RandomSatGenerator(mixSeed(Seed, 1, Index))
        .generate(W.NumVars, Clauses);
  }

  const Workload &W;
  uint64_t Seed;
  std::vector<sat::CnfFormula> Shared;
};

net::CompileFrame compileFrame(uint64_t RequestId, const std::string &Dimacs,
                               double Gamma, double Beta) {
  net::CompileFrame F;
  F.RequestId = RequestId;
  F.Source = net::FormulaSource::Dimacs;
  F.Dimacs = Dimacs;
  F.Gamma = Gamma;
  F.Beta = Beta;
  return F;
}

// --- The server under test ------------------------------------------------

/// A spawned weaver_serve. The destructor kills and reaps a server that
/// was not stopped, so no error path leaves a process behind.
class ServerProcess {
public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (OutFd >= 0)
      ::close(OutFd);
  }

  /// Spawns \p Bin on an ephemeral port and waits for its listening line.
  Status start(const std::string &Bin) {
    int Pipe[2];
    if (::pipe(Pipe) != 0)
      return Status::error(std::string("pipe: ") + std::strerror(errno));
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
    posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
    std::vector<std::string> Args = {Bin, "--port", "0", "--threads",
                                     ServerThreads};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    int Rc = posix_spawn(&Pid, Bin.c_str(), &Actions, nullptr, Argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(Pipe[1]);
    OutFd = Pipe[0];
    if (Rc != 0) {
      Pid = -1;
      return Status::error("cannot spawn " + Bin + ": " + std::strerror(Rc));
    }

    std::string Line;
    Clock::time_point Deadline = Clock::now() + std::chrono::seconds(30);
    while (Line.find('\n') == std::string::npos) {
      int Left = static_cast<int>(-msSince(Deadline));
      if (Left <= 0)
        return Status::error("weaver_serve printed no listening line");
      pollfd P = {OutFd, POLLIN, 0};
      if (::poll(&P, 1, Left) <= 0)
        continue;
      char Buf[256];
      ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
      if (N <= 0)
        return Status::error("weaver_serve exited before listening");
      Line.append(Buf, static_cast<size_t>(N));
    }
    size_t Colon = Line.rfind(':', Line.find('\n'));
    if (Line.rfind("listening on ", 0) != 0 || Colon == std::string::npos)
      return Status::error("unexpected weaver_serve output: " + Line);
    Port = static_cast<uint16_t>(std::atoi(Line.c_str() + Colon + 1));
    return Port ? Status::success()
                : Status::error("bad port in listening line: " + Line);
  }

  uint16_t port() const { return Port; }

  /// VmHWM of the server in MiB, or a negative value when unreadable.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::atof(Line.c_str() + 6) / 1024.0;
    return -1;
  }

  /// SIGTERM, drain its stdout to EOF (the drain report would otherwise
  /// block on a full pipe), and reap it; a non-zero exit is an error.
  Status stop() {
    if (Pid <= 0)
      return Status::success();
    ::kill(Pid, SIGTERM);
    char Buf[4096];
    Clock::time_point Deadline = Clock::now() + std::chrono::seconds(30);
    while (msSince(Deadline) < 0) {
      pollfd P = {OutFd, POLLIN, 0};
      if (::poll(&P, 1, 100) > 0 && ::read(OutFd, Buf, sizeof(Buf)) <= 0)
        break;
    }
    // EOF arrives while the kernel is still tearing the process down, so
    // keep polling for the exit status until the same deadline.
    int WStatus = 0;
    pid_t Done;
    while ((Done = ::waitpid(Pid, &WStatus, WNOHANG)) == 0 &&
           msSince(Deadline) < 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (Done == 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &WStatus, 0);
      Pid = -1;
      return Status::error("weaver_serve did not drain within 30 s");
    }
    Pid = -1;
    if (!WIFEXITED(WStatus) || WEXITSTATUS(WStatus) != 0)
      return Status::error("weaver_serve exited abnormally");
    return Status::success();
  }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
};

// --- Set-up ---------------------------------------------------------------

struct Golden {
  uint64_t Seed;
  std::string Dimacs;
  std::string Expected;
};

/// goldenFormula(7|21|42) of tests/pipeline_test.cpp and its pinned output.
Expected<std::vector<Golden>> loadGoldens(const std::string &Dir) {
  std::vector<Golden> Out;
  for (uint64_t Seed : {7, 21, 42}) {
    std::string Path = Dir + "/golden_seed" + std::to_string(Seed) + ".wqasm";
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return Expected<std::vector<Golden>>::error("cannot read " + Path);
    std::ostringstream Text;
    Text << In.rdbuf();
    Out.push_back({Seed,
                   sat::printDimacs(sat::RandomSatGenerator(Seed).generate(12, 36)),
                   Text.str()});
  }
  return Out;
}

struct Setup {
  std::unique_ptr<ServerProcess> Server;
  std::vector<std::unique_ptr<net::Client>> Conns;
  double Seconds = 0;
  uint64_t GoldenMismatches = 0;
};

/// Spawn to warm: the listening line, the golden check, and on sweep-uf100
/// one cold compile per formula. Fails only on transport trouble; golden
/// mismatches are counted.
Status setUp(const std::string &ServeBin, const Workload &W,
             const RequestSource &Source, const std::vector<Golden> &Goldens,
             Setup &Out) {
  Clock::time_point Start = Clock::now();
  Out.Server = std::make_unique<ServerProcess>();
  if (Status S = Out.Server->start(ServeBin))
    return S;
  for (size_t I = 0; I < W.Connections; ++I) {
    net::ClientOptions CO;
    CO.Port = Out.Server->port();
    CO.Seed = I + 1;
    CO.IoTimeoutSeconds = StallSeconds;
    Out.Conns.push_back(std::make_unique<net::Client>(CO));
    if (Status S = Out.Conns.back()->connect())
      return S;
  }
  net::Client &C = *Out.Conns[0];
  uint64_t Id = 1;
  for (const Golden &G : Goldens) {
    auto R = C.compileSync(compileFrame(Id++, G.Dimacs, 0.7, 0.3));
    if (!R)
      return R.status();
    if (R->Code != net::ResponseCode::Ok || R->Wqasm != G.Expected) {
      ++Out.GoldenMismatches;
      std::fprintf(stderr, "golden seed %llu: output differs from the pin\n",
                   static_cast<unsigned long long>(G.Seed));
    }
  }
  for (const sat::CnfFormula &F : Source.shared()) {
    auto R = C.compileSync(compileFrame(Id++, sat::printDimacs(F), 0.7, 0.3));
    if (!R)
      return R.status();
    if (R->Code != net::ResponseCode::Ok)
      return Status::error("warm-up compile failed: " + R->Diagnostic);
  }
  Out.Seconds = msSince(Start) / 1e3;
  return Status::success();
}

// --- The timed closed loop ------------------------------------------------

struct Sample {
  uint64_t Seq = 0;
  uint64_t Key = 0;
  double LatencyMs = 0;
  /// Send until the result frame is decoded; differs from LatencyMs only
  /// by the in-loop wChecker on verify-uf50.
  double ReceivedMs = 0;
  double QueueMs = 0;
  double CompileMs = 0;
  int Code = 0;
  int Tier = 0;
  /// verify-uf50: the in-loop wChecker verdict; elsewhere always true.
  bool ClientOk = true;
  /// A repeat of a stored program came back with different bytes.
  bool RepeatMismatch = false;
};

/// One distinct returned program and its off-clock verdict.
struct Program {
  std::string Text;
  uint64_t FramePulses = 0;
  bool Ok = false;
  std::string Diagnostic;
  uint64_t Pulses = 0;
  double ExecMs = 0;
  double EpsLog10 = 0;
};

struct LoopResult {
  std::vector<Sample> Samples;
  /// Latency of each completed step, from its first send until the client
  /// has every result of it.
  std::vector<double> StepMs;
  std::map<uint64_t, Program> Programs; ///< by RequestInput::Key
  double WindowSeconds = 0;
  uint64_t ShedRetries = 0;
  /// VmHWM after Workload::RssRequests results; negative until read.
  double PeakRssMb = -1;
};

/// The wChecker's structural stage; empty when the program passes.
std::string checkStructure(const qasm::WqasmProgram &P) {
  core::CheckReport R = core::checkWqasm(P, fpqa::HardwareParams());
  if (R.StructuralOk)
    return "";
  return R.Diagnostic.empty() ? "structural check failed" : R.Diagnostic;
}

Status runLoop(const Workload &W, const RequestSource &Source, Setup &S,
               double Seconds, LoopResult &Out) {
  struct Slot {
    bool Busy = false;
    uint64_t Seq = 0;
    uint64_t RequestId = 0;
    std::string Bytes;
    Clock::time_point SentAt;
    Clock::time_point RetryAt; ///< set while waiting out a shed backoff
    bool Retrying = false;
  };
  std::vector<Slot> Slots(S.Conns.size());
  uint64_t NextSeq = 0, NextId = 1000;
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  Clock::time_point LastProgress = Start, LastDone = Start;

  // The step's requests are encoded before its clock starts, so input
  // generation stays out of the latency.
  std::deque<Slot> Pending; ///< encoded, not yet sent
  uint64_t StepOpen = 0;    ///< requests of the step without a result
  Clock::time_point StepStart;

  auto sendNext = [&](size_t I) -> Status {
    Slot &Sl = Slots[I];
    Sl = std::move(Pending.front());
    Pending.pop_front();
    Sl.SentAt = Clock::now();
    return S.Conns[I]->sendBytes(Sl.Bytes);
  };
  auto startStep = [&]() -> Status {
    for (uint64_t K = 0; K < W.StepRequests; ++K) {
      RequestInput In = Source.at(NextSeq);
      Slot Sl;
      Sl.Busy = true;
      Sl.Seq = NextSeq++;
      Sl.RequestId = NextId++;
      Sl.Bytes = net::encodeCompile(
          compileFrame(Sl.RequestId, In.Dimacs, In.Gamma, In.Beta));
      Pending.push_back(std::move(Sl));
    }
    StepOpen = W.StepRequests;
    StepStart = Clock::now();
    for (size_t I = 0; I < Slots.size() && !Pending.empty(); ++I)
      if (Status St = sendNext(I))
        return St;
    return Status::success();
  };

  if (Status St = startStep())
    return St;

  auto anyBusy = [&] {
    return std::any_of(Slots.begin(), Slots.end(),
                       [](const Slot &Sl) { return Sl.Busy; });
  };
  while (anyBusy()) {
    if (msSince(LastProgress) > StallSeconds * 1e3)
      return Status::error("no result for " + std::to_string(StallSeconds) +
                           " s");
    std::vector<pollfd> Fds;
    for (auto &C : S.Conns)
      Fds.push_back({C->fd(), POLLIN, 0});
    ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), 5);

    for (size_t I = 0; I < Slots.size(); ++I) {
      Slot &Sl = Slots[I];
      net::Client &C = *S.Conns[I];
      if (Sl.Retrying && Clock::now() >= Sl.RetryAt) {
        Sl.Retrying = false;
        if (Status St = C.sendBytes(Sl.Bytes))
          return St;
      }
      net::Frame F;
      while (Sl.Busy && C.tryReadFrame(F)) {
        if (F.Type == net::FrameType::Error)
          return Status::error("server rejected a request as malformed");
        if (F.Type != net::FrameType::Result)
          continue;
        auto R = net::decodeResult(F.Payload);
        if (!R)
          return Status::error("undecodable result frame: " + R.message());
        if (R->RequestId != Sl.RequestId)
          continue;
        LastProgress = Clock::now();
        if (R->Code == net::ResponseCode::RetryLater) {
          ++Out.ShedRetries;
          Sl.Retrying = true;
          Sl.RetryAt = Clock::now() + std::chrono::milliseconds(
                                          std::max<uint32_t>(R->BackoffMs, 1));
          continue;
        }
        Sample Smp;
        Smp.ReceivedMs = msSince(Sl.SentAt);
        Smp.Seq = Sl.Seq;
        Smp.Key = Source.keyOf(Sl.Seq);
        Smp.Code = static_cast<int>(R->Code);
        if (W.ClientVerifies && R->Code == net::ResponseCode::Ok) {
          auto Parsed = qasm::parseWqasm(R->Wqasm);
          Smp.ClientOk = Parsed && checkStructure(*Parsed).empty();
        }
        Clock::time_point Now = Clock::now();
        Smp.LatencyMs = msSince(Sl.SentAt, Now);
        Sl.Busy = false;
        if (!Pending.empty())
          if (Status St = sendNext(I))
            return St;
        Smp.QueueMs = R->QueueSeconds * 1e3;
        Smp.CompileMs = R->CompileSeconds * 1e3;
        Smp.Tier = R->CacheTier;
        LastDone = Now;
        if (R->Code == net::ResponseCode::Ok) {
          auto It = Out.Programs.find(Smp.Key);
          if (It == Out.Programs.end()) {
            Program P;
            P.Text = std::move(R->Wqasm);
            P.FramePulses = R->Pulses;
            Out.Programs.emplace(Smp.Key, std::move(P));
          } else {
            Smp.RepeatMismatch = It->second.Text != R->Wqasm ||
                                 It->second.FramePulses != R->Pulses;
          }
        }
        Out.Samples.push_back(Smp);
        if (Out.Samples.size() == W.RssRequests)
          Out.PeakRssMb = S.Server->peakRssMb();
        if (--StepOpen == 0) {
          Out.StepMs.push_back(msSince(StepStart, Now));
          if (Now < Deadline)
            if (Status St = startStep())
              return St;
        }
      }
      if (!C.connected())
        return Status::error("connection lost during the timed run");
    }
  }
  Out.WindowSeconds = msSince(Start, LastDone) / 1e3;
  return Status::success();
}

/// Off the clock: parse, wCheck and replay every distinct program on a
/// few threads (the server has exited, so nothing else competes).
void verifyPrograms(std::map<uint64_t, Program> &Programs) {
  std::vector<Program *> Work;
  for (auto &KV : Programs)
    Work.push_back(&KV.second);
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    fpqa::HardwareParams Hw;
    for (size_t I; (I = Next.fetch_add(1)) < Work.size();) {
      Program &P = *Work[I];
      auto Parsed = qasm::parseWqasm(P.Text);
      if (!Parsed) {
        P.Diagnostic = "parse: " + Parsed.message();
        continue;
      }
      P.Diagnostic = checkStructure(*Parsed);
      if (!P.Diagnostic.empty())
        continue;
      auto Stats = fpqa::analyzePulseProgram(*Parsed, Hw);
      if (!Stats) {
        P.Diagnostic = "replay: " + Stats.message();
        continue;
      }
      P.Pulses = Stats->totalPulses();
      P.ExecMs = Stats->Duration * 1e3;
      P.EpsLog10 = std::log10(Stats->Eps);
      if (P.Pulses != P.FramePulses) {
        P.Diagnostic = "replayed pulses " + std::to_string(P.Pulses) +
                       " != frame pulses " + std::to_string(P.FramePulses);
        continue;
      }
      if (!std::isfinite(P.EpsLog10)) {
        P.Diagnostic = "EPS is not positive";
        continue;
      }
      P.Ok = true;
    }
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T < 3; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
}

// --- The traced in-process run --------------------------------------------

/// One recorded call. Times are microseconds from the tracer's epoch.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root
  uint64_t Request = 0;
  const char *Name = "";
  double StartUs = 0;
  double EndUs = 0;
};

/// In-memory span recorder; written out once at the end. A disabled
/// tracer records nothing, which is how the untraced twin of each chain
/// runs the same calls.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  size_t open(const char *Name, uint64_t Request) {
    if (!Enabled)
      return 0;
    Span S;
    S.Id = Spans.size() + 1;
    S.Parent = Stack.empty() ? 0 : Spans[Stack.back()].Id;
    S.Request = Request;
    S.Name = Name;
    Stack.push_back(Spans.size());
    Spans.push_back(S);
    Spans.back().StartUs = nowUs();
    return Spans.size() - 1;
  }
  void close(size_t Index) {
    if (!Enabled)
      return;
    Spans[Index].EndUs = nowUs();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> Stack;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Request)
      : T(T), Index(T.open(Name, Request)) {}
  ~ScopedSpan() { T.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  size_t Index;
};

core::WeaverOptions weaverOptions(double Gamma, double Beta,
                                  pipeline::PassCache *Cache) {
  core::WeaverOptions O;
  O.Qaoa.Gamma = Gamma;
  O.Qaoa.Beta = Beta;
  O.Cache = Cache;
  return O;
}

/// Runs the five passes on a fresh context the way compileWeaver sets it
/// up, one span per pass.
Status runPasses(const sat::CnfFormula &F, double Gamma, double Beta,
                 pipeline::CompilationContext &Ctx, Tracer &T, uint64_t Req) {
  Ctx.Formula = &F;
  Ctx.Options.Qaoa.Gamma = Gamma;
  Ctx.Options.Qaoa.Beta = Beta;
  Ctx.Options.UseCompression = Ctx.Hw.cczCompressionProfitable();
  struct Step {
    const char *Span;
    std::unique_ptr<pipeline::Pass> P;
  };
  Step Steps[] = {
      {"pass.coloring", std::make_unique<pipeline::ClauseColoringPass>()},
      {"pass.zone", std::make_unique<pipeline::ZonePlanningPass>()},
      {"pass.shuttle", std::make_unique<pipeline::ShuttleSchedulingPass>()},
      {"pass.lowering", std::make_unique<pipeline::GateLoweringPass>()},
      {"pass.replay", std::make_unique<pipeline::PulseEmissionPass>()},
  };
  for (Step &S : Steps) {
    ScopedSpan Sp(T, S.Span, Req);
    if (Status St = S.P->run(Ctx))
      return St;
  }
  return Status::success();
}

/// The request's blocking path, as the server and this client execute it
/// for the workload, under one root span. \p Mirror is the cache the
/// sweep's template hits compile through, warmed like the server's.
/// Returns the decoded program.
Expected<std::string> runChain(const Workload &W, const RequestInput &In,
                               Tracer &T, uint64_t Req,
                               pipeline::PassCache &Mirror, int *Colors) {
  ScopedSpan Root(T, "request", Req);
  // Opened after the last call; every later local is destroyed inside it,
  // so freeing the request's program, frames and formula is on the path.
  std::optional<ScopedSpan> Release;
  Expected<sat::CnfFormula> F = [&] {
    ScopedSpan Sp(T, "sat.dimacs_parse", Req);
    return sat::parseDimacs(In.Dimacs);
  }();
  if (!F)
    return F.status();

  // Everything the path produces lives at function scope, so it is freed
  // under the release span rather than between two spans.
  pipeline::CompilationContext Ctx;
  std::optional<core::WeaverResult> Hit;
  const qasm::WqasmProgram *Program = &Ctx.Program;
  net::ResultFrame R;
  R.RequestId = Req;
  if (W.sweeps()) {
    // The sweep's timed requests are program-template hits on the server.
    Expected<core::WeaverResult> C = [&] {
      ScopedSpan Sp(T, "cache.hit_compile", Req);
      return core::compileWeaver(*F, weaverOptions(In.Gamma, In.Beta,
                                                   &Mirror));
    }();
    if (!C)
      return C.status();
    if (!C->ProgramFromCache)
      return Expected<std::string>::error("sweep compile missed the template");
    Hit = C.take();
    *Colors = Hit->Coloring.numColors();
    R.Pulses = Hit->Stats.totalPulses();
    Program = &Hit->Program;
  } else {
    if (Status St = runPasses(*F, In.Gamma, In.Beta, Ctx, T, Req))
      return St;
    *Colors = Ctx.Coloring.numColors();
    R.Pulses = Ctx.Stats.totalPulses();
  }
  {
    ScopedSpan Sp(T, "qasm.print", Req);
    R.Wqasm = qasm::printWqasm(*Program);
  }
  std::string Bytes = [&] {
    ScopedSpan Sp(T, "net.encode_result", Req);
    return net::encodeResult(R);
  }();
  Expected<net::ResultFrame> D = [&] {
    ScopedSpan Sp(T, "net.decode_result", Req);
    return net::decodeResult(
        std::string_view(Bytes).substr(net::FrameHeaderBytes));
  }();
  if (!D)
    return D.status();
  std::optional<qasm::WqasmProgram> Parsed;
  if (W.ClientVerifies) {
    Expected<qasm::WqasmProgram> P = [&] {
      ScopedSpan Sp(T, "qasm.parse", Req);
      return qasm::parseWqasm(D->Wqasm);
    }();
    if (!P)
      return P.status();
    Parsed = P.take();
    ScopedSpan Sp(T, "wchecker.check", Req);
    std::string Diag = checkStructure(*Parsed);
    if (!Diag.empty())
      return Expected<std::string>::error(Diag);
  }
  Release.emplace(T, "release", Req);
  return std::move(D->Wqasm);
}

/// Layers off the workload's blocking path, timed on the same request
/// under a second root span: the passes (when the path is a template
/// hit), the cache's miss overhead and hit cost, and parse + wCheck (when
/// the client does not verify).
Status runOffPath(const Workload &W, const RequestInput &In,
                  const std::string &Text, Tracer &T, uint64_t Req) {
  ScopedSpan Root(T, "offpath", Req);
  if (W.sweeps()) {
    pipeline::CompilationContext Ctx;
    if (Status St = runPasses(In.Formula, In.Gamma, In.Beta, Ctx, T, Req))
      return St;
  }
  {
    ScopedSpan Sp(T, "cache.compile_nocache", Req);
    if (auto C = core::compileWeaver(
            In.Formula, weaverOptions(In.Gamma, In.Beta, nullptr));
        !C)
      return C.status();
  }
  pipeline::PassCache Probe;
  {
    ScopedSpan Sp(T, "cache.compile_miss", Req);
    if (auto C = core::compileWeaver(In.Formula,
                                     weaverOptions(In.Gamma, In.Beta, &Probe));
        !C)
      return C.status();
  }
  if (!W.sweeps()) {
    ScopedSpan Sp(T, "cache.hit_compile", Req);
    auto C = core::compileWeaver(
        In.Formula, weaverOptions(In.Gamma * 0.5, In.Beta * 0.5, &Probe));
    if (!C)
      return C.status();
    if (!C->ProgramFromCache)
      return Status::error("probe compile missed the template");
  }
  if (!W.ClientVerifies) {
    Expected<qasm::WqasmProgram> P = [&] {
      ScopedSpan Sp(T, "qasm.parse", Req);
      return qasm::parseWqasm(Text);
    }();
    if (!P)
      return P.status();
    ScopedSpan Sp(T, "wchecker.check", Req);
    std::string Diag = checkStructure(*P);
    if (!Diag.empty())
      return Status::error(Diag);
  }
  return Status::success();
}

struct TraceResult {
  std::vector<Span> Spans;
  std::vector<double> UntracedMs; ///< untraced chain wall per request
  std::vector<uint64_t> PrintBytes;
  std::vector<int> Colors;
  uint64_t ServerMismatches = 0;
};

Status runTraced(const Workload &W, const RequestSource &Source,
                 const std::map<uint64_t, Program> &Served, TraceResult &Out) {
  pipeline::PassCache Mirror;
  Tracer Traced(true), Untraced(false);
  // Mirror the server's set-up: on the sweep, one cold compile per formula
  // at the default point leaves the templates the timed requests hit.
  for (const sat::CnfFormula &F : Source.shared())
    if (auto C = core::compileWeaver(F, weaverOptions(0.7, 0.3, &Mirror));
        !C)
      return C.status();
  // One untimed pass over request 0 so allocator growth and first-touch
  // page faults stay out of the first traced sample.
  int Colors = 0;
  if (auto Warm = runChain(W, Source.at(0), Untraced, 0, Mirror, &Colors);
      !Warm)
    return Warm.status();

  for (uint64_t Seq = 0; Seq < W.TracedRequests; ++Seq) {
    RequestInput In = Source.at(Seq);
    uint64_t Req = Seq + 1;
    std::string Text;
    double UntracedMs = 0;
    // Alternate which twin runs first so drift cancels. Each result lives
    // in its own variable, so no timed region frees the other's program.
    for (int Pass = 0; Pass < 2; ++Pass) {
      bool TracedTurn = (Pass == 0) == (Seq % 2 == 0);
      Clock::time_point Start = Clock::now();
      Expected<std::string> Got = runChain(
          W, In, TracedTurn ? Traced : Untraced, Req, Mirror, &Colors);
      double Ms = msSince(Start);
      if (!Got)
        return Got.status();
      if (TracedTurn)
        Text = Got.take();
      else
        UntracedMs = Ms;
    }
    Out.UntracedMs.push_back(UntracedMs);
    Out.PrintBytes.push_back(Text.size());
    Out.Colors.push_back(Colors);
    auto It = Served.find(In.Key);
    if (It != Served.end() && It->second.Text != Text)
      ++Out.ServerMismatches;
    if (Status St = runOffPath(W, In, Text, Traced, Req))
      return St;
  }
  Out.Spans = Traced.spans();
  return Status::success();
}

// --- Raw output -------------------------------------------------------------

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += formatf("\\u%04x", C);
    else
      Out += C;
  }
  return Out + "\"";
}

std::string num(double V) { return formatf("%.17g", V); }

template <typename T> std::string array(const std::vector<T> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I)
    Out += (I ? "," : "") + num(static_cast<double>(Values[I]));
  return Out + "]";
}

std::string toJson(const Workload &W, uint64_t Seed,
                   const std::vector<double> &SetupSeconds,
                   uint64_t GoldenMismatches,
                   const LoopResult &L, const TraceResult *T) {
  std::ostringstream O;
  O << "{\"workload\":" << jsonString(W.Name) << ",\"seed\":" << Seed
    << ",\"quality_requests\":" << W.QualityRequests
    << ",\"setup_seconds\":" << array(SetupSeconds)
    << ",\"golden_mismatches\":" << GoldenMismatches
    << ",\"rss_requests\":" << W.RssRequests
    << ",\"peak_rss_mb\":" << num(L.PeakRssMb)
    << ",\"window_seconds\":" << num(L.WindowSeconds)
    << ",\"shed_retries\":" << L.ShedRetries
    << ",\"step_ms\":" << array(L.StepMs) << ",\"samples\":[";
  for (size_t I = 0; I < L.Samples.size(); ++I) {
    const Sample &S = L.Samples[I];
    O << (I ? "," : "") << "{\"seq\":" << S.Seq << ",\"key\":" << S.Key
      << ",\"latency_ms\":" << num(S.LatencyMs)
      << ",\"received_ms\":" << num(S.ReceivedMs)
      << ",\"queue_ms\":" << num(S.QueueMs)
      << ",\"compile_ms\":" << num(S.CompileMs) << ",\"code\":" << S.Code
      << ",\"tier\":" << S.Tier << ",\"client_ok\":" << (S.ClientOk ? "true" : "false")
      << ",\"repeat_mismatch\":" << (S.RepeatMismatch ? "true" : "false")
      << "}";
  }
  O << "],\"programs\":[";
  bool First = true;
  for (const auto &KV : L.Programs) {
    const Program &P = KV.second;
    O << (First ? "" : ",") << "{\"key\":" << KV.first
      << ",\"ok\":" << (P.Ok ? "true" : "false")
      << ",\"diagnostic\":" << jsonString(P.Diagnostic)
      << ",\"bytes\":" << P.Text.size() << ",\"pulses\":" << P.Pulses
      << ",\"exec_ms\":" << num(P.ExecMs)
      << ",\"eps_log10\":" << num(P.EpsLog10) << "}";
    First = false;
  }
  O << "]";
  if (T) {
    O << ",\"trace\":{\"untraced_ms\":" << array(T->UntracedMs)
      << ",\"print_bytes\":" << array(T->PrintBytes)
      << ",\"colors\":" << array(T->Colors)
      << ",\"server_mismatches\":" << T->ServerMismatches << "}";
  }
  O << "}\n";
  return O.str();
}

std::string spansJson(const std::vector<Span> &Spans) {
  std::ostringstream O;
  O << "[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    O << (I ? ",\n" : "\n") << "{\"id\":" << S.Id << ",\"parent\":" << S.Parent
      << ",\"request\":" << S.Request << ",\"name\":" << jsonString(S.Name)
      << ",\"start_us\":" << num(S.StartUs) << ",\"end_us\":" << num(S.EndUs)
      << "}";
  }
  O << "\n]\n";
  return O.str();
}

Status writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  Out.close();
  return Out ? Status::success() : Status::error("cannot write " + Path);
}

const char *Usage =
    "usage: e2e_client --serve-bin PATH --golden-dir DIR --workload NAME "
    "--seed N --seconds S --trace 0|1 --out RAW.json [--spans SPANS.json]\n";

int fail(const std::string &Message) {
  std::fprintf(stderr, "e2e_client: %s\n", Message.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string ServeBin, GoldenDir, WorkloadName, OutPath, SpansPath;
  long long Seed = -1;
  double Seconds = 0;
  long long Trace = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return fail(std::string("missing value for ") + Arg + "\n" + Usage);
    const char *Value = Argv[++I];
    if (Arg == "--serve-bin")
      ServeBin = Value;
    else if (Arg == "--golden-dir")
      GoldenDir = Value;
    else if (Arg == "--workload")
      WorkloadName = Value;
    else if (Arg == "--out")
      OutPath = Value;
    else if (Arg == "--spans")
      SpansPath = Value;
    else if (Arg == "--seed" || Arg == "--trace") {
      Expected<long long> V =
          parseInt(Value, 0, Arg == "--seed" ? (1LL << 62) : 1);
      if (!V)
        return fail(Arg + ": " + V.message());
      (Arg == "--seed" ? Seed : Trace) = *V;
    } else if (Arg == "--seconds") {
      Expected<double> V = parseDouble(Value, 0.1, 3600);
      if (!V)
        return fail(Arg + ": " + V.message());
      Seconds = *V;
    } else
      return fail("unknown argument " + Arg + "\n" + Usage);
  }
  const Workload *W = nullptr;
  for (const Workload &Candidate : Workloads)
    if (WorkloadName == Candidate.Name)
      W = &Candidate;
  if (!W || ServeBin.empty() || GoldenDir.empty() || OutPath.empty() ||
      Seed < 0 || Seconds <= 0)
    return fail(std::string("bad or missing arguments\n") + Usage);

  auto Goldens = loadGoldens(GoldenDir);
  if (!Goldens)
    return fail(Goldens.message());
  RequestSource Source(*W, static_cast<uint64_t>(Seed));

  std::vector<double> SetupSeconds;
  uint64_t GoldenMismatches = 0;
  Setup Live;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Setup S;
    if (Status St = setUp(ServeBin, *W, Source, *Goldens, S))
      return fail("set-up: " + St.message());
    SetupSeconds.push_back(S.Seconds);
    GoldenMismatches += S.GoldenMismatches;
    if (Rep + 1 < SetupRepeats) {
      S.Conns.clear();
      if (Status St = S.Server->stop())
        return fail(St.message());
    } else {
      Live = std::move(S);
    }
  }

  LoopResult Loop;
  if (Status St = runLoop(*W, Source, Live, Seconds, Loop))
    return fail("timed run: " + St.message());
  if (Loop.PeakRssMb < 0) // fewer results than RssRequests in the window
    Loop.PeakRssMb = Live.Server->peakRssMb();
  Live.Conns.clear();
  if (Status St = Live.Server->stop())
    return fail(St.message());

  verifyPrograms(Loop.Programs);

  TraceResult Traced;
  if (Trace) {
    if (Status St = runTraced(*W, Source, Loop.Programs, Traced))
      return fail("traced run: " + St.message());
    if (!SpansPath.empty())
      if (Status St = writeFile(SpansPath, spansJson(Traced.Spans)))
        return fail(St.message());
  }
  if (Status St = writeFile(OutPath, toJson(*W, static_cast<uint64_t>(Seed),
                                            SetupSeconds, GoldenMismatches,
                                            Loop,
                                            Trace ? &Traced : nullptr)))
    return fail(St.message());
  return 0;
}
