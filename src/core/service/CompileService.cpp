//===- core/service/CompileService.cpp - Async compile service ------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Lock order: the service mutex may be taken before a job mutex (submit's
// coalesce path); never the reverse while holding the job lock. resolveJob
// and the cancellation paths therefore release the job lock before touching
// the service maps. Pool.post is never called under the service mutex: a
// full bounded queue blocks the poster, and the workers that would free it
// need the service mutex to resolve their jobs.
//
//===----------------------------------------------------------------------===//

#include "core/service/CompileService.h"

#include "support/BinaryIO.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>

using namespace weaver;
using namespace weaver::core;

const char *core::jobStateName(JobState State) {
  switch (State) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Completed:
    return "completed";
  case JobState::Cancelled:
    return "cancelled";
  case JobState::Failed:
    return "failed";
  }
  return "unknown";
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

/// Shared state of one submitted job. State/Resolved/Outcome/Waiters/
/// CancelVotes/Callbacks are guarded by M; Id/Request/Key/EnqueueTime are
/// immutable after submit; InDedupIndex is guarded by the service mutex;
/// the CancelToken is internally atomic.
struct CompileService::Job {
  uint64_t Id = 0;
  CompileRequest Request;
  JobKey Key;
  CancelToken Cancel;
  std::chrono::steady_clock::time_point EnqueueTime;
  bool InDedupIndex = false; ///< guarded by the service mutex

  std::mutex M;
  std::condition_variable CV;
  JobState State = JobState::Queued;
  bool Started = false;         ///< the worker began the backend compile
  /// Set under M when the compile starts; the watchdog reads them to
  /// fill in a timed-out job's timings without racing the worker.
  std::chrono::steady_clock::time_point StartTime;
  double QueueSecondsAtStart = 0;
  bool CancelRequested = false; ///< all waiters voted; token is set
  /// Exactly-once guard: the first resolver claims the job, updates the
  /// service counters, and only then publishes Resolved — so by the time
  /// any wait() returns, stats() already reflects the job.
  bool ResolutionClaimed = false;
  bool Resolved = false;
  int Waiters = 1;    ///< handles attached (1 + coalesced submits)
  int CancelVotes = 0;
  JobOutcome Outcome;
  std::vector<Callback> Callbacks;
};

// --- JobHandle -----------------------------------------------------------

uint64_t CompileService::JobHandle::id() const { return J ? J->Id : 0; }

JobState CompileService::JobHandle::state() const {
  if (!J)
    return JobState::Failed;
  std::lock_guard<std::mutex> Lock(J->M);
  return J->State;
}

JobOutcome CompileService::JobHandle::wait() const {
  if (!J) {
    JobOutcome Out;
    Out.State = JobState::Failed;
    Out.Diagnostic = "invalid job handle";
    return Out;
  }
  std::unique_lock<std::mutex> Lock(J->M);
  J->CV.wait(Lock, [this]() { return J->Resolved; });
  JobOutcome Out = J->Outcome;
  Out.Coalesced = WasCoalesced;
  return Out;
}

bool CompileService::JobHandle::waitFor(double Seconds,
                                        JobOutcome &Out) const {
  if (!J) {
    Out.State = JobState::Failed;
    Out.Diagnostic = "invalid job handle";
    return true;
  }
  std::unique_lock<std::mutex> Lock(J->M);
  if (!J->CV.wait_for(Lock, std::chrono::duration<double>(Seconds),
                      [this]() { return J->Resolved; }))
    return false;
  Out = J->Outcome;
  Out.Coalesced = WasCoalesced;
  return true;
}

void CompileService::JobHandle::cancel() const {
  if (J && Svc)
    Svc->voteCancel(J, *Voted);
}

// --- Construction / teardown ---------------------------------------------

CompileService::CompileService(ServiceOptions Opts)
    : Options(Opts),
      Pool(PoolOptions{Opts.NumThreads, Opts.QueueCapacity}) {
  if (Options.Cache) {
    ActiveCache = Options.Cache;
  } else if (Options.UseCache) {
    OwnedCache = std::make_unique<pipeline::PassCache>();
    ActiveCache = OwnedCache.get();
  }
  if (ActiveCache && !Options.CacheFile.empty()) {
    // Warm-start: merge the persisted snapshot into the cache. Any defect
    // (missing file, stale fingerprint, corruption) just means a cold
    // start — the service must come up either way.
    if (!ActiveCache->loadSnapshot(Options.CacheFile))
      Counts.CacheEntriesLoaded = ActiveCache->size();
  }
  for (size_t I = 0; I < std::size(baselines::AllBackendKinds); ++I) {
    baselines::BackendKind Kind = baselines::AllBackendKinds[I];
    if (Kind == baselines::BackendKind::Weaver) {
      // The service's Weaver path compiles through the shared PassCache;
      // everything else comes from the registry with default knobs.
      WeaverOptions WOpt;
      WOpt.Cache = ActiveCache;
      Backends[I] = std::make_unique<baselines::WeaverBackend>(WOpt);
    } else {
      Backends[I] = baselines::createBackend(Kind);
    }
  }
}

CompileService::~CompileService() { shutdown(/*Drain=*/true); }

const baselines::Backend &
CompileService::backendFor(baselines::BackendKind Kind) const {
  return *Backends[static_cast<size_t>(Kind)];
}

// --- Job identity --------------------------------------------------------

CompileService::JobKey CompileService::makeKey(const CompileRequest &Request) {
  JobKey K;
  auto AddWord = [&K](uint64_t W) { K.Words.push_back(W); };
  auto AddDouble = [&AddWord](double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
    std::memcpy(&Bits, &V, sizeof(Bits));
    AddWord(Bits);
  };
  const sat::CnfFormula &F = Request.Formula;
  AddWord(static_cast<uint64_t>(F.numVariables()));
  AddWord(static_cast<uint64_t>(F.numClauses()));
  for (const sat::Clause &C : F.clauses()) {
    for (sat::Literal L : C)
      AddWord(static_cast<uint64_t>(static_cast<int64_t>(L.dimacs())));
    AddWord(uint64_t{0}); // clause terminator
  }
  AddWord(static_cast<uint64_t>(Request.Kind));
  AddWord(static_cast<uint64_t>(Request.Qaoa.Layers));
  AddWord(static_cast<uint64_t>(Request.Qaoa.Measure));
  AddWord(static_cast<uint64_t>(Request.Qaoa.UseCompressedClauses));
  AddDouble(Request.Qaoa.Gamma);
  AddDouble(Request.Qaoa.Beta);
  // A self-cancel-armed request is a different job than a plain one: it
  // must neither hand its arming to an innocent waiter nor lose it by
  // joining an unarmed in-flight compile.
  AddWord(static_cast<uint64_t>(Request.CancelAtCheckpoint));
  // Same logic for deadlines: a tight-deadline request must not arm a
  // deadline on a patient waiter's job, nor ride an undeadlined one.
  AddDouble(Request.DeadlineSeconds);
  AddDouble(Request.WatchdogSeconds);
  // FNV-1a over the payload; lookups still compare the words exactly.
  K.Hash = fnv1a64(K.Words.data(), K.Words.size() * sizeof(uint64_t));
  return K;
}

// --- Submission ----------------------------------------------------------

CompileService::JobHandle CompileService::submit(CompileRequest Request,
                                                 Callback Cb) {
  JobHandle H;
  submitImpl(std::move(Request), std::move(Cb), /*Blocking=*/true, H);
  return H;
}

CompileService::SubmitStatus
CompileService::trySubmit(CompileRequest Request, JobHandle &Out,
                          Callback Cb) {
  Out = JobHandle();
  return submitImpl(std::move(Request), std::move(Cb), /*Blocking=*/false,
                    Out);
}

CompileService::SubmitStatus
CompileService::submitImpl(CompileRequest Request, Callback Cb, bool Blocking,
                           JobHandle &Out) {
  auto Now = std::chrono::steady_clock::now();
  JobKey Key = makeKey(Request);

  std::shared_ptr<Job> J;
  bool Coalesced = false;
  bool Rejected = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    // A blocking submit counts even when rejected (the caller gets a
    // resolved-Failed handle); a non-blocking one counts only work that
    // actually entered the system — shed submissions are the transport's
    // statistic, not the service's.
    if (Blocking)
      ++Counts.Submitted;
    if (ShuttingDown) {
      if (!Blocking)
        return SubmitStatus::ShutDown;
      Rejected = true;
    } else {
      auto It = InFlight.find(Key.Hash);
      if (It != InFlight.end())
        for (std::pair<JobKey, std::shared_ptr<Job>> &Entry : It->second)
          if (Entry.first == Key) {
            // Attach under the job lock (service -> job lock order). A
            // job that resolved or is being cancelled is not joinable;
            // fall through to a fresh compile.
            std::lock_guard<std::mutex> JLock(Entry.second->M);
            if (!Entry.second->ResolutionClaimed &&
                !Entry.second->CancelRequested) {
              J = Entry.second;
              ++J->Waiters;
              if (Cb)
                J->Callbacks.push_back(std::move(Cb));
              Coalesced = true;
              ++Counts.Coalesced;
              if (!Blocking)
                ++Counts.Submitted;
            }
            break;
          }
    }
    if (!J) {
      J = std::make_shared<Job>();
      J->Id = NextJobId++;
      J->Request = std::move(Request);
      J->Key = std::move(Key);
      J->EnqueueTime = Now;
      if (J->Request.CancelAtCheckpoint > 0)
        J->Cancel.cancelAtCheckpoint(J->Request.CancelAtCheckpoint);
      if (J->Request.DeadlineSeconds > 0)
        J->Cancel.setDeadline(
            Now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          J->Request.DeadlineSeconds)));
      if (Cb)
        J->Callbacks.push_back(std::move(Cb));
      if (!Rejected) {
        Live.emplace(J->Id, J);
        InFlight[J->Key.Hash].push_back({J->Key, J});
        J->InDedupIndex = true;
        if (!Blocking) {
          // Post under the service mutex — tryPost never waits, and a
          // failed post must roll the registration back before any
          // concurrent submit can coalesce onto the never-queued job.
          WorkerPool::PostResult R =
              Pool.tryPost([this, J]() { runJob(J); }, J->Request.Priority);
          if (R != WorkerPool::PostResult::Posted) {
            if (J->InDedupIndex)
              removeFromDedupLocked(J);
            Live.erase(J->Id);
            return R == WorkerPool::PostResult::Full
                       ? SubmitStatus::QueueFull
                       : SubmitStatus::ShutDown;
          }
          ++Counts.Submitted;
        }
      }
    }
  }

  if (Coalesced) {
    Out = JobHandle(std::move(J), /*Coalesced=*/true, this);
    return SubmitStatus::Coalesced;
  }

  if (Rejected) {
    JobOutcome RejOut;
    RejOut.State = JobState::Failed;
    RejOut.Diagnostic = "service is shut down";
    resolveJob(J, std::move(RejOut));
    Out = JobHandle(std::move(J), /*Coalesced=*/false, this);
    return SubmitStatus::ShutDown;
  }

  if (Blocking) {
    // Outside the service mutex: a bounded pool queue may block here, and
    // the workers that drain it take the service mutex to resolve.
    bool Posted =
        Pool.post([this, J]() { runJob(J); }, J->Request.Priority);
    if (!Posted) {
      JobOutcome FailOut;
      FailOut.State = JobState::Failed;
      FailOut.Diagnostic = "service is shut down";
      FailOut.QueueSeconds = secondsSince(J->EnqueueTime);
      resolveJob(J, std::move(FailOut));
    }
  }
  Out = JobHandle(std::move(J), /*Coalesced=*/false, this);
  return SubmitStatus::Accepted;
}

// --- Execution -----------------------------------------------------------

void CompileService::runJob(const std::shared_ptr<Job> &J) {
  double QueueSeconds = secondsSince(J->EnqueueTime);
  bool CancelledInQueue = false;
  {
    std::lock_guard<std::mutex> Lock(J->M);
    if (J->ResolutionClaimed)
      return; // cancelled (or rejected) before dequeue
    if (J->CancelRequested) {
      CancelledInQueue = true;
    } else {
      J->Started = true;
      J->State = JobState::Running;
      J->StartTime = std::chrono::steady_clock::now();
      J->QueueSecondsAtStart = QueueSeconds;
    }
  }
  if (CancelledInQueue) {
    // Cancellation won the race to the queue; the voter may be resolving
    // the job concurrently — resolveJob keeps it exactly-once.
    JobOutcome Out;
    Out.State = JobState::Cancelled;
    Out.Diagnostic = CancelledDiagnostic;
    Out.QueueSeconds = QueueSeconds;
    resolveJob(J, std::move(Out));
    return;
  }

  // A job whose deadline lapsed while it sat in the queue expires here
  // without burning a worker on a compile nobody is waiting for.
  if (J->Cancel.expireIfPastDeadline()) {
    JobOutcome Out;
    Out.State = JobState::Cancelled;
    Out.DeadlineExceeded = J->Cancel.wasDeadline();
    Out.Diagnostic =
        Out.DeadlineExceeded ? DeadlineDiagnostic : CancelledDiagnostic;
    Out.QueueSeconds = QueueSeconds;
    resolveJob(J, std::move(Out));
    return;
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.CompilesStarted;
  }

  // The watchdog is armed before the compile (and before any injected
  // hang) so a job that never returns still resolves.
  double WatchdogBudget = J->Request.WatchdogSeconds > 0
                              ? J->Request.WatchdogSeconds
                              : Options.WatchdogSeconds;
  if (WatchdogBudget > 0)
    armWatchdog(J, WatchdogBudget);

  if (fault::enabled()) {
    // Simulated worker crash: the job dies with no result but the worker
    // thread itself survives to take the next job — the in-process
    // analogue of a compile process being killed.
    if (fault::fire("service.job.crash")) {
      JobOutcome Out;
      Out.State = JobState::Failed;
      Out.Diagnostic = "worker crashed (injected fault)";
      Out.QueueSeconds = QueueSeconds;
      resolveJob(J, std::move(Out));
      return;
    }
    // Simulated stuck compile: park until the watchdog (or a client
    // cancel) trips the token; delay_ms caps the stall when nothing does.
    fault::Decision Hang = fault::decide("service.job.hang");
    if (Hang.Fire)
      fault::hangUntilCancelled(Hang.DelayMs, &J->Cancel);
  }

  const baselines::Backend &B = backendFor(J->Request.Kind);
  auto Start = std::chrono::steady_clock::now();
  baselines::CompileOutput Result =
      B.compileFull(J->Request.Formula, J->Request.Qaoa, &J->Cancel);
  double CompileSeconds = secondsSince(Start);

  JobOutcome Out;
  // Infeasible compiles (backend TimedOut/Unsupported, malformed input)
  // are terminal failures, not completions: Completed promises usable
  // metrics and (for Weaver) a program.
  Out.State = Result.Cancelled
                  ? JobState::Cancelled
                  : (Result.Metrics.usable() ? JobState::Completed
                                             : JobState::Failed);
  Out.Metrics = std::move(Result.Metrics);
  Out.Wqasm = std::move(Result.Wqasm);
  if (Result.Cancelled) {
    Out.DeadlineExceeded = J->Cancel.wasDeadline();
    Out.Diagnostic =
        Out.DeadlineExceeded ? DeadlineDiagnostic : CancelledDiagnostic;
  } else if (Out.State == JobState::Failed)
    Out.Diagnostic = Out.Metrics.Diagnostic.empty()
                         ? "backend reported the instance infeasible"
                         : Out.Metrics.Diagnostic;
  Out.QueueSeconds = QueueSeconds;
  Out.CompileSeconds = CompileSeconds;
  Out.Tier = Result.ProgramFromCache ? CacheTier::Program : CacheTier::None;
  resolveJob(J, std::move(Out));
}

bool CompileService::resolveJob(const std::shared_ptr<Job> &J,
                                JobOutcome Outcome) {
  {
    std::lock_guard<std::mutex> Lock(J->M);
    if (J->ResolutionClaimed)
      return false;
    J->ResolutionClaimed = true;
    Outcome.JobId = J->Id;
    J->Outcome = std::move(Outcome);
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (J->InDedupIndex)
      removeFromDedupLocked(J);
    Live.erase(J->Id);
    switch (J->Outcome.State) {
    case JobState::Completed:
      ++Counts.Completed;
      break;
    case JobState::Cancelled:
      ++Counts.Cancelled;
      if (J->Outcome.DeadlineExceeded)
        ++Counts.DeadlineExceeded;
      break;
    default:
      ++Counts.Failed;
      if (J->Outcome.WatchdogTimedOut)
        ++Counts.WatchdogTimeouts;
      break;
    }
    Counts.TotalQueueSeconds += J->Outcome.QueueSeconds;
    Counts.MaxQueueSeconds =
        std::max(Counts.MaxQueueSeconds, J->Outcome.QueueSeconds);
    Counts.TotalCompileSeconds += J->Outcome.CompileSeconds;
    if (J->Outcome.Tier == CacheTier::Program)
      ++Counts.ProgramTierHits;
  }
  std::vector<Callback> Callbacks;
  {
    std::lock_guard<std::mutex> Lock(J->M);
    J->State = J->Outcome.State;
    J->Resolved = true;
    Callbacks.swap(J->Callbacks);
    J->CV.notify_all();
  }
  // Outcome is immutable once claimed; reading it outside the lock only
  // races other readers. Callbacks run without any lock held.
  for (Callback &Cb : Callbacks)
    Cb(J->Outcome);
  return true;
}

void CompileService::removeFromDedupLocked(const std::shared_ptr<Job> &J) {
  auto It = InFlight.find(J->Key.Hash);
  if (It != InFlight.end()) {
    auto &Bucket = It->second;
    for (size_t I = 0; I < Bucket.size(); ++I)
      if (Bucket[I].second == J) {
        Bucket.erase(Bucket.begin() + I);
        break;
      }
    if (Bucket.empty())
      InFlight.erase(It);
  }
  J->InDedupIndex = false;
}

// --- Watchdog ------------------------------------------------------------

void CompileService::armWatchdog(const std::shared_ptr<Job> &J,
                                 double Seconds) {
  auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(Seconds));
  std::lock_guard<std::mutex> Lock(WatchdogMutex);
  if (WatchdogStop)
    return; // tearing down; Pool.shutdown is already reaping the workers
  WatchdogQueue.emplace(Deadline, J);
  if (!WatchdogThread.joinable())
    WatchdogThread = std::thread([this]() { watchdogLoop(); });
  WatchdogCV.notify_all();
}

void CompileService::watchdogLoop() {
  std::unique_lock<std::mutex> Lock(WatchdogMutex);
  while (!WatchdogStop) {
    if (WatchdogQueue.empty()) {
      WatchdogCV.wait(Lock);
      continue;
    }
    // A copy, not a reference into the queue: wait_until reads the
    // deadline again after it reacquires the lock, and an armWatchdog in
    // between may have reallocated the queue's storage.
    auto Earliest = WatchdogQueue.top().first;
    if (Earliest > std::chrono::steady_clock::now()) {
      WatchdogCV.wait_until(Lock, Earliest);
      continue; // re-check: the queue (or WatchdogStop) may have changed
    }
    std::shared_ptr<Job> J = WatchdogQueue.top().second;
    WatchdogQueue.pop();
    Lock.unlock();
    JobOutcome Out;
    Out.State = JobState::Failed;
    Out.WatchdogTimedOut = true;
    {
      std::lock_guard<std::mutex> JLock(J->M);
      Out.QueueSeconds = J->QueueSecondsAtStart;
      Out.CompileSeconds = secondsSince(J->StartTime);
    }
    Out.Diagnostic =
        formatf("watchdog: compile exceeded its %.3f s budget",
                J->Request.WatchdogSeconds > 0 ? J->Request.WatchdogSeconds
                                               : Options.WatchdogSeconds);
    // A job that resolved while we raced here makes this a no-op — the
    // exactly-once guarantee is resolveJob's, not ours.
    resolveJob(J, std::move(Out));
    // Cancel only after resolving: the token releases a cooperatively hung
    // compile (fault::hangUntilCancelled or a between-pass checkpoint),
    // and a worker released first would resolve the job Cancelled before
    // the watchdog's Failed outcome.
    J->Cancel.requestCancel();
    Lock.lock();
  }
}

// --- Cancellation / shutdown ---------------------------------------------

void CompileService::voteCancel(const std::shared_ptr<Job> &J,
                                std::atomic<bool> &HandleVoted) {
  if (HandleVoted.exchange(true))
    return; // this handle (and its copies) already voted
  bool ResolveNow = false;
  {
    std::lock_guard<std::mutex> Lock(J->M);
    if (J->ResolutionClaimed)
      return; // cancel after completion: terminal state stands
    if (++J->CancelVotes < J->Waiters)
      return; // other coalesced clients still want the result
    J->CancelRequested = true;
    J->Cancel.requestCancel();
    ResolveNow = !J->Started;
  }
  {
    // A cancel-requested job leaves the dedup index so an identical new
    // submission starts a fresh compile instead of joining a doomed one.
    std::lock_guard<std::mutex> Lock(Mutex);
    if (J->InDedupIndex)
      removeFromDedupLocked(J);
  }
  if (ResolveNow) {
    JobOutcome Out;
    Out.State = JobState::Cancelled;
    Out.Diagnostic = CancelledDiagnostic;
    Out.QueueSeconds = secondsSince(J->EnqueueTime);
    resolveJob(J, std::move(Out));
  }
}

void CompileService::armDrainDeadline(double BudgetSeconds) {
  auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, BudgetSeconds)));
  std::vector<std::shared_ptr<Job>> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Snapshot.reserve(Live.size());
    for (auto &Entry : Live)
      Snapshot.push_back(Entry.second);
  }
  // setDeadline keeps the earliest deadline, so a job that already had a
  // tighter per-request deadline is unaffected.
  for (const std::shared_ptr<Job> &J : Snapshot)
    J->Cancel.setDeadline(Deadline);
}

void CompileService::shutdown(bool Drain) {
  std::vector<std::shared_ptr<Job>> Pending;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
    if (!Drain)
      for (auto &Entry : Live)
        Pending.push_back(Entry.second);
  }
  for (const std::shared_ptr<Job> &J : Pending) {
    bool ResolveNow = false;
    {
      std::lock_guard<std::mutex> Lock(J->M);
      if (J->ResolutionClaimed)
        continue;
      J->CancelRequested = true;
      J->Cancel.requestCancel();
      ResolveNow = !J->Started;
    }
    if (ResolveNow) {
      JobOutcome Out;
      Out.State = JobState::Cancelled;
      Out.Diagnostic = std::string(CancelledDiagnostic) + " at shutdown";
      Out.QueueSeconds = secondsSince(J->EnqueueTime);
      resolveJob(J, std::move(Out));
    }
  }
  // Drain runs every still-queued task (resolved ones exit immediately);
  // !Drain discards them — safe because the loop above already resolved
  // every job that had not started. Running jobs finish or abort at their
  // next checkpoint; the pool joins them either way.
  Pool.shutdown(Drain);
  // Only after the workers are gone may the watchdog die: a hung compile
  // inside Pool.shutdown needs a live watchdog to be released.
  {
    std::lock_guard<std::mutex> Lock(WatchdogMutex);
    WatchdogStop = true;
    WatchdogQueue = {};
    WatchdogCV.notify_all();
  }
  if (WatchdogThread.joinable())
    WatchdogThread.join();
  // Persist the cache only after a full drain (every worker has exited,
  // so the snapshot is a complete, settled view). A cancelling shutdown
  // skips the flush: the previous snapshot on disk stays valid.
  bool FlushHere = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Drain && !CacheFlushed && ActiveCache && !Options.CacheFile.empty())
      FlushHere = CacheFlushed = true;
  }
  if (FlushHere)
    ActiveCache->saveSnapshot(Options.CacheFile); // best-effort
}

// --- Reporting -----------------------------------------------------------

CompileService::ServiceStats CompileService::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

Table CompileService::statsTable() const {
  ServiceStats S = stats();
  uint64_t Resolved = S.Completed + S.Cancelled + S.Failed;
  Table T({"metric", "value"});
  T.addRow({"jobs submitted", std::to_string(S.Submitted)});
  T.addRow({"  coalesced onto in-flight", std::to_string(S.Coalesced)});
  T.addRow({"jobs completed", std::to_string(S.Completed)});
  T.addRow({"jobs cancelled", std::to_string(S.Cancelled)});
  T.addRow({"  past deadline", std::to_string(S.DeadlineExceeded)});
  T.addRow({"jobs rejected", std::to_string(S.Failed)});
  T.addRow({"  watchdog timeouts", std::to_string(S.WatchdogTimeouts)});
  T.addRow({"compiles started", std::to_string(S.CompilesStarted)});
  T.addRow({"queue wait mean [ms]",
            formatf("%.3f", Resolved ? S.TotalQueueSeconds / Resolved * 1e3
                                     : 0.0)});
  T.addRow({"queue wait max [ms]", formatf("%.3f", S.MaxQueueSeconds * 1e3)});
  T.addRow({"compile wall mean [ms]",
            formatf("%.3f", S.CompilesStarted ? S.TotalCompileSeconds /
                                                    S.CompilesStarted * 1e3
                                              : 0.0)});
  T.addRow({"cache hits program tier", std::to_string(S.ProgramTierHits)});
  T.addRow({"cache entries loaded from file",
            std::to_string(S.CacheEntriesLoaded)});
  return T;
}
