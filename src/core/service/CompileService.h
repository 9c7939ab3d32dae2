//===- core/service/CompileService.h - Async compile service ---*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-running compile-job server on top of the Backend registry and
/// the WorkerPool — the ROADMAP "Async compilation service" item. Clients
/// submit (formula, backend kind, QAOA parameters, priority) jobs; the
/// service queues them through a bounded MPMC priority queue, runs them on
/// its persistent worker pool, and hands back a JobHandle (future-style
/// wait()/waitFor()) plus an optional completion callback.
///
/// Guarantees:
///  * Every submitted job resolves exactly once, to Completed, Cancelled,
///    or Failed — including under shutdown and racing cancellations.
///  * Cooperative cancellation: a queued job cancels immediately; a
///    running Weaver job aborts between pipeline passes (CancelToken
///    checkpoints in PassManager) and publishes nothing into the cache.
///  * Deduplication: identical in-flight requests — same formula, backend,
///    and QAOA parameters, the same identity the PassCache keys on —
///    coalesce onto one compile. Coalesced waiters share the result;
///    a coalesced job is only cancelled once every attached handle has
///    asked for cancellation.
///  * All Weaver jobs share one PassCache (service-owned unless an
///    external one is injected), so a parameter sweep submitted as jobs
///    gets the same template reuse as a BatchCompiler sweep, and output
///    stays byte-identical to direct compile() calls.
///
/// Handles may outlive the job but not the service; shutdown() (or the
/// destructor) resolves every pending job before returning, so wait()
/// never blocks past the service's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_SERVICE_COMPILESERVICE_H
#define WEAVER_CORE_SERVICE_COMPILESERVICE_H

#include "baselines/Backend.h"
#include "core/WorkerPool.h"
#include "core/pipeline/PassCache.h"
#include "support/CancelToken.h"
#include "support/Table.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace weaver {
namespace core {

/// Lifecycle of a service job. Queued/Running are transient; the other
/// three are terminal and reported exactly once per job.
enum class JobState { Queued, Running, Completed, Cancelled, Failed };

/// Stable lower-case state name ("queued", "running", ...).
const char *jobStateName(JobState State);

/// Whether a PassCache template served a Weaver job. ResultFrame carries
/// the value, and e2ebench/metrics.py reads 2 as a template hit.
enum class CacheTier { None = 0, Program = 2 };

/// One compile job: what to compile, on which backend, at what priority.
struct CompileRequest {
  sat::CnfFormula Formula;
  baselines::BackendKind Kind = baselines::BackendKind::Weaver;
  qaoa::QaoaParams Qaoa;
  /// Higher runs first; ties dequeue in submission order. A submission
  /// that coalesces onto an identical in-flight job inherits that job's
  /// queue position — priorities order distinct jobs, they do not
  /// re-prioritise one already queued.
  int Priority = 0;
  /// Deadline in seconds from submission; 0 disables. A job past its
  /// deadline cancels cooperatively: still queued, it resolves without
  /// compiling; running, it aborts at the next between-pass checkpoint.
  /// The outcome reports DeadlineExceeded so transports can distinguish
  /// a deadline from a client cancellation. Part of the dedup identity —
  /// requests with different deadline budgets never coalesce.
  double DeadlineSeconds = 0;
  /// Testing aid: arms the job's CancelToken to self-cancel at the Nth
  /// cooperative checkpoint (see CancelToken::cancelAtCheckpoint). 0
  /// disables. This is how tests pin "cancelled between pass K and K+1"
  /// deterministically.
  int CancelAtCheckpoint = 0;
  /// Per-job watchdog budget in seconds, measured from the moment the
  /// backend compile starts (queue wait does not count, unlike
  /// DeadlineSeconds). 0 inherits ServiceOptions::WatchdogSeconds. A
  /// compile that overruns the budget is resolved Failed by the watchdog
  /// (exactly once, with WatchdogTimedOut set) and its CancelToken is
  /// cancelled so a cooperatively hung pipeline releases its worker.
  /// Part of the dedup identity.
  double WatchdogSeconds = 0;
};

/// Everything a resolved job reports.
struct JobOutcome {
  uint64_t JobId = 0;
  JobState State = JobState::Queued;
  baselines::BaselineResult Metrics;
  /// Printed wQASM (Weaver jobs; empty for metric-only backends).
  std::string Wqasm;
  /// Failure/cancellation detail when State != Completed.
  std::string Diagnostic;
  /// Seconds between submission and the job leaving the queue (or being
  /// cancelled in it).
  double QueueSeconds = 0;
  /// Worker wall-clock seconds spent in the backend compile.
  double CompileSeconds = 0;
  /// Program when a PassCache template served the compile (Weaver only).
  CacheTier Tier = CacheTier::None;
  /// This handle attached to an already in-flight identical job.
  bool Coalesced = false;
  /// State == Cancelled because the request's deadline expired (not a
  /// client vote or shutdown).
  bool DeadlineExceeded = false;
  /// State == Failed because the per-job watchdog expired while the
  /// compile was running (the worker itself survived).
  bool WatchdogTimedOut = false;
};

/// CompileService configuration.
struct ServiceOptions {
  /// Worker threads; 0 selects std::thread::hardware_concurrency().
  int NumThreads = 0;
  /// Bounded job-queue capacity; submit() blocks while the queue is
  /// full. 0 means unbounded.
  size_t QueueCapacity = 256;
  /// Compile Weaver jobs through a PassCache. False (with Cache unset)
  /// runs every job cold — used by the differential tests to pin
  /// cache-on == cache-off byte identity through the service.
  bool UseCache = true;
  /// Optional external PassCache shared with other drivers (not owned;
  /// must outlive the service; overrides UseCache). nullptr with
  /// UseCache gives the service its own.
  pipeline::PassCache *Cache = nullptr;
  /// Optional persistent cache file. Loaded into the active cache at
  /// construction (a missing/stale/corrupt file is ignored: the service
  /// starts cold) and flushed back on a draining shutdown — so a
  /// restarted server warm-starts from its previous life's templates.
  /// Ignored when caching is off. See pipeline/PassCache.h.
  std::string CacheFile;
  /// Default per-job watchdog budget in seconds (see
  /// CompileRequest::WatchdogSeconds); 0 disables the watchdog for jobs
  /// that do not set their own budget. The watchdog thread starts lazily
  /// on the first armed job, so an unconfigured service pays nothing.
  double WatchdogSeconds = 0;
};

/// Async compilation service; see file comment.
class CompileService {
  struct Job;

public:
  /// Client-side view of one submitted job. Cheap to copy; copies share
  /// the cancellation vote. Valid only while the service is alive.
  class JobHandle {
  public:
    JobHandle() = default;

    bool valid() const { return J != nullptr; }
    uint64_t id() const;
    /// This handle coalesced onto an in-flight job at submit time.
    bool coalesced() const { return WasCoalesced; }
    /// Snapshot of the job's current state.
    JobState state() const;

    /// Blocks until the job resolves; returns the terminal outcome.
    JobOutcome wait() const;
    /// Bounded wait; returns false (leaving \p Out untouched) on timeout.
    bool waitFor(double Seconds, JobOutcome &Out) const;

    /// Registers this handle's cancellation vote (idempotent per handle,
    /// shared by its copies). The job cancels once every handle attached
    /// to it has voted: queued jobs resolve Cancelled immediately,
    /// running Weaver jobs abort at the next between-pass checkpoint, and
    /// already-resolved jobs are unaffected.
    void cancel() const;

  private:
    friend class CompileService;
    JobHandle(std::shared_ptr<Job> J, bool Coalesced, CompileService *Svc)
        : J(std::move(J)), Voted(std::make_shared<std::atomic<bool>>(false)),
          WasCoalesced(Coalesced), Svc(Svc) {}

    std::shared_ptr<Job> J;
    std::shared_ptr<std::atomic<bool>> Voted;
    bool WasCoalesced = false;
    CompileService *Svc = nullptr;
  };

  using Callback = std::function<void(const JobOutcome &)>;

  /// Aggregate counters; every job lands in exactly one of Completed,
  /// Cancelled, or Failed.
  struct ServiceStats {
    uint64_t Submitted = 0; ///< submit() calls, including coalesced
    uint64_t Coalesced = 0; ///< submissions served by an in-flight job
    uint64_t Completed = 0;
    uint64_t Cancelled = 0;
    /// Rejected at submit (shutdown) or compile reported infeasible
    /// (backend TimedOut/Unsupported, malformed input).
    uint64_t Failed = 0;
    /// Cancelled jobs whose cancellation was a deadline expiry (subset of
    /// Cancelled).
    uint64_t DeadlineExceeded = 0;
    /// Running compiles resolved Failed by the watchdog (subset of
    /// Failed).
    uint64_t WatchdogTimeouts = 0;
    uint64_t CompilesStarted = 0; ///< jobs whose backend compile began
    uint64_t ProgramTierHits = 0; ///< compiles served from a template
    /// Entries warm-started from ServiceOptions::CacheFile (0 when no
    /// file was configured or the load was rejected).
    uint64_t CacheEntriesLoaded = 0;
    double TotalQueueSeconds = 0;
    double MaxQueueSeconds = 0;
    double TotalCompileSeconds = 0;
  };

  explicit CompileService(ServiceOptions Options = {});
  /// shutdown(/*Drain=*/true).
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Enqueues \p Request; blocks while the job queue is at capacity.
  /// \p Cb, if set, runs exactly once on resolution (from the resolving
  /// thread). Jobs resolve Completed only with usable metrics; an
  /// infeasible compile (backend TimedOut/Unsupported) resolves Failed
  /// with the backend's diagnostic. After shutdown the job is rejected:
  /// it resolves Failed before submit returns and the callback still
  /// fires.
  JobHandle submit(CompileRequest Request, Callback Cb = nullptr);

  /// Outcome of a non-blocking trySubmit.
  enum class SubmitStatus {
    Accepted,  ///< a fresh job was queued
    Coalesced, ///< attached to an identical in-flight job (no queue slot)
    QueueFull, ///< rejected: job queue at capacity (handle is invalid)
    ShutDown,  ///< rejected: service is shutting down (handle is invalid)
  };

  /// Non-blocking submit for transports that must never stall their
  /// accept/poll loop: where submit() would block on a full job queue,
  /// this rejects with QueueFull so the caller can shed load (e.g. a
  /// RETRYING_LATER frame with a suggested backoff). Coalescing onto an
  /// in-flight job never consumes a queue slot and still succeeds at
  /// capacity. On QueueFull/ShutDown nothing was enqueued, no callback
  /// will fire, and \p Out is left invalid.
  SubmitStatus trySubmit(CompileRequest Request, JobHandle &Out,
                         Callback Cb = nullptr);

  /// Stops the service. Drain=true compiles every queued job first;
  /// Drain=false cancels queued jobs and asks running ones to abort at
  /// their next checkpoint. Either way every job is resolved and all
  /// workers have exited when this returns. Idempotent.
  void shutdown(bool Drain = true);

  /// Arms a drain budget: every currently live (queued or running) job
  /// gets its CancelToken deadline tightened to now + \p BudgetSeconds.
  /// Jobs that finish inside the budget complete normally; the rest
  /// cancel at their next checkpoint with DeadlineExceeded. The graceful-
  /// drain path calls this, then shutdown(/*Drain=*/true).
  void armDrainDeadline(double BudgetSeconds);

  /// Jobs waiting in the pool queue right now (admission-control input).
  size_t queueDepth() const { return Pool.queueDepth(); }

  ServiceStats stats() const;
  /// Aggregate stats as a support/Table ("metric" / "value" rows).
  Table statsTable() const;

  /// The PassCache every Weaver job compiles through; null when caching
  /// was disabled via ServiceOptions.
  pipeline::PassCache *cache() { return ActiveCache; }
  int numThreads() const { return Pool.numThreads(); }

private:
  /// Exact-match identity of a request: formula payload + backend kind +
  /// QAOA parameters — the same tuple the PassCache keys on, extended by
  /// the gamma/beta point (different angles are different outputs, so
  /// they must not coalesce).
  struct JobKey {
    std::vector<uint64_t> Words;
    uint64_t Hash = 0;
    friend bool operator==(const JobKey &A, const JobKey &B) {
      return A.Hash == B.Hash && A.Words == B.Words;
    }
  };
  static JobKey makeKey(const CompileRequest &Request);

  /// Shared body of submit()/trySubmit(); Blocking selects Pool.post vs
  /// Pool.tryPost under the service mutex.
  SubmitStatus submitImpl(CompileRequest Request, Callback Cb, bool Blocking,
                          JobHandle &Out);

  const baselines::Backend &backendFor(baselines::BackendKind Kind) const;
  void runJob(const std::shared_ptr<Job> &J);
  /// Registers \p J with the watchdog: if it is still unresolved
  /// \p Seconds from now, the watchdog resolves it Failed and cancels its
  /// token. Starts the watchdog thread on first use.
  void armWatchdog(const std::shared_ptr<Job> &J, double Seconds);
  void watchdogLoop();
  /// Resolves \p J exactly once; later calls are no-ops. Returns whether
  /// this call won the resolution.
  bool resolveJob(const std::shared_ptr<Job> &J, JobOutcome Outcome);
  /// Drops \p J from the dedup index; caller holds the service mutex.
  void removeFromDedupLocked(const std::shared_ptr<Job> &J);
  void voteCancel(const std::shared_ptr<Job> &J,
                  std::atomic<bool> &HandleVoted);

  ServiceOptions Options;
  std::unique_ptr<pipeline::PassCache> OwnedCache;
  pipeline::PassCache *ActiveCache = nullptr;
  std::unique_ptr<baselines::Backend>
      Backends[std::size(baselines::AllBackendKinds)];

  mutable std::mutex Mutex; ///< guards the maps, counters, and ShuttingDown
  bool ShuttingDown = false;
  /// The draining shutdown already flushed ActiveCache to CacheFile; a
  /// second shutdown() (e.g. explicit call then destructor) must not
  /// rewrite the file.
  bool CacheFlushed = false;
  uint64_t NextJobId = 1;
  ServiceStats Counts;
  /// Dedup index over unresolved, uncancelled jobs.
  std::unordered_map<uint64_t,
                     std::vector<std::pair<JobKey, std::shared_ptr<Job>>>>
      InFlight;
  /// Every unresolved job by id (dedup on or off) — the shutdown path
  /// cancels through this.
  std::unordered_map<uint64_t, std::shared_ptr<Job>> Live;

  /// Watchdog state, under its own lock (never held together with the
  /// service mutex or a job mutex). The thread is joined in shutdown()
  /// only after the pool: a hung worker needs a live watchdog to be
  /// released.
  std::mutex WatchdogMutex;
  std::condition_variable WatchdogCV;
  bool WatchdogStop = false;
  /// Armed deadlines, earliest on top.
  using WatchdogEntry =
      std::pair<std::chrono::steady_clock::time_point, std::shared_ptr<Job>>;
  std::priority_queue<WatchdogEntry, std::vector<WatchdogEntry>,
                      std::greater<WatchdogEntry>>
      WatchdogQueue;
  std::thread WatchdogThread;

  WorkerPool Pool; ///< declared last: workers must die before the maps
};

} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_SERVICE_COMPILESERVICE_H
