//===- tools/shard_sweep.cpp - Multi-process sharded SATLIB sweep ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Shards the SATLIB-style sweep suite across worker *processes* that
/// share one persisted PassCache — the multi-process half of the
/// persistent-cache design (see pipeline/PassCache.h).
///
/// Modes:
///
///  * Single process (default): sweeps every suite size, prints the
///    per-size table. With --cache-file PATH it warm-starts from the
///    snapshot and flushes the populated cache back.
///
///  * Driver (--shards N): forks N workers via /proc/self/exe, each
///    compiling the sizes with index % N == K. Workers write their table
///    rows as TSV and (with --cache-file) save a per-shard segment
///    `PATH.shard<K>`; the driver supervises them — reaping in completion
///    order (waitpid(-1)), reporting which shard failed and why, and
///    respawning a crashed worker on its shard (partial row/segment
///    output discarded first) up to a --retries budget — then reassembles
///    the rows in suite order — byte-identical to the 1-process table,
///    which is possible because the table carries only deterministic
///    columns — and compacts the segments into PATH with the tolerant
///    PassCache::mergeSnapshots (an unreadable segment is skipped with a
///    warning; its entries recompute as cold misses later). Timing goes
///    to stderr so stdout stays deterministic.
///
///  * Worker (--shards N --shard K): internal; spawned by the driver.
///
/// Flags:
///   --check        driver recomputes the table in-process with a fresh
///                  in-memory cache and fails unless the merged table is
///                  byte-identical.
///   --expect-warm  fail unless the sweep ran entirely from cache
///                  (0 program-tier misses, >0 hits) — CI uses this to
///                  pin the disk warm-start after a restart.
///   --instances N / --points P  suite weight per size (defaults 2 / 3).
///   --retries N    respawn budget per shard (default 2).
///   --faults SPEC  support::FaultInjection spec installed in every
///                  worker (and in single/worker mode, this process).
///   --crash-shard K  supervision self-test: worker K's first attempt is
///                  spawned with a one-shot `shard.worker.crash` schedule
///                  that SIGKILLs it mid-sweep; the respawn completes the
///                  shard and the run must still pass --check.
///
//===----------------------------------------------------------------------===//

#include "ArgReader.h"
#include "baselines/Backend.h"
#include "core/BatchCompiler.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "sat/Generator.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace weaver;

namespace {

struct Config {
  int Shards = 0;   ///< 0: single-process; >0: sharded
  int Shard = -1;   ///< >=0: this process is worker K
  int Instances = 2;
  int Points = 3;
  int Retries = 2;     ///< respawn budget per shard
  int CrashShard = -1; ///< inject a one-shot worker crash into shard K
  std::string RowsOut;   ///< worker: TSV row sink (driver-supplied)
  std::string CacheFile; ///< persisted PassCache snapshot ("" = off)
  std::string FaultSpec; ///< fault::parseConfig spec for the workers
  bool Check = false;
  bool ExpectWarm = false;
};

/// Deterministic per-size table columns. No wall-clock column: timings
/// would differ run to run and break the byte-identity contract between
/// the sharded and the 1-process table.
const char *const Columns[] = {"size",       "clauses", "colours",
                               "pulses",     "exec [ms]", "EPS"};

/// One finished table row: suite position + rendered cells.
struct Row {
  size_t SizeIndex = 0;
  std::vector<std::string> Cells;
};

/// Sweeps the suite sizes whose index is in \p SizeIdx through the Weaver
/// pipeline at every (gamma, beta) point, all compiles sharing \p Cache
/// (may be null for a cold, cache-less run). Returns one row per size.
/// The aggregation mirrors examples/satlib_sweep so the numbers line up
/// across the demos.
bool computeRows(const Config &C, const std::vector<size_t> &SizeIdx,
                 core::pipeline::PassCache *Cache, std::vector<Row> &Rows) {
  core::WeaverOptions WOpt;
  WOpt.Cache = Cache;
  baselines::WeaverBackend Backend(WOpt);

  for (size_t S : SizeIdx) {
    int N = sat::SatlibSizes[S];
    // Simulated worker crash: die the way a real OOM-kill or segfault
    // would — no exit handlers, no partial-output cleanup. The driver's
    // supervisor must respawn the shard and discard whatever this
    // process managed to write.
    if (fault::fire("shard.worker.crash")) {
      std::fprintf(stderr, "injected crash before size N=%d\n", N);
      ::raise(SIGKILL);
    }
    std::vector<sat::CnfFormula> Batch;
    for (int I = 1; I <= C.Instances; ++I)
      Batch.push_back(sat::satlibInstance(N, I));

    std::vector<baselines::BaselineResult> Last;
    for (int P = 0; P < C.Points; ++P) {
      core::BatchOptions BOpt;
      BOpt.Qaoa.Gamma = 0.30 + 0.10 * P;
      BOpt.Qaoa.Beta = 0.20 + 0.05 * P;
      Last = core::BatchCompiler(Backend, BOpt).compileAll(Batch);
    }

    double Exec = 0, EpsLog = 0;
    size_t Pulses = 0;
    int Colors = 0;
    for (int I = 0; I < C.Instances; ++I) {
      const baselines::BaselineResult &R = Last[I];
      if (!R.usable()) {
        std::fprintf(stderr, "error at N=%d: %s\n", N,
                     R.Diagnostic.empty() ? "instance unsupported"
                                          : R.Diagnostic.c_str());
        return false;
      }
      Exec += R.ExecutionSeconds / C.Instances;
      EpsLog += std::log10(R.Eps) / C.Instances;
      Pulses += R.Pulses / C.Instances;
      Colors = std::max(Colors, R.Colors);
    }
    Row R;
    R.SizeIndex = S;
    R.Cells = {std::to_string(N), std::to_string(Batch[0].numClauses()),
               std::to_string(Colors), std::to_string(Pulses),
               formatf("%.2f", Exec * 1e3), formatf("1e%.1f", EpsLog)};
    Rows.push_back(std::move(R));
  }
  return true;
}

Table tableFromRows(std::vector<Row> Rows) {
  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.SizeIndex < B.SizeIndex; });
  Table T({Columns[0], Columns[1], Columns[2], Columns[3], Columns[4],
           Columns[5]});
  for (Row &R : Rows)
    T.addRow(std::move(R.Cells));
  return T;
}

std::vector<size_t> shardSizes(int Shards, int Shard) {
  std::vector<size_t> Idx;
  for (size_t S = 0; S < std::size(sat::SatlibSizes); ++S)
    if (Shards <= 1 || static_cast<int>(S % Shards) == Shard)
      Idx.push_back(S);
  return Idx;
}

std::string segmentPath(const std::string &CacheFile, int Shard) {
  return CacheFile + ".shard" + std::to_string(Shard);
}

/// Fails only on misses: an --expect-warm sweep must be served entirely
/// from the (disk-loaded) cache.
bool checkWarm(const core::pipeline::PassCache &Cache) {
  core::pipeline::PassCache::CacheStats CS = Cache.stats();
  if (CS.ProgramMisses == 0 && CS.ProgramHits > 0)
    return true;
  std::fprintf(stderr,
               "--expect-warm failed: program tier hits=%llu misses=%llu "
               "(expected all hits)\n",
               static_cast<unsigned long long>(CS.ProgramHits),
               static_cast<unsigned long long>(CS.ProgramMisses));
  return false;
}

// --- Worker ---------------------------------------------------------------

int runWorker(const Config &C) {
  core::pipeline::PassCache Cache;
  if (!C.CacheFile.empty())
    Cache.loadSnapshot(C.CacheFile); // missing/stale file = cold start

  std::vector<Row> Rows;
  if (!computeRows(C, shardSizes(C.Shards, C.Shard), &Cache, Rows))
    return 1;

  // Rows as TSV, one line per size: "<suite index>\t<cells...>".
  std::ofstream Out(C.RowsOut, std::ios::trunc);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", C.RowsOut.c_str());
    return 1;
  }
  for (const Row &R : Rows) {
    Out << R.SizeIndex;
    for (const std::string &Cell : R.Cells)
      Out << '\t' << Cell;
    Out << '\n';
  }
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "error: short write to %s\n", C.RowsOut.c_str());
    return 1;
  }

  // The segment is the worker's whole cache (base snapshot + everything
  // this shard compiled), so a merge over segments alone already covers
  // the base file.
  if (!C.CacheFile.empty()) {
    Status S = Cache.saveSnapshot(segmentPath(C.CacheFile, C.Shard));
    if (S) {
      std::fprintf(stderr, "error: segment save failed: %s\n",
                   S.message().c_str());
      return 1;
    }
  }
  return 0;
}

// --- Driver ---------------------------------------------------------------

/// Human-readable cause of a worker's death, from its waitpid status.
std::string describeExit(int WStatus) {
  if (WIFEXITED(WStatus))
    return "exited with status " + std::to_string(WEXITSTATUS(WStatus));
  if (WIFSIGNALED(WStatus)) {
    int Sig = WTERMSIG(WStatus);
    const char *Name = strsignal(Sig);
    return "killed by signal " + std::to_string(Sig) +
           (Name ? std::string(" (") + Name + ")" : std::string());
  }
  return "stopped unexpectedly";
}

/// One supervised shard: which worker process currently owns it and how
/// many times it has been (re)spawned.
struct WorkerSlot {
  int Shard = 0;
  pid_t Pid = -1;
  int Attempts = 0;
  bool Done = false;
};

int runDriver(const Config &C, const char *Self) {
  auto Start = std::chrono::steady_clock::now();

  std::string RowsBase =
      C.RowsOut.empty()
          ? "shard_sweep_rows." + std::to_string(static_cast<long>(getpid()))
          : C.RowsOut;
  auto RowsPath = [&RowsBase](int Shard) {
    return RowsBase + "." + std::to_string(Shard);
  };

  // A crashed worker leaves partial output behind; everything a shard
  // wrote is discarded before its respawn (and stale leftovers from
  // previous runs before the first spawn) so only a worker that ran to
  // completion contributes rows or a segment.
  auto DiscardOutputs = [&](int Shard) {
    std::remove(RowsPath(Shard).c_str());
    if (!C.CacheFile.empty())
      std::remove(segmentPath(C.CacheFile, Shard).c_str());
  };

  // Spawns (or respawns) a worker on Slot's shard. The --crash-shard
  // self-test arms a one-shot SIGKILL schedule on the first attempt
  // only, so the respawn can prove the recovery path end to end.
  auto Spawn = [&](WorkerSlot &Slot) -> bool {
    DiscardOutputs(Slot.Shard);
    std::string Faults = C.FaultSpec;
    if (Slot.Shard == C.CrashShard && Slot.Attempts == 0)
      Faults += std::string(Faults.empty() ? "" : ";") +
                "shard.worker.crash:after=1,count=1";
    std::vector<std::string> Args = {
        Self,
        "--shards", std::to_string(C.Shards),
        "--shard", std::to_string(Slot.Shard),
        "--rows-out", RowsPath(Slot.Shard),
        "--instances", std::to_string(C.Instances),
        "--points", std::to_string(C.Points)};
    if (!C.CacheFile.empty()) {
      Args.push_back("--cache-file");
      Args.push_back(C.CacheFile);
    }
    if (!Faults.empty()) {
      Args.push_back("--faults");
      Args.push_back(Faults);
    }
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);

    pid_t Pid = fork();
    if (Pid < 0) {
      std::fprintf(stderr, "error: fork failed: %s\n", std::strerror(errno));
      return false;
    }
    if (Pid == 0) {
      execv(Self, Argv.data());
      std::fprintf(stderr, "error: exec failed: %s\n", std::strerror(errno));
      _exit(127);
    }
    Slot.Pid = Pid;
    ++Slot.Attempts;
    return true;
  };

  std::vector<WorkerSlot> Slots(C.Shards);
  for (int K = 0; K < C.Shards; ++K) {
    Slots[K].Shard = K;
    if (!Spawn(Slots[K]))
      return 1;
  }

  // Reap in completion order: waitpid(-1) returns whichever worker died
  // first, so a crashed shard 3 is respawned while shard 0 is still
  // compiling — no head-of-line blocking on the lowest pid.
  auto ReapAll = [&Slots]() {
    for (WorkerSlot &Slot : Slots)
      if (!Slot.Done && Slot.Pid > 0) {
        kill(Slot.Pid, SIGKILL);
        waitpid(Slot.Pid, nullptr, 0);
      }
  };
  int Remaining = C.Shards;
  while (Remaining > 0) {
    int WStatus = 0;
    pid_t Pid = waitpid(-1, &WStatus, 0);
    if (Pid < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "error: waitpid failed: %s\n",
                   std::strerror(errno));
      ReapAll();
      return 1;
    }
    auto It = std::find_if(Slots.begin(), Slots.end(), [Pid](
                               const WorkerSlot &S) { return S.Pid == Pid; });
    if (It == Slots.end())
      continue; // not ours (can't happen: the driver spawns nothing else)
    WorkerSlot &Slot = *It;
    Slot.Pid = -1;
    if (WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0) {
      Slot.Done = true;
      --Remaining;
      continue;
    }
    std::string Why = describeExit(WStatus);
    if (Slot.Attempts > C.Retries) {
      std::fprintf(stderr,
                   "error: shard %d %s; retry budget exhausted after %d "
                   "attempt(s)\n",
                   Slot.Shard, Why.c_str(), Slot.Attempts);
      ReapAll();
      return 1;
    }
    std::fprintf(stderr,
                 "warning: shard %d (pid %ld) %s; respawning (attempt "
                 "%d/%d)\n",
                 Slot.Shard, static_cast<long>(Pid), Why.c_str(),
                 Slot.Attempts + 1, C.Retries + 1);
    if (!Spawn(Slot)) {
      ReapAll();
      return 1;
    }
  }

  // Reassemble the rows in suite order.
  std::vector<Row> Rows;
  for (int K = 0; K < C.Shards; ++K) {
    std::string Path = RowsBase + "." + std::to_string(K);
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: missing worker rows %s\n", Path.c_str());
      return 1;
    }
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream LS(Line);
      std::string Cell;
      Row R;
      if (!std::getline(LS, Cell, '\t'))
        continue;
      R.SizeIndex = static_cast<size_t>(std::stoull(Cell));
      while (std::getline(LS, Cell, '\t'))
        R.Cells.push_back(Cell);
      if (R.Cells.size() != std::size(Columns)) {
        std::fprintf(stderr, "error: malformed row in %s\n", Path.c_str());
        return 1;
      }
      Rows.push_back(std::move(R));
    }
    In.close();
    std::remove(Path.c_str());
  }
  Table Merged = tableFromRows(std::move(Rows));
  std::string Rendered = Merged.render();

  // Compact the per-shard segments into the shared snapshot. Every
  // segment already contains the base entries (workers load the base
  // first), so merging the segments alone is complete; first-input-wins
  // keeps the result deterministic. The tolerant merge skips a segment
  // that is missing or unreadable (a crash window the atomic save cannot
  // close: the worker died after its rows landed but before its segment)
  // — the skipped shard's entries just recompute as cold misses on the
  // next warm start, and the table (built from the TSV rows, not the
  // cache) is unaffected.
  if (!C.CacheFile.empty()) {
    std::vector<std::string> Segments;
    for (int K = 0; K < C.Shards; ++K)
      Segments.push_back(segmentPath(C.CacheFile, K));
    std::vector<std::string> Skipped;
    Status S = core::pipeline::PassCache::mergeSnapshots(
        Segments, C.CacheFile, &Skipped);
    for (const std::string &Skip : Skipped)
      std::fprintf(stderr, "warning: segment skipped: %s\n", Skip.c_str());
    if (S) {
      std::fprintf(stderr, "error: segment merge failed: %s\n",
                   S.message().c_str());
      return 1;
    }
    for (const std::string &Seg : Segments)
      std::remove(Seg.c_str());
  }

  if (C.Check) {
    // The reference: same suite, one process, fresh in-memory cache.
    std::vector<Row> RefRows;
    core::pipeline::PassCache RefCache;
    if (!computeRows(C, shardSizes(1, 0), &RefCache, RefRows))
      return 1;
    std::string Reference = tableFromRows(std::move(RefRows)).render();
    if (Reference != Rendered) {
      std::fprintf(stderr,
                   "--check failed: %d-shard table differs from the "
                   "1-process table\n--- sharded ---\n%s--- reference "
                   "---\n%s",
                   C.Shards, Rendered.c_str(), Reference.c_str());
      return 1;
    }
    std::fprintf(stderr, "--check passed: %d-shard table byte-identical "
                 "to the 1-process run\n", C.Shards);
  }

  std::printf("%s", Rendered.c_str());
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  std::fprintf(stderr, "sharded sweep: %d workers, wall %.2f s%s\n",
               C.Shards, Wall,
               C.CacheFile.empty() ? "" : ", segments compacted");
  return 0;
}

// --- Single process -------------------------------------------------------

int runSingle(const Config &C) {
  auto Start = std::chrono::steady_clock::now();
  core::pipeline::PassCache Cache;
  size_t Loaded = 0;
  if (!C.CacheFile.empty())
    if (!Cache.loadSnapshot(C.CacheFile))
      Loaded = Cache.size();

  std::vector<Row> Rows;
  if (!computeRows(C, shardSizes(1, 0), &Cache, Rows))
    return 1;
  std::printf("%s", tableFromRows(std::move(Rows)).render().c_str());

  if (C.ExpectWarm && !checkWarm(Cache))
    return 1;

  if (!C.CacheFile.empty()) {
    Status S = Cache.saveSnapshot(C.CacheFile);
    if (S) {
      std::fprintf(stderr, "warning: cache flush failed: %s\n",
                   S.message().c_str());
    }
  }
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  core::pipeline::PassCache::CacheStats CS = Cache.stats();
  std::fprintf(stderr,
               "sweep: wall %.2f s; %zu entries loaded; program tier "
               "hits/misses %llu/%llu\n",
               Wall, Loaded, static_cast<unsigned long long>(CS.ProgramHits),
               static_cast<unsigned long long>(CS.ProgramMisses));
  return 0;
}

const char *Usage =
    "usage: shard_sweep [--shards N [--shard K]] "
    "[--cache-file PATH] [--instances N] [--points P] "
    "[--check] [--expect-warm] [--retries N] [--faults SPEC] "
    "[--crash-shard K]\n";

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  ArgReader Args(Argc, Argv, Usage);
  while (Args.next()) {
    const std::string &Arg = Args.arg();
    if (Arg == "--shards")
      C.Shards = static_cast<int>(Args.intValue(1, 256));
    else if (Arg == "--shard")
      C.Shard = static_cast<int>(Args.intValue(0, 255));
    else if (Arg == "--rows-out")
      C.RowsOut = Args.value();
    else if (Arg == "--cache-file")
      C.CacheFile = Args.value();
    else if (Arg == "--instances")
      C.Instances = static_cast<int>(Args.intValue(1, 10000));
    else if (Arg == "--points")
      C.Points = static_cast<int>(Args.intValue(1, 10000));
    else if (Arg == "--retries")
      C.Retries = static_cast<int>(Args.intValue(0, 100));
    else if (Arg == "--crash-shard")
      C.CrashShard = static_cast<int>(Args.intValue(0, 255));
    else if (Arg == "--faults")
      C.FaultSpec = Args.value();
    else if (Arg == "--check")
      C.Check = true;
    else if (Arg == "--expect-warm")
      C.ExpectWarm = true;
    else {
      std::fprintf(stderr, "%s", Usage);
      return Arg == "--help" ? 0 : 1;
    }
  }
  // Worker and single-process modes inject faults in this process; the
  // driver only forwards the spec (its own compiles — the --check
  // reference — must stay fault-free). Validate it up front either way
  // so a typo fails before any worker is forked.
  if (!C.FaultSpec.empty()) {
    Expected<fault::Config> FC = fault::parseConfig(C.FaultSpec);
    if (!FC) {
      std::fprintf(stderr, "error: --faults: %s\n", FC.message().c_str());
      return 1;
    }
    if (C.Shards <= 0 || C.Shard >= 0)
      fault::configureGlobal(FC.take());
  }
  if (C.Shard >= 0) {
    if (C.Shards < 1 || C.Shard >= C.Shards || C.RowsOut.empty()) {
      std::fprintf(stderr, "error: worker mode needs --shards N, "
                   "--shard K < N, and --rows-out\n");
      return 1;
    }
    return runWorker(C);
  }
  if (C.Shards > 0) {
    // /proc/self/exe survives argv[0] games and PATH lookups; fall back
    // to argv[0] on non-proc systems.
    char Self[4096];
    ssize_t Len = readlink("/proc/self/exe", Self, sizeof(Self) - 1);
    if (Len > 0)
      Self[Len] = '\0';
    return runDriver(C, Len > 0 ? Self : Argv[0]);
  }
  return runSingle(C);
}
