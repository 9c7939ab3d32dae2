//===- core/BatchCompiler.cpp - Multi-threaded batch compilation ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/BatchCompiler.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

using namespace weaver;
using namespace weaver::core;

BatchCompiler::BatchCompiler(const baselines::Backend &BackendImpl,
                             BatchOptions Options)
    : BackendImpl(BackendImpl), Options(Options) {}

int BatchCompiler::effectiveThreads(size_t BatchSize) const {
  int Threads = Options.Pool
                    ? Options.Pool->numThreads()
                    : (Options.NumThreads > 0
                           ? Options.NumThreads
                           : static_cast<int>(
                                 std::thread::hardware_concurrency()));
  Threads = std::max(1, Threads);
  return static_cast<int>(
      std::min<size_t>(static_cast<size_t>(Threads), BatchSize));
}

std::vector<baselines::BaselineResult> BatchCompiler::compileAll(
    const std::vector<sat::CnfFormula> &Formulas) const {
  std::vector<baselines::BaselineResult> Results(Formulas.size());
  if (Formulas.empty())
    return Results;

  // One task per batch slot on a WorkerPool, completion tracked by a
  // counter + condvar latch. Without an injected pool the batch gets one
  // of its own, declared after everything its tasks use so its workers
  // join before those go away. Workers take slots from one FIFO queue as
  // they free up, so a long formula never leaves the others idle.
  std::mutex M;
  std::condition_variable Done;
  size_t Remaining = Formulas.size();
  auto CompileSlot = [&](size_t I) {
    Results[I] = BackendImpl.compile(Formulas[I], Options.Qaoa);
    std::lock_guard<std::mutex> Lock(M);
    if (--Remaining == 0)
      Done.notify_all();
  };
  std::optional<WorkerPool> Owned;
  WorkerPool *Pool = Options.Pool;
  if (!Pool)
    Pool = &Owned.emplace(PoolOptions{effectiveThreads(Formulas.size()), 0});
  // Posting can block on a bounded queue, so tasks already posted make
  // progress while we enqueue the rest. A pool shut down mid-batch
  // refuses the post; the slot then runs inline so it still gets a
  // result.
  for (size_t I = 0; I < Formulas.size(); ++I)
    if (!Pool->post([&CompileSlot, I]() { CompileSlot(I); }))
      CompileSlot(I);
  std::unique_lock<std::mutex> Lock(M);
  Done.wait(Lock, [&]() { return Remaining == 0; });
  return Results;
}
