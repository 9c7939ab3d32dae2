//===- core/BatchCompiler.h - Multi-threaded batch compilation -*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a batch of formulas through one \c Backend across a thread
/// pool. Compilations are independent (each runs its own pass pipeline
/// over its own CompilationContext), so the batch parallelises trivially;
/// results come back in input order regardless of scheduling. This is the
/// building block for sweep drivers and the planned compilation service
/// (ROADMAP "Open items").
///
/// Sweeps that recompile the same formulas under varying QAOA parameters
/// should construct their WeaverBackend with a WeaverOptions::Cache: the
/// PassCache is mutex-guarded, so one cache is safely shared by every
/// worker of the pool, and results remain byte-identical to the uncached
/// batch regardless of which worker populates an entry first (see
/// tests/pass_cache_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_BATCHCOMPILER_H
#define WEAVER_CORE_BATCHCOMPILER_H

#include "baselines/Backend.h"
#include "core/WorkerPool.h"
#include "qaoa/Builder.h"
#include "sat/Cnf.h"

#include <vector>

namespace weaver {
namespace core {

/// Batch driver configuration.
struct BatchOptions {
  /// Worker threads; 0 selects std::thread::hardware_concurrency(). The
  /// pool never exceeds the batch size. Ignored when Pool is set.
  int NumThreads = 0;
  /// QAOA parameters applied to every instance of the batch.
  qaoa::QaoaParams Qaoa;
  /// Optional shared WorkerPool (not owned; must outlive the compiler).
  /// When set, compileAll posts its per-formula tasks there instead of to
  /// a pool of its own — the same pool a CompileService runs its jobs on,
  /// so batch and service work interleave under one scheduler. Must not
  /// be used from within a task of that pool (a bounded queue could
  /// deadlock).
  WorkerPool *Pool = nullptr;
};

/// Compiles formula batches through a backend with a worker pool.
class BatchCompiler {
public:
  /// \p BackendImpl must outlive the compiler and be thread-safe for
  /// concurrent compile() calls (all repository backends are).
  explicit BatchCompiler(const baselines::Backend &BackendImpl,
                         BatchOptions Options = {});

  /// Compiles every formula; Results[i] corresponds to Formulas[i].
  std::vector<baselines::BaselineResult>
  compileAll(const std::vector<sat::CnfFormula> &Formulas) const;

  /// Worker count used for a batch of \p BatchSize formulas.
  int effectiveThreads(size_t BatchSize) const;

private:
  const baselines::Backend &BackendImpl;
  BatchOptions Options;
};

} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_BATCHCOMPILER_H
