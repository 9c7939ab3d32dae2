//===- core/pipeline/PassManager.h - Pass sequencing -----------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs an ordered list of passes over one CompilationContext. Before each
/// pass it consults the pipeline.hang fault site and the context's cancel
/// token; it records a wall-clock timing entry per pass and stops at the
/// first failure with the failing pass named in the diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_PASSMANAGER_H
#define WEAVER_CORE_PIPELINE_PASSMANAGER_H

#include "core/pipeline/Pass.h"

#include <memory>
#include <vector>

namespace weaver {
namespace core {
namespace pipeline {

/// Sequences passes over a compilation context.
class PassManager {
public:
  /// Constructs a pass in place and appends it; returns *this for
  /// chaining.
  template <typename PassT, typename... ArgTs>
  PassManager &add(ArgTs &&...Args) {
    Passes.push_back(std::make_unique<PassT>(std::forward<ArgTs>(Args)...));
    return *this;
  }

  /// Runs every pass in order. Each pass appends a PassTiming to
  /// Ctx.Timings (also for the failing pass). The first failure aborts the
  /// pipeline with the pass name prefixed to the diagnostic; a cancelled
  /// token aborts it before the next pass with a CancelledDiagnostic.
  Status run(CompilationContext &Ctx) const;

  /// Builds the standard FPQA pipeline of the paper's Fig. 3:
  /// ClauseColoring -> ZonePlanning -> ShuttleScheduling -> GateLowering
  /// -> PulseEmission.
  static PassManager standardFpqaPipeline();

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_PASSMANAGER_H
