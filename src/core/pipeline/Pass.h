//===- core/pipeline/Pass.h - Compilation pass interface -------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass interface of the FPQA pipeline. A pass reads the sections of
/// the CompilationContext produced by its predecessors and fills its own;
/// it must not depend on state outside the context, so pipelines can be
/// re-ordered, ablated, and driven concurrently over independent contexts.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_PASS_H
#define WEAVER_CORE_PIPELINE_PASS_H

#include "core/pipeline/CompilationContext.h"
#include "support/Status.h"

namespace weaver {
namespace core {
namespace pipeline {

/// One stage of the compilation pipeline.
class Pass {
public:
  virtual ~Pass() = default;

  /// Stable pass name used in diagnostics and timing records.
  virtual const char *name() const = 0;

  /// Runs the pass over \p Ctx. On failure the context is left in an
  /// unspecified (but destructible) state and the pipeline stops.
  virtual Status run(CompilationContext &Ctx) = 0;
};

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_PASS_H
