//===- core/pipeline/ZonePlanningPass.h - Site placement pass --*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline stage 2 (paper §5.3, Fig. 5): assigns every coloured clause a
/// site in its colour's diagonal zone, lays out the SLM trap plane (home
/// traps plus shared zone target traps), derives each colour's AOD slot
/// list, and sizes the AOD column grid. Purely geometric — no pulses are
/// emitted here.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_ZONEPLANNINGPASS_H
#define WEAVER_CORE_PIPELINE_ZONEPLANNINGPASS_H

#include "core/pipeline/Pass.h"

namespace weaver {
namespace core {
namespace pipeline {

class ZonePlanningPass : public Pass {
public:
  const char *name() const override { return "zone-planning"; }
  Status run(CompilationContext &Ctx) override;
};

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_ZONEPLANNINGPASS_H
