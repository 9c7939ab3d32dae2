//===- core/pipeline/GateLoweringPass.h - Pulse emission pass --*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline stage 4 (paper §5.4, Fig. 7): executes the zone plan and the
/// shuttle schedules, lowering every coloured clause group to annotated
/// wQASM statements. Each clause group emits either the compressed
/// 2-CCZ + 2-CZ fragment or the pure CZ-ladder fallback, surrounded by the
/// planned movement; every annotation is replayed on a fresh device
/// through fpqa::PulseReplayer as it is emitted, so the produced program
/// satisfies all Table 1 pre-conditions by construction, and the same walk
/// yields the pulse statistics (Ctx.Stats) that PulseEmissionPass
/// publishes. Positions are whole nanometres, so shuttle offsets are exact
/// differences and cannot drift. When Ctx.CollectAngleSlots is set, the
/// emitter also records where every gamma/beta-dependent angle lives
/// (Ctx.AngleSlots), which makes the program a PassCache template.
///
/// Raman pulse convention: @raman (x, y, z) applies RZ(z) * RY(y) * RX(x)
/// (RX first). The gates the generator needs map to:
///   X       -> (pi, 0, 0)
///   H       -> (0, -pi/2, pi)          (H = RZ(pi) * RY(-pi/2))
///   RX(t)   -> (t, 0, 0)
///   RZ(t)   -> (0, 0, t)
/// all up to global phase.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_GATELOWERINGPASS_H
#define WEAVER_CORE_PIPELINE_GATELOWERINGPASS_H

#include "core/pipeline/Pass.h"

namespace weaver {
namespace core {
namespace pipeline {

class GateLoweringPass : public Pass {
public:
  const char *name() const override { return "gate-lowering"; }
  Status run(CompilationContext &Ctx) override;
};

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_GATELOWERINGPASS_H
