//===- core/pipeline/PassCache.cpp - Pass-result memoisation --------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/PassCache.h"

#include "support/BinaryIO.h"

#include <cstring>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

// --- Keys ----------------------------------------------------------------

void PassCacheKey::add(uint64_t Word) { Words.push_back(Word); }

void PassCacheKey::add(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "double is not 64-bit");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  Words.push_back(Bits);
}

void PassCacheKey::finish() {
  // FNV-1a over the payload words; never persisted (fromWords rehashes).
  Hash = fnv1a64(Words.data(), Words.size() * sizeof(uint64_t));
}

// The key serializer below enumerates every field of Layout and
// HardwareParams by hand. These asserts fail the build when a field is
// added to either struct, forcing the new field into the key (or an
// explicit exemption here) — a forgotten field would mean silent stale
// hits.
static_assert(sizeof(core::Layout) == 13 * sizeof(int32_t),
              "Layout changed: update PassCacheKey::of");
// Five int32_t lengths (padded to 24 bytes) and ten doubles.
static_assert(sizeof(fpqa::HardwareParams) == 24 + 10 * sizeof(double),
              "HardwareParams changed: update PassCacheKey::of");

PassCacheKey PassCacheKey::of(const CompilationContext &Ctx) {
  PassCacheKey K;
  const sat::CnfFormula &F = *Ctx.Formula;
  K.add(static_cast<uint64_t>(F.numVariables()));
  K.add(static_cast<uint64_t>(F.numClauses()));
  for (const sat::Clause &C : F.clauses()) {
    for (sat::Literal L : C)
      K.add(static_cast<uint64_t>(static_cast<int64_t>(L.dimacs())));
    // DIMACS-style clause terminator keeps clause boundaries unambiguous.
    K.add(uint64_t{0});
  }
  const Layout &G = Ctx.Options.Geometry;
  K.add(G.HomeSpacingNm);
  K.add(G.PickupRowYNm);
  K.add(G.TriangleHalfWidthNm);
  K.add(G.TriangleHeightNm);
  K.add(G.SiteSpacingNm);
  K.add(G.ZoneBaseYNm);
  K.add(G.ZoneStepYNm);
  K.add(G.ZoneStepXNm);
  K.add(G.ZoneCycle);
  K.add(G.CzLiftNm);
  K.add(G.PairShiftNm);
  K.add(G.BumpGapNm);
  K.add(G.ParkSpacingNm);
  K.add(static_cast<uint64_t>(Ctx.UseDSatur));
  K.add(static_cast<uint64_t>(Ctx.Options.Qaoa.Layers));
  K.add(static_cast<uint64_t>(Ctx.Options.UseCompression));
  K.add(static_cast<uint64_t>(Ctx.Options.ReuseAodAtoms));
  K.add(static_cast<uint64_t>(Ctx.Options.Measure));
  K.add(static_cast<uint64_t>(Ctx.Options.Qaoa.Measure));
  K.add(static_cast<uint64_t>(Ctx.Options.Qaoa.UseCompressedClauses));
  const fpqa::HardwareParams &Hw = Ctx.Hw;
  K.add(Hw.MinSlmSeparationNm);
  K.add(Hw.MinAodSeparationNm);
  K.add(Hw.MaxTransferDistanceNm);
  K.add(Hw.RydbergRadiusNm);
  K.add(Hw.EquidistanceToleranceNm);
  K.add(Hw.ShuttleSpeedUmPerSec);
  K.add(Hw.TransferTime);
  K.add(Hw.RamanLocalTime);
  K.add(Hw.RamanGlobalTime);
  K.add(Hw.RydbergTime);
  K.add(Hw.RamanFidelity);
  K.add(Hw.CzFidelity);
  K.add(Hw.CczFidelity);
  K.add(Hw.TransferFidelity);
  K.add(Hw.T2);
  K.finish();
  return K;
}

// --- Store ---------------------------------------------------------------

std::shared_ptr<const ProgramSections>
PassCache::lookup(const PassCacheKey &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Key);
  if (It != Map.end() && materializeLocked(It->second)) {
    ++Counts.ProgramHits;
    return It->second.Value;
  }
  ++Counts.ProgramMisses;
  return nullptr;
}

void PassCache::insert(PassCacheKey Key, ProgramSections Sections) {
  // Declared before the lock, so a flushed map is destroyed after the
  // mutex is released: other workers' lookups do not wait on freeing
  // every template.
  decltype(Map) Evicted;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    if (MaxEntries && Map.size() >= MaxEntries)
      Evicted.swap(Map); // also drops any mapped snapshot references
    It = Map.emplace(std::move(Key), Cell()).first;
  } else if (It->second.Value) {
    return; // another worker compiled the same template first
  }
  // A new slot, or one whose snapshot payload failed to parse.
  It->second.Value =
      std::make_shared<const ProgramSections>(std::move(Sections));
}

PassCache::CacheStats PassCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

size_t PassCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Map.size();
}

void PassCache::clear() {
  decltype(Map) Evicted; // freed after unlocking, as in insert()
  std::lock_guard<std::mutex> Lock(Mutex);
  Evicted.swap(Map);
}

// --- Sections ------------------------------------------------------------

ProgramSections ProgramSections::capture(const CompilationContext &Ctx) {
  return {Ctx.Coloring, Ctx.Program, Ctx.AngleSlots, Ctx.Stats};
}

void ProgramSections::restore(CompilationContext &Ctx) const {
  Ctx.Coloring = Coloring;
  Ctx.HasColoring = true;
  Ctx.Program = Program;
  patchProgramAngles(Ctx.Program, AngleSlots, Ctx.Options.Qaoa.Gamma,
                     Ctx.Options.Qaoa.Beta);
  Ctx.Stats = Stats;
  Ctx.HasStats = true;
}

// --- Template instantiation ----------------------------------------------

void pipeline::patchProgramAngles(qasm::WqasmProgram &Program,
                                  const std::vector<AngleSlot> &Slots,
                                  double Gamma, double Beta) {
  for (const AngleSlot &S : Slots) {
    double Value =
        S.Coeff * (S.Dep == AngleSlot::Param::Gamma ? Gamma : Beta);
    if (S.Where == AngleSlot::Field::GateParam0) {
      Program.Statements[S.Statement].Gate.setParam(0, Value);
      continue;
    }
    qasm::Annotation &A =
        Program.Annotations[Program.annotationsBegin(S.Statement) +
                            S.Annotation];
    (S.Where == AngleSlot::Field::AnnotationX ? A.AngleX : A.AngleZ) = Value;
  }
}
