//===- core/pipeline/PassCache.cpp - Pass-result memoisation --------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/PassCache.h"

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
  // FNV-1a over the payload words.
  uint64_t H = 1469598103934665603ull;
  for (uint64_t W : Words)
    for (int B = 0; B < 8; ++B) {
      H ^= (W >> (8 * B)) & 0xff;
      H *= 1099511628211ull;
    }
  Hash = H;
}

// The key serializers below enumerate every field of Layout and
// HardwareParams by hand. These asserts fail the build when a field is
// added to either struct, forcing the new field into the key (or an
// explicit exemption here) — a forgotten field would mean silent stale
// hits.
static_assert(sizeof(core::Layout) == 13 * sizeof(int32_t),
              "Layout changed: update PassCacheKey::frontHalf");
// Five int32_t lengths (padded to 24 bytes) and ten doubles.
static_assert(sizeof(fpqa::HardwareParams) == 24 + 10 * sizeof(double),
              "HardwareParams changed: update PassCacheKey::program");

PassCacheKey PassCacheKey::frontHalf(const CompilationContext &Ctx) {
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
  K.finish();
  return K;
}

PassCacheKey PassCacheKey::program(const PassCacheKey &FrontKey,
                                   const CompilationContext &Ctx) {
  PassCacheKey K = FrontKey;
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

namespace {

template <typename T, typename MapT>
const T *findExact(MapT &Map, const PassCacheKey &Key) {
  auto It = Map.find(Key.hash());
  if (It == Map.end())
    return nullptr;
  for (const std::pair<PassCacheKey, T> &Entry : It->second)
    if (Entry.first == Key)
      return &Entry.second;
  return nullptr;
}

} // namespace

PassCacheEntry PassCache::lookupProgram(const PassCacheKey &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell =
          findExact<std::shared_ptr<ProgramCell>>(ProgramMap, Key))
    if (materializeProgramLocked(**Cell)) {
      ++Counts.ProgramHits;
      return {(*Cell)->Front->Value, (*Cell)->Value};
    }
  ++Counts.ProgramMisses;
  return {};
}

std::shared_ptr<const FrontHalfSections>
PassCache::lookupFront(const PassCacheKey &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell = findExact<std::shared_ptr<FrontCell>>(FrontMap, Key))
    if (materializeFrontLocked(**Cell)) {
      ++Counts.FrontHits;
      return (*Cell)->Value;
    }
  ++Counts.FrontMisses;
  return nullptr;
}

void PassCache::evictForInsertLocked() {
  if (MaxEntries && NumEntries + 1 > MaxEntries) {
    FrontMap.clear();
    ProgramMap.clear(); // also drops any mapped snapshot references
    NumEntries = 0;
  }
}

std::shared_ptr<const FrontHalfSections>
PassCache::insertFront(const PassCacheKey &Key, FrontHalfSections Sections) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell =
          findExact<std::shared_ptr<FrontCell>>(FrontMap, Key)) {
    // Another worker compiled the same formula first — or the slot came
    // from a snapshot whose payload failed to parse; refill it then.
    if (!(*Cell)->Value)
      (*Cell)->Value =
          std::make_shared<const FrontHalfSections>(std::move(Sections));
    return (*Cell)->Value;
  }
  evictForInsertLocked();
  auto Cell = std::make_shared<FrontCell>();
  Cell->Value = std::make_shared<const FrontHalfSections>(std::move(Sections));
  FrontMap[Key.hash()].push_back({Key, Cell});
  ++NumEntries;
  return Cell->Value;
}

void PassCache::insertProgram(const PassCacheKey &Key,
                              const PassCacheKey &FrontKey,
                              std::shared_ptr<const FrontHalfSections> Front,
                              ProgramSections Sections) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell =
          findExact<std::shared_ptr<ProgramCell>>(ProgramMap, Key)) {
    if ((*Cell)->Value)
      return;
    // Unparseable snapshot slot: refill it in place.
    (*Cell)->Value =
        std::make_shared<const ProgramSections>(std::move(Sections));
    if (!(*Cell)->Front->Value)
      (*Cell)->Front->Value = std::move(Front);
    return;
  }
  evictForInsertLocked();
  // Link the template to the front cell stored under FrontKey so one
  // front payload serves both tiers (in memory and in a snapshot).
  std::shared_ptr<FrontCell> FCell;
  if (const auto *Existing =
          findExact<std::shared_ptr<FrontCell>>(FrontMap, FrontKey)) {
    FCell = *Existing;
    if (!FCell->Value)
      FCell->Value = std::move(Front);
  } else {
    FCell = std::make_shared<FrontCell>();
    FCell->Value = std::move(Front);
    evictForInsertLocked();
    FrontMap[FrontKey.hash()].push_back({FrontKey, FCell});
    ++NumEntries;
  }
  auto PCell = std::make_shared<ProgramCell>();
  PCell->Front = std::move(FCell);
  PCell->Value = std::make_shared<const ProgramSections>(std::move(Sections));
  ProgramMap[Key.hash()].push_back({Key, std::move(PCell)});
  ++NumEntries;
}

PassCache::CacheStats PassCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

size_t PassCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return NumEntries;
}

void PassCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  FrontMap.clear();
  ProgramMap.clear();
  NumEntries = 0;
}

// --- Sections ------------------------------------------------------------

FrontHalfSections FrontHalfSections::capture(const CompilationContext &Ctx) {
  return {Ctx.Coloring, Ctx.Plans, Ctx.SlmTraps, Ctx.ZoneSiteTrap,
          Ctx.NumColumns};
}

void FrontHalfSections::restore(CompilationContext &Ctx) const {
  Ctx.Coloring = Coloring;
  Ctx.HasColoring = true;
  Ctx.Plans = Plans; // deep copy: lowering edits the plans
  Ctx.SlmTraps = SlmTraps;
  Ctx.ZoneSiteTrap = ZoneSiteTrap;
  Ctx.NumColumns = NumColumns;
}

ProgramSections ProgramSections::capture(const CompilationContext &Ctx) {
  return {Ctx.Program, Ctx.AngleSlots, Ctx.Stats};
}

void ProgramSections::restore(CompilationContext &Ctx) const {
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
    qasm::GateStatement &Stmt = Program.Statements[S.Statement];
    switch (S.Where) {
    case AngleSlot::Field::GateParam0:
      Stmt.Gate.setParam(0, Value);
      break;
    case AngleSlot::Field::AnnotationX:
      Stmt.Annotations[S.Annotation].AngleX = Value;
      break;
    case AngleSlot::Field::AnnotationZ:
      Stmt.Annotations[S.Annotation].AngleZ = Value;
      break;
    }
  }
}
