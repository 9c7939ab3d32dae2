//===- core/pipeline/PassCachePersist.cpp - On-disk PassCache -------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable half of the PassCache: serialization of the templates to
/// the versioned, checksummed snapshot format described in PassCache.h,
/// mmap-backed loading with a lazily materialized section index, and the
/// shard-segment merge step.
///
/// Payload layout (after the 40-byte header):
///
///   u64 entry count
///     per entry: key (u64 word count + words)
///                + u64 byte length + ProgramSections payload
///
/// Entries are sorted by key payload, so saving the same cache twice
/// produces identical bytes.
///
/// Every parse runs through the bounds-checked BinaryReader and
/// validates enum ranges, each annotation's lists against its kind, and
/// angle-slot indices, so a crafted
/// checksum-valid payload cannot cause an out-of-bounds access at
/// instantiation time. The checks are structural only: a resealed payload
/// that parses can still be served as a hit with other program bytes, so
/// a snapshot is trusted like the binary (see PassCache.h).
///
//===----------------------------------------------------------------------===//

#include "core/pipeline/PassCache.h"

#include "support/BinaryIO.h"
#include "support/FaultInjection.h"

#include <algorithm>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

#ifndef WEAVER_GIT_HASH
#define WEAVER_GIT_HASH "unknown"
#endif

uint64_t pipeline::compilerFingerprint() {
  const char Hash[] = WEAVER_GIT_HASH;
  uint64_t H = fnv1a64(Hash, sizeof(Hash) - 1);
  // Option-schema identity: the sizes the key serializers enumerate by
  // hand (their static_asserts force a review here too) plus the enum
  // cardinalities the section payloads depend on.
  const uint64_t Schema[] = {
      SnapshotFormatVersion,
      sizeof(core::Layout),
      sizeof(fpqa::HardwareParams),
      sizeof(AngleSlot),
      circuit::NumGateKinds,
      static_cast<uint64_t>(qasm::AnnotationKind::Rydberg) + 1,
  };
  return fnv1a64(Schema, sizeof(Schema), H);
}

// --- Section serializers -------------------------------------------------

namespace {

/// Reads a length (nm) written as an i64; anything outside the coordinate
/// bound fails the reader, so a crafted payload cannot plant a position
/// the device model would reject.
int32_t readNm(BinaryReader &R) {
  int64_t V = R.readI64();
  if (!inCoordinateRange(V)) {
    R.fail();
    return 0;
  }
  return static_cast<int32_t>(V);
}

void writeNmList(Span<const int32_t> Vals, BinaryWriter &W) {
  W.writeU64(Vals.size());
  for (int32_t V : Vals)
    W.writeI64(V);
}

/// Reads a v3 list of \p Width-value records onto the end of \p Values;
/// returns the record count.
size_t readNmList(BinaryReader &R, std::vector<int32_t> &Values,
                  size_t Width = 1) {
  size_t N = R.readLength(8 * Width);
  for (size_t I = 0; I < N * Width && R.ok(); ++I)
    Values.push_back(readNm(R));
  return N;
}

// Format v3 writes an annotation's five lists — traps, AOD xs, AOD ys,
// shuttle indices, shuttle offsets — each in its own place around the
// scalar fields. They come from the accessors, which are empty for every
// other kind, so the bytes are those of the former per-list layout.
void writeAnnotation(const qasm::Annotation &A, BinaryWriter &W) {
  W.writeU8(static_cast<uint8_t>(A.Kind));
  W.writeU64(A.numTraps());
  for (size_t I = 0; I < A.numTraps(); ++I) {
    W.writeI64(A.trap(I).X);
    W.writeI64(A.trap(I).Y);
  }
  writeNmList(A.aodXs(), W);
  writeNmList(A.aodYs(), W);
  W.writeI64(A.Qubit);
  W.writeU8(A.BindToSlm);
  W.writeI64(A.SlmIndex);
  W.writeI64(A.AodCol);
  W.writeI64(A.AodRow);
  W.writeU8(A.ShuttleRow);
  W.writeI64(A.ShuttleIndex);
  W.writeI64(A.Offset);
  W.writeU64(A.shuttleIndices().size());
  for (int32_t I : A.shuttleIndices())
    W.writeI64(I);
  writeNmList(A.shuttleOffsets(), W);
  W.writeF64(A.AngleX);
  W.writeF64(A.AngleY);
  W.writeF64(A.AngleZ);
}

/// Reads one annotation, mapping the five v3 lists onto its payload. A
/// list that the record's kind does not carry, or a parallel shuttle with
/// unequal index and offset counts, fails the reader: the payload has no
/// place for it, so the template is a miss.
bool readAnnotation(BinaryReader &R, qasm::Annotation &A,
                    std::vector<int32_t> &Values) {
  uint8_t Kind = R.readU8();
  if (Kind > static_cast<uint8_t>(qasm::AnnotationKind::Rydberg)) {
    R.fail();
    return false;
  }
  A.Kind = static_cast<qasm::AnnotationKind>(Kind);
  Values.clear();
  size_t Traps = readNmList(R, Values, /*Width=*/2);
  size_t Xs = readNmList(R, Values);
  size_t Ys = readNmList(R, Values);
  A.Qubit = static_cast<int>(R.readI64());
  A.BindToSlm = R.readU8() != 0;
  A.SlmIndex = static_cast<int>(R.readI64());
  A.AodCol = static_cast<int>(R.readI64());
  A.AodRow = static_cast<int>(R.readI64());
  A.ShuttleRow = R.readU8() != 0;
  A.ShuttleIndex = static_cast<int>(R.readI64());
  A.Offset = readNm(R);
  size_t Indices = R.readLength(8);
  for (size_t I = 0; I < Indices && R.ok(); ++I)
    Values.push_back(static_cast<int32_t>(R.readI64()));
  size_t Offsets = readNmList(R, Values);
  A.AngleX = R.readF64();
  A.AngleY = R.readF64();
  A.AngleZ = R.readF64();
  if (!R.ok())
    return false;
  bool Fits;
  size_t Split = 0;
  switch (A.Kind) {
  case qasm::AnnotationKind::Slm:
    Fits = Values.size() == 2 * Traps;
    break;
  case qasm::AnnotationKind::Aod:
    Fits = Values.size() == Xs + Ys;
    Split = Xs;
    break;
  case qasm::AnnotationKind::ShuttleParallel:
    Fits = Values.size() == Indices + Offsets && Indices == Offsets;
    Split = Indices;
    break;
  default:
    Fits = Values.empty();
    break;
  }
  if (!Fits) {
    R.fail();
    return false;
  }
  A.setPayload(Values.data(), Values.size(), Split);
  return true;
}

void writeAnnotationList(Span<const qasm::Annotation> List, BinaryWriter &W) {
  W.writeU64(List.size());
  for (const qasm::Annotation &A : List)
    writeAnnotation(A, W);
}

/// Appends one v3 annotation list to \p P's annotation array.
bool readAnnotationList(BinaryReader &R, qasm::WqasmProgram &P,
                        std::vector<int32_t> &Values) {
  // Minimum encoded annotation: kind + 5 empty vectors + the fixed
  // integer/double fields = 1 + 5*8 + 4*8 + 2 + 5*8 = 115 bytes.
  size_t N = R.readLength(115);
  size_t Begin = P.Annotations.size();
  P.Annotations.resize(Begin + N);
  for (size_t I = Begin; I < Begin + N; ++I)
    if (!readAnnotation(R, P.Annotations[I], Values))
      return false;
  return R.ok();
}

void serializeColoring(const ClauseColoring &C, BinaryWriter &W) {
  W.writeU64(C.ColorOf.size());
  for (int Color : C.ColorOf)
    W.writeI64(Color);
  W.writeU64(C.ClausesByColor.size());
  for (const std::vector<size_t> &Group : C.ClausesByColor) {
    W.writeU64(Group.size());
    for (size_t I : Group)
      W.writeU64(I);
  }
}

void parseColoring(BinaryReader &R, ClauseColoring &C) {
  C.ColorOf.resize(R.readLength(8));
  for (int &Color : C.ColorOf)
    Color = static_cast<int>(R.readI64());
  C.ClausesByColor.resize(R.readLength(8));
  for (std::vector<size_t> &Group : C.ClausesByColor) {
    Group.resize(R.readLength(8));
    for (size_t &I : Group)
      I = static_cast<size_t>(R.readU64());
  }
}

void serializeProgram(const ProgramSections &S, BinaryWriter &W) {
  serializeColoring(S.Coloring, W);
  const qasm::WqasmProgram &P = S.Program;
  W.writeString(P.Version);
  W.writeI64(P.NumQubits);
  W.writeI64(P.NumBits);
  W.writeU64(P.Statements.size());
  for (size_t S = 0; S < P.Statements.size(); ++S) {
    const qasm::GateStatement &St = P.Statements[S];
    W.writeU8(static_cast<uint8_t>(St.Gate.kind()));
    for (unsigned I = 0; I < 3; ++I)
      W.writeI64(I < St.Gate.numQubits() ? St.Gate.qubit(I) : 0);
    for (unsigned I = 0; I < 3; ++I)
      W.writeF64(I < St.Gate.numParams() ? St.Gate.param(I) : 0.0);
    writeAnnotationList(P.annotationsOf(S), W);
  }
  writeAnnotationList(P.trailingAnnotations(), W);
  W.writeU64(S.AngleSlots.size());
  for (const AngleSlot &A : S.AngleSlots) {
    W.writeU32(A.Statement);
    W.writeU32(A.Annotation);
    W.writeU8(static_cast<uint8_t>(A.Where));
    W.writeU8(static_cast<uint8_t>(A.Dep));
    W.writeF64(A.Coeff);
  }
  const fpqa::PulseStats &T = S.Stats;
  W.writeU64(T.RamanLocalPulses);
  W.writeU64(T.RamanGlobalPulses);
  W.writeU64(T.RydbergPulses);
  W.writeU64(T.ShuttleInstructions);
  W.writeU64(T.ShuttleBatches);
  W.writeU64(T.ShuttleAnnotations);
  W.writeU64(T.MaxParallelShuttleWidth);
  W.writeU64(T.TransferInstructions);
  W.writeU64(T.TransferBatches);
  W.writeU64(T.CzGates);
  W.writeU64(T.CczGates);
  W.writeU64(T.NumAtoms);
  W.writeF64(T.Duration);
  W.writeF64(T.Eps);
}

bool parseProgram(BinaryReader &R, ProgramSections &S) {
  parseColoring(R, S.Coloring);
  qasm::WqasmProgram &P = S.Program;
  P.Version = R.readString();
  P.NumQubits = static_cast<int>(R.readI64());
  P.NumBits = static_cast<int>(R.readI64());
  // Minimum encoded statement: gate (49) + empty annotation list (8).
  size_t N = R.readLength(57);
  P.Statements.resize(N);
  std::vector<int32_t> Values; // one annotation's payload, reused
  for (qasm::GateStatement &St : P.Statements) {
    uint8_t Kind = R.readU8();
    if (Kind >= circuit::NumGateKinds) {
      R.fail();
      return false;
    }
    std::array<int, 3> Qubits;
    std::array<double, 3> Params;
    for (int &Q : Qubits)
      Q = static_cast<int>(R.readI64());
    for (double &V : Params)
      V = R.readF64();
    St.Gate = circuit::Gate::fromStorage(static_cast<circuit::GateKind>(Kind),
                                         Qubits, Params);
    if (!readAnnotationList(R, P, Values))
      return false;
    St.AnnotationsEnd = P.Annotations.size();
  }
  if (!readAnnotationList(R, P, Values))
    return false;
  N = R.readLength(18);
  S.AngleSlots.resize(N);
  for (AngleSlot &A : S.AngleSlots) {
    A.Statement = R.readU32();
    A.Annotation = R.readU32();
    uint8_t Where = R.readU8();
    uint8_t Dep = R.readU8();
    A.Coeff = R.readF64();
    // Validate against the program just parsed: patchProgramAngles
    // indexes statements and annotations unchecked, so a slot that does
    // not point into the template must fail the whole payload.
    if (Where > static_cast<uint8_t>(AngleSlot::Field::AnnotationZ) ||
        Dep > static_cast<uint8_t>(AngleSlot::Param::Beta) ||
        A.Statement >= P.Statements.size()) {
      R.fail();
      return false;
    }
    A.Where = static_cast<AngleSlot::Field>(Where);
    A.Dep = static_cast<AngleSlot::Param>(Dep);
    const qasm::GateStatement &St = P.Statements[A.Statement];
    bool Valid = A.Where == AngleSlot::Field::GateParam0
                     ? St.Gate.numParams() >= 1
                     : A.Annotation < P.annotationsOf(A.Statement).size();
    if (!Valid) {
      R.fail();
      return false;
    }
  }
  fpqa::PulseStats &T = S.Stats;
  T.RamanLocalPulses = static_cast<size_t>(R.readU64());
  T.RamanGlobalPulses = static_cast<size_t>(R.readU64());
  T.RydbergPulses = static_cast<size_t>(R.readU64());
  T.ShuttleInstructions = static_cast<size_t>(R.readU64());
  T.ShuttleBatches = static_cast<size_t>(R.readU64());
  T.ShuttleAnnotations = static_cast<size_t>(R.readU64());
  T.MaxParallelShuttleWidth = static_cast<size_t>(R.readU64());
  T.TransferInstructions = static_cast<size_t>(R.readU64());
  T.TransferBatches = static_cast<size_t>(R.readU64());
  T.CzGates = static_cast<size_t>(R.readU64());
  T.CczGates = static_cast<size_t>(R.readU64());
  T.NumAtoms = static_cast<size_t>(R.readU64());
  T.Duration = R.readF64();
  T.Eps = R.readF64();
  return R.ok();
}

void writeKey(const PassCacheKey &Key, BinaryWriter &W) {
  W.writeU64(Key.words().size());
  for (uint64_t Word : Key.words())
    W.writeU64(Word);
}

bool readKey(BinaryReader &R, PassCacheKey &Key) {
  size_t N = R.readLength(8);
  std::vector<uint64_t> Words(N);
  for (uint64_t &W : Words)
    W = R.readU64();
  if (!R.ok())
    return false;
  Key = PassCacheKey::fromWords(std::move(Words));
  return true;
}

/// Orders persisted entries deterministically: by key payload, so saving
/// the same cache twice (or the same merged set in any insertion order)
/// produces identical snapshot bytes.
bool keyLess(const PassCacheKey &A, const PassCacheKey &B) {
  return A.words() < B.words();
}

} // namespace

// --- Lazy materialization ------------------------------------------------

bool PassCache::materializeLocked(Cell &C) {
  if (C.Value)
    return true;
  if (!C.Blob.File)
    return false;
  BinaryReader R(C.Blob.File->data() + C.Blob.Offset, C.Blob.Len);
  auto S = std::make_shared<ProgramSections>();
  if (!parseProgram(R, *S) || R.remaining() != 0) {
    // Checksum-valid but malformed (format bug or crafted file): drop the
    // blob so this slot behaves as a plain miss and can be refilled.
    C.Blob.File = nullptr;
    return false;
  }
  C.Value = std::move(S);
  ++Counts.Materializations;
  return true;
}

// --- Snapshot save -------------------------------------------------------

Status PassCache::saveSnapshot(const std::string &Path) const {
  // Simulated crash before any serialization work: the save "fails"
  // leaving whatever snapshot was previously at Path untouched.
  if (fault::fire("persist.save.abort"))
    return Status::error("cannot save " + Path +
                         ": snapshot save aborted (injected fault)");
  std::lock_guard<std::mutex> Lock(Mutex);

  std::vector<const std::pair<const PassCacheKey, Cell> *> Entries;
  Entries.reserve(Map.size());
  for (const auto &Entry : Map)
    Entries.push_back(&Entry);
  std::sort(Entries.begin(), Entries.end(),
            [](const auto *A, const auto *B) {
              return keyLess(A->first, B->first);
            });

  BinaryWriter W;
  W.writeU64(SnapshotMagic);
  W.writeU32(SnapshotFormatVersion);
  W.writeU32(0);
  W.writeU64(compilerFingerprint());
  W.writeU64(0); // payload bytes, patched below
  W.writeU64(0); // payload checksum, patched below

  W.writeU64(Entries.size());
  for (const auto *Entry : Entries) {
    writeKey(Entry->first, W);
    const Cell &C = Entry->second;
    if (C.Value) {
      BinaryWriter Section;
      serializeProgram(*C.Value, Section);
      W.writeU64(Section.size());
      W.writeBytes(Section.bytes().data(), Section.size());
    } else {
      // Loaded and never materialized: copied verbatim, since the payload
      // encoding is position-independent. A dropped bad blob is empty.
      W.writeU64(C.Blob.Len);
      if (C.Blob.File)
        W.writeBytes(C.Blob.File->data() + C.Blob.Offset, C.Blob.Len);
    }
  }

  size_t PayloadBytes = W.size() - SnapshotHeaderBytes;
  W.patchU64(24, PayloadBytes);
  W.patchU64(32,
             fnv1a64(W.bytes().data() + SnapshotHeaderBytes, PayloadBytes));
  return writeFileAtomic(Path, W.bytes().data(), W.size());
}

// --- Snapshot load -------------------------------------------------------

Status PassCache::loadSnapshot(const std::string &Path) {
  // Simulated unreadable snapshot: same contract as every real reject —
  // nothing inserted, the caller degrades to cold compiles.
  if (fault::fire("persist.load.reject"))
    return Status::error("cache file " + Path +
                         ": rejected (injected fault)");
  Expected<MappedFile> FileOr = MappedFile::open(Path);
  if (!FileOr)
    return FileOr.status();
  auto File = std::make_shared<MappedFile>(FileOr.take());
  if (File->size() < SnapshotHeaderBytes)
    return Status::error("cache file " + Path + ": truncated header");
  BinaryReader Header(File->data(), SnapshotHeaderBytes);
  if (Header.readU64() != SnapshotMagic)
    return Status::error("cache file " + Path + ": not a PassCache snapshot");
  uint32_t Version = Header.readU32();
  Header.readU32(); // reserved
  if (Version != SnapshotFormatVersion)
    return Status::error("cache file " + Path + ": format version " +
                         std::to_string(Version) + " != " +
                         std::to_string(SnapshotFormatVersion));
  if (Header.readU64() != compilerFingerprint())
    return Status::error("cache file " + Path +
                         ": compiler fingerprint mismatch (stale cache "
                         "from another build)");
  uint64_t PayloadBytes = Header.readU64();
  uint64_t Checksum = Header.readU64();
  if (PayloadBytes != File->size() - SnapshotHeaderBytes)
    return Status::error("cache file " + Path + ": truncated payload");
  if (fnv1a64(File->data() + SnapshotHeaderBytes, PayloadBytes) != Checksum)
    return Status::error("cache file " + Path + ": payload checksum mismatch");

  // Parse the full index (keys + blob ranges) before touching the map,
  // so a malformed payload inserts nothing.
  BinaryReader R(File->data() + SnapshotHeaderBytes, PayloadBytes);
  std::vector<std::pair<PassCacheKey, Cell>> Entries;
  size_t Count = R.readLength(16);
  for (size_t I = 0; I < Count && R.ok(); ++I) {
    PassCacheKey Key;
    if (!readKey(R, Key))
      break;
    uint64_t Len = R.readU64();
    if (Len > R.remaining()) {
      R.fail();
      break;
    }
    Cell C;
    C.Blob.File = Len ? File : nullptr; // a zero-length blob stays a miss
    C.Blob.Offset = SnapshotHeaderBytes + R.position();
    C.Blob.Len = static_cast<size_t>(Len);
    R.skip(C.Blob.Len);
    Entries.emplace_back(std::move(Key), std::move(C));
  }
  if (!R.ok() || R.remaining() != 0)
    return Status::error("cache file " + Path + ": malformed payload index");

  // Commit. Existing keys win: a loaded entry never replaces one already
  // inserted (in-process results are at least as fresh).
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Entry : Entries) {
    if (MaxEntries && Map.size() >= MaxEntries)
      break;
    Map.emplace(std::move(Entry.first), std::move(Entry.second));
  }
  return Status::success();
}

Status PassCache::mergeSnapshots(const std::vector<std::string> &Inputs,
                                 const std::string &Output,
                                 std::vector<std::string> *Skipped) {
  PassCache Merged(/*MaxEntries=*/0);
  for (const std::string &Input : Inputs) {
    if (Status S = Merged.loadSnapshot(Input)) {
      if (!Skipped)
        return S;
      // Tolerant mode: a bad segment costs its shard's entries (they
      // recompute as cold misses later), never the whole merge.
      Skipped->push_back(Input + ": " + S.message());
    }
  }
  // Saving a just-loaded cache copies section payloads verbatim, so the
  // merge never materializes a template.
  return Merged.saveSnapshot(Output);
}
