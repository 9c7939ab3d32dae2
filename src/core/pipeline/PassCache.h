//===- core/pipeline/PassCache.h - Pass-result memoisation -----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoisation of pass results across compilations that share inputs — the
/// ROADMAP "Per-pass caching" item. A QAOA parameter sweep recompiles the
/// same (formula, geometry) under varying gamma/beta; the cache lets
/// compileWeaver skip every pass for all but the first point.
///
/// One tier of program templates, keyed on every pipeline input except
/// gamma/beta. At fixed layers the emitted program differs across
/// gamma/beta only in angle values, each an exact power-of-two multiple of
/// one parameter (AngleSlot). An entry holds the colouring, the program
/// with its recorded angle slots and the angle-independent pulse stats; a
/// hit runs no pass: it copies the template and patches the slots, which
/// is bit-identical to direct emission. ProgramSections lists those
/// context fields; its capture() and restore() alone move them in and out.
///
/// Keys hash the full input payload and compare it exactly on lookup, so
/// hash collisions cannot alias entries. All operations are mutex-guarded:
/// one cache may be shared by every worker of a BatchCompiler sweep.
///
/// The cache is also durable: saveSnapshot() serializes the templates to a
/// versioned, checksummed file keyed by the key payloads plus a compiler
/// fingerprint (git hash + format/schema versions), and loadSnapshot()
/// mmaps such a file back. Loading deserializes only the key index; the
/// section payloads stay in the mapping and are materialized lazily on
/// the first hit, so a warm start costs index deserialization, not
/// template re-materialization. Any defect in a cache file — truncation,
/// checksum mismatch, wrong version or fingerprint — fails the load and
/// leaves the cache to compile cold, and a hostile file does not crash
/// the process. The FNV-1a checksum catches accidental corruption only:
/// it is not a MAC, so a resealed file can parse into another program
/// that is then served as a hit. Snapshot files are trusted like the
/// binary. Multi-process sweeps persist one
/// segment file per shard (same format) and compact them with
/// mergeSnapshots(); see tools/shard_sweep.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_PASSCACHE_H
#define WEAVER_CORE_PIPELINE_PASSCACHE_H

#include "core/pipeline/CompilationContext.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace weaver {

class MappedFile;

namespace core {
namespace pipeline {

/// Exact-match cache key: a flat word payload (formula, options, hardware)
/// plus its hash. Lookups compare the payload, never just the hash.
class PassCacheKey {
public:
  /// Key of the program template: every pipeline input except gamma/beta.
  static PassCacheKey of(const CompilationContext &Ctx);

  uint64_t hash() const { return Hash; }
  friend bool operator==(const PassCacheKey &A, const PassCacheKey &B) {
    return A.Hash == B.Hash && A.Words == B.Words;
  }

  /// The exact payload; what the snapshot format persists per entry.
  const std::vector<uint64_t> &words() const { return Words; }
  /// Rebuilds a key from a persisted payload (the hash is recomputed, so
  /// a corrupted payload simply becomes a key that matches nothing).
  static PassCacheKey fromWords(std::vector<uint64_t> W) {
    PassCacheKey K;
    K.Words = std::move(W);
    K.finish();
    return K;
  }

private:
  void add(uint64_t Word);
  void add(int32_t Value) { add(static_cast<uint64_t>(int64_t{Value})); }
  void add(double Value);
  void finish();

  std::vector<uint64_t> Words;
  uint64_t Hash = 0;
};

/// The context fields a template hit restores: the clause colouring, the
/// program with its parameterised angle slots, and the gamma/beta-
/// independent pulse statistics.
struct ProgramSections {
  ClauseColoring Coloring;
  qasm::WqasmProgram Program;
  std::vector<AngleSlot> AngleSlots;
  fpqa::PulseStats Stats;

  /// Copies the sections out of \p Ctx once the last pass has run (gate
  /// lowering must have collected the angle slots).
  static ProgramSections capture(const CompilationContext &Ctx);
  /// Writes the colouring, the program with its angles patched to Ctx's
  /// gamma and beta, and the angle-independent stats into \p Ctx as if
  /// the pipeline had run.
  void restore(CompilationContext &Ctx) const;
};

// --- Persistence constants (on-disk snapshot format v3) ------------------
//
// Layout: a 40-byte header followed by the payload.
//   [0]  u64 magic ("WVRCACHE", little-endian)
//   [8]  u32 format version
//   [12] u32 reserved (0)
//   [16] u64 compiler fingerprint (see compilerFingerprint())
//   [24] u64 payload byte count
//   [32] u64 FNV-1a checksum of the payload
//   [40] payload: one index of (key, ProgramSections blob) entries (see
//        PassCachePersist.cpp)
// Tests patch these offsets directly to forge hostile headers.
//
// Version 3 holds one entry per template, with the colouring in its blob,
// and stores every length (trap and AOD coordinates, shuttle offsets) as
// a whole number of nanometres in an i64. Version 2 also held a pool of
// colourings and zone plans beside the templates, and version 1 stored
// micrometre doubles; a file of either fails the version check and the
// cache compiles cold.
inline constexpr uint64_t SnapshotMagic = 0x4548434143525657ull; // "WVRCACHE"
inline constexpr uint32_t SnapshotFormatVersion = 3;
inline constexpr size_t SnapshotHeaderBytes = 40;

/// Identity of the compiler that wrote a snapshot: git hash baked in at
/// configure time, the snapshot format version, and the option-schema
/// sizes the cache keys enumerate. Any mismatch invalidates a cache file
/// wholesale — a stale template from another compiler build must never
/// be instantiated.
uint64_t compilerFingerprint();

/// Thread-safe template store. See file comment.
class PassCache {
public:
  /// Hit/miss counters; every compile through the cache counts one.
  struct CacheStats {
    uint64_t ProgramHits = 0;
    uint64_t ProgramMisses = 0;
    /// Sections parsed on demand out of a mapped snapshot — how many
    /// hits were served from disk rather than from in-process inserts.
    uint64_t Materializations = 0;
  };

  /// \p MaxEntries bounds the template count; the cache is flushed when
  /// an insertion would exceed it, and the flushed table is freed after
  /// the mutex is released. Sweep working sets are far smaller. A
  /// template of satlibInstance(250, 1) holds 3.79 MB of heap, so the
  /// default cap's worst case at that size is about 1.9 GB. 0 means
  /// unbounded.
  explicit PassCache(size_t MaxEntries = 512) : MaxEntries(MaxEntries) {}

  /// Template lookup; null on a miss.
  std::shared_ptr<const ProgramSections> lookup(const PassCacheKey &Key);
  /// Inserts a template. A key already present keeps its entry (another
  /// worker raced the insertion) unless its snapshot payload failed to
  /// parse; then \p Sections refill it.
  void insert(PassCacheKey Key, ProgramSections Sections);

  // --- Persistence (implemented in PassCachePersist.cpp) ----------------

  /// Serializes every template to \p Path atomically (temp + rename),
  /// stamped with this build's compilerFingerprint(). Entries that were
  /// loaded from a snapshot and never materialized are copied
  /// byte-for-byte, so a load-then-save round trip (the shard merge path)
  /// never parses section payloads.
  Status saveSnapshot(const std::string &Path) const;

  /// Maps \p Path and merges its entries into this cache (keys already
  /// present are kept, not overwritten — first writer wins). Only the key
  /// index is deserialized here; section payloads materialize lazily on
  /// first hit. On any validation failure (unreadable, truncated, bad
  /// magic/version/checksum, another build's fingerprint) nothing is
  /// inserted and the error is returned — callers fall back to a cold
  /// compile.
  Status loadSnapshot(const std::string &Path);

  /// Compacts shard segment files into one snapshot: loads every input
  /// (first file wins on duplicate keys) and saves the union to
  /// \p Output. Without \p Skipped it fails on the first unreadable or
  /// invalid input. Crash-recovery paths pass \p Skipped: such an input is
  /// then recorded there ("path: reason") and skipped instead of failing
  /// the merge — its entries simply recompute as cold misses on the next
  /// run.
  static Status mergeSnapshots(const std::vector<std::string> &Inputs,
                               const std::string &Output,
                               std::vector<std::string> *Skipped = nullptr);

  CacheStats stats() const;
  size_t size() const;
  void clear();

private:
  /// Byte range of a section payload inside a mapped snapshot; File is
  /// null for entries inserted in-process.
  struct LazyBlob {
    std::shared_ptr<MappedFile> File;
    size_t Offset = 0;
    size_t Len = 0;
  };
  /// One stored template: either materialized (Value set), or still a
  /// byte range of the snapshot it was loaded from.
  struct Cell {
    std::shared_ptr<const ProgramSections> Value;
    LazyBlob Blob;
  };
  struct KeyHash {
    size_t operator()(const PassCacheKey &K) const { return K.hash(); }
  };

  /// Parse-on-demand of a loaded cell; returns false (a miss) on a parse
  /// failure — insert() then refills the slot. Callers hold Mutex.
  bool materializeLocked(Cell &C);

  mutable std::mutex Mutex;
  std::unordered_map<PassCacheKey, Cell, KeyHash> Map;
  CacheStats Counts;
  size_t MaxEntries;
};

/// Writes Coeff * (Gamma or Beta) into every recorded slot of \p Program.
/// Bit-identical to direct emission because every coefficient is an exact
/// power of two (see AngleSlot).
void patchProgramAngles(qasm::WqasmProgram &Program,
                        const std::vector<AngleSlot> &Slots, double Gamma,
                        double Beta);

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_PASSCACHE_H
