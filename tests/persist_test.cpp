//===- tests/persist_test.cpp - Persistent PassCache snapshot tests -------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The durability contract of the PassCache snapshot format: a
/// save/load round trip serves byte-identical compiles across a process
/// "restart" (a fresh cache object), snapshot bytes are deterministic,
/// and every class of hostile file — missing, truncated, bit-flipped,
/// wrong version, wrong fingerprint, forged checksum — is rejected (or
/// degraded to a plain miss) without crashing, after which compilation
/// proceeds cold and still byte-identical. Concurrency: parallel readers
/// of one file, parallel shard writers compacted by mergeSnapshots, and
/// atomic saves racing on one path.
///
//===----------------------------------------------------------------------===//

#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"
#include "support/BinaryIO.h"
#include "support/FaultInjection.h"

#include "TestPaths.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;
using sat::CnfFormula;

namespace {

CnfFormula testFormula(uint64_t Seed = 1, int Vars = 12, size_t Clauses = 40) {
  return sat::RandomSatGenerator(Seed).generate(Vars, Clauses);
}

WeaverOptions sweepPoint(double Gamma, double Beta, PassCache *Cache) {
  WeaverOptions Opt;
  Opt.Qaoa.Gamma = Gamma;
  Opt.Qaoa.Beta = Beta;
  Opt.Cache = Cache;
  return Opt;
}

std::string compileToText(const CnfFormula &F, const WeaverOptions &Opt) {
  auto R = compileWeaver(F, Opt);
  EXPECT_TRUE(R.ok()) << R.message();
  return R.ok() ? qasm::printWqasm(R->Program) : std::string();
}

/// Compiles \p F at two angle points through \p Cache, populating one
/// template.
void populate(PassCache &Cache, const CnfFormula &F) {
  compileToText(F, sweepPoint(0.7, 0.3, &Cache));
  compileToText(F, sweepPoint(0.5, 0.2, &Cache));
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Patches \p Bytes[Offset..Offset+8) with the little-endian \p V.
void patchU64At(std::vector<uint8_t> &Bytes, size_t Offset, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Rewrites the header checksum so forged payload bytes pass validation
/// (the malformed-payload tests need to get past the checksum gate).
void resealChecksum(std::vector<uint8_t> &Bytes) {
  ASSERT_GE(Bytes.size(), SnapshotHeaderBytes);
  patchU64At(Bytes, 32,
             fnv1a64(Bytes.data() + SnapshotHeaderBytes,
                     Bytes.size() - SnapshotHeaderBytes));
}

} // namespace

// --- Round trip ----------------------------------------------------------

TEST(PassCachePersist, RoundTripServesByteIdenticalCompiles) {
  std::string Path = testTempDir() + "/cache.bin";
  CnfFormula F = testFormula();

  // References: cache-off compiles at a stored and an unseen angle point.
  std::string RefA = compileToText(F, sweepPoint(0.7, 0.3, nullptr));
  std::string RefB = compileToText(F, sweepPoint(0.9, 0.15, nullptr));

  PassCache Writer;
  populate(Writer, F);
  ASSERT_FALSE(Writer.saveSnapshot(Path));

  // "Restart": a fresh cache object warm-started from the file.
  PassCache Reader;
  ASSERT_FALSE(Reader.loadSnapshot(Path));
  EXPECT_EQ(Reader.size(), Writer.size());
  EXPECT_EQ(Reader.stats().Materializations, 0u); // index only, so far

  EXPECT_EQ(compileToText(F, sweepPoint(0.7, 0.3, &Reader)), RefA);
  EXPECT_EQ(compileToText(F, sweepPoint(0.9, 0.15, &Reader)), RefB);

  PassCache::CacheStats S = Reader.stats();
  EXPECT_EQ(S.ProgramMisses, 0u) << "restart must be warm";
  EXPECT_EQ(S.ProgramHits, 2u);
  EXPECT_GT(S.Materializations, 0u) << "hits must come from the mapping";
}

TEST(PassCachePersist, SnapshotBytesAreDeterministic) {
  std::string DirPath = testTempDir();
  PassCache Cache;
  populate(Cache, testFormula(1));
  populate(Cache, testFormula(2));
  ASSERT_FALSE(Cache.saveSnapshot(DirPath + "/a.bin"));
  ASSERT_FALSE(Cache.saveSnapshot(DirPath + "/b.bin"));
  EXPECT_EQ(readFileBytes(DirPath + "/a.bin"),
            readFileBytes(DirPath + "/b.bin"));
}

TEST(PassCachePersist, LoadThenSaveCopiesBlobsWithoutMaterializing) {
  // The shard-merge path: load a snapshot and save it again without any
  // lookups. Unmaterialized entries must be copied byte-for-byte, giving
  // an identical file and zero materializations.
  std::string DirPath = testTempDir();
  PassCache Writer;
  populate(Writer, testFormula(1));
  populate(Writer, testFormula(2));
  ASSERT_FALSE(Writer.saveSnapshot(DirPath + "/first.bin"));

  PassCache Copier;
  ASSERT_FALSE(Copier.loadSnapshot(DirPath + "/first.bin"));
  ASSERT_FALSE(Copier.saveSnapshot(DirPath + "/second.bin"));
  EXPECT_EQ(Copier.stats().Materializations, 0u);
  EXPECT_EQ(readFileBytes(DirPath + "/first.bin"),
            readFileBytes(DirPath + "/second.bin"));
}

TEST(PassCachePersist, LoadMergesAndKeepsExistingEntries) {
  std::string Path = testTempDir() + "/cache.bin";
  PassCache A;
  populate(A, testFormula(1));
  ASSERT_FALSE(A.saveSnapshot(Path));

  // Loading into a cache that already has different entries adds the
  // file's; loading the same file again changes nothing.
  PassCache B;
  populate(B, testFormula(2));
  size_t Before = B.size();
  ASSERT_FALSE(B.loadSnapshot(Path));
  EXPECT_EQ(B.size(), Before + A.size());
  ASSERT_FALSE(B.loadSnapshot(Path));
  EXPECT_EQ(B.size(), Before + A.size());
}

// --- Hostile files -------------------------------------------------------

TEST(PassCachePersist, MissingAndEmptyFilesFailCleanly) {
  std::string DirPath = testTempDir();
  PassCache Cache;
  EXPECT_TRUE(Cache.loadSnapshot(DirPath + "/does-not-exist.bin"));
  writeFileBytes(DirPath + "/empty.bin", {});
  EXPECT_TRUE(Cache.loadSnapshot(DirPath + "/empty.bin"));
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(PassCachePersist, TruncatedFilesAreRejected) {
  std::string DirPath = testTempDir();
  CnfFormula F = testFormula();
  PassCache Writer;
  populate(Writer, F);
  ASSERT_FALSE(Writer.saveSnapshot(DirPath + "/full.bin"));
  std::vector<uint8_t> Full = readFileBytes(DirPath + "/full.bin");
  ASSERT_GT(Full.size(), SnapshotHeaderBytes);

  // Mid-header, just past the header, and one byte short of complete.
  const size_t Cuts[] = {SnapshotHeaderBytes - 1, SnapshotHeaderBytes + 16,
                         Full.size() - 1};
  for (size_t Cut : Cuts) {
    std::string Path = DirPath + "/cut" + std::to_string(Cut) + ".bin";
    writeFileBytes(Path,
                   std::vector<uint8_t>(Full.begin(), Full.begin() + Cut));
    PassCache Cache;
    EXPECT_TRUE(Cache.loadSnapshot(Path)) << "cut at " << Cut;
    EXPECT_EQ(Cache.size(), 0u);
    // The cold path still works after the rejected load.
    EXPECT_EQ(compileToText(F, sweepPoint(0.7, 0.3, &Cache)),
              compileToText(F, sweepPoint(0.7, 0.3, nullptr)));
  }
}

TEST(PassCachePersist, BitFlippedPayloadFailsChecksum) {
  std::string DirPath = testTempDir();
  PassCache Writer;
  populate(Writer, testFormula());
  ASSERT_FALSE(Writer.saveSnapshot(DirPath + "/good.bin"));
  std::vector<uint8_t> Bytes = readFileBytes(DirPath + "/good.bin");

  Bytes[SnapshotHeaderBytes + Bytes.size() / 2] ^= 0x40;
  writeFileBytes(DirPath + "/flipped.bin", Bytes);
  PassCache Cache;
  Status S = Cache.loadSnapshot(DirPath + "/flipped.bin");
  ASSERT_TRUE(S);
  EXPECT_NE(S.message().find("checksum"), std::string::npos) << S.message();
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(PassCachePersist, WrongMagicAndVersionAreRejected) {
  std::string DirPath = testTempDir();
  PassCache Writer;
  populate(Writer, testFormula());
  ASSERT_FALSE(Writer.saveSnapshot(DirPath + "/good.bin"));
  std::vector<uint8_t> Good = readFileBytes(DirPath + "/good.bin");

  std::vector<uint8_t> BadMagic = Good;
  patchU64At(BadMagic, 0, 0x21212121212121ull);
  writeFileBytes(DirPath + "/magic.bin", BadMagic);
  PassCache C1;
  Status S1 = C1.loadSnapshot(DirPath + "/magic.bin");
  ASSERT_TRUE(S1);
  EXPECT_NE(S1.message().find("snapshot"), std::string::npos) << S1.message();

  std::vector<uint8_t> BadVersion = Good;
  BadVersion[8] = static_cast<uint8_t>(SnapshotFormatVersion + 1);
  writeFileBytes(DirPath + "/version.bin", BadVersion);
  PassCache C2;
  Status S2 = C2.loadSnapshot(DirPath + "/version.bin");
  ASSERT_TRUE(S2);
  EXPECT_NE(S2.message().find("version"), std::string::npos) << S2.message();
  EXPECT_EQ(C1.size() + C2.size(), 0u);
}

TEST(PassCachePersist, FormatOneSnapshotLoadsAsVersionErrorThenCompilesCold) {
  // Format 1 stored lengths as micrometre doubles; format 2 also kept a
  // pool of colourings and zone plans beside the templates; format 3 holds
  // the templates only. A file stamped with an older version must be refused
  // at the version check, never parsed, and the cache must then compile
  // cold.
  ASSERT_EQ(SnapshotFormatVersion, 3u);
  std::string DirPath = testTempDir();
  CnfFormula F = testFormula();
  PassCache Writer;
  populate(Writer, F);
  ASSERT_FALSE(Writer.saveSnapshot(DirPath + "/v3.bin"));
  std::vector<uint8_t> Old = readFileBytes(DirPath + "/v3.bin");
  for (int Version : {1, 2}) {
    Old[8] = static_cast<uint8_t>(Version); // u32 version, little-endian
    std::string Path = DirPath + "/v" + std::to_string(Version) + ".bin";
    writeFileBytes(Path, Old);

    PassCache Cache;
    Status S = Cache.loadSnapshot(Path);
    ASSERT_TRUE(S);
    std::string Expected =
        "format version " + std::to_string(Version) + " != 3";
    EXPECT_NE(S.message().find(Expected), std::string::npos) << S.message();
    EXPECT_EQ(Cache.size(), 0u);
    EXPECT_EQ(compileToText(F, sweepPoint(0.7, 0.3, &Cache)),
              compileToText(F, sweepPoint(0.7, 0.3, nullptr)));
    EXPECT_EQ(Cache.stats().ProgramMisses, 1u);
    EXPECT_EQ(Cache.stats().ProgramHits, 0u);
    EXPECT_EQ(Cache.stats().Materializations, 0u);
  }
}

TEST(PassCachePersist, FingerprintMismatchIsRejected) {
  std::string DirPath = testTempDir();
  PassCache Writer;
  populate(Writer, testFormula());
  ASSERT_FALSE(Writer.saveSnapshot(DirPath + "/good.bin"));
  std::vector<uint8_t> Bytes = readFileBytes(DirPath + "/good.bin");

  // As if another compiler build had written the file.
  patchU64At(Bytes, 16, compilerFingerprint() + 1);
  writeFileBytes(DirPath + "/other-build.bin", Bytes);
  PassCache Cache;
  Status S = Cache.loadSnapshot(DirPath + "/other-build.bin");
  ASSERT_TRUE(S);
  EXPECT_NE(S.message().find("fingerprint"), std::string::npos)
      << S.message();
  EXPECT_EQ(Cache.size(), 0u);

  // The same file loads once it carries this build's fingerprint again.
  patchU64At(Bytes, 16, compilerFingerprint());
  writeFileBytes(DirPath + "/restored.bin", Bytes);
  EXPECT_FALSE(Cache.loadSnapshot(DirPath + "/restored.bin"));
  EXPECT_EQ(Cache.size(), Writer.size());
}

TEST(PassCachePersist, ForgedChecksumOverGarbageNeverCrashes) {
  // An attacker (or cosmic-ray cluster) can reseal the checksum over
  // arbitrary payload bytes; the bounds-checked parser must then either
  // reject the index or degrade entries to misses — never crash, never
  // block compilation.
  std::string DirPath = testTempDir();
  CnfFormula F = testFormula();
  PassCache Writer;
  populate(Writer, F);
  ASSERT_FALSE(Writer.saveSnapshot(DirPath + "/good.bin"));
  std::vector<uint8_t> Good = readFileBytes(DirPath + "/good.bin");

  // A few corruption shapes: zeroed payload head (kills the index),
  // 0xFF-saturated tail (kills the template blob), and a single flip in
  // the key (the entry then matches nothing).
  for (int Shape = 0; Shape < 3; ++Shape) {
    std::vector<uint8_t> Bytes = Good;
    size_t PayloadLen = Bytes.size() - SnapshotHeaderBytes;
    if (Shape == 0)
      for (size_t I = 0; I < PayloadLen / 4; ++I)
        Bytes[SnapshotHeaderBytes + I] = 0;
    else if (Shape == 1)
      for (size_t I = Bytes.size() - PayloadLen / 4; I < Bytes.size(); ++I)
        Bytes[I] = 0xFF;
    else
      Bytes[SnapshotHeaderBytes + 24] ^= 0x01;
    resealChecksum(Bytes);
    std::string Path = DirPath + "/forged" + std::to_string(Shape) + ".bin";
    writeFileBytes(Path, Bytes);

    PassCache Cache;
    Cache.loadSnapshot(Path); // outcome may be reject or degraded entries
    EXPECT_EQ(compileToText(F, sweepPoint(0.7, 0.3, &Cache)),
              compileToText(F, sweepPoint(0.7, 0.3, nullptr)))
        << "shape " << Shape;
  }

  // Seeded mutants: 1-4 byte flips anywhere in the payload, resealed. A
  // flip inside the template blob may still parse into another program,
  // so only the outcome is pinned: the load succeeds or fails, and the
  // compile after it succeeds. Its bytes are not pinned, and cannot be:
  // the checksum is resealable and the parser checks structure only, so
  // some mutants serve another program as a hit (27 of these 200 in a
  // probe). Only a keyed MAC or a revalidation on load would close that;
  // until then snapshot files are trusted like the binary.
  std::mt19937_64 Rng(20250808);
  size_t PayloadLen = Good.size() - SnapshotHeaderBytes;
  std::string Path = DirPath + "/mutant.bin";
  int Loaded = 0;
  for (int Mutant = 0; Mutant < 200; ++Mutant) {
    std::vector<uint8_t> Bytes = Good;
    int Flips = 1 + static_cast<int>(Rng() % 4);
    for (int I = 0; I < Flips; ++I)
      Bytes[SnapshotHeaderBytes + Rng() % PayloadLen] ^=
          static_cast<uint8_t>(1 + Rng() % 255);
    resealChecksum(Bytes);
    writeFileBytes(Path, Bytes);

    PassCache Cache;
    if (!Cache.loadSnapshot(Path))
      ++Loaded;
    auto R = compileWeaver(F, sweepPoint(0.4, 0.1, &Cache));
    ASSERT_TRUE(R.ok()) << "mutant " << Mutant << ": " << R.message();
    EXPECT_FALSE(qasm::printWqasm(R->Program).empty());
  }
  // Most flips land in the template blob, past the index.
  EXPECT_GT(Loaded, 0);
}

// --- Concurrency ---------------------------------------------------------

TEST(PassCachePersist, ConcurrentReadersShareOneFile) {
  std::string Path = testTempDir() + "/cache.bin";
  CnfFormula F = testFormula();
  std::string Ref = compileToText(F, sweepPoint(0.7, 0.3, nullptr));
  PassCache Writer;
  populate(Writer, F);
  ASSERT_FALSE(Writer.saveSnapshot(Path));

  constexpr int Readers = 4;
  std::vector<std::string> Texts(Readers);
  std::vector<uint64_t> Misses(Readers, 1);
  std::vector<std::thread> Threads;
  for (int I = 0; I < Readers; ++I)
    Threads.emplace_back([&, I] {
      PassCache Cache;
      if (Cache.loadSnapshot(Path))
        return; // leave Misses[I] nonzero: the load must not fail
      Texts[I] = compileToText(F, sweepPoint(0.7, 0.3, &Cache));
      Misses[I] = Cache.stats().ProgramMisses;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < Readers; ++I) {
    EXPECT_EQ(Texts[I], Ref) << "reader " << I;
    EXPECT_EQ(Misses[I], 0u) << "reader " << I;
  }
}

TEST(PassCachePersist, ConcurrentShardWritersThenMerge) {
  // The shard_sweep protocol in miniature: N writers persist disjoint
  // segments concurrently; mergeSnapshots compacts them; the merged file
  // warm-serves every formula.
  std::string DirPath = testTempDir();
  constexpr int Shards = 4;
  std::vector<CnfFormula> Formulas;
  std::vector<std::string> Segments;
  for (int K = 0; K < Shards; ++K) {
    Formulas.push_back(testFormula(100 + K));
    Segments.push_back(DirPath + "/seg" + std::to_string(K) + ".bin");
  }

  std::vector<std::thread> Threads;
  std::vector<int> Failed(Shards, 0);
  for (int K = 0; K < Shards; ++K)
    Threads.emplace_back([&, K] {
      PassCache Cache;
      populate(Cache, Formulas[K]);
      Failed[K] = Cache.saveSnapshot(Segments[K]) ? 1 : 0;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int K = 0; K < Shards; ++K)
    ASSERT_EQ(Failed[K], 0) << "segment " << K;

  std::string Merged = DirPath + "/merged.bin";
  ASSERT_FALSE(PassCache::mergeSnapshots(Segments, Merged));

  PassCache Cache;
  ASSERT_FALSE(Cache.loadSnapshot(Merged));
  for (int K = 0; K < Shards; ++K)
    EXPECT_EQ(compileToText(Formulas[K], sweepPoint(0.7, 0.3, &Cache)),
              compileToText(Formulas[K], sweepPoint(0.7, 0.3, nullptr)));
  EXPECT_EQ(Cache.stats().ProgramMisses, 0u);
}

TEST(PassCachePersist, RacingSaversOnOnePathLeaveAValidFile) {
  // Atomic temp+rename: whichever writer lands last, a concurrent reader
  // never observes a partial file.
  std::string Path = testTempDir() + "/raced.bin";
  constexpr int Writers = 4;
  std::vector<PassCache> Caches(Writers);
  for (int K = 0; K < Writers; ++K)
    populate(Caches[K], testFormula(200 + K));

  std::vector<std::thread> Threads;
  for (int K = 0; K < Writers; ++K)
    Threads.emplace_back([&, K] {
      for (int Round = 0; Round < 8; ++Round)
        ASSERT_FALSE(Caches[K].saveSnapshot(Path));
    });
  std::atomic<int> GoodLoads{0};
  Threads.emplace_back([&] {
    for (int Round = 0; Round < 16; ++Round) {
      PassCache Cache;
      Status S = Cache.loadSnapshot(Path);
      // ENOENT before the first rename is fine; anything that loads must
      // be complete and valid.
      if (!S)
        GoodLoads.fetch_add(1);
    }
  });
  for (std::thread &T : Threads)
    T.join();

  PassCache Final;
  EXPECT_FALSE(Final.loadSnapshot(Path));
  EXPECT_GT(Final.size(), 0u);
}

// --- Accounting ----------------------------------------------------------

TEST(PassCachePersist, MaterializationsCountOncePerEntry) {
  std::string Path = testTempDir() + "/cache.bin";
  CnfFormula F = testFormula();
  PassCache Writer;
  populate(Writer, F);
  ASSERT_FALSE(Writer.saveSnapshot(Path));

  PassCache Reader;
  ASSERT_FALSE(Reader.loadSnapshot(Path));
  EXPECT_EQ(Reader.stats().Materializations, 0u);
  compileToText(F, sweepPoint(0.7, 0.3, &Reader));
  uint64_t AfterFirst = Reader.stats().Materializations;
  EXPECT_GT(AfterFirst, 0u);
  compileToText(F, sweepPoint(0.4, 0.1, &Reader));
  // The second hit reuses the materialized sections.
  EXPECT_EQ(Reader.stats().Materializations, AfterFirst);
}

// --- BinaryIO primitives -------------------------------------------------

TEST(BinaryIO, ReaderLatchesOnOverrun) {
  BinaryWriter W;
  W.writeU32(7);
  BinaryReader R(W.bytes().data(), W.size());
  EXPECT_EQ(R.readU32(), 7u);
  EXPECT_TRUE(R.ok());
  (void)R.readU64(); // past the end
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.readU64(), 0u) << "failed reader must keep returning zero";
}

TEST(BinaryIO, ReadLengthRejectsOversizedCounts) {
  BinaryWriter W;
  W.writeU64(static_cast<uint64_t>(-1)); // absurd element count
  BinaryReader R(W.bytes().data(), W.size());
  EXPECT_EQ(R.readLength(8), 0u);
  EXPECT_FALSE(R.ok());
}

TEST(BinaryIO, WriterRoundTripsEveryScalar) {
  BinaryWriter W;
  W.writeU8(0xAB);
  W.writeU32(0xDEADBEEFu);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeI64(-42);
  W.writeF64(3.14159);
  W.writeString("weaver");
  BinaryReader R(W.bytes().data(), W.size());
  EXPECT_EQ(R.readU8(), 0xAB);
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.readI64(), -42);
  EXPECT_DOUBLE_EQ(R.readF64(), 3.14159);
  EXPECT_EQ(R.readString(), "weaver");
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

// --- Fault injection -----------------------------------------------------

namespace {
/// Guarantees the process-global fault engine is disabled on scope exit,
/// whatever the test body did (the engine outlives the test otherwise).
struct FaultGuard {
  ~FaultGuard() { fault::resetGlobal(); }
};
} // namespace

TEST(PassCachePersist, FaultedSavesLeavePreviousSnapshotIntact) {
  // Every injectable failure on the save path — abort before writing,
  // open failure, short write (simulated crash mid-write), ENOSPC, fsync
  // failure, rename failure — must leave the previous snapshot's bytes
  // untouched and loadable. This is the durability half of the
  // atomic-save contract.
  FaultGuard Guard;
  std::string Path = testTempDir() + "/victim.bin";
  PassCache Old;
  populate(Old, testFormula(1));
  ASSERT_FALSE(Old.saveSnapshot(Path));
  std::vector<uint8_t> OldBytes = readFileBytes(Path);

  PassCache New;
  populate(New, testFormula(2)); // different content than the old snapshot

  const char *Sites[] = {"persist.save.abort", "binio.open",
                         "binio.write.short",  "binio.write.enospc",
                         "binio.fsync",        "binio.rename"};
  for (const char *Site : Sites) {
    ASSERT_FALSE(fault::configureGlobal(std::string("seed=1;") + Site));
    Status S = New.saveSnapshot(Path);
    EXPECT_TRUE(static_cast<bool>(S)) << Site << " did not fail the save";
    fault::resetGlobal();

    EXPECT_EQ(readFileBytes(Path), OldBytes)
        << Site << " corrupted the previous snapshot";
    PassCache Check;
    EXPECT_FALSE(Check.loadSnapshot(Path))
        << "previous snapshot unreadable after " << Site;
    EXPECT_EQ(Check.size(), Old.size());
  }

  // Faults lifted, the save goes through and replaces the file.
  ASSERT_FALSE(New.saveSnapshot(Path));
  EXPECT_NE(readFileBytes(Path), OldBytes);
}

TEST(PassCachePersist, DirFsyncFailureStillLeavesAValidSnapshot) {
  // binio.dirfsync fires after the rename landed: the save reports an
  // error (the directory entry may not be durable), but the file itself
  // is the complete new snapshot — never a torn in-between.
  FaultGuard Guard;
  std::string Path = testTempDir() + "/dirsync.bin";
  PassCache Cache;
  populate(Cache, testFormula(3));

  ASSERT_FALSE(fault::configureGlobal("seed=1;binio.dirfsync"));
  EXPECT_TRUE(static_cast<bool>(Cache.saveSnapshot(Path)));
  fault::resetGlobal();

  PassCache Check;
  EXPECT_FALSE(Check.loadSnapshot(Path));
  EXPECT_EQ(Check.size(), Cache.size());
}

TEST(PassCachePersist, FaultedLoadDegradesToColdCompile) {
  // A rejected load is a cache miss, not an error state: compilation
  // proceeds cold and stays byte-identical to the cache-off reference.
  FaultGuard Guard;
  std::string Path = testTempDir() + "/cold.bin";
  CnfFormula F = testFormula(4);
  std::string Ref = compileToText(F, sweepPoint(0.7, 0.3, nullptr));

  PassCache Writer;
  populate(Writer, F);
  ASSERT_FALSE(Writer.saveSnapshot(Path));

  ASSERT_FALSE(fault::configureGlobal("seed=1;persist.load.reject"));
  PassCache Reader;
  EXPECT_TRUE(static_cast<bool>(Reader.loadSnapshot(Path)));
  EXPECT_EQ(Reader.size(), 0u) << "rejected load must leave the cache cold";
  fault::resetGlobal();

  EXPECT_EQ(compileToText(F, sweepPoint(0.7, 0.3, &Reader)), Ref);
  EXPECT_GT(Reader.stats().ProgramMisses, 0u) << "compile ran cold";
}

TEST(PassCachePersist, TolerantMergeSkipsFaultRejectedSegment) {
  // The crash-recovery merge: one segment rejected (here by injection,
  // in production by a crash mid-write), the other good. Given a Skipped
  // list, the merge records the loss and still merges the survivors.
  FaultGuard Guard;
  std::string DirPath = testTempDir();
  PassCache A, B;
  populate(A, testFormula(5));
  populate(B, testFormula(6));
  ASSERT_FALSE(A.saveSnapshot(DirPath + "/a.shard"));
  ASSERT_FALSE(B.saveSnapshot(DirPath + "/b.shard"));

  // count=1: exactly the first segment load is rejected.
  ASSERT_FALSE(
      fault::configureGlobal("seed=1;persist.load.reject:count=1"));
  std::vector<std::string> Skipped;
  Status S = PassCache::mergeSnapshots(
      {DirPath + "/a.shard", DirPath + "/b.shard"}, DirPath + "/merged.bin",
      &Skipped);
  fault::resetGlobal();
  EXPECT_FALSE(static_cast<bool>(S)) << S.message();
  ASSERT_EQ(Skipped.size(), 1u);
  EXPECT_NE(Skipped[0].find("a.shard"), std::string::npos);

  PassCache Merged;
  ASSERT_FALSE(Merged.loadSnapshot(DirPath + "/merged.bin"));
  EXPECT_EQ(Merged.size(), B.size()) << "survivor segment must be kept";

  // Without a Skipped list the merge refuses instead — callers that need
  // every segment still get the hard error.
  ASSERT_FALSE(
      fault::configureGlobal("seed=1;persist.load.reject:count=1"));
  EXPECT_TRUE(static_cast<bool>(PassCache::mergeSnapshots(
      {DirPath + "/a.shard", DirPath + "/b.shard"},
      DirPath + "/strict.bin")));
}
