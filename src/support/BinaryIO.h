//===- support/BinaryIO.h - Generic binary serialization ------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small generic binary I/O layer used by the persistent PassCache (and
/// any future on-disk format): an append-only little-endian writer, a
/// bounds-checked reader that can safely parse hostile bytes, a read-only
/// mmap file view, an atomic whole-file writer (temp + rename, so
/// concurrent readers never observe a partially written file), and the
/// FNV-1a checksum the formats use.
///
/// The reader never throws and never reads out of bounds: the first
/// failed read latches an error flag, every subsequent read returns a
/// zero value, and length-prefixed containers are validated against the
/// remaining byte count before anything is allocated — a crafted length
/// field cannot trigger a huge allocation or an overrun.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SUPPORT_BINARYIO_H
#define WEAVER_SUPPORT_BINARYIO_H

#include "support/Status.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace weaver {

/// FNV-1a over \p Size bytes, optionally chaining from a previous hash.
/// The default seed is the FNV offset basis 14695981039346656037 with its
/// last digit dropped. It stays: recorded frame and program hashes in the
/// tests were computed with it. Pass 0xcbf29ce484222325 for the standard
/// basis.
uint64_t fnv1a64(const void *Data, size_t Size,
                 uint64_t Seed = 1469598103934665603ull);

/// Append-only little-endian byte-buffer writer. The buffer is a
/// std::string so a finished encoding (a wire frame) can be handed out by
/// move instead of copied.
class BinaryWriter {
public:
  void writeU8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void writeU32(uint32_t V) { writeLE(V, 4); }
  void writeU64(uint64_t V) { writeLE(V, 8); }
  void writeI64(int64_t V) { writeU64(static_cast<uint64_t>(V)); }
  void writeF64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    writeU64(Bits);
  }
  void writeString(std::string_view S) {
    writeU64(S.size());
    Buf += S;
  }
  void writeBytes(const void *Data, size_t Size) {
    Buf.append(static_cast<const char *>(Data), Size);
  }

  const std::string &bytes() const { return Buf; }
  size_t size() const { return Buf.size(); }
  void reserve(size_t Bytes) { Buf.reserve(Bytes); }
  /// Overwrite 4 or 8 previously written bytes at \p Offset (header
  /// patching).
  void patchU32(size_t Offset, uint32_t V) { patchLE(Offset, V, 4); }
  void patchU64(size_t Offset, uint64_t V) { patchLE(Offset, V, 8); }
  /// Hands the buffer out without copying it.
  std::string take() && { return std::move(Buf); }

private:
  void writeLE(uint64_t V, int NumBytes) {
    for (int I = 0; I < NumBytes; ++I)
      Buf.push_back(static_cast<char>(V >> (8 * I)));
  }
  void patchLE(size_t Offset, uint64_t V, int NumBytes) {
    for (int I = 0; I < NumBytes; ++I)
      Buf[Offset + I] = static_cast<char>(V >> (8 * I));
  }
  std::string Buf;
};

/// Bounds-checked little-endian reader over a non-owned byte span. See
/// the file comment for the hostile-input guarantees.
class BinaryReader {
public:
  BinaryReader(const void *Data, size_t Size)
      : P(static_cast<const uint8_t *>(Data)), N(Size) {}

  bool ok() const { return !Err; }
  /// Marks the stream failed (e.g. a semantic validation failed).
  void fail() { Err = true; }
  size_t remaining() const { return N - Pos; }
  size_t position() const { return Pos; }

  uint8_t readU8() { return static_cast<uint8_t>(readLE(1)); }
  uint32_t readU32() { return static_cast<uint32_t>(readLE(4)); }
  uint64_t readU64() { return readLE(8); }
  int64_t readI64() { return static_cast<int64_t>(readU64()); }
  double readF64() {
    uint64_t Bits = readU64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string readString();
  /// Advances past \p Size bytes; fails if fewer remain.
  void skip(size_t Size) {
    if (Size > remaining()) {
      Err = true;
      return;
    }
    Pos += Size;
  }

  /// Reads a container length and validates that \p MinElemBytes per
  /// element still fit in the remaining input; returns 0 and fails the
  /// stream otherwise. Every length-prefixed loop must go through this.
  size_t readLength(size_t MinElemBytes) {
    uint64_t Len = readU64();
    if (Err || (MinElemBytes && Len > remaining() / MinElemBytes)) {
      Err = true;
      return 0;
    }
    return static_cast<size_t>(Len);
  }

private:
  uint64_t readLE(int NumBytes) {
    if (Err || static_cast<size_t>(NumBytes) > remaining()) {
      Err = true;
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I < NumBytes; ++I)
      V |= static_cast<uint64_t>(P[Pos + I]) << (8 * I);
    Pos += NumBytes;
    return V;
  }

  const uint8_t *P;
  size_t N;
  size_t Pos = 0;
  bool Err = false;
};

/// Read-only memory-mapped view of a file. Move-only; unmaps on
/// destruction. Multiple processes may map the same file concurrently.
class MappedFile {
public:
  /// Maps \p Path read-only; fails on open/stat/map errors and on empty
  /// files (an empty cache file is never valid).
  static Expected<MappedFile> open(const std::string &Path);

  MappedFile(MappedFile &&O) noexcept : Data(O.Data), Size_(O.Size_) {
    O.Data = nullptr;
    O.Size_ = 0;
  }
  MappedFile &operator=(MappedFile &&O) noexcept;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  ~MappedFile();

  const uint8_t *data() const { return static_cast<const uint8_t *>(Data); }
  size_t size() const { return Size_; }

private:
  MappedFile(void *Data, size_t Size) : Data(Data), Size_(Size) {}
  void *Data = nullptr;
  size_t Size_ = 0;
};

/// Writes \p Size bytes to \p Path atomically: the data lands in a
/// pid-unique temp file first and is renamed into place, so a reader (or
/// a concurrent writer of the same path) either sees the old complete
/// file or the new complete file, never a prefix.
Status writeFileAtomic(const std::string &Path, const void *Data,
                       size_t Size);

} // namespace weaver

#endif // WEAVER_SUPPORT_BINARYIO_H
