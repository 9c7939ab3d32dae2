//===- support/BinaryIO.cpp - Generic binary serialization ----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/BinaryIO.h"

#include "support/FaultInjection.h"

#include <atomic>
#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace weaver;

uint64_t weaver::fnv1a64(const void *Data, size_t Size, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

std::string BinaryReader::readString() {
  size_t Len = readLength(1);
  if (!ok())
    return {};
  std::string S(reinterpret_cast<const char *>(P + Pos), Len);
  Pos += Len;
  return S;
}

// --- MappedFile ----------------------------------------------------------

Expected<MappedFile> MappedFile::open(const std::string &Path) {
  if (fault::fire("binio.mmap.open"))
    return Expected<MappedFile>::error("cannot open " + Path +
                                       ": injected fault");
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Expected<MappedFile>::error("cannot open " + Path + ": " +
                                       std::strerror(errno));
  struct stat St;
  if (fstat(Fd, &St) != 0) {
    int E = errno;
    ::close(Fd);
    return Expected<MappedFile>::error("cannot stat " + Path + ": " +
                                       std::strerror(E));
  }
  if (St.st_size <= 0) {
    ::close(Fd);
    return Expected<MappedFile>::error("empty file " + Path);
  }
  size_t Size = static_cast<size_t>(St.st_size);
  // Injected truncation: map only a prefix, so readers observe exactly
  // what a file cut short by a crashed writer would give them.
  Size = fault::clampLen("binio.mmap.truncate", Size, 1);
  void *Data = mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
  ::close(Fd); // the mapping keeps its own reference
  if (Data == MAP_FAILED)
    return Expected<MappedFile>::error("cannot mmap " + Path + ": " +
                                       std::strerror(errno));
  return MappedFile(Data, Size);
}

MappedFile &MappedFile::operator=(MappedFile &&O) noexcept {
  if (this != &O) {
    if (Data)
      munmap(Data, Size_);
    Data = O.Data;
    Size_ = O.Size_;
    O.Data = nullptr;
    O.Size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (Data)
    munmap(Data, Size_);
}

// --- Atomic write --------------------------------------------------------

namespace {

/// Flushes the directory entry for \p Path: after rename, the new name
/// is only durable once its parent directory's metadata reaches disk.
Status fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir =
      Slash == std::string::npos
          ? std::string(".")
          : (Slash == 0 ? std::string("/") : Path.substr(0, Slash));
  if (fault::fire("binio.dirfsync"))
    return Status::error("cannot fsync directory " + Dir +
                         ": injected fault");
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return Status::error("cannot open directory " + Dir + ": " +
                         std::strerror(errno));
  int Rc = fsync(Fd);
  int E = errno;
  ::close(Fd);
  if (Rc != 0)
    return Status::error("cannot fsync directory " + Dir + ": " +
                         std::strerror(E));
  return Status::success();
}

} // namespace

Status weaver::writeFileAtomic(const std::string &Path, const void *Data,
                               size_t Size) {
  // Pid alone is not unique enough: two threads of one process saving to
  // the same Path would share (and clobber) one temp file. The counter
  // keeps every in-flight write on its own temp name.
  static std::atomic<uint64_t> Seq{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(Seq.fetch_add(1));
  if (fault::fire("binio.open"))
    return Status::error("cannot create " + Tmp + ": injected fault");
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Status::error("cannot create " + Tmp + ": " +
                         std::strerror(errno));
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  // Injected short write: a prefix lands on disk and the temp file is
  // abandoned in place — the on-disk state a writer killed mid-write
  // leaves behind. Callers and sweeps must tolerate the stray temp.
  size_t Limit = fault::clampLen("binio.write.short", Size);
  size_t Written = 0;
  while (Written < Size) {
    if (Written >= Limit) {
      ::close(Fd);
      return Status::error("cannot write " + Tmp +
                           ": injected short write after " +
                           std::to_string(Written) + " bytes");
    }
    ssize_t N = ::write(Fd, P + Written, Limit - Written);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      int E = errno;
      ::close(Fd);
      ::unlink(Tmp.c_str());
      return Status::error("cannot write " + Tmp + ": " + std::strerror(E));
    }
    Written += static_cast<size_t>(N);
  }
  if (fault::fire("binio.write.enospc")) {
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return Status::error("cannot write " + Tmp +
                         ": no space left on device (injected)");
  }
  if (fault::fire("binio.fsync")) {
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return Status::error("cannot fsync " + Tmp + ": injected fault");
  }
  // Flush file contents before the rename makes them visible under Path;
  // a crash between the two leaves either the old file or the new one.
  if (fsync(Fd) != 0) {
    int E = errno;
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return Status::error("cannot fsync " + Tmp + ": " + std::strerror(E));
  }
  // A failed close can report a deferred write error; treating it as
  // success would rename a possibly-incomplete file into place.
  if (::close(Fd) != 0) {
    int E = errno;
    ::unlink(Tmp.c_str());
    return Status::error("cannot close " + Tmp + ": " + std::strerror(E));
  }
  if (fault::fire("binio.rename")) {
    ::unlink(Tmp.c_str());
    return Status::error("cannot rename " + Tmp + " to " + Path +
                         ": injected fault");
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    int E = errno;
    ::unlink(Tmp.c_str());
    return Status::error("cannot rename " + Tmp + " to " + Path + ": " +
                         std::strerror(E));
  }
  // The rename itself is atomic, but only the parent directory's fsync
  // makes the new name durable — without it a power cut right after a
  // "successful" save can resurrect the old snapshot (or nothing).
  return fsyncParentDir(Path);
}
