//===- net/Connection.cpp - Per-connection transport state ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "net/Connection.h"

#include "support/FaultInjection.h"

using namespace weaver;
using namespace weaver::net;

Connection::ReadOutcome Connection::readAndParse() {
  if (fault::fire("net.read.delay"))
    return ReadOutcome::NoData;

  char Buf[16384];
  bool Progress = false;
  // Bounded gulp: at most a few reads per poll cycle, so one firehose
  // client cannot monopolize the loop.
  for (int Gulp = 0; Gulp < 4; ++Gulp) {
    size_t NumRead = 0;
    IoResult R = readSome(Socket.get(), Buf, sizeof(Buf), NumRead);
    if (R == IoResult::Closed || R == IoResult::Error)
      return Progress ? ReadOutcome::Progress : ReadOutcome::Closed;
    if (R == IoResult::WouldBlock)
      break;
    // An injected truncation drops a suffix of the bytes received; framing
    // on this connection is then corrupt and the server must detect it
    // (poisoned parser or read-idle timeout).
    size_t Kept = fault::clampLen("net.read.truncate", NumRead);
    if (Kept > 0) {
      if (!Parser.feed(Buf, Kept))
        return ReadOutcome::Poisoned;
      Progress = true;
    }
    if (NumRead < sizeof(Buf))
      break;
  }
  if (!Progress)
    return ReadOutcome::NoData;
  LastReadAt = Clock::now();
  if (Parser.poisoned())
    return ReadOutcome::Poisoned;
  return ReadOutcome::Progress;
}

bool Connection::queueWrite(std::string Bytes) {
  if (writeQueueBytes() + Bytes.size() > MaxWriteQueueBytes)
    return false;
  if (!writePending()) {
    // Nothing left to flush: the frame becomes the buffer, uncopied.
    WriteBuf = std::move(Bytes);
    WriteOff = 0;
    return true;
  }
  // Compact the flushed prefix before growing the buffer.
  if (WriteOff > 65536 && WriteOff >= WriteBuf.size() / 2) {
    WriteBuf.erase(0, WriteOff);
    WriteOff = 0;
  }
  WriteBuf += Bytes;
  return true;
}

IoResult Connection::flushWrites() {
  while (writePending()) {
    // An injected partial write keeps at least one byte, so the slow path
    // still makes progress.
    size_t Len =
        fault::clampLen("net.write.partial", WriteBuf.size() - WriteOff, 1);
    size_t NumWritten = 0;
    IoResult R =
        writeSome(Socket.get(), WriteBuf.data() + WriteOff, Len, NumWritten);
    if (R == IoResult::Error || R == IoResult::Closed)
      return IoResult::Error;
    if (R == IoResult::WouldBlock)
      return IoResult::Ok;
    WriteOff += NumWritten;
    LastWriteProgressAt = Clock::now();
    // A fault-clamped short write yields the loop so the injected
    // fragmentation is visible to the peer as separate TCP segments.
    if (fault::enabled() && NumWritten == Len)
      return IoResult::Ok;
  }
  return IoResult::Ok;
}
