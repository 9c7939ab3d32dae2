//===- net/Connection.h - Per-connection transport state -------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One accepted client connection: the socket, the incremental frame
/// parser on the read side, a bounded write queue on the write side, and
/// the robustness bookkeeping the server's poll loop needs — last-read
/// timestamp (read-idle and half-frame timeouts), write-progress
/// timestamp (slow-reader disconnect), in-flight request handles (cancel
/// and drain), and lifecycle flags. Connections are owned and driven
/// exclusively by the net::Server poll thread; nothing here locks.
///
/// The write queue is the anti-slowloris boundary: a client that stops
/// reading while results pile up hits MaxWriteQueueBytes and is
/// disconnected, so one slow reader cannot hold megabytes of wQASM
/// hostage per request or stall the poll loop. A client that stops
/// mid-frame on the read side hits the read-idle timeout instead.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_NET_CONNECTION_H
#define WEAVER_NET_CONNECTION_H

#include "net/Protocol.h"
#include "support/Socket.h"

#include <chrono>
#include <cstdint>
#include <string>

namespace weaver {
namespace net {

class Connection {
public:
  using Clock = std::chrono::steady_clock;

  /// Outcome of one readAndParse() call.
  enum class ReadOutcome {
    Progress, ///< bytes arrived and were fed to the parser
    NoData,   ///< nothing available (or fault-injected delay)
    Closed,   ///< peer closed or connection error
    Poisoned, ///< framing violated (oversized/zero length prefix)
  };

  Connection(FdHandle Socket, uint64_t Id, size_t MaxFrameBytes,
             size_t MaxWriteQueueBytes)
      : Socket(std::move(Socket)), Id(Id), Parser(MaxFrameBytes),
        MaxWriteQueueBytes(MaxWriteQueueBytes), LastReadAt(Clock::now()),
        LastWriteProgressAt(Clock::now()) {}

  Connection(Connection &&) = default;
  Connection &operator=(Connection &&) = delete;
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  uint64_t id() const { return Id; }
  int fd() const { return Socket.get(); }

  /// Drains the socket's receive buffer into the frame parser (one
  /// bounded gulp per call; the server's fairness cap decides how many
  /// frames actually get processed). Fault injection may delay or
  /// truncate the read.
  ReadOutcome readAndParse();

  /// Pops the next complete request frame.
  bool nextFrame(Frame &Out) { return Parser.next(Out); }

  /// True while an incomplete frame sits in the parser (half-frame
  /// timeout applies then, not the longer idle timeout).
  bool hasPartialFrame() const { return Parser.pendingBytes() > 0; }

  /// Framing lost (hostile length prefix); the connection must close.
  bool poisoned() const { return Parser.poisoned(); }

  /// Appends \p Bytes to the write queue, adopting the string itself when
  /// the queue is drained. Returns false when the queue would exceed its
  /// byte cap — the caller must disconnect; dropping a response frame
  /// silently would violate exactly-once delivery.
  bool queueWrite(std::string Bytes);

  /// Writes as much queued data as the socket accepts. Fault injection
  /// may shorten individual writes. Returns Error on hard failure, Ok
  /// otherwise (WouldBlock folds into Ok; poll's POLLOUT resumes us).
  IoResult flushWrites();

  bool writePending() const { return WriteBuf.size() > WriteOff; }
  size_t writeQueueBytes() const { return WriteBuf.size() - WriteOff; }

  double secondsSinceRead(Clock::time_point Now) const {
    return std::chrono::duration<double>(Now - LastReadAt).count();
  }
  double secondsSinceWriteProgress(Clock::time_point Now) const {
    return std::chrono::duration<double>(Now - LastWriteProgressAt).count();
  }

  // -- Server bookkeeping (poll thread only) --------------------------------

  /// The server decided to close once the write queue flushes (error or
  /// going-away frame already queued).
  bool CloseAfterFlush = false;

  /// GoingAway was already sent; new requests are rejected.
  bool SentGoingAway = false;

private:
  FdHandle Socket;
  uint64_t Id;
  FrameParser Parser;
  size_t MaxWriteQueueBytes;

  std::string WriteBuf;
  size_t WriteOff = 0;

  Clock::time_point LastReadAt;
  Clock::time_point LastWriteProgressAt;
};

} // namespace net
} // namespace weaver

#endif // WEAVER_NET_CONNECTION_H
