//===- net/Server.h - Socket transport for CompileService ------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fault-tolerant TCP front end for core::CompileService: many
/// concurrent clients multiplexed onto the service's bounded priority
/// queue through the net::Protocol frame codec. The design goal is that
/// no client behaviour — slow, dead, hostile, or merely unlucky — can
/// stall compilation for the others:
///
///  * Single-threaded poll(2) loop owns every socket; compile work runs
///    on the service's worker pool, which reports completions through a
///    mutex-guarded queue plus a self-pipe wakeup. No socket I/O ever
///    happens on a worker thread, and the poll loop never blocks on the
///    job queue (trySubmit, never submit).
///  * Admission control: a full job queue sheds the request with
///    RETRYING_LATER plus a suggested backoff scaled by queue depth;
///    per-connection in-flight caps stop one client from occupying the
///    whole queue; connections are serviced in rotating order with a
///    frames-per-poll cap, so request fairness does not depend on fd
///    order.
///  * Deadlines: a request's DeadlineMs is armed on the job's
///    CancelToken at admission; expiry — queued or between passes —
///    resolves the job as DEADLINE_EXCEEDED without blocking a worker.
///  * Robustness timeouts: read-idle connections are dropped, a
///    half-received frame has a tighter deadline than an idle socket
///    (slowloris), and a write queue past its byte cap disconnects the
///    slow reader.
///  * Graceful drain: requestStop() (signal-safe via the wake pipe)
///    stops accepting, tells idle clients GOING_AWAY, arms the service
///    drain budget so stragglers cancel as DEADLINE_EXCEEDED, flushes
///    every pending result, and only then shuts the service down — which
///    persists the PassCache snapshot when one is configured.
///  * Fault injection: the process-global fault engine
///    (support/FaultInjection) can kill connections, delay or truncate
///    reads, and fragment writes at the four net.* sites, exercising
///    every recovery path above deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_NET_SERVER_H
#define WEAVER_NET_SERVER_H

#include "core/service/CompileService.h"
#include "net/Connection.h"
#include "net/Protocol.h"
#include "support/Socket.h"

#include <atomic>
#include <csignal>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace weaver {
namespace net {

struct ServerOptions {
  std::string BindAddress = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via Server::port().
  uint16_t Port = 0;
  int Backlog = 128;
  /// Hard cap on concurrent connections; accepts beyond it are closed
  /// immediately (the kernel backlog absorbs bursts).
  size_t MaxConnections = 1024;
  /// In-flight compile requests per connection; excess requests are shed
  /// with RETRYING_LATER.
  size_t MaxInFlightPerConnection = 64;
  /// Write-queue byte cap per connection; a slower reader is dropped.
  size_t MaxWriteQueueBytes = 256u << 20;
  /// Frames processed per connection per poll cycle (fairness quantum).
  size_t MaxFramesPerPoll = 16;
  /// Disconnect after this long with no bytes from the client.
  double ReadIdleSeconds = 300;
  /// Tighter limit while a frame is partially received (anti-slowloris).
  double PartialFrameSeconds = 30;
  /// Disconnect when the write queue is non-empty but the client has
  /// accepted no bytes for this long.
  double WriteStallSeconds = 30;
  /// Drain budget: on requestStop(), live jobs get this many seconds to
  /// finish before their tokens expire as deadline-exceeded.
  double DrainBudgetSeconds = 10;
  /// After the budget, connections get this much longer to flush results
  /// before being closed forcibly.
  double DrainFlushSlackSeconds = 5;
  core::ServiceOptions Service;
  /// Optional signal-handler flag: the poll loop treats a non-zero value
  /// exactly like requestStop(). Point it at a sig_atomic_t your SIGTERM
  /// handler sets.
  const volatile std::sig_atomic_t *StopFlag = nullptr;
};

/// Transport-level counters (poll thread writes, any thread reads via
/// transportStats()).
struct TransportStats {
  uint64_t Accepted = 0;
  uint64_t Disconnected = 0;
  uint64_t FramesIn = 0;
  uint64_t FramesOut = 0;
  uint64_t RequestsAdmitted = 0;
  uint64_t ResultsSent = 0;
  uint64_t Shed = 0;             ///< RETRYING_LATER responses
  uint64_t MalformedFrames = 0;  ///< decode/validation failures
  uint64_t PoisonedStreams = 0;  ///< framing lost (bad length prefix)
  uint64_t SlowClientDrops = 0;  ///< write-queue overflow / write stall
  uint64_t IdleDrops = 0;        ///< read-idle / half-frame timeouts
  uint64_t InjectedKills = 0;    ///< net.kill fault closed the connection
  uint64_t OrphanedResults = 0;  ///< job resolved after its client left
  uint64_t GoingAwaySent = 0;
};

class Server {
public:
  explicit Server(ServerOptions Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listen socket and wake pipe. port() is valid afterwards.
  Status start();

  /// Runs the poll loop on the calling thread until a stop is requested
  /// and the drain completes. Returns the first fatal transport error,
  /// or success after a clean drain.
  Status run();

  /// Requests a graceful drain; safe from any thread. (From a signal
  /// handler, prefer wiring ServerOptions::StopFlag instead: requestStop
  /// takes no locks but is not formally async-signal-safe.)
  void requestStop();

  uint16_t port() const { return BoundPort; }
  TransportStats transportStats() const;
  core::CompileService &service() { return Service; }

private:
  struct Client {
    explicit Client(Connection Conn) : Conn(std::move(Conn)) {}
    Connection Conn;
    /// Client request id -> handle, for cancel frames and drain tracking.
    std::map<uint64_t, core::CompileService::JobHandle> InFlight;
    /// Marked for removal at the end of the current poll cycle.
    bool Dead = false;
  };

  /// One resolved job travelling from a worker thread to the poll loop:
  /// its result frame, encoded on the worker.
  struct Completion {
    uint64_t ConnId = 0;
    uint64_t RequestId = 0;
    std::string Frame;
  };

  void acceptPending();
  void drainCompletions();
  /// Handles one parsed frame; returns false when the connection must
  /// close (malformed input).
  bool handleFrame(Client &C, const Frame &F);
  void handleCompile(Client &C, const Frame &F);
  StatsFrame buildStats();
  void beginDrain();
  /// Queues an encoded result frame on \p C and counts it sent.
  void sendResult(Client &C, std::string Frame);
  /// Queues a frame on \p C, or marks it for disconnect on overflow.
  void queueOrDrop(Client &C, std::string Bytes);
  uint32_t suggestedBackoffMs() const;
  /// The result frame of \p Outcome, its program text copied once, from
  /// the outcome into the frame.
  static std::string encodeOutcome(uint64_t RequestId,
                                   const core::JobOutcome &Outcome);

  ServerOptions Options;
  FdHandle ListenFd;
  uint16_t BoundPort = 0;
  std::unique_ptr<WakePipe> Wake;

  std::vector<std::unique_ptr<Client>> Clients;
  uint64_t NextConnId = 1;
  size_t RotateStart = 0; ///< rotating fairness offset into Clients

  std::atomic<bool> StopRequested{false};
  bool Draining = false;
  Connection::Clock::time_point DrainStartedAt;

  mutable std::mutex CompletionMutex;
  std::vector<Completion> Completions;

  mutable std::mutex StatsMutex;
  TransportStats Stats;

  /// Declared last: its destructor joins the workers, whose completion
  /// callbacks touch CompletionMutex/Completions above.
  core::CompileService Service;
};

} // namespace net
} // namespace weaver

#endif // WEAVER_NET_SERVER_H
