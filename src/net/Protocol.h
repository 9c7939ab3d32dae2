//===- net/Protocol.h - Length-prefixed wire protocol ----------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the networked compile service. Every frame is
///
///     [u32 Length][u8 Type][payload: Length-1 bytes]     (little-endian)
///
/// where Length covers the type byte plus the payload and is bounded by a
/// direction-specific cap, so a hostile 4-byte prefix can neither trigger
/// a huge allocation nor stall a connection in "almost a frame" forever.
/// Payloads are encoded with support/BinaryIO: the bounds-checked
/// BinaryReader makes truncated or bit-flipped payloads a decode error,
/// never UB. Decoders also validate semantics (finite angles, known
/// backend, bounded sizes), so hostile input is rejected, never defaulted.
///
/// Error codes a response can carry, and their contract:
///  * Ok               — compile finished; wQASM byte-identical to direct
///  * Failed           — terminal failure (diagnostic says why); don't retry
///  * Cancelled        — client cancel or server drain cancelled the job
///  * DeadlineExceeded — the request's deadline lapsed queued or mid-compile
///  * RetryLater       — admission control shed the request; BackoffMs is
///                       the server's suggested wait before resubmitting
///  * GoingAway        — server is draining; reconnect later
///  * Malformed        — the request frame failed validation; the server
///                       closes the connection after sending this (framing
///                       may be corrupt past a malformed frame)
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_NET_PROTOCOL_H
#define WEAVER_NET_PROTOCOL_H

#include "baselines/Backend.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace weaver {
namespace net {

// --- Limits ---------------------------------------------------------------

/// Client-to-server frames are small (a request header plus at most a
/// DIMACS text); anything bigger is hostile.
inline constexpr size_t MaxRequestFrameBytes = 1u << 20; // 1 MiB
/// Server-to-client frames carry printed wQASM programs (MBs at 250-var
/// SATLIB sizes).
inline constexpr size_t MaxResponseFrameBytes = 64u << 20; // 64 MiB
/// Bounds on compile-request parameters; requests outside them are
/// rejected as malformed, not clamped.
inline constexpr long long MaxRequestVars = 4096;
inline constexpr long long MaxRequestIndex = 1000000;
inline constexpr long long MaxRequestPriority = 1000000;
inline constexpr long long MaxDeadlineMs = 3600000; // 1 hour
inline constexpr long long MaxRequestLayers = 64;

/// Frame header size on the wire: u32 length + u8 type.
inline constexpr size_t FrameHeaderBytes = 5;

// --- Frame types ----------------------------------------------------------

enum class FrameType : uint8_t {
  // client -> server
  CompileRequest = 1,
  CancelRequest = 2,
  StatsRequest = 3,
  Ping = 4,
  // server -> client
  Result = 17,
  Stats = 18,
  Error = 19,
  GoingAway = 20,
  Pong = 21,
};

/// Stable lower-case frame-type name for diagnostics.
const char *frameTypeName(FrameType Type);

enum class ResponseCode : uint8_t {
  Ok = 0,
  Failed = 1,
  Cancelled = 2,
  DeadlineExceeded = 3,
  RetryLater = 4,
  GoingAway = 5,
  Malformed = 6,
};

/// Stable upper-case code name ("OK", "DEADLINE_EXCEEDED", ...).
const char *responseCodeName(ResponseCode Code);

// --- Frame payload structs ------------------------------------------------

/// Where a compile request's formula comes from.
enum class FormulaSource : uint8_t {
  Satlib = 0, ///< server generates satlibInstance(NumVars, Index)
  Dimacs = 1, ///< request carries DIMACS text (untrusted; bounded parse)
};

struct CompileFrame {
  uint64_t RequestId = 0; ///< client-chosen correlation id
  baselines::BackendKind Kind = baselines::BackendKind::Weaver;
  int32_t Priority = 0;
  uint32_t DeadlineMs = 0; ///< 0 = no deadline
  double Gamma = 0.7;
  double Beta = 0.3;
  int32_t Layers = 1;
  bool Measure = false;
  bool Compressed = false;
  FormulaSource Source = FormulaSource::Satlib;
  int32_t NumVars = 20; ///< Satlib source
  int32_t Index = 1;    ///< Satlib source (1-based)
  std::string Dimacs;   ///< Dimacs source
};

struct CancelFrame {
  uint64_t RequestId = 0;
};

struct ResultFrame {
  uint64_t RequestId = 0;
  ResponseCode Code = ResponseCode::Ok;
  uint32_t BackoffMs = 0; ///< RetryLater: suggested resubmit delay
  double QueueSeconds = 0;
  double CompileSeconds = 0;
  uint8_t CacheTier = 0; ///< core::CacheTier value
  uint64_t Pulses = 0;
  std::string Diagnostic;
  std::string Wqasm;
};

/// Transport + service counters as ordered (name, value) pairs plus the
/// rendered human-readable tables. The pairs are the machine-readable
/// half — tests and load_gen assert on them without parsing tables.
struct StatsFrame {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::string Text;

  /// Value of \p Name, or 0 when absent.
  uint64_t counter(std::string_view Name) const;
};

struct ErrorFrame {
  ResponseCode Code = ResponseCode::Malformed;
  std::string Message;
};

// --- Encoding -------------------------------------------------------------

/// A parsed frame: type plus raw payload bytes.
struct Frame {
  FrameType Type = FrameType::Ping;
  std::string Payload;
};

std::string encodeCompile(const CompileFrame &F);
std::string encodeCancel(const CancelFrame &F);
std::string encodeStatsRequest();
std::string encodePing();
std::string encodeResult(const ResultFrame &F);
/// Encodes \p F with \p Wqasm as its program text (F.Wqasm is not read),
/// so a finished job's text is copied once, from where it lies, into the
/// frame. The one result encoder; the overload above forwards to it.
std::string encodeResult(const ResultFrame &F, std::string_view Wqasm);
std::string encodeStats(const StatsFrame &F);
std::string encodeError(const ErrorFrame &F);
std::string encodeGoingAway(const std::string &Reason);
std::string encodePong();

// --- Decoding -------------------------------------------------------------

Expected<CompileFrame> decodeCompile(std::string_view Payload);
Expected<CancelFrame> decodeCancel(std::string_view Payload);
Expected<ResultFrame> decodeResult(std::string_view Payload);
Expected<StatsFrame> decodeStats(std::string_view Payload);
Expected<ErrorFrame> decodeError(std::string_view Payload);
/// GoingAway payload: the reason string.
Expected<std::string> decodeGoingAway(std::string_view Payload);

// --- Incremental frame parser --------------------------------------------

/// Reassembles frames from a TCP byte stream. Feed whatever recv()
/// returned; complete frames pop out of next(). A length prefix above
/// \p MaxFrame (or zero) poisons the parser — the connection must be
/// closed, since byte alignment is lost.
class FrameParser {
public:
  explicit FrameParser(size_t MaxFrame) : MaxFrame(MaxFrame) {}

  /// Appends raw bytes. Returns false once the stream is poisoned.
  bool feed(const char *Data, size_t Len);
  /// Pops the next complete frame; false when none is buffered.
  bool next(Frame &Out);

  bool poisoned() const { return Poisoned; }
  /// Bytes of an incomplete trailing frame currently buffered.
  size_t pendingBytes() const { return Buf.size() - Consumed; }

private:
  size_t MaxFrame;
  std::string Buf;
  size_t Consumed = 0; ///< fully parsed prefix of Buf
  bool Poisoned = false;
};

} // namespace net
} // namespace weaver

#endif // WEAVER_NET_PROTOCOL_H
