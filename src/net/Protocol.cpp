//===- net/Protocol.cpp - Length-prefixed wire protocol ------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "net/Protocol.h"

#include "support/BinaryIO.h"

#include <cmath>
#include <cstring>

using namespace weaver;
using namespace weaver::net;

const char *net::frameTypeName(FrameType Type) {
  switch (Type) {
  case FrameType::CompileRequest:
    return "compile";
  case FrameType::CancelRequest:
    return "cancel";
  case FrameType::StatsRequest:
    return "stats-request";
  case FrameType::Ping:
    return "ping";
  case FrameType::Result:
    return "result";
  case FrameType::Stats:
    return "stats";
  case FrameType::Error:
    return "error";
  case FrameType::GoingAway:
    return "going-away";
  case FrameType::Pong:
    return "pong";
  }
  return "unknown";
}

const char *net::responseCodeName(ResponseCode Code) {
  switch (Code) {
  case ResponseCode::Ok:
    return "OK";
  case ResponseCode::Failed:
    return "FAILED";
  case ResponseCode::Cancelled:
    return "CANCELLED";
  case ResponseCode::DeadlineExceeded:
    return "DEADLINE_EXCEEDED";
  case ResponseCode::RetryLater:
    return "RETRYING_LATER";
  case ResponseCode::GoingAway:
    return "GOING_AWAY";
  case ResponseCode::Malformed:
    return "MALFORMED";
  }
  return "UNKNOWN";
}

uint64_t StatsFrame::counter(std::string_view Name) const {
  for (const auto &KV : Counters)
    if (KV.first == Name)
      return KV.second;
  return 0;
}

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

/// Starts a frame: the [u32 Length][u8 Type] header comes first, its
/// length a placeholder until finishFrame, so the payload is written
/// straight into the frame. \p PayloadBytes pre-sizes the buffer.
static BinaryWriter beginFrame(FrameType Type, size_t PayloadBytes = 0) {
  BinaryWriter W;
  W.reserve(FrameHeaderBytes + PayloadBytes);
  W.writeU32(0);
  W.writeU8(static_cast<uint8_t>(Type));
  return W;
}

/// Patches the length (type byte plus payload) and hands the frame out
/// without copying it.
static std::string finishFrame(BinaryWriter &&W) {
  W.patchU32(0, static_cast<uint32_t>(W.size() - 4));
  return std::move(W).take();
}

std::string net::encodeCompile(const CompileFrame &F) {
  BinaryWriter W = beginFrame(FrameType::CompileRequest);
  W.writeU64(F.RequestId);
  W.writeU8(static_cast<uint8_t>(F.Kind));
  W.writeI64(F.Priority);
  W.writeU32(F.DeadlineMs);
  W.writeF64(F.Gamma);
  W.writeF64(F.Beta);
  W.writeI64(F.Layers);
  W.writeU8(F.Measure ? 1 : 0);
  W.writeU8(F.Compressed ? 1 : 0);
  W.writeU8(static_cast<uint8_t>(F.Source));
  if (F.Source == FormulaSource::Satlib) {
    W.writeI64(F.NumVars);
    W.writeI64(F.Index);
  } else {
    W.writeString(F.Dimacs);
  }
  return finishFrame(std::move(W));
}

std::string net::encodeCancel(const CancelFrame &F) {
  BinaryWriter W = beginFrame(FrameType::CancelRequest);
  W.writeU64(F.RequestId);
  return finishFrame(std::move(W));
}

std::string net::encodeStatsRequest() {
  return finishFrame(beginFrame(FrameType::StatsRequest));
}

std::string net::encodePing() {
  return finishFrame(beginFrame(FrameType::Ping));
}

std::string net::encodeResult(const ResultFrame &F) {
  return encodeResult(F, F.Wqasm);
}

std::string net::encodeResult(const ResultFrame &F, std::string_view Wqasm) {
  // Fixed fields, then two length-prefixed strings: the program text is
  // copied once, into a buffer sized for it up front.
  BinaryWriter W = beginFrame(FrameType::Result,
                              /*fixed fields=*/38 + /*string lengths=*/16 +
                                  F.Diagnostic.size() + Wqasm.size());
  W.writeU64(F.RequestId);
  W.writeU8(static_cast<uint8_t>(F.Code));
  W.writeU32(F.BackoffMs);
  W.writeF64(F.QueueSeconds);
  W.writeF64(F.CompileSeconds);
  W.writeU8(F.CacheTier);
  W.writeU64(F.Pulses);
  W.writeString(F.Diagnostic);
  W.writeString(Wqasm);
  return finishFrame(std::move(W));
}

std::string net::encodeStats(const StatsFrame &F) {
  BinaryWriter W = beginFrame(FrameType::Stats);
  W.writeU64(F.Counters.size());
  for (const auto &KV : F.Counters) {
    W.writeString(KV.first);
    W.writeU64(KV.second);
  }
  W.writeString(F.Text);
  return finishFrame(std::move(W));
}

std::string net::encodeError(const ErrorFrame &F) {
  BinaryWriter W = beginFrame(FrameType::Error);
  W.writeU8(static_cast<uint8_t>(F.Code));
  W.writeString(F.Message);
  return finishFrame(std::move(W));
}

std::string net::encodeGoingAway(const std::string &Reason) {
  BinaryWriter W = beginFrame(FrameType::GoingAway);
  W.writeString(Reason);
  return finishFrame(std::move(W));
}

std::string net::encodePong() {
  return finishFrame(beginFrame(FrameType::Pong));
}

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

/// Requires the reader to be healthy with no trailing bytes — a payload
/// longer than its fields is as suspect as a truncated one.
static Status finishDecode(const BinaryReader &R, const char *What) {
  if (!R.ok())
    return Status::error(std::string("truncated or malformed ") + What +
                         " payload");
  if (R.remaining() != 0)
    return Status::error(std::string("trailing bytes after ") + What +
                         " payload");
  return Status::success();
}

/// Semantic validation of a decoded compile request: angles finite,
/// layers/priority/deadline in range, satlib size/index in range.
static Status validateCompileParams(const CompileFrame &F) {
  bool KnownKind = false;
  for (baselines::BackendKind K : baselines::AllBackendKinds)
    KnownKind |= K == F.Kind;
  if (!KnownKind)
    return Status::error("unknown backend kind in compile request");
  if (!std::isfinite(F.Gamma) || !std::isfinite(F.Beta))
    return Status::error("non-finite QAOA angle in compile request");
  if (F.Layers < 1 || F.Layers > MaxRequestLayers)
    return Status::error("QAOA layer count out of range [1, " +
                         std::to_string(MaxRequestLayers) + "]");
  if (F.Priority < -MaxRequestPriority || F.Priority > MaxRequestPriority)
    return Status::error("priority out of range");
  if (F.DeadlineMs > MaxDeadlineMs)
    return Status::error("deadline exceeds limit of " +
                         std::to_string(MaxDeadlineMs) + " ms");
  if (F.Source == FormulaSource::Satlib) {
    if (F.NumVars < 1 || F.NumVars > MaxRequestVars)
      return Status::error("satlib variable count out of range [1, " +
                           std::to_string(MaxRequestVars) + "]");
    if (F.Index < 1 || F.Index > MaxRequestIndex)
      return Status::error("satlib instance index out of range [1, " +
                           std::to_string(MaxRequestIndex) + "]");
  } else if (F.Source == FormulaSource::Dimacs) {
    if (F.Dimacs.empty())
      return Status::error("empty DIMACS text in compile request");
  } else {
    return Status::error("unknown formula source in compile request");
  }
  return Status::success();
}

Expected<CompileFrame> net::decodeCompile(std::string_view Payload) {
  BinaryReader R(Payload.data(), Payload.size());
  CompileFrame F;
  F.RequestId = R.readU64();
  F.Kind = static_cast<baselines::BackendKind>(R.readU8());
  int64_t Priority = R.readI64();
  F.DeadlineMs = R.readU32();
  F.Gamma = R.readF64();
  F.Beta = R.readF64();
  int64_t Layers = R.readI64();
  F.Measure = R.readU8() != 0;
  F.Compressed = R.readU8() != 0;
  uint8_t Source = R.readU8();
  if (Source > 1) {
    return Expected<CompileFrame>::error(
        "unknown formula source in compile request");
  }
  F.Source = static_cast<FormulaSource>(Source);
  int64_t NumVars = 0, Index = 0;
  if (F.Source == FormulaSource::Satlib) {
    NumVars = R.readI64();
    Index = R.readI64();
  } else {
    F.Dimacs = R.readString();
  }
  if (Status S = finishDecode(R, "compile"))
    return Expected<CompileFrame>::error(S.message());
  // Range-check the wide wire integers before narrowing them.
  if (Priority < INT32_MIN || Priority > INT32_MAX || Layers < INT32_MIN ||
      Layers > INT32_MAX || NumVars < INT32_MIN || NumVars > INT32_MAX ||
      Index < INT32_MIN || Index > INT32_MAX)
    return Expected<CompileFrame>::error(
        "integer field out of range in compile request");
  F.Priority = static_cast<int32_t>(Priority);
  F.Layers = static_cast<int32_t>(Layers);
  F.NumVars = static_cast<int32_t>(NumVars);
  F.Index = static_cast<int32_t>(Index);
  if (Status S = validateCompileParams(F))
    return Expected<CompileFrame>::error(S.message());
  return F;
}

Expected<CancelFrame> net::decodeCancel(std::string_view Payload) {
  BinaryReader R(Payload.data(), Payload.size());
  CancelFrame F;
  F.RequestId = R.readU64();
  if (Status S = finishDecode(R, "cancel"))
    return Expected<CancelFrame>::error(S.message());
  return F;
}

Expected<ResultFrame> net::decodeResult(std::string_view Payload) {
  BinaryReader R(Payload.data(), Payload.size());
  ResultFrame F;
  F.RequestId = R.readU64();
  uint8_t Code = R.readU8();
  if (Code > static_cast<uint8_t>(ResponseCode::Malformed))
    return Expected<ResultFrame>::error("unknown response code");
  F.Code = static_cast<ResponseCode>(Code);
  F.BackoffMs = R.readU32();
  F.QueueSeconds = R.readF64();
  F.CompileSeconds = R.readF64();
  F.CacheTier = R.readU8();
  F.Pulses = R.readU64();
  F.Diagnostic = R.readString();
  F.Wqasm = R.readString();
  if (Status S = finishDecode(R, "result"))
    return Expected<ResultFrame>::error(S.message());
  return F;
}

Expected<StatsFrame> net::decodeStats(std::string_view Payload) {
  BinaryReader R(Payload.data(), Payload.size());
  StatsFrame F;
  size_t Count = R.readLength(/*MinElemBytes=*/16);
  F.Counters.reserve(Count);
  for (size_t I = 0; I < Count && R.ok(); ++I) {
    std::string Name = R.readString();
    uint64_t Value = R.readU64();
    F.Counters.emplace_back(std::move(Name), Value);
  }
  F.Text = R.readString();
  if (Status S = finishDecode(R, "stats"))
    return Expected<StatsFrame>::error(S.message());
  return F;
}

Expected<ErrorFrame> net::decodeError(std::string_view Payload) {
  BinaryReader R(Payload.data(), Payload.size());
  ErrorFrame F;
  uint8_t Code = R.readU8();
  if (Code > static_cast<uint8_t>(ResponseCode::Malformed))
    return Expected<ErrorFrame>::error("unknown response code");
  F.Code = static_cast<ResponseCode>(Code);
  F.Message = R.readString();
  if (Status S = finishDecode(R, "error"))
    return Expected<ErrorFrame>::error(S.message());
  return F;
}

Expected<std::string> net::decodeGoingAway(std::string_view Payload) {
  BinaryReader R(Payload.data(), Payload.size());
  std::string Reason = R.readString();
  if (Status S = finishDecode(R, "going-away"))
    return Expected<std::string>::error(S.message());
  return Reason;
}

//===----------------------------------------------------------------------===//
// FrameParser
//===----------------------------------------------------------------------===//

bool FrameParser::feed(const char *Data, size_t Len) {
  if (Poisoned)
    return false;
  // Compact once the parsed prefix dominates the buffer, so a long-lived
  // connection doesn't grow its buffer without bound.
  if (Consumed > 4096 && Consumed >= Buf.size() / 2) {
    Buf.erase(0, Consumed);
    Consumed = 0;
  }
  Buf.append(Data, Len);
  // Validate the pending frame's length prefix eagerly: a hostile prefix
  // poisons the stream the moment it arrives, so the connection can be
  // dropped now instead of idling until a read timeout.
  if (Buf.size() - Consumed >= 4) {
    const unsigned char *P =
        reinterpret_cast<const unsigned char *>(Buf.data()) + Consumed;
    uint32_t Length = static_cast<uint32_t>(P[0]) |
                      (static_cast<uint32_t>(P[1]) << 8) |
                      (static_cast<uint32_t>(P[2]) << 16) |
                      (static_cast<uint32_t>(P[3]) << 24);
    if (Length == 0 || Length > MaxFrame) {
      Poisoned = true;
      return false;
    }
  }
  return true;
}

bool FrameParser::next(Frame &Out) {
  if (Poisoned)
    return false;
  size_t Avail = Buf.size() - Consumed;
  if (Avail < 4)
    return false;
  const unsigned char *P =
      reinterpret_cast<const unsigned char *>(Buf.data()) + Consumed;
  uint32_t Length = static_cast<uint32_t>(P[0]) |
                    (static_cast<uint32_t>(P[1]) << 8) |
                    (static_cast<uint32_t>(P[2]) << 16) |
                    (static_cast<uint32_t>(P[3]) << 24);
  if (Length == 0 || Length > MaxFrame) {
    Poisoned = true;
    return false;
  }
  if (Avail < 4 + static_cast<size_t>(Length))
    return false;
  Out.Type = static_cast<FrameType>(P[4]);
  Out.Payload.assign(Buf.data() + Consumed + 5, Length - 1);
  Consumed += 4 + Length;
  return true;
}
