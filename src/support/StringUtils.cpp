//===- support/StringUtils.cpp - Small string helpers --------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace weaver;

std::string_view weaver::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string_view> weaver::split(std::string_view S, char Sep,
                                            bool KeepEmpty) {
  std::vector<std::string_view> Pieces;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos)
      Pos = S.size();
    std::string_view Piece = S.substr(Start, Pos - Start);
    if (KeepEmpty || !Piece.empty())
      Pieces.push_back(Piece);
    Start = Pos + 1;
    if (Pos == S.size())
      break;
  }
  return Pieces;
}

bool weaver::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

void weaver::appendDouble(std::string &Out, double Value) {
  // The longest %.17g rendering is 25 bytes ("-4.9406564584124654e-324").
  char Buf[32];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                         std::chars_format::general, 17);
  Out.append(Buf, R.ptr);
}

void weaver::appendInt(std::string &Out, long long Value) {
  char Buf[24];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  Out.append(Buf, R.ptr);
}

std::string weaver::formatDouble(double Value) {
  std::string Out;
  appendDouble(Out, Value);
  return Out;
}

Expected<long long> weaver::parseBoundedInt(std::string_view Tok,
                                            long long Min, long long Max) {
  if (Tok.empty())
    return Expected<long long>::error("empty integer token");
  long long V = 0;
  auto R = std::from_chars(Tok.data(), Tok.data() + Tok.size(), V);
  if (R.ec == std::errc::result_out_of_range)
    return Expected<long long>::error("integer overflows: '" +
                                      std::string(Tok) + "'");
  if (R.ec != std::errc() || R.ptr != Tok.data() + Tok.size())
    return Expected<long long>::error("invalid integer token: '" +
                                      std::string(Tok) + "'");
  if (V < Min || V > Max)
    return Expected<long long>::error(
        "integer " + std::to_string(V) + " outside [" + std::to_string(Min) +
        ", " + std::to_string(Max) + "]");
  return V;
}

Expected<double> weaver::parseFiniteDouble(std::string_view Tok) {
  // strtod instead of from_chars<double>: the latter is missing from older
  // libstdc++. A bounded copy gives strtod its NUL terminator and caps the
  // work a hostile token can cause.
  if (Tok.empty() || Tok.size() > 64)
    return Expected<double>::error("invalid double token");
  std::string Buf(Tok);
  if (Buf.find('\0') != std::string::npos)
    return Expected<double>::error("NUL byte in double token");
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Buf.c_str(), &End);
  // ERANGE covers both directions; only overflow (to ±HUGE_VAL, caught by
  // the finiteness test) is hostile. Underflow lands on a representable
  // denormal or zero and stays accepted.
  if (End != Buf.c_str() + Buf.size() || !std::isfinite(V))
    return Expected<double>::error("invalid double token: '" + Buf + "'");
  return V;
}

Expected<double> weaver::parseDouble(std::string_view Tok, double Min,
                                     double Max) {
  Expected<double> V = parseFiniteDouble(Tok);
  if (!V)
    return V;
  if (*V < Min || *V > Max)
    return Expected<double>::error("value " + formatDouble(*V) +
                                   " outside [" + formatDouble(Min) + ", " +
                                   formatDouble(Max) + "]");
  return V;
}

std::string weaver::formatf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result(Size > 0 ? static_cast<size_t>(Size) : 0, '\0');
  if (Size > 0)
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}
