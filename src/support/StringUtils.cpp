//===- support/StringUtils.cpp - Small string helpers --------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include "support/Geometry.h"

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

Expected<int32_t> weaver::parseMicrons(std::string_view Tok) {
  size_t Sign = !Tok.empty() && Tok[0] == '-';
  size_t Dot = Tok.find('.');
  std::string_view Int = Tok.substr(Sign, Dot == Tok.npos ? Dot : Dot - Sign);
  std::string_view Frac = Dot == Tok.npos ? "0" : Tok.substr(Dot + 1);
  auto Digits = [](std::string_view S) {
    return !S.empty() && S.find_first_not_of("0123456789") == S.npos;
  };
  if (!Digits(Int) || !Digits(Frac) || Frac.size() > 3)
    return Expected<int32_t>::error("invalid length '" + std::string(Tok) +
                                    "': expected micrometres with at most "
                                    "three decimals");
  // Whole micrometres scale by 1000 per digit; the bound check runs per
  // digit, so no prefix can overflow.
  int64_t Nm = 0, Scale = 100;
  for (char C : Int)
    if ((Nm = Nm * 10 + (C - '0') * 1000) > MaxCoordinateNm)
      break;
  for (char C : Frac) {
    Nm += (C - '0') * Scale;
    Scale /= 10;
  }
  if (Nm > MaxCoordinateNm)
    return Expected<int32_t>::error("length '" + std::string(Tok) +
                                    "' exceeds 1e6 um");
  return static_cast<int32_t>(Sign ? -Nm : Nm);
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
  // Real numerals are at most 25 bytes; the cap bounds the work a hostile
  // token can cause and sizes the underflow path's buffer.
  constexpr size_t MaxBytes = 64;
  if (Tok.empty() || Tok.size() > MaxBytes)
    return Expected<double>::error("invalid double token");
  const char *End = Tok.data() + Tok.size();
  double V = 0;
  auto R = std::from_chars(Tok.data(), End, V, std::chars_format::general);
  if (R.ptr != End ||
      (R.ec != std::errc() && R.ec != std::errc::result_out_of_range))
    return Expected<double>::error("invalid double token: '" +
                                   std::string(Tok) + "'");
  if (R.ec == std::errc::result_out_of_range) {
    // from_chars reports underflow like overflow and leaves V untouched.
    // Underflow lands on a representable denormal or zero and stays
    // accepted, so let strtod round the (already validated) token; an
    // overflow comes back as +-HUGE_VAL and fails the finiteness test.
    char Buf[MaxBytes + 1];
    std::memcpy(Buf, Tok.data(), Tok.size());
    Buf[Tok.size()] = '\0';
    V = std::strtod(Buf, nullptr);
  }
  // The general format also spells "inf" and "nan".
  if (!std::isfinite(V))
    return Expected<double>::error("invalid double token: '" +
                                   std::string(Tok) + "'");
  return V;
}

size_t weaver::scanNumeral(std::string_view S) {
  auto IsDigit = [](char C) { return C >= '0' && C <= '9'; };
  if (S.empty() ||
      !(IsDigit(S[0]) || (S[0] == '.' && S.size() > 1 && IsDigit(S[1]))))
    return 0;
  size_t I = 1;
  while (I < S.size()) {
    char C = S[I];
    bool ExponentSign =
        (C == '+' || C == '-') && (S[I - 1] == 'e' || S[I - 1] == 'E');
    if (!IsDigit(C) && C != '.' && C != 'e' && C != 'E' && !ExponentSign)
      break;
    ++I;
  }
  return I;
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
