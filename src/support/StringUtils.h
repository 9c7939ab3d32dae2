//===- support/StringUtils.h - Small string helpers -----------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String splitting/trimming/formatting helpers shared by the QASM front end
/// and the benchmark table printers, plus the one numeral form per value
/// kind the wQASM text uses: appendDouble (%.17g) for Raman angles and
/// appendMicrons / parseMicrons for lengths.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SUPPORT_STRINGUTILS_H
#define WEAVER_SUPPORT_STRINGUTILS_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace weaver {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, dropping empty pieces when \p KeepEmpty is false.
std::vector<std::string_view> split(std::string_view S, char Sep,
                                    bool KeepEmpty = false);

/// Returns true if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// Appends \p Value exactly as printf("%.17g") renders it (17 significant
/// digits round-trip any double), via std::to_chars(general, 17), which
/// the standard defines as that conversion. Every QASM emitter and
/// diagnostic formats doubles here; in wQASM that is the Raman angles,
/// whose AngleSlot patching relies on the exact 17-digit form. Not the
/// shortest-round-trip overload: it would print 0.29999999999999999 as
/// 0.3 and change every golden.
void appendDouble(std::string &Out, double Value);

/// Appends the length \p Nm (nanometres) in micrometres as an exact
/// decimal with at most three fractional digits and no trailing zeros:
/// 14400 -> "14.4", -900 -> "-0.9", 19732 -> "19.732", 6000 -> "6". The
/// one length renderer of the wQASM printer; parseMicrons inverts it.
void appendMicrons(std::string &Out, int64_t Nm);

/// Parses a micrometre length into whole nanometres with integer
/// arithmetic only: an optional '-', one or more digits, and optionally
/// '.' followed by one to three digits. Rejects exponents, a fourth
/// fractional digit, a leading '+', a bare '.' or '-', and magnitudes
/// above MaxCoordinateNm (support/Geometry.h).
Expected<int32_t> parseMicrons(std::string_view Tok);

/// Appends \p Value in decimal.
void appendInt(std::string &Out, long long Value);

/// Appends each of \p Parts in order: text as is, an int through
/// appendInt, a double through appendDouble. Wider or unsigned integers
/// are ambiguous and do not compile, so nothing is narrowed silently.
inline void appendPart(std::string &Out, std::string_view S) { Out += S; }
inline void appendPart(std::string &Out, char C) { Out += C; }
inline void appendPart(std::string &Out, int V) { appendInt(Out, V); }
inline void appendPart(std::string &Out, double V) { appendDouble(Out, V); }
template <typename... Ts>
void appendAll(std::string &Out, const Ts &...Parts) {
  (appendPart(Out, Parts), ...);
}

/// Returns appendDouble's rendering of \p Value.
std::string formatDouble(double Value);

/// printf-style formatting into a std::string.
std::string formatf(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parses \p Tok as a decimal integer and validates [\p Min, \p Max].
/// Rejects empty tokens, trailing garbage, and overflow — a hostile
/// "99999999999999999999" is an error, never a silently clamped or
/// wrapped value.
Expected<long long> parseBoundedInt(std::string_view Tok, long long Min,
                                    long long Max);

/// Parses \p Tok as a finite double: std::from_chars' general decimal
/// form (optional '-', digits with an optional '.', optional exponent) of
/// at most 64 bytes, and nothing else. Rejects NaN/Inf, overflow, trailing
/// garbage, a leading '+' or whitespace, and hex floats. Underflow is
/// accepted as the denormal or zero strtod rounds it to; any other value
/// is bit-identical to strtod's.
Expected<double> parseFiniteDouble(std::string_view Tok);

/// Returns the length of the numeral-shaped run that starts \p S, or 0
/// when \p S starts with neither a digit nor '.' and a digit. The run is
/// the longest stretch of digits, '.', 'e'/'E', and a sign right after an
/// exponent marker. Lexers take the run whole and validate it with
/// parseFiniteDouble, so "1.2.3" or "1e+" is an error, never a
/// prefix-truncated value.
size_t scanNumeral(std::string_view S);

/// Full-token, range-validated integer parse for untrusted input (argv,
/// config tokens). Identical contract to parseBoundedInt; the short name
/// is the one tools are expected to reach for.
inline Expected<long long> parseInt(std::string_view Tok, long long Min,
                                    long long Max) {
  return parseBoundedInt(Tok, Min, Max);
}

/// Full-token finite-double parse validated against [\p Min, \p Max].
/// Rejects NaN/Inf, trailing garbage, and out-of-range values — the
/// double-typed sibling of parseInt for untrusted input.
Expected<double> parseDouble(std::string_view Tok, double Min, double Max);

} // namespace weaver

#endif // WEAVER_SUPPORT_STRINGUTILS_H
