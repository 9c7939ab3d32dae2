//===- support/Geometry.h - 2-D geometry primitives ------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 2-D points and distances for FPQA trap layouts. Every coordinate in the
/// project is a whole number of nanometres (1 lattice unit = 1 nm), so
/// each HardwareParams and Layout spacing is exact, shuttle offsets cannot
/// drift, and proximity checks compare exact squared distances. The wQASM
/// text keeps the paper's micrometres (appendMicrons / parseMicrons).
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SUPPORT_GEOMETRY_H
#define WEAVER_SUPPORT_GEOMETRY_H

#include <cstdint>

namespace weaver {

/// Bound on every coordinate, in nanometres (1 m). Parsers reject larger
/// values and the device rejects a move that would leave the range, so
/// the sum or difference of two coordinates fits an int32_t and a squared
/// distance fits an int64_t.
inline constexpr int32_t MaxCoordinateNm = 1000000000;

/// True when \p V lies in [-MaxCoordinateNm, MaxCoordinateNm].
inline bool inCoordinateRange(int64_t V) {
  return V >= -MaxCoordinateNm && V <= MaxCoordinateNm;
}

/// A 2-D point/vector in whole nanometres.
struct Vec2 {
  int32_t X = 0;
  int32_t Y = 0;

  friend Vec2 operator+(Vec2 A, Vec2 B) { return {A.X + B.X, A.Y + B.Y}; }
  friend Vec2 operator-(Vec2 A, Vec2 B) { return {A.X - B.X, A.Y - B.Y}; }
  friend bool operator==(Vec2 A, Vec2 B) { return A.X == B.X && A.Y == B.Y; }
};

/// Exact squared Euclidean distance in nm^2.
inline int64_t distanceSquared(Vec2 A, Vec2 B) {
  int64_t DX = int64_t{A.X} - B.X, DY = int64_t{A.Y} - B.Y;
  return DX * DX + DY * DY;
}

} // namespace weaver

#endif // WEAVER_SUPPORT_GEOMETRY_H
