//===- core/Layout.h - Colour-zone geometry plan ---------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Geometry of the diagonal colour zones (paper §5.3, Fig. 5): atoms live
/// in SLM "home" traps along y = 0; each colour group owns an execution
/// zone placed diagonally; inside a zone every clause occupies a site — an
/// equilateral triangle whose target spot is an SLM trap and whose two
/// control spots are AOD positions on the (single) AOD row.
///
/// All constants respect the device pre-conditions: home spacing exceeds
/// the minimum SLM separation, triangle side length (2 um) is inside the
/// Rydberg radius (2.5 um), site spacing (20 um) keeps distinct clusters
/// non-interacting, and transfer hops (2 um pickup, ~1.73 um at sites)
/// are below the maximum transfer distance.
///
/// Lengths are whole nanometres (support/Geometry.h). The triangle height
/// sqrt(3) um is the one irrational constant; it is rounded to 1732 nm, so
/// a control sits 1999.96 nm from its target against 2000 nm from the
/// other control — 0.04 nm off equilateral, far inside the device's
/// 150 nm equidistance tolerance.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_LAYOUT_H
#define WEAVER_CORE_LAYOUT_H

#include "support/Geometry.h"

namespace weaver {
namespace core {

/// Geometry constants for code generation (nanometres).
struct Layout {
  int32_t HomeSpacingNm = 6000;       ///< x-distance between home traps
  int32_t PickupRowYNm = 2000;        ///< AOD row y while (un)loading atoms
  int32_t TriangleHalfWidthNm = 1000; ///< control x-offset from the site
  int32_t TriangleHeightNm = 1732;    ///< sqrt(3) um: row above target
  int32_t SiteSpacingNm = 20000;      ///< x-distance between clause sites
  int32_t ZoneBaseYNm = 20000;        ///< y of the first colour zone's targets
  int32_t ZoneStepYNm = 6000;         ///< y-offset between consecutive zones
  int32_t ZoneStepXNm = 3000;         ///< diagonal x-offset between zones
  /// Number of physical zones cycled round-robin over the colours. The
  /// paper places colour zones diagonally; a real trap plane is finite, so
  /// colours reuse the zone window modulo this count (colours execute
  /// sequentially, so a zone is always empty when its next colour arrives).
  int ZoneCycle = 2;
  int32_t CzLiftNm = 3000;    ///< row lift isolating controls from targets
  int32_t PairShiftNm = 3000; ///< x-shift isolating one control (ladder)
  int32_t BumpGapNm = 900;    ///< spacing used when displacing a column
  int32_t ParkSpacingNm = 2000; ///< spacing of parked (idle) columns

  /// Home trap position of qubit \p Q.
  Vec2 homePosition(int Q) const { return {HomeSpacingNm * Q, 0}; }

  /// Physical zone used by colour \p Color.
  int zoneOf(int Color) const { return Color % ZoneCycle; }

  /// Target-spot (SLM) position of site \p Site in colour \p Color's zone.
  Vec2 sitePosition(int Color, int Site) const {
    return {ZoneStepXNm * zoneOf(Color) + SiteSpacingNm * Site,
            zoneY(Color)};
  }

  /// y-coordinate of the targets of colour \p Color (zone-cycled).
  int32_t zoneY(int Color) const {
    return ZoneBaseYNm + ZoneStepYNm * zoneOf(Color);
  }

  /// y-coordinate of the AOD row while colour \p Color executes gates.
  int32_t gateRowY(int Color) const { return zoneY(Color) + TriangleHeightNm; }
};

} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_LAYOUT_H
