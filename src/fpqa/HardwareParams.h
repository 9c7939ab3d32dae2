//===- fpqa/HardwareParams.h - FPQA hardware parameters --------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adjustable FPQA hardware parameters (paper §7: "wOptimizer ... represents
/// the FPQA device as a class with adjustable hardware parameters").
/// Defaults follow the sources the paper cites for Rubidium-atom machines:
/// Evered et al., Nature 2023 (gate fidelities) and Schmid et al., QST 2024
/// (geometry, movement and timing); the CCZ fidelity default of 0.98 is the
/// value the paper's Fig. 10c threshold study starts from.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_FPQA_HARDWAREPARAMS_H
#define WEAVER_FPQA_HARDWAREPARAMS_H

#include <cstdint>

namespace weaver {
namespace fpqa {

/// All tunable constants of the modelled FPQA. Distances in whole
/// nanometres (support/Geometry.h), speed in micrometres per second,
/// durations in seconds, fidelities as success probabilities per operation.
struct HardwareParams {
  // --- Geometry ---------------------------------------------------------
  /// Minimum separation between SLM traps (paper Table 1: 5-10 um).
  int32_t MinSlmSeparationNm = 5000;
  /// Minimum separation between adjacent AOD rows/columns. Must stay below
  /// the 1 um slot gap of the triangle layout (core::Layout).
  int32_t MinAodSeparationNm = 800;
  /// Maximum SLM<->AOD distance for an atom transfer.
  int32_t MaxTransferDistanceNm = 3000;
  /// Rydberg blockade radius: atoms closer than this entangle under a
  /// global Rydberg pulse (paper §4.1).
  int32_t RydbergRadiusNm = 2500;
  /// Tolerance when checking that the atoms of a 3-cluster are equidistant
  /// (the paper's "digital computation" assumption, §7).
  int32_t EquidistanceToleranceNm = 150;

  // --- Timing -----------------------------------------------------------
  /// AOD movement speed (Schmid et al.: ~0.55 um/us).
  double ShuttleSpeedUmPerSec = 0.55e6;
  /// Duration of one atom transfer between layers.
  double TransferTime = 15e-6;
  /// Duration of a local (single-atom) Raman pulse.
  double RamanLocalTime = 2e-6;
  /// Duration of a global Raman pulse.
  double RamanGlobalTime = 2e-6;
  /// Duration of a global Rydberg pulse.
  double RydbergTime = 0.27e-6;

  // --- Fidelities -------------------------------------------------------
  /// Single-qubit Raman rotation fidelity.
  double RamanFidelity = 0.9997;
  /// Two-atom CZ fidelity under a Rydberg pulse (Evered et al. 2023).
  double CzFidelity = 0.995;
  /// Three-atom CCZ fidelity under a Rydberg pulse (paper §8.4: 0.98).
  double CczFidelity = 0.98;
  /// Per-transfer atom survival/coherence.
  double TransferFidelity = 0.999;
  /// Coherence time (neutral atoms: ~1.5 s).
  double T2 = 1.5;

  /// Time an AOD step whose longest move is \p DistanceNm takes.
  double shuttleSeconds(int64_t DistanceNm) const {
    return static_cast<double>(DistanceNm) * 1e-3 / ShuttleSpeedUmPerSec;
  }

  /// Returns true when the CCZ-based compressed clause fragment beats the
  /// pure 2-qubit ladder — the gate compression profitability test of
  /// §5.4. Per 3-literal clause the compressed form costs 2 CCZ + 2 CZ +
  /// 11 Raman rotations, while the CZ-only ladder costs 10 CZ + 27 Raman
  /// rotations (three RZZ ladders plus the cubic CX ladder).
  bool cczCompressionProfitable() const {
    auto Pow = [](double Base, int N) {
      double P = 1;
      for (int I = 0; I < N; ++I)
        P *= Base;
      return P;
    };
    double Compressed =
        Pow(CczFidelity, 2) * Pow(CzFidelity, 2) * Pow(RamanFidelity, 11);
    double Ladder = Pow(CzFidelity, 10) * Pow(RamanFidelity, 27);
    return Compressed >= Ladder;
  }
};

} // namespace fpqa
} // namespace weaver

#endif // WEAVER_FPQA_HARDWAREPARAMS_H
