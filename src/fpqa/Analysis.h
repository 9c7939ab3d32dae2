//===- fpqa/Analysis.h - Pulse program timing and EPS ----------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a pulse program (a wQASM annotation stream) on the device model
/// and derives the paper's evaluation metrics: number of pulses (Fig. 10b),
/// execution time as the sum of pulse and shuttle durations (§8.3), and
/// EPS by accumulating per-pulse error plus decoherence (§8.4).
///
/// PulseReplayer is the one replay engine: gate lowering drives it while
/// it emits (so a cold compile walks the pulse stream once), and
/// analyzePulseProgram wraps it for a finished program. The same
/// annotations in the same order give bit-identical statistics either way.
///
/// Consecutive shuttles over distinct rows/columns are merged into one
/// parallel shuttle batch (Algorithm 2's parallel shuttle sets); the batch
/// contributes max(|offset|) / speed to the execution time.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_FPQA_ANALYSIS_H
#define WEAVER_FPQA_ANALYSIS_H

#include "fpqa/BatchTracker.h"
#include "fpqa/Device.h"
#include "qasm/Program.h"

#include <vector>

namespace weaver {
namespace fpqa {

/// Metrics accumulated over one pulse program.
struct PulseStats {
  size_t RamanLocalPulses = 0;
  size_t RamanGlobalPulses = 0;
  size_t RydbergPulses = 0;
  size_t ShuttleInstructions = 0; ///< individual row/column moves
  /// Parallel groups (Algorithm 2). A multi-row/column @shuttle annotation
  /// is one batch by construction; consecutive single-axis @shuttle lines
  /// over distinct axes are merged into one reconstructed batch.
  size_t ShuttleBatches = 0;
  /// Emitted @shuttle annotation lines: a parallel set counts once, so
  /// this tracks the stream size the emitter actually produced (the
  /// per-boundary linearity metric of bench_pulses).
  size_t ShuttleAnnotations = 0;
  /// Widest parallel @shuttle set seen (0 when none was emitted).
  size_t MaxParallelShuttleWidth = 0;
  size_t TransferInstructions = 0;
  size_t TransferBatches = 0;
  size_t CzGates = 0;  ///< 2-atom clusters summed over Rydberg pulses
  size_t CczGates = 0; ///< 3-atom clusters summed over Rydberg pulses
  size_t NumAtoms = 0;

  /// Laser pulses as counted in Fig. 10b: Raman + Rydberg pulses plus one
  /// per shuttle/transfer batch.
  size_t totalPulses() const {
    return RamanLocalPulses + RamanGlobalPulses + RydbergPulses +
           ShuttleBatches + TransferBatches;
  }

  double Duration = 0; ///< seconds (sum of pulse/shuttle durations, §8.3)
  double Eps = 1.0;    ///< estimated probability of success (§8.4)
};

/// Streaming replay on a fresh device: feed annotations in execution
/// order through step(), which validates each on the device model before
/// accounting for it, then read the totals with finish().
class PulseReplayer {
public:
  explicit PulseReplayer(const HardwareParams &Params)
      : Params(Params), Device(Params) {}

  /// Applies \p A to the device and accounts for it; returns the device's
  /// error (state unchanged) when a pre-condition is violated.
  Status step(const qasm::Annotation &A);

  /// Closes the open batch and returns the totals, decoherence included.
  PulseStats finish();

private:
  void closeBatch();

  HardwareParams Params;
  FpqaDevice Device;
  PulseStats Stats;
  double EpsLog = 0; ///< accumulated log-fidelity, for numerical stability
  BatchTracker Batches;
};

/// Replays \p Program on a fresh device with \p Params; fails when any
/// instruction violates its pre-conditions.
Expected<PulseStats>
analyzePulseProgram(const std::vector<qasm::Annotation> &Program,
                    const HardwareParams &Params);

/// Zero-copy overload: replays the program's annotations in execution
/// order through a qasm::AnnotationView without materialising a flattened
/// stream.
Expected<PulseStats> analyzePulseProgram(const qasm::WqasmProgram &Program,
                                         const HardwareParams &Params);

} // namespace fpqa
} // namespace weaver

#endif // WEAVER_FPQA_ANALYSIS_H
