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
/// It is also the one place that groups instructions into batches:
/// consecutive single-axis shuttles over distinct rows/columns merge into
/// one parallel shuttle batch (Algorithm 2's parallel shuttle sets), which
/// contributes max(|offset|) / speed to the execution time, and
/// consecutive transfers merge into one transfer batch.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_FPQA_ANALYSIS_H
#define WEAVER_FPQA_ANALYSIS_H

#include "fpqa/Device.h"
#include "qasm/Program.h"

#include <cstdint>
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
  /// The open batch: consecutive shuttle or transfer instructions that
  /// run as one parallel step (Algorithm 2's parallel shuttle sets).
  enum class BatchKind { None, Shuttle, Transfer };

  /// Accounts for the open batch, if any, and starts the next epoch.
  void closeBatch();

  /// Epoch in which row/column \p Index last shuttled. The caller has
  /// validated the index on the device; the arrays grow on demand.
  uint64_t &axisStamp(bool Row, int Index);

  HardwareParams Params;
  FpqaDevice Device;
  PulseStats Stats;
  double EpsLog = 0; ///< accumulated log-fidelity, for numerical stability
  BatchKind Batch = BatchKind::None;
  int32_t MaxDistanceNm = 0; ///< max |offset| inside the open shuttle batch
  /// A single-axis shuttle joins the open batch unless its row/column
  /// already moved in it, i.e. unless its stamp equals Epoch. Stamps start
  /// at 0, so the first epoch is 1: O(1) per instruction, no set per batch.
  uint64_t Epoch = 1;
  std::vector<uint64_t> RowStamps, ColStamps;
};

/// Replays \p Program's annotations in execution order on a fresh device
/// with \p Params; fails when any instruction violates its pre-conditions.
Expected<PulseStats> analyzePulseProgram(const qasm::WqasmProgram &Program,
                                         const HardwareParams &Params);

} // namespace fpqa
} // namespace weaver

#endif // WEAVER_FPQA_ANALYSIS_H
