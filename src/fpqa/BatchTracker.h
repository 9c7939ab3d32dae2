//===- fpqa/BatchTracker.h - Shuttle/transfer batch tracking ---*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared state machine for grouping consecutive shuttle/transfer
/// instructions into parallel batches (Algorithm 2's parallel shuttle
/// sets): a batch extends while instructions of the same kind touch
/// pairwise-distinct rows/columns. Axis membership uses epoch-stamped
/// per-axis arrays — O(1) per instruction, no per-batch tree set. Both
/// the metrics replay (fpqa::analyzePulseProgram) and the time-stamped
/// scheduler (fpqa::schedulePulseProgram) batch through this tracker so
/// their timelines cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_FPQA_BATCHTRACKER_H
#define WEAVER_FPQA_BATCHTRACKER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace weaver {
namespace fpqa {

struct BatchTracker {
  enum class Kind { None, Shuttle, Transfer };

  Kind Batch = Kind::None;
  int32_t MaxDistanceNm = 0; ///< max |offset| inside the open shuttle batch

  /// True when the axis already shuttled inside the open batch (which
  /// then has to close first).
  bool axisSeen(bool Row, int Index) { return stamps(Row, Index) == Epoch; }

  void markAxis(bool Row, int Index) { stamps(Row, Index) = Epoch; }

  /// Closes the open batch (the caller accounts for it first).
  void reset() {
    Batch = Kind::None;
    ++Epoch;
    MaxDistanceNm = 0;
  }

private:
  /// Self-sizing per-axis stamp access — no call-order contract between
  /// axisSeen and markAxis.
  uint64_t &stamps(bool Row, int Index) {
    std::vector<uint64_t> &Stamps = Row ? RowStamps : ColStamps;
    if (static_cast<size_t>(Index) >= Stamps.size())
      Stamps.resize(Index + 1, 0);
    return Stamps[Index];
  }

  uint64_t Epoch = 1; ///< stamps start at 0, so 1 = "not in this batch"
  std::vector<uint64_t> RowStamps, ColStamps;
};

} // namespace fpqa
} // namespace weaver

#endif // WEAVER_FPQA_BATCHTRACKER_H
