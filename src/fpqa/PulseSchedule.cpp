//===- fpqa/PulseSchedule.cpp - Time-stamped pulse schedules ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "fpqa/PulseSchedule.h"

#include "fpqa/BatchTracker.h"
#include "support/StringUtils.h"

#include <cmath>

using namespace weaver;
using namespace weaver::fpqa;
using qasm::Annotation;
using qasm::AnnotationKind;

std::string PulseSchedule::str() const {
  std::string Out = formatf("%-12s %-10s %s\n", "start[us]", "dur[us]",
                            "instruction");
  for (const ScheduledPulse &P : Pulses)
    Out += formatf("%-12.3f %-10.3f %s\n", P.StartTime * 1e6,
                   P.Duration * 1e6, P.Description.c_str());
  Out += formatf("makespan: %.3f us\n", Makespan * 1e6);
  return Out;
}

Expected<PulseSchedule>
fpqa::schedulePulseProgram(const std::vector<Annotation> &Program,
                           const HardwareParams &Params) {
  FpqaDevice Device(Params);
  PulseSchedule Schedule;
  double Clock = 0;

  // Open batch state: the shared BatchTracker (the same machine
  // fpqa::analyzePulseProgram batches with) plus the schedule-only
  // source/count bookkeeping.
  BatchTracker Batches;
  size_t BatchCount = 0;
  std::vector<size_t> BatchSources;

  auto CloseBatch = [&]() {
    if (Batches.Batch == BatchTracker::Kind::None) {
      Batches.reset();
      return;
    }
    ScheduledPulse P;
    P.StartTime = Clock;
    P.SourceIndices = BatchSources;
    if (Batches.Batch == BatchTracker::Kind::Shuttle) {
      P.Duration = Params.shuttleSeconds(Batches.MaxDistanceNm);
      P.Description = BatchCount > 1
                          ? formatf("shuttle x%zu (parallel)", BatchCount)
                          : "shuttle";
    } else {
      P.Duration = Params.TransferTime;
      P.Description = BatchCount > 1
                          ? formatf("transfer x%zu (parallel)", BatchCount)
                          : "transfer";
    }
    Clock += P.Duration;
    Schedule.Pulses.push_back(std::move(P));
    Batches.reset();
    BatchCount = 0;
    BatchSources.clear();
  };

  auto Emit = [&](double Duration, std::string Description, size_t Index) {
    CloseBatch();
    ScheduledPulse P;
    P.StartTime = Clock;
    P.Duration = Duration;
    P.Description = std::move(Description);
    P.SourceIndices = {Index};
    Clock += Duration;
    Schedule.Pulses.push_back(std::move(P));
  };

  for (size_t I = 0; I < Program.size(); ++I) {
    const Annotation &A = Program[I];
    if (Status S = Device.apply(A))
      return Expected<PulseSchedule>(S);
    switch (A.Kind) {
    case AnnotationKind::Slm:
    case AnnotationKind::Aod:
    case AnnotationKind::Bind:
      CloseBatch();
      break;
    case AnnotationKind::Shuttle: {
      if (Batches.Batch != BatchTracker::Kind::Shuttle ||
          Batches.axisSeen(A.ShuttleRow, A.ShuttleIndex))
        CloseBatch();
      Batches.Batch = BatchTracker::Kind::Shuttle;
      Batches.markAxis(A.ShuttleRow, A.ShuttleIndex);
      Batches.MaxDistanceNm =
          std::max(Batches.MaxDistanceNm, std::abs(A.Offset));
      BatchCount++;
      BatchSources.push_back(I);
      break;
    }
    case AnnotationKind::ShuttleParallel: {
      // One annotation is one AOD step, scheduled directly (Emit closes
      // any open reconstructed batch first).
      int32_t MaxOffsetNm = 0;
      for (int32_t Offset : A.ShuttleOffsets)
        MaxOffsetNm = std::max(MaxOffsetNm, std::abs(Offset));
      Emit(Params.shuttleSeconds(MaxOffsetNm),
           formatf("shuttle x%zu (parallel)", A.ShuttleIndices.size()), I);
      break;
    }
    case AnnotationKind::Transfer:
      if (Batches.Batch != BatchTracker::Kind::Transfer)
        CloseBatch();
      Batches.Batch = BatchTracker::Kind::Transfer;
      BatchCount++;
      BatchSources.push_back(I);
      break;
    case AnnotationKind::RamanLocal:
      Emit(Params.RamanLocalTime,
           formatf("raman local q[%d]", A.Qubit), I);
      break;
    case AnnotationKind::RamanGlobal:
      Emit(Params.RamanGlobalTime, "raman global", I);
      break;
    case AnnotationKind::Rydberg: {
      auto Clusters = Device.rydbergClustersRef();
      if (!Clusters)
        return Expected<PulseSchedule>(Clusters.status());
      Emit(Params.RydbergTime,
           formatf("rydberg (%zu clusters)", (*Clusters)->size()), I);
      break;
    }
    }
  }
  CloseBatch();
  Schedule.Makespan = Clock;
  return Schedule;
}
