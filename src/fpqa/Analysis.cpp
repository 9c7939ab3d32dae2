//===- fpqa/Analysis.cpp - Pulse program timing and EPS -------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "fpqa/Analysis.h"

#include <cmath>

using namespace weaver;
using namespace weaver::fpqa;
using qasm::Annotation;
using qasm::AnnotationKind;

Status PulseReplayer::step(const Annotation &A) {
  if (Status S = Device.apply(A))
    return S;
  switch (A.Kind) {
  case AnnotationKind::Slm:
  case AnnotationKind::Aod:
  case AnnotationKind::Bind:
    closeBatch();
    break; // setup: no pulse, no time
  case AnnotationKind::Shuttle: {
    Stats.ShuttleInstructions++;
    Stats.ShuttleAnnotations++;
    uint64_t &Stamp = axisStamp(A.ShuttleRow, A.ShuttleIndex);
    if (Batch != BatchKind::Shuttle || Stamp == Epoch) {
      closeBatch();
      Batch = BatchKind::Shuttle;
    }
    Stamp = Epoch;
    MaxDistanceNm = std::max(MaxDistanceNm, std::abs(A.Offset));
    break;
  }
  case AnnotationKind::ShuttleParallel: {
    // One annotation == one AOD step == exactly one batch; no
    // reconstruction needed and no merging with neighbouring shuttles.
    closeBatch();
    Stats.ShuttleAnnotations++;
    Stats.ShuttleInstructions += A.shuttleIndices().size();
    Stats.MaxParallelShuttleWidth =
        std::max(Stats.MaxParallelShuttleWidth, A.shuttleIndices().size());
    Stats.ShuttleBatches++;
    int32_t MaxOffsetNm = 0;
    for (int32_t Offset : A.shuttleOffsets())
      MaxOffsetNm = std::max(MaxOffsetNm, std::abs(Offset));
    Stats.Duration += Params.shuttleSeconds(MaxOffsetNm);
    break;
  }
  case AnnotationKind::Transfer: {
    Stats.TransferInstructions++;
    if (Batch != BatchKind::Transfer) {
      closeBatch();
      Batch = BatchKind::Transfer;
    }
    EpsLog += std::log(Params.TransferFidelity);
    break;
  }
  case AnnotationKind::RamanLocal:
    closeBatch();
    Stats.RamanLocalPulses++;
    Stats.Duration += Params.RamanLocalTime;
    EpsLog += std::log(Params.RamanFidelity);
    break;
  case AnnotationKind::RamanGlobal:
    closeBatch();
    Stats.RamanGlobalPulses++;
    Stats.Duration += Params.RamanGlobalTime;
    EpsLog += static_cast<double>(Device.numAtoms()) *
              std::log(Params.RamanFidelity);
    break;
  case AnnotationKind::Rydberg: {
    closeBatch();
    Stats.RydbergPulses++;
    Stats.Duration += Params.RydbergTime;
    // The device memoised the cluster decomposition while validating
    // the pulse in apply(), so this query is a copy-free cache hit.
    auto Clusters = Device.rydbergClustersRef();
    if (!Clusters)
      return Clusters.status();
    for (const RydbergCluster &C : **Clusters) {
      if (C.Qubits.size() == 2) {
        Stats.CzGates++;
        EpsLog += std::log(Params.CzFidelity);
      } else {
        Stats.CczGates++;
        EpsLog += std::log(Params.CczFidelity);
      }
    }
    break;
  }
  }
  return Status::success();
}

PulseStats PulseReplayer::finish() {
  closeBatch();
  Stats.NumAtoms = Device.numAtoms();
  // Decoherence: every atom idles for the program duration (§8.3: longer
  // circuit duration -> higher chance of decoherence errors).
  EpsLog -= static_cast<double>(Stats.NumAtoms) * Stats.Duration / Params.T2;
  Stats.Eps = std::exp(EpsLog);
  return Stats;
}

void PulseReplayer::closeBatch() {
  if (Batch == BatchKind::Shuttle) {
    Stats.ShuttleBatches++;
    Stats.Duration += Params.shuttleSeconds(MaxDistanceNm);
  } else if (Batch == BatchKind::Transfer) {
    Stats.TransferBatches++;
    Stats.Duration += Params.TransferTime;
  }
  Batch = BatchKind::None;
  MaxDistanceNm = 0;
  ++Epoch;
}

uint64_t &PulseReplayer::axisStamp(bool Row, int Index) {
  std::vector<uint64_t> &Stamps = Row ? RowStamps : ColStamps;
  if (static_cast<size_t>(Index) >= Stamps.size())
    Stamps.resize(Index + 1, 0);
  return Stamps[Index];
}

Expected<PulseStats>
fpqa::analyzePulseProgram(const qasm::WqasmProgram &Program,
                          const HardwareParams &Params) {
  PulseReplayer Replay(Params);
  for (const Annotation &A : Program.Annotations)
    if (Status S = Replay.step(A))
      return Expected<PulseStats>(S);
  return Replay.finish();
}
