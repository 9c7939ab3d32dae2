//===- tests/service_stress_test.cpp - CompileService stress --------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Hammers the CompileService from several producer threads with mixed
/// instance sizes, deliberate duplicates, and random cancellations, then
/// asserts the invariants that matter for a long-running server: no
/// deadlock (bounded waits), every job resolves exactly once (callback
/// count == 1, terminal state), the submitted/completed/cancelled/
/// coalesced counters balance, and the shared PassCache's hit/miss
/// accounting stays consistent under contention.
///
/// The corpus shrinks under WEAVER_STRESS_LIGHT=1 — the ThreadSanitizer
/// CI job sets it so the race detection finishes in minutes while regular
/// CI runs the full corpus.
///
//===----------------------------------------------------------------------===//

#include "core/service/CompileService.h"
#include "sat/Generator.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace weaver;
using namespace weaver::core;

namespace {

constexpr double WaitSeconds = 300.0;

bool lightCorpus() {
  const char *Env = std::getenv("WEAVER_STRESS_LIGHT");
  return Env && std::string(Env) == "1";
}

struct StressConfig {
  int Producers = 4;
  int JobsPerProducer = 24;
  int ServiceThreads = 3;
  size_t QueueCapacity = 16; // small: exercise submit() backpressure
};

StressConfig config() {
  StressConfig C;
  if (lightCorpus()) {
    C.Producers = 3;
    C.JobsPerProducer = 8;
    C.ServiceThreads = 2;
    C.QueueCapacity = 4;
  }
  return C;
}

} // namespace

TEST(ServiceStress, EveryJobResolvesExactlyOnceUnderContention) {
  StressConfig C = config();
  ServiceOptions Opt;
  Opt.NumThreads = C.ServiceThreads;
  Opt.QueueCapacity = C.QueueCapacity;
  CompileService Service(Opt);

  const int TotalJobs = C.Producers * C.JobsPerProducer;
  std::vector<std::atomic<int>> CallbackCount(TotalJobs);
  std::vector<CompileService::JobHandle> Handles(TotalJobs);
  std::atomic<int> CancelsIssued{0};

  auto Producer = [&](int P) {
    // Deterministic per-producer randomness (no std::mt19937: instance
    // identity must be stable across platforms, see support/Rng.h).
    Xoshiro256 Rng(1234 + P);
    for (int J = 0; J < C.JobsPerProducer; ++J) {
      int Slot = P * C.JobsPerProducer + J;
      CompileRequest R;
      // Mixed sizes, and only ~6 distinct instances per size so that
      // concurrent producers regularly submit identical requests (the
      // dedup path) and repeatedly hit the same cache entries.
      int Vars = (Rng.next() % 2) ? 20 : 50;
      R.Formula = sat::satlibInstance(Vars, 1 + Rng.next() % 6);
      R.Priority = static_cast<int>(Rng.next() % 3);
      Handles[Slot] = Service.submit(
          R, [&CallbackCount, Slot](const JobOutcome &) {
            ++CallbackCount[Slot];
          });
      // ~20% of jobs get cancelled right away, racing the queue and the
      // running compile; some land before dequeue, some mid-pipeline,
      // some after completion — all must stay exactly-once.
      if (Rng.next() % 5 == 0) {
        Handles[Slot].cancel();
        ++CancelsIssued;
      }
    }
  };

  std::vector<std::thread> Producers;
  for (int P = 0; P < C.Producers; ++P)
    Producers.emplace_back(Producer, P);
  for (std::thread &T : Producers)
    T.join();

  // Bounded waits: a deadlock fails the test instead of hanging ctest.
  size_t Completed = 0, Cancelled = 0;
  for (int Slot = 0; Slot < TotalJobs; ++Slot) {
    JobOutcome Out;
    ASSERT_TRUE(Handles[Slot].waitFor(WaitSeconds, Out))
        << "job in slot " << Slot << " never resolved";
    ASSERT_TRUE(Out.State == JobState::Completed ||
                Out.State == JobState::Cancelled)
        << "slot " << Slot << ": " << jobStateName(Out.State);
    if (Out.State == JobState::Completed) {
      ++Completed;
      EXPECT_TRUE(Out.Metrics.usable()) << Out.Diagnostic;
      EXPECT_FALSE(Out.Wqasm.empty());
    } else {
      ++Cancelled;
    }
  }
  Service.shutdown(/*Drain=*/true);

  // Exactly-once: every handle's callback fired exactly once, even for
  // coalesced and cancelled jobs.
  for (int Slot = 0; Slot < TotalJobs; ++Slot)
    EXPECT_EQ(CallbackCount[Slot].load(), 1) << "slot " << Slot;

  // Counter balance: every non-coalesced submission resolved exactly
  // once; coalesced submissions share a resolution. A handle's observed
  // state can differ from its job's counted state only for coalesced
  // waiters, so compare through the service's own counters.
  CompileService::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, static_cast<uint64_t>(TotalJobs));
  EXPECT_EQ(S.Completed + S.Cancelled + S.Failed,
            S.Submitted - S.Coalesced);
  EXPECT_EQ(S.Failed, 0u); // nothing was submitted after shutdown

  // PassCache accounting under contention (all jobs are Weaver jobs):
  // every compile that started looked its template up exactly once.
  pipeline::PassCache::CacheStats CS = Service.cache()->stats();
  EXPECT_EQ(CS.ProgramHits + CS.ProgramMisses, S.CompilesStarted);
  // Template hits observed by jobs can't exceed the cache's own hit count
  // (cancelled compiles may have looked up without reporting a tier).
  EXPECT_LE(S.ProgramTierHits, CS.ProgramHits);

  // The workload genuinely exercised the interesting paths.
  EXPECT_GT(Completed, 0u);
  if (CancelsIssued.load() > 0) {
    EXPECT_GT(Cancelled, 0u);
  }
}

TEST(ServiceStress, ShutdownCancelUnderLoadResolvesEverything) {
  StressConfig C = config();
  ServiceOptions Opt;
  Opt.NumThreads = C.ServiceThreads;
  Opt.QueueCapacity = 0; // unbounded: shutdown must cancel a deep queue
  CompileService Service(Opt);

  // Every submission is a distinct formula: a duplicate would attach to a
  // job already in flight, and the queue would hold too few jobs for the
  // workers not to start them all before shutdown lands.
  std::vector<CompileService::JobHandle> Handles;
  for (int I = 0; I < C.Producers * C.JobsPerProducer; ++I) {
    CompileRequest R;
    R.Formula = sat::satlibInstance(I % 2 ? 50 : 20, 1 + I);
    Handles.push_back(Service.submit(std::move(R)));
  }
  Service.shutdown(/*Drain=*/false);

  size_t Cancelled = 0;
  for (CompileService::JobHandle &H : Handles) {
    JobOutcome Out;
    ASSERT_TRUE(H.waitFor(WaitSeconds, Out));
    ASSERT_TRUE(Out.State == JobState::Completed ||
                Out.State == JobState::Cancelled);
    Cancelled += Out.State == JobState::Cancelled;
  }
  // With a deep queue and an immediate cancel-shutdown, at least part of
  // the queue must have been cancelled rather than compiled (how much
  // depends on how far the workers got before shutdown landed).
  CompileService::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Coalesced, 0u) << "the queue was not as deep as submitted";
  EXPECT_GT(Cancelled, 0u);
  EXPECT_EQ(S.Completed + S.Cancelled + S.Failed,
            S.Submitted - S.Coalesced);
}
