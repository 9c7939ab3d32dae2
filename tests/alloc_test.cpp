//===- tests/alloc_test.cpp - Heap blocks of a program copy ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Pins the flat program representation by counting heap blocks. A copy
/// of a wQASM program allocates its statement and annotation arrays plus
/// one payload block per @slm, @aod and @shuttle rows|columns annotation;
/// a PassCache template capture adds only the colouring and the angle
/// slots. This binary replaces the global operator new with a counting
/// one, so it is kept apart from the other tests.
///
//===----------------------------------------------------------------------===//

#include "core/pipeline/PassCache.h"
#include "core/pipeline/PassManager.h"
#include "sat/Generator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

using namespace weaver;
using namespace weaver::core::pipeline;

namespace {
/// Blocks allocated by operator new on this thread.
thread_local size_t Allocations = 0;
} // namespace

// The array and sized forms forward to these by default.
void *operator new(size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

namespace {

/// Heap blocks allocated on this thread while \p Fn runs.
template <typename Fn> size_t blocksDuring(Fn &&F) {
  size_t Before = Allocations;
  F();
  return Allocations - Before;
}

/// The annotations whose form carries a list payload.
size_t listAnnotations(const qasm::WqasmProgram &P) {
  size_t N = 0;
  for (const qasm::Annotation &A : P.Annotations)
    N += A.Kind == qasm::AnnotationKind::Slm ||
         A.Kind == qasm::AnnotationKind::Aod ||
         A.Kind == qasm::AnnotationKind::ShuttleParallel;
  return N;
}

} // namespace

TEST(ProgramAllocations, AnnotationFitsEightyBytes) {
  EXPECT_LE(sizeof(qasm::Annotation), 80u);
}

TEST(ProgramAllocations, CopyAndCaptureAllocateOneBlockPerListAnnotation) {
  sat::CnfFormula F = sat::satlibInstance(250, 1);
  CompilationContext Ctx;
  Ctx.Formula = &F;
  Ctx.Options.UseCompression = Ctx.Hw.cczCompressionProfitable();
  Ctx.CollectAngleSlots = true; // as a compile through a cache does
  Status S = PassManager::standardFpqaPipeline().run(Ctx);
  ASSERT_FALSE(static_cast<bool>(S)) << S.message();

  size_t Bound = listAnnotations(Ctx.Program) + 32;
  ASSERT_GT(Ctx.Program.numAnnotations(), 20000u);

  size_t CopyBlocks = blocksDuring([&] {
    qasm::WqasmProgram Copy = Ctx.Program;
    EXPECT_EQ(Copy.numAnnotations(), Ctx.Program.numAnnotations());
  });
  EXPECT_LE(CopyBlocks, Bound);

  size_t CaptureBlocks = blocksDuring([&] {
    ProgramSections Sections = ProgramSections::capture(Ctx);
    EXPECT_EQ(Sections.AngleSlots.size(), Ctx.AngleSlots.size());
  });
  EXPECT_LE(CaptureBlocks, Bound);
}
