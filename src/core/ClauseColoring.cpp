//===- core/ClauseColoring.cpp - DSatur clause colouring ------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ClauseColoring.h"

#include <algorithm>
#include <cstdint>

using namespace weaver;
using namespace weaver::core;
using sat::CnfFormula;
using sat::Literal;

namespace {

/// Per-variable lists of the clauses mentioning the variable, ascending,
/// with each clause listed at most once per variable (a clause repeating a
/// variable contributes one entry). Shared substrate of the conflict
/// graph, the colouring validator, and both colouring heuristics.
std::vector<std::vector<size_t>> buildOccurrenceLists(const CnfFormula &F) {
  int MaxVar = F.numVariables();
  for (const sat::Clause &C : F.clauses())
    for (Literal L : C)
      MaxVar = std::max(MaxVar, L.variable());
  std::vector<std::vector<size_t>> Occ(MaxVar + 1);
  for (size_t I = 0; I < F.numClauses(); ++I)
    for (Literal L : F.clause(I)) {
      std::vector<size_t> &List = Occ[L.variable()];
      // Clause indices arrive in ascending order, so within-clause
      // duplicates (a clause repeating a variable) are always adjacent.
      if (List.empty() || List.back() != I)
        List.push_back(I);
    }
  return Occ;
}

ClauseColoring finalize(std::vector<int> ColorOf) {
  ClauseColoring R;
  int NumColors = 0;
  for (int C : ColorOf)
    NumColors = std::max(NumColors, C + 1);
  R.ClausesByColor.resize(NumColors);
  for (size_t I = 0; I < ColorOf.size(); ++I)
    R.ClausesByColor[ColorOf[I]].push_back(I);
  R.ColorOf = std::move(ColorOf);
  return R;
}

/// Smallest colour index absent from the \p Words-word bitset at \p Set.
int firstAbsentColor(const uint64_t *Set, size_t Words) {
  for (size_t W = 0; W < Words; ++W)
    if (~Set[W])
      return static_cast<int>(W * 64 + __builtin_ctzll(~Set[W]));
  return static_cast<int>(Words * 64);
}

} // namespace

std::vector<std::vector<size_t>>
core::buildClauseConflictGraph(const CnfFormula &F) {
  std::vector<std::vector<size_t>> Occ = buildOccurrenceLists(F);
  size_t N = F.numClauses();
  std::vector<std::vector<size_t>> Adj(N);
  std::vector<size_t> Gather;
  for (size_t I = 0; I < N; ++I) {
    Gather.clear();
    bool RepeatsVariable = false;
    const sat::Clause &C = F.clause(I);
    for (size_t A = 0; A < C.size(); ++A) {
      for (size_t B = 0; B < A; ++B)
        RepeatsVariable |= C[A].variable() == C[B].variable();
      const std::vector<size_t> &List = Occ[C[A].variable()];
      Gather.insert(Gather.end(), List.begin(), List.end());
    }
    std::sort(Gather.begin(), Gather.end());
    Gather.erase(std::unique(Gather.begin(), Gather.end()), Gather.end());
    // A clause conflicts with itself only when it repeats a variable (the
    // dense adjacency matrix of Algorithm 1 has that self-loop; it is
    // harmless to both heuristics but contributes to the degree
    // tie-break, so it is preserved).
    if (!RepeatsVariable) {
      auto Self = std::lower_bound(Gather.begin(), Gather.end(), I);
      if (Self != Gather.end() && *Self == I)
        Gather.erase(Self);
    }
    Adj[I] = Gather;
  }
  return Adj;
}

bool ClauseColoring::isValid(const CnfFormula &Formula) const {
  if (ColorOf.size() != Formula.numClauses())
    return false;
  // Two clauses conflict iff they appear together in some variable's
  // occurrence list, so a colouring is valid iff no list repeats a colour.
  std::vector<std::vector<size_t>> Occ = buildOccurrenceLists(Formula);
  std::vector<int> Colors;
  for (const std::vector<size_t> &Clauses : Occ) {
    if (Clauses.size() < 2)
      continue;
    Colors.clear();
    for (size_t I : Clauses)
      Colors.push_back(ColorOf[I]);
    std::sort(Colors.begin(), Colors.end());
    if (std::adjacent_find(Colors.begin(), Colors.end()) != Colors.end())
      return false;
  }
  return true;
}

ClauseColoring core::colorClausesDSatur(const CnfFormula &Formula) {
  size_t N = Formula.numClauses();
  std::vector<std::vector<size_t>> Adj = buildClauseConflictGraph(Formula);
  std::vector<int> ColorOf(N, -1);
  std::vector<int> Saturation(N, 0);
  // Row I of one flat bitset holds the colours of clause I's coloured
  // neighbours in Words words; rows double when a colour outgrows them.
  size_t Words = 1;
  std::vector<uint64_t> NeighbourColors(N, 0);
  // A lazy-deletion max-heap of (saturation, rank): a vertex is pushed
  // again whenever its saturation grows, its newest entry pops first and
  // colours it, and stale ones are skipped. The rank ~((N - degree) << 32
  // | index) breaks ties by degree descending, then index ascending, as
  // the former linear scan did.
  using Entry = std::pair<int, uint64_t>;
  auto RankOf = [N, &Adj](size_t I) {
    return ~((static_cast<uint64_t>(N - Adj[I].size()) << 32) | I);
  };
  std::vector<Entry> Heap;
  for (size_t I = 0; I < N; ++I)
    Heap.push_back({0, RankOf(I)});
  std::make_heap(Heap.begin(), Heap.end());

  for (size_t Step = 0; Step < N; ++Step) {
    size_t Best;
    do {
      std::pop_heap(Heap.begin(), Heap.end());
      Best = ~Heap.back().second & 0xffffffffu;
      Heap.pop_back();
    } while (ColorOf[Best] != -1);

    int Color = firstAbsentColor(&NeighbourColors[Best * Words], Words);
    ColorOf[Best] = Color;
    if (static_cast<size_t>(Color) >= Words * 64) {
      std::vector<uint64_t> Wider(N * Words * 2, 0);
      for (size_t I = 0; I < N; ++I)
        std::copy_n(&NeighbourColors[I * Words], Words, &Wider[I * Words * 2]);
      NeighbourColors = std::move(Wider);
      Words *= 2;
    }
    uint64_t Bit = 1ull << (Color % 64);
    for (size_t Nb : Adj[Best]) {
      if (ColorOf[Nb] != -1)
        continue;
      uint64_t &Word = NeighbourColors[Nb * Words + Color / 64];
      if (Word & Bit)
        continue; // colour already counted towards Nb's saturation
      Word |= Bit;
      Heap.push_back({++Saturation[Nb], RankOf(Nb)});
      std::push_heap(Heap.begin(), Heap.end());
    }
  }
  return finalize(std::move(ColorOf));
}

ClauseColoring core::colorClausesFirstFit(const CnfFormula &Formula) {
  size_t N = Formula.numClauses();
  std::vector<std::vector<size_t>> Adj = buildClauseConflictGraph(Formula);
  std::vector<int> ColorOf(N, -1);
  // LastUser[c] == I marks colour c as taken by a neighbour of clause I;
  // stale stamps from earlier clauses need no clearing.
  std::vector<size_t> LastUser(N + 1, SIZE_MAX);
  for (size_t I = 0; I < N; ++I) {
    for (size_t Nb : Adj[I])
      if (ColorOf[Nb] != -1)
        LastUser[ColorOf[Nb]] = I;
    int Color = 0;
    while (LastUser[Color] == I)
      ++Color;
    ColorOf[I] = Color;
  }
  return finalize(std::move(ColorOf));
}
