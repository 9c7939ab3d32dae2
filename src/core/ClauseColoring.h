//===- core/ClauseColoring.h - DSatur clause colouring ---------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clause-colouring pass of wOptimizer (paper §5.2, Algorithm 1):
/// clauses sharing a variable conflict; colouring the conflict graph with
/// DSatur [Brélaz 1979] partitions the formula into groups of
/// variable-disjoint clauses whose cost-Hamiltonian fragments execute in
/// parallel under global FPQA pulses.
///
/// The paper bounds the pass at O(N^2) (§5.5); this implementation is
/// O((N + E) log N) over the E conflict edges: the graph is built from
/// per-variable occurrence lists (sort/unique per clause neighbourhood)
/// and vertex selection pops a lazy-deletion binary heap, with the
/// neighbour colours of all clauses in one flat bitset array, instead of
/// a linear scan per step. The selection order — and therefore every
/// colouring — is identical to the quadratic reference: maximum
/// saturation, then maximum degree, then smallest clause index.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_CLAUSECOLORING_H
#define WEAVER_CORE_CLAUSECOLORING_H

#include "sat/Cnf.h"

#include <vector>

namespace weaver {
namespace core {

/// Result of colouring a formula's clause conflict graph.
struct ClauseColoring {
  /// Colour of each clause, indexed like Formula.clauses().
  std::vector<int> ColorOf;
  /// Clause indices per colour, each inner list sorted ascending.
  std::vector<std::vector<size_t>> ClausesByColor;

  int numColors() const { return static_cast<int>(ClausesByColor.size()); }

  /// Verifies that no two same-coloured clauses share a variable.
  bool isValid(const sat::CnfFormula &Formula) const;
};

/// Builds the clause conflict adjacency lists: Adj[i] holds, ascending,
/// every clause sharing at least one variable with clause i (Algorithm 1's
/// adjacency matrix, kept sparse via per-variable occurrence lists). A
/// clause repeating a variable carries a self-loop, matching the dense
/// formulation. Shared by both colouring heuristics and the validator.
std::vector<std::vector<size_t>>
buildClauseConflictGraph(const sat::CnfFormula &Formula);

/// Colours \p Formula with the DSatur heuristic.
ClauseColoring colorClausesDSatur(const sat::CnfFormula &Formula);

/// Naive sequential (first-fit in input order) colouring — the ablation
/// baseline for the DSatur choice (DESIGN.md experiment A2).
ClauseColoring colorClausesFirstFit(const sat::CnfFormula &Formula);

} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_CLAUSECOLORING_H
