//===- sat/Dimacs.cpp - DIMACS CNF reader and writer ---------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "sat/Dimacs.h"

#include "support/StringUtils.h"

#include <charconv>
#include <fstream>
#include <sstream>

using namespace weaver;
using namespace weaver::sat;

Expected<CnfFormula> sat::parseDimacs(std::string_view Text,
                                      const DimacsLimits &Limits) {
  int NumVars = -1;
  size_t NumClausesDeclared = 0;
  std::vector<Clause> Clauses;
  std::vector<Literal> Current;

  for (std::string_view RawLine : split(Text, '\n', /*KeepEmpty=*/true)) {
    std::string_view Line = trim(RawLine);
    if (Line.empty() || Line[0] == 'c' || Line[0] == '%')
      continue;
    // SATLIB files end with a lone "0" after a "%" marker; tolerate it.
    if (NumVars >= 0 && Line == "0")
      continue;
    if (Line[0] == 'p') {
      auto Fields = split(Line, ' ');
      if (Fields.size() != 4 || Fields[1] != "cnf")
        return Expected<CnfFormula>::error("malformed DIMACS problem line: '" +
                                           std::string(Line) + "'");
      int DeclaredClauses = 0;
      auto R1 = std::from_chars(Fields[2].data(),
                                Fields[2].data() + Fields[2].size(), NumVars);
      auto R2 = std::from_chars(Fields[3].data(),
                                Fields[3].data() + Fields[3].size(),
                                DeclaredClauses);
      if (R1.ec != std::errc() || R2.ec != std::errc() ||
          R1.ptr != Fields[2].data() + Fields[2].size() ||
          R2.ptr != Fields[3].data() + Fields[3].size() || NumVars < 0 ||
          DeclaredClauses < 0)
        return Expected<CnfFormula>::error(
            "invalid counts in DIMACS problem line");
      if (NumVars > Limits.MaxVariables)
        return Expected<CnfFormula>::error(
            "declared variable count " + std::to_string(NumVars) +
            " exceeds limit " + std::to_string(Limits.MaxVariables));
      if (static_cast<size_t>(DeclaredClauses) > Limits.MaxClauses)
        return Expected<CnfFormula>::error(
            "declared clause count " + std::to_string(DeclaredClauses) +
            " exceeds limit " + std::to_string(Limits.MaxClauses));
      NumClausesDeclared = static_cast<size_t>(DeclaredClauses);
      continue;
    }
    if (NumVars < 0)
      return Expected<CnfFormula>::error(
          "clause data before DIMACS problem line");
    for (std::string_view Tok : split(Line, ' ')) {
      int Lit = 0;
      auto R = std::from_chars(Tok.data(), Tok.data() + Tok.size(), Lit);
      // Whole-token match: "12x", embedded NUL bytes, and overflowing
      // values are all hostile input, not literal 12.
      if (R.ec != std::errc() || R.ptr != Tok.data() + Tok.size())
        return Expected<CnfFormula>::error("invalid literal token: '" +
                                           std::string(Tok) + "'");
      if (Lit == 0) {
        if (Clauses.size() >= Limits.MaxClauses)
          return Expected<CnfFormula>::error(
              "clause count exceeds limit " +
              std::to_string(Limits.MaxClauses));
        Clauses.push_back(Clause(Current));
        Current.clear();
        continue;
      }
      // Both bounds, not std::abs(Lit): that overflows on INT_MIN.
      if (Lit < -NumVars || Lit > NumVars)
        return Expected<CnfFormula>::error(
            "literal " + std::to_string(Lit) +
            " out of declared variable range " + std::to_string(NumVars));
      if (Current.size() >= Limits.MaxClauseLiterals)
        return Expected<CnfFormula>::error(
            "clause literal count exceeds limit " +
            std::to_string(Limits.MaxClauseLiterals));
      Current.push_back(Literal(Lit));
    }
  }
  if (!Current.empty())
    return Expected<CnfFormula>::error(
        "unterminated clause at end of DIMACS input");
  if (NumVars < 0)
    return Expected<CnfFormula>::error("missing DIMACS problem line");
  if (NumClausesDeclared != 0 && Clauses.size() != NumClausesDeclared)
    return Expected<CnfFormula>::error(
        "clause count mismatch: declared " +
        std::to_string(NumClausesDeclared) + ", found " +
        std::to_string(Clauses.size()));
  return CnfFormula(NumVars, std::move(Clauses));
}

Expected<CnfFormula> sat::parseDimacsFile(const std::string &Path,
                                          const DimacsLimits &Limits) {
  std::ifstream In(Path);
  if (!In)
    return Expected<CnfFormula>::error("cannot open DIMACS file: " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  auto Result = parseDimacs(Buf.str(), Limits);
  if (Result)
    Result->setName(Path);
  return Result;
}

std::string sat::printDimacs(const CnfFormula &Formula) {
  std::string Out;
  if (!Formula.name().empty())
    Out += "c " + Formula.name() + "\n";
  Out += "p cnf " + std::to_string(Formula.numVariables()) + " " +
         std::to_string(Formula.numClauses()) + "\n";
  for (const Clause &C : Formula.clauses()) {
    for (Literal L : C)
      Out += std::to_string(L.dimacs()) + " ";
    Out += "0\n";
  }
  return Out;
}
