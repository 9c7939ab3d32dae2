//===- tools/oq2_fuzz.cpp - OpenQASM 2 front-end fuzz smoke ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fuzz smoke for the two text front ends, runnable in CI
/// under the sanitizers. For OpenQASM 2, every corpus file must behave as
/// its directory promises (good/ parses, bad/ rejects with a diagnostic),
/// and N seeded random byte-mutations of each good file must never crash
/// the parse -> lower -> recover pipeline. For wQASM, every pinned golden
/// program (tests/data/golden_*.wqasm) must parse and pass the wChecker,
/// and N byte-flip mutants plus N numeral-substitution mutants of each
/// must never crash parseWqasm, or the wChecker and the pulse replay on
/// whatever parses; whatever parses must also print, reparse and reprint
/// to the same bytes. Rejecting is fine, dying is not. Exit status 0 means
/// the contract held.
///
//===----------------------------------------------------------------------===//

#include "ArgReader.h"
#include "core/WChecker.h"
#include "fpqa/Analysis.h"
#include "oq2/Frontend.h"
#include "oq2/QaoaRecover.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

using namespace weaver;

namespace {

const char *Usage =
    "usage: oq2_fuzz [--corpus DIR] [--mutations N] [--seed S]\n"
    "  --corpus DIR   corpus root with good/ and bad/ (default: the\n"
    "                 checked-in tests/data/oq2)\n"
    "  --mutations N  mutants per good file, and per mutator per wQASM\n"
    "                 golden (default 200)\n"
    "  --seed S       PRNG seed (default 1)\n";

std::vector<std::string> listFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    if (Entry.is_regular_file())
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// Runs the whole front end on one input; the return value only says
/// whether it was accepted — any outcome other than a crash is in
/// contract for mutated inputs.
bool pipelineAccepts(const std::string &Source) {
  Expected<circuit::Circuit> C = oq2::parseOq2(Source, "fuzz");
  if (!C)
    return false;
  // Recovery and export must also hold up on whatever parsed.
  (void)oq2::recoverQaoa(*C);
  return true;
}

/// The wQASM counterpart: parse, then run the wChecker and the pulse
/// replay on whatever parsed, which must also print, reparse and reprint
/// to the same bytes (else \p Failures counts it). Returns whether the
/// parser accepted.
bool wqasmAccepts(const std::string &Source, int &Failures) {
  Expected<qasm::WqasmProgram> P = qasm::parseWqasm(Source);
  if (!P)
    return false;
  fpqa::HardwareParams Hw;
  (void)core::checkWqasm(*P, Hw);
  (void)fpqa::analyzePulseProgram(*P, Hw);
  std::string Text = qasm::printWqasm(*P);
  Expected<qasm::WqasmProgram> Back = qasm::parseWqasm(Text);
  if (!Back || qasm::printWqasm(*Back) != Text) {
    std::fprintf(stderr, "FAIL: a parsed wQASM mutant does not round-trip\n");
    ++Failures;
  }
  return true;
}

/// 1-4 byte flips: close enough to valid that the mutant reaches deep
/// into parsing, unlike pure random bytes.
void flipBytes(std::string &Mutant, std::mt19937_64 &Rng) {
  int Flips = 1 + static_cast<int>(Rng() % 4);
  for (int F = 0; F < Flips; ++F)
    Mutant[Rng() % Mutant.size()] = static_cast<char>(Rng() & 0xff);
}

/// The values numeral substitution writes: the bounds of int operands and
/// of the qubit cap, non-integers where indices go, doubles far outside
/// any coordinate or angle, and lengths just off the nanometre lattice or
/// just past the +-1e6 um coordinate bound (2147483.648 um is 2^31 nm).
const char *const HostileNumerals[] = {
    "0",           "-1",           "0.5",         "4095",
    "4096",        "65536",        "2147483647",  "2147483648",
    "-2147483649", "1e300",        "-1e300",      "1e-300",
    "1e400",       "99999999999999999999",        "0.0005",
    "1e3",         "1000000.001",  "-1000000.001", "2147483.648"};

/// Start and length of each numeral in \p Source that is a token of its
/// own (not the digits of an identifier such as u3).
std::vector<std::pair<size_t, size_t>> numeralSpans(std::string_view Source) {
  std::vector<std::pair<size_t, size_t>> Spans;
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  for (size_t I = 0; I < Source.size();) {
    unsigned char C = Source[I];
    if (std::isalpha(C) || C == '_') {
      while (I < Source.size() && IsIdent(Source[I]))
        ++I;
    } else if (size_t Len = scanNumeral(Source.substr(I))) {
      Spans.push_back({I, Len});
      I += Len;
    } else {
      ++I;
    }
  }
  return Spans;
}

/// Replaces 1-3 numerals of \p Mutant with hostile values: the program
/// keeps its shape, so the values reach the checks behind the parser.
void substituteNumerals(std::string &Mutant,
                        const std::vector<std::pair<size_t, size_t>> &Spans,
                        std::mt19937_64 &Rng) {
  std::vector<size_t> Picks(1 + Rng() % 3);
  for (size_t &P : Picks)
    P = Rng() % Spans.size();
  // Back to front, so earlier offsets stay valid.
  std::sort(Picks.rbegin(), Picks.rend());
  Picks.erase(std::unique(Picks.begin(), Picks.end()), Picks.end());
  for (size_t P : Picks) {
    const char *Value = HostileNumerals[Rng() % std::size(HostileNumerals)];
    Mutant.replace(Spans[P].first, Spans[P].second, Value);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Corpus = std::string(WEAVER_GOLDEN_DIR) + "/oq2";
  long long Mutations = 200;
  unsigned long long Seed = 1;
  ArgReader Args(Argc, Argv, Usage);
  while (Args.next()) {
    const std::string &Arg = Args.arg();
    if (Arg == "--corpus")
      Corpus = Args.value();
    else if (Arg == "--mutations")
      Mutations = Args.intValue(0, 1000000);
    else if (Arg == "--seed")
      Seed = static_cast<unsigned long long>(Args.intValue(0, (1LL << 62)));
    else {
      std::fprintf(stderr, "%s", Usage);
      return Arg == "--help" ? 0 : 1;
    }
  }

  int Failures = 0;
  size_t GoodCount = 0, BadCount = 0, Mutants = 0, MutantsAccepted = 0;

  for (const std::string &Path : listFiles(Corpus + "/bad")) {
    Expected<circuit::Circuit> C = oq2::parseOq2File(Path);
    if (C.ok() || C.message().empty()) {
      std::fprintf(stderr, "FAIL: hostile file accepted: %s\n", Path.c_str());
      ++Failures;
    }
    ++BadCount;
  }

  std::mt19937_64 Rng(Seed);
  for (const std::string &Path : listFiles(Corpus + "/good")) {
    std::string Source = readFile(Path);
    if (!pipelineAccepts(Source)) {
      Expected<circuit::Circuit> C = oq2::parseOq2(Source, Path);
      std::fprintf(stderr, "FAIL: good file rejected: %s: %s\n", Path.c_str(),
                   C.message().c_str());
      ++Failures;
    }
    ++GoodCount;
    if (Source.empty())
      continue;
    for (long long M = 0; M < Mutations; ++M) {
      std::string Mutant = Source;
      flipBytes(Mutant, Rng);
      MutantsAccepted += pipelineAccepts(Mutant) ? 1 : 0;
      ++Mutants;
    }
  }

  size_t Goldens = 0, WqasmMutants = 0, WqasmParsed = 0;
  for (const std::string &Path : listFiles(WEAVER_GOLDEN_DIR)) {
    std::filesystem::path Name = std::filesystem::path(Path).filename();
    if (!startsWith(Name.string(), "golden_") || Name.extension() != ".wqasm")
      continue;
    std::string Source = readFile(Path);
    Expected<qasm::WqasmProgram> P = qasm::parseWqasm(Source);
    if (!P) {
      std::fprintf(stderr, "FAIL: golden rejected: %s: %s\n", Path.c_str(),
                   P.message().c_str());
      ++Failures;
    } else if (core::CheckReport R =
                   core::checkWqasm(*P, fpqa::HardwareParams());
               !R.StructuralOk) {
      std::fprintf(stderr, "FAIL: golden fails the wChecker: %s: %s\n",
                   Path.c_str(), R.Diagnostic.c_str());
      ++Failures;
    }
    ++Goldens;
    std::vector<std::pair<size_t, size_t>> Spans = numeralSpans(Source);
    if (Spans.empty())
      continue;
    for (long long M = 0; M < Mutations; ++M) {
      std::string Flipped = Source;
      flipBytes(Flipped, Rng);
      std::string Substituted = Source;
      substituteNumerals(Substituted, Spans, Rng);
      WqasmParsed += wqasmAccepts(Flipped, Failures) ? 1 : 0;
      WqasmParsed += wqasmAccepts(Substituted, Failures) ? 1 : 0;
      WqasmMutants += 2;
    }
  }

  std::printf("oq2_fuzz: %zu bad, %zu good, %zu mutants (%zu still valid)\n"
              "oq2_fuzz: %zu wQASM goldens, %zu mutants (%zu parsed)\n"
              "oq2_fuzz: %d failure(s)\n",
              BadCount, GoodCount, Mutants, MutantsAccepted, Goldens,
              WqasmMutants, WqasmParsed, Failures);
  if (GoodCount == 0 || BadCount == 0) {
    std::fprintf(stderr, "error: corpus at '%s' is missing good/ or bad/\n",
                 Corpus.c_str());
    return 1;
  }
  if (Goldens == 0) {
    std::fprintf(stderr, "error: no golden_*.wqasm under '%s'\n",
                 WEAVER_GOLDEN_DIR);
    return 1;
  }
  return Failures == 0 ? 0 : 1;
}
