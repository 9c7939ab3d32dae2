//===- tools/ArgReader.h - argv walk shared by the tools --------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The argv walk of every command-line tool. A flag without its value, or
/// a malformed or out-of-range value, is a usage error, never a silent
/// zero: "error: <flag> needs a value" or "error: <flag>: <reason>", then
/// the tool's usage text on stderr, and exit status 1.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_TOOLS_ARGREADER_H
#define WEAVER_TOOLS_ARGREADER_H

#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace weaver {

class ArgReader {
public:
  ArgReader(int Argc, char **Argv, const char *Usage)
      : Argc(Argc), Argv(Argv), Usage(Usage) {}

  /// Advances to the next argument; false once argv is exhausted.
  bool next() { return ++Index < Argc && (Arg = Argv[Index], true); }
  /// The current argument: the flag the value accessors below belong to.
  const std::string &arg() const { return Arg; }

  /// Consumes the current flag's value.
  const char *value() {
    if (Index + 1 < Argc)
      return Argv[++Index];
    std::fprintf(stderr, "error: %s needs a value\n%s", Arg.c_str(), Usage);
    std::exit(1);
  }
  long long intValue(long long Min, long long Max) {
    return checked(Arg, parseInt(value(), Min, Max));
  }
  double doubleValue(double Min, double Max) {
    return checked(Arg, parseDouble(value(), Min, Max));
  }

  /// Returns \p V, or reports its error as a usage error about \p What.
  template <typename T>
  T checked(const std::string &What, Expected<T> V) const {
    if (V)
      return *V;
    std::fprintf(stderr, "error: %s: %s\n%s", What.c_str(),
                 V.message().c_str(), Usage);
    std::exit(1);
  }

private:
  int Argc;
  char **Argv;
  const char *Usage;
  int Index = 0;
  std::string Arg;
};

} // namespace weaver

#endif // WEAVER_TOOLS_ARGREADER_H
