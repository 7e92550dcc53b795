// gorilla_lint — self-hosted static checks for the gorilla tree.
//
// v2: the analysis moved into the tools/lint library — a real C++ lexer
// (raw strings, digit separators, encoding prefixes), the single-file
// rules, the include-graph pass (layer-break / layer-cycle against the
// DESIGN §3f DAG), and the stale-waiver pass — with parallel per-file
// analysis, a content-hash cache, and JSON output. This file
// is only the CLI entry point; run with no arguments for usage, and see
// DESIGN.md "Static analysis v2" for the rule catalogue.
#include <string>
#include <vector>

#include "tools/lint/lint.h"

int main(int argc, char** argv) {
  return gorilla::lint::run_cli(
      std::vector<std::string>(argv + 1, argv + argc));
}
