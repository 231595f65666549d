#!/usr/bin/env python3
"""Self-test for the project linters (tools/lint_tacc.py + tools/ast_lint.py).

Builds a throwaway source tree with seeded rule violations and asserts the
linters classify every case correctly:

  1. lint_tacc R1/R2/R3/R4 smoke cases fire, and the --json schema is
     exactly {count, findings:[{file,line,rule,message}]}.
  2. The R5 marker-line discipline: a bare NOLINTNEXTLINE whose
     justification sits on the FOLLOWING line is flagged (the false
     negative this rule exists to close), reasons on the marker line pass,
     block-comment markers are checked, NOLINTEND must name its checks.
  3. R7: a tacc::topo::incr include + type in src/solvers/ is flagged by
     the regex linter, but an aliased IncrementalDelayEngine access
     (`auto& engine = provider.engine(); engine.refresh();`) that never
     spells an incr:: name is INVISIBLE to it — and
     detected by ast_lint.py when libclang is available. Same for an R6
     mutation through a temporary (`provider.cluster().join(...)`).

The ast_lint half degrades gracefully: without libclang it prints a skip
notice and the test still passes (the regex-side assertions always run).

Run directly or via ctest (registered as `lint_selftest`).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PYTHON = sys.executable

CHECKS_PASSED = 0


def check(condition: bool, label: str) -> None:
    global CHECKS_PASSED
    if not condition:
        print(f"lint_selftest: FAIL: {label}")
        sys.exit(1)
    CHECKS_PASSED += 1
    print(f"lint_selftest: ok: {label}")


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def run_lint(root: Path) -> dict:
    proc = subprocess.run(
        [PYTHON, str(TOOLS / "lint_tacc.py"), "--json", "--root", str(root)],
        capture_output=True, text=True, check=False)
    return json.loads(proc.stdout)


def rules_at(result: dict, rel: str) -> set[str]:
    return {f["rule"] for f in result["findings"] if f["file"] == rel}


def seed_tree(root: Path) -> None:
    # Minimal real-ish classes so the ast_lint cases parse as a TU.
    write(root, "src/topology/incremental/engine.hpp", """\
#pragma once
namespace tacc::topo::incr {
class IncrementalDelayEngine {
 public:
  void refresh() {}
  [[nodiscard]] double delay_ms(int, int) const { return 0.0; }
};
}  // namespace tacc::topo::incr
""")
    write(root, "src/core/dynamic.hpp", """\
#pragma once
namespace tacc {
class DynamicCluster {
 public:
  void join() {}
  void leave(int) {}
};
}  // namespace tacc
""")
    write(root, "src/core/provider.hpp", """\
#pragma once
#include "core/dynamic.hpp"
#include "topology/incremental/engine.hpp"
namespace tacc::core {
class Provider {
 public:
  [[nodiscard]] topo::incr::IncrementalDelayEngine& engine() {
    return engine_;
  }
  [[nodiscard]] DynamicCluster& cluster() { return cluster_; }
 private:
  topo::incr::IncrementalDelayEngine engine_;
  DynamicCluster cluster_;
};
}  // namespace tacc::core
""")
    # R1: raw assert in library code.
    write(root, "src/util/asserting.cpp", """\
#include <cassert>
namespace tacc::util {
void guard(int x) { assert(x > 0); }
}  // namespace tacc::util
""")
    # R2 + R3: console I/O and a removed API mention.
    write(root, "src/util/chatty.cpp", """\
#include <iostream>
namespace tacc::util {
void chatty() { std::cout << "hi"; }
void legacy() { /* code, not comment: */ int with_failed_links = 0;
                (void)with_failed_links; }
}  // namespace tacc::util
""")
    # R4: missing #pragma once.
    write(root, "src/util/no_pragma.hpp", """\
namespace tacc::util {}
""")
    # R5 cases, one file per verdict so assertions stay line-independent.
    write(root, "src/util/r5_bare_nextline.hpp", """\
#pragma once
// NOLINTNEXTLINE
// The justification on this following line must NOT satisfy R5.
inline int r5a() { return 1; }
""")
    write(root, "src/util/r5_no_reason.hpp", """\
#pragma once
inline int r5b() { return 1; }  // NOLINT(bugprone-foo)
""")
    write(root, "src/util/r5_block_no_reason.hpp", """\
#pragma once
inline int r5c() { return 1; }  /* NOLINT(bugprone-foo) */
""")
    write(root, "src/util/r5_bare_end.hpp", """\
#pragma once
// NOLINTBEGIN(bugprone-foo): scoped suppression with a reason
inline int r5d() { return 1; }
// NOLINTEND
""")
    write(root, "src/util/r5_clean.hpp", """\
#pragma once
inline int r5e() { return 1; }  // NOLINT(bugprone-foo): justified here
// NOLINTNEXTLINE(bugprone-bar): also justified on the marker line
inline int r5f() { return 2; }
// NOLINTBEGIN(bugprone-baz): reason for the range
inline int r5g() { return 3; }
// NOLINTEND(bugprone-baz)
""")
    # R7, spelled out: an incremental-engine include and an incr:: type.
    write(root, "src/solvers/direct.cpp", """\
#include "topology/incremental/engine.hpp"
namespace tacc::solvers {
double peek(topo::incr::IncrementalDelayEngine& engine) {
  return engine.delay_ms(0, 0);
}
}  // namespace tacc::solvers
""")
    # R7 regex blind spot: no incr:: name appears in this file; the only
    # route to the engine is through auto-deduced references. R6 blind spot:
    # the mutator's receiver is a temporary-returning call, which the
    # receiver-identifier regex cannot see.
    write(root, "src/optimize/aliased.cpp", """\
#include "core/provider.hpp"
namespace tacc::opt {
double touch(core::Provider& provider) {
  auto& engine = provider.engine();
  engine.refresh();
  provider.cluster().join();
  return engine.delay_ms(0, 0);
}
}  // namespace tacc::opt
""")
    build = root / "build"
    build.mkdir(parents=True, exist_ok=True)
    (build / "compile_commands.json").write_text(json.dumps([{
        "directory": str(root),
        "file": str(root / "src/optimize/aliased.cpp"),
        "arguments": ["clang++", "-std=c++20", f"-I{root}/src", "-c",
                      str(root / "src/optimize/aliased.cpp")],
    }, {
        "directory": str(root),
        "file": str(root / "src/util/asserting.cpp"),
        "arguments": ["clang++", "-std=c++20", f"-I{root}/src", "-c",
                      str(root / "src/util/asserting.cpp")],
    }]), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tacc_lint_selftest_") as tmp:
        root = Path(tmp)
        seed_tree(root)
        result = run_lint(root)

        # --json schema.
        check(set(result.keys()) == {"count", "findings"},
              "--json object has exactly {count, findings}")
        check(result["count"] == len(result["findings"]),
              "--json count matches findings length")
        check(all(set(f.keys()) == {"file", "line", "rule", "message"}
                  and isinstance(f["line"], int)
                  for f in result["findings"]),
              "--json findings carry file/line/rule/message")

        # Core rules fire.
        check("R1" in rules_at(result, "src/util/asserting.cpp"),
              "R1 flags a raw assert()")
        check("R2" in rules_at(result, "src/util/chatty.cpp"),
              "R2 flags console I/O in src/")
        check("R3" in rules_at(result, "src/util/chatty.cpp"),
              "R3 flags a removed-API mention")
        check("R4" in rules_at(result, "src/util/no_pragma.hpp"),
              "R4 flags a header without #pragma once")
        direct_r7 = [f["line"] for f in result["findings"]
                     if f["file"] == "src/solvers/direct.cpp"
                     and f["rule"] == "R7"]
        check(direct_r7 == [1, 3],
              "R7 flags an incremental-engine include and an incr:: type "
              "in src/solvers/")

        # R5 marker-line discipline.
        check("R5" in rules_at(result, "src/util/r5_bare_nextline.hpp"),
              "R5 flags bare NOLINTNEXTLINE with the reason on the next "
              "line (the closed false negative)")
        check("R5" in rules_at(result, "src/util/r5_no_reason.hpp"),
              "R5 flags NOLINT(check) without a reason")
        check("R5" in rules_at(result, "src/util/r5_block_no_reason.hpp"),
              "R5 flags /* NOLINT(check) */ without a reason")
        check("R5" in rules_at(result, "src/util/r5_bare_end.hpp"),
              "R5 flags NOLINTEND without named checks")
        check(rules_at(result, "src/util/r5_clean.hpp") == set(),
              "R5 passes justified markers (line, NEXTLINE, BEGIN/END)")

        # The regex linter is blind to the aliased engine access and
        # the temporary-receiver mutation — that blindness is the reason
        # ast_lint exists, so assert it explicitly.
        check(rules_at(result, "src/optimize/aliased.cpp") == set(),
              "regex R6/R7 miss aliased access (documented blind spot)")

        # ast_lint catches both — when libclang is available.
        proc = subprocess.run(
            [PYTHON, str(TOOLS / "ast_lint.py"), "--root", str(root),
             "-p", str(root / "build"), "--json"],
            capture_output=True, text=True, check=False)
        ast = json.loads(proc.stdout)
        if ast.get("skipped"):
            print("lint_selftest: NOTICE: ast_lint half skipped — "
                  "libclang unavailable on this machine")
        else:
            aliased = {(f["rule"]) for f in ast["findings"]
                       if f["file"] == "src/optimize/aliased.cpp"}
            check("R7" in aliased,
                  "ast_lint R7 catches the aliased IncrementalDelayEngine "
                  "access")
            check("R6" in aliased,
                  "ast_lint R6 catches the temporary-receiver mutation")
            asserting = {(f["rule"]) for f in ast["findings"]
                         if f["file"] == "src/util/asserting.cpp"}
            check("R1" in asserting,
                  "ast_lint R1 catches the expanded __assert_fail call")

    print(f"lint_selftest: PASS ({CHECKS_PASSED} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
