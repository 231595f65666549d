#!/usr/bin/env python3
"""AST-accurate project lint for the tacc repo (libclang).

Re-implements the project rules that regexes cannot enforce reliably as
real AST checks over compile_commands.json:

  R1  no raw assert() in src/ — after preprocessing a raw assert() is a
      call to __assert_fail (glibc) / __assert_rtn (macOS), which survives
      any amount of wrapping or macro indirection that hides the token
      `assert` from tools/lint_tacc.py.
  R6  src/optimize/ never mutates a DynamicCluster directly: flags any
      call whose *referenced declaration* is a mutating method of
      tacc::DynamicCluster (move/join/leave/fail_server/...), no matter
      what the receiver expression looks like — `cluster_->join(...)`,
      `auto& c = *cluster_; c.join(...)`, and calls through references
      all resolve to the same method declaration.
  R7  src/solvers/ and src/optimize/ never reach under the delay oracle:
      flags any expression whose (canonical) type — or whose referenced
      declaration — lives in namespace tacc::topo::incr. Catches aliased
      access (`auto& engine = provider.engine(); engine.refresh();`) where
      no incr:: name or include appears in the file and the regex rule is
      blind.

Usage (from the repo root, after a cmake configure that wrote
compile_commands.json):
    python3 tools/ast_lint.py [-p build] [--root .] [--json] [--strict]

Graceful degradation: when the clang Python bindings or the libclang
shared library are unavailable the linter prints a skip notice and exits 0
(so the `lint` target works on machines without clang); pass --strict to
turn that skip into a failure (CI does, after installing clang).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path

# The R6 mutator list and every rule's directory scope are defined once, in
# lint_tacc.py beside this script.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_tacc import (  # noqa: E402
    CLUSTER_MUTATORS, R1_DIRS, R1_EXEMPT, R6_DIRS, R7_DIRS)

R7_NAMESPACE = "tacc::topo::incr"

ASSERT_CALLEES = {"__assert_fail", "__assert_rtn", "__assert", "_assert"}


def load_cindex():
    """Returns a usable clang.cindex module or None, probing common
    libclang install locations when the default resolution fails."""
    try:
        from clang import cindex
    except ImportError:
        return None
    candidates = [None]  # None = the binding's own default
    for pattern in (
        "/usr/lib/llvm-*/lib/libclang.so.1",
        "/usr/lib/llvm-*/lib/libclang-*.so.1",
        "/usr/lib/x86_64-linux-gnu/libclang-*.so.1",
        "/usr/lib/libclang.so*",
    ):
        candidates.extend(sorted(glob.glob(pattern), reverse=True))
    for candidate in candidates:
        try:
            if candidate is not None:
                cindex.Config.library_file = candidate
            cindex.Index.create()
            return cindex
        except Exception:  # noqa: BLE001 - any load failure means "try next"
            # Config is sticky once a library loaded; retry needs a reset.
            cindex.Config.loaded = False
            continue
    return None


def qualified_name(cursor) -> str:
    """Fully qualified name of a declaration cursor (namespaces + classes)."""
    parts: list[str] = []
    c = cursor
    while c is not None and c.kind is not None:
        if c.kind.name == "TRANSLATION_UNIT":
            break
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


class AstLinter:
    def __init__(self, root: Path):
        self.root = root
        # (rel_file, line, rule) -> message; dedupes across the many TUs
        # that include the same header.
        self.findings: dict[tuple[str, int, str], str] = {}

    def relpath(self, cursor) -> str | None:
        location = cursor.location
        if location.file is None:
            return None
        try:
            path = Path(location.file.name).resolve()
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return None  # outside the repo (system headers)

    def report(self, cursor, rule: str, message: str) -> None:
        rel = self.relpath(cursor)
        if rel is None:
            return
        self.findings.setdefault((rel, cursor.location.line, rule), message)

    def check_cursor(self, cursor, rel: str) -> None:
        kind = cursor.kind.name

        # R1: a raw assert() expands to a branch calling __assert_fail.
        if (rel.startswith(R1_DIRS) and rel not in R1_EXEMPT
                and kind in ("CALL_EXPR", "DECL_REF_EXPR")
                and cursor.spelling in ASSERT_CALLEES):
            self.report(cursor, "R1",
                        "raw assert() (expands to a call to "
                        f"{cursor.spelling}); use TACC_ASSERT/TACC_REQUIRE/"
                        "TACC_ENSURE (util/contracts.hpp)")

        # R6: any reference to a mutating method declared on DynamicCluster,
        # regardless of the receiver expression's spelling.
        if rel.startswith(R6_DIRS):
            referenced = cursor.referenced
            if (referenced is not None
                    and referenced.kind.name == "CXX_METHOD"
                    and referenced.spelling in CLUSTER_MUTATORS):
                parent = referenced.semantic_parent
                if parent is not None and qualified_name(parent).endswith(
                        "tacc::DynamicCluster"):
                    self.report(
                        cursor, "R6",
                        f"call resolves to tacc::DynamicCluster::"
                        f"{referenced.spelling}(); optimizer mutations must "
                        "go through DynamicCluster::apply_move_plan()")

        # R7: any expression typed as, or referring to a declaration in,
        # namespace tacc::topo::incr.
        if rel.startswith(R7_DIRS):
            hit = False
            if cursor.type is not None:
                hit = (R7_NAMESPACE + "::"
                       in cursor.type.get_canonical().spelling)
            referenced = cursor.referenced
            if not hit and referenced is not None:
                name = qualified_name(referenced)
                hit = (name == R7_NAMESPACE
                       or name.startswith(R7_NAMESPACE + "::"))
            if hit:
                self.report(
                    cursor, "R7",
                    "expression touches tacc::topo::incr; query delays "
                    "through the DelayOracle interface "
                    "(topology/oracle/oracle.hpp)")

    def walk(self, cursor) -> None:
        for child in cursor.walk_preorder():
            rel = self.relpath(child)
            if rel is None:
                continue
            self.check_cursor(child, rel)


def tu_compile_args(command) -> list[str]:
    """Extracts the flags libclang needs from one compile command (drops the
    compiler argv[0], the input file, and output/dep artifacts)."""
    raw = list(command.arguments)
    args: list[str] = []
    skip_next = False
    source = command.filename
    for token in raw[1:]:
        if skip_next:
            skip_next = False
            continue
        if token in ("-o", "-MF", "-MT", "-MQ", "--output"):
            skip_next = True
            continue
        if token in ("-c", "-MD", "-MMD", "-MP"):
            continue
        if token == source or token.endswith(Path(source).name):
            continue
        args.append(token)
    return args


def run(root: Path, build_dir: Path, strict: bool,
        as_json: bool) -> int:
    cindex = load_cindex()
    if cindex is None:
        notice = ("ast_lint: SKIPPED — clang Python bindings / libclang not "
                  "available (install python3-clang + libclang to enable the "
                  "AST checks)")
        if as_json:
            print(json.dumps({"skipped": True, "findings": [],
                              "notice": notice}))
        else:
            print(notice)
        return 1 if strict else 0

    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        notice = (f"ast_lint: SKIPPED — no compile_commands.json in "
                  f"{build_dir} (configure with "
                  "CMAKE_EXPORT_COMPILE_COMMANDS=ON)")
        if as_json:
            print(json.dumps({"skipped": True, "findings": [],
                              "notice": notice}))
        else:
            print(notice)
        return 1 if strict else 0

    database = cindex.CompilationDatabase.fromDirectory(str(build_dir))
    index = cindex.Index.create()
    linter = AstLinter(root)

    sources: list = []
    for command in database.getAllCompileCommands():
        source = Path(command.filename)
        if not source.is_absolute():
            source = Path(command.directory) / source
        source = source.resolve()
        try:
            rel = source.relative_to(root).as_posix()
        except ValueError:
            continue
        if rel.startswith("src/"):
            sources.append((source, command))

    parse_failures = 0
    for source, command in sources:
        try:
            tu = index.parse(str(source), args=tu_compile_args(command))
        except cindex.TranslationUnitLoadError:
            parse_failures += 1
            continue
        linter.walk(tu.cursor)

    findings = [
        {"file": file, "line": line, "rule": rule, "message": message}
        for (file, line, rule), message in sorted(linter.findings.items())
    ]
    if as_json:
        print(json.dumps({"skipped": False, "findings": findings,
                          "translation_units": len(sources),
                          "parse_failures": parse_failures}, indent=2))
    else:
        if findings:
            print(f"ast_lint: {len(findings)} finding(s) across "
                  f"{len(sources)} translation units")
            for f in findings:
                print(f"  {f['file']}:{f['line']}: {f['rule']}: "
                      f"{f['message']}")
        else:
            print(f"ast_lint: clean ({len(sources)} translation units"
                  + (f", {parse_failures} parse failures" if parse_failures
                     else "") + ")")
    if parse_failures and strict:
        print(f"ast_lint: {parse_failures} translation unit(s) failed to "
              "parse (--strict treats this as an error)", file=sys.stderr)
        return 1
    return 1 if findings else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-p", "--build-dir", default="build",
                        help="directory containing compile_commands.json")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON findings")
    parser.add_argument("--strict", action="store_true",
                        help="fail instead of skipping when libclang or the "
                             "compile database is unavailable")
    args = parser.parse_args()

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)
    build_dir = Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    return run(root, build_dir, args.strict, args.as_json)


if __name__ == "__main__":
    sys.exit(main())
