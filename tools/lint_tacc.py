#!/usr/bin/env python3
"""Project-rule linter for the tacc repo.

Enforces the conventions clang-tidy cannot express:

  R1  no raw assert() in src/ — use TACC_ASSERT/TACC_REQUIRE/TACC_ENSURE
      (src/util/contracts.hpp) so checks route through the pluggable
      failure handler and compile out consistently.
  R2  no console I/O (std::cout/std::cerr/printf/puts) in src/ — library
      code reports through util::log or return values; only util/log.cpp
      (the sink itself) writes to a stream. Benches/tools/examples are
      exempt: they ARE console programs.
  R3  removed-API call sites: with_failed_links and
      configure_topology_oblivious/configure_deadline_aware finished their
      deprecation cycle and are gone. Any mention in code is forbidden —
      use the in-place mutation path / ConfigureRequest API.
  R4  include hygiene: no uphill-relative includes ("../"), no
      <bits/stdc++.h>, every header starts with #pragma once, and every
      src/ .cpp includes its own header first (self-contained headers).
  R5  NOLINT markers must carry a justification ON THE MARKER LINE:
      "NOLINT(check): reason" / "NOLINTNEXTLINE(check): reason" /
      "NOLINTBEGIN(check): reason". A comment on the following line does
      not count (nothing ties it to the suppression), a bare NOLINT never
      passes, and block-comment markers (/* NOLINT(...) */) are held to
      the same rule. NOLINTEND only needs to name the check(s) it closes.
  R6  src/optimize/ never mutates a DynamicCluster directly: no calls to
      move/move_pinned/join/leave/rebalance/repair/fail_server/
      recover_server/evacuate_server — every optimizer mutation goes
      through DynamicCluster::apply_move_plan(), which re-validates
      against live state and meters the migration budget.
  R7  src/solvers/ and src/optimize/ never reach under the delay oracle:
      no topology/incremental/ includes and no tacc::topo::incr types
      (incr:: qualified names) — all delay queries go through the
      DelayOracle (src/topology/oracle/), so the engine's trees stay an
      implementation detail of the oracle.

Run from the repo root (or via the `lint` CMake target):
    python3 tools/lint_tacc.py [--json] [--root DIR]
Exits 1 if any finding is reported, printing file:line: rule: message —
or, with --json, a machine-readable {"count": N, "findings": [...]} object
(each finding carries file/line/rule/message) for CI annotation tooling.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
SRC_DIRS = ["src"]
ALL_CODE_DIRS = ["src", "bench", "examples", "tools", "tests"]

# R3: symbol -> replacement. These finished their deprecation cycle and were
# deleted; no file may mention them in code (comments are fine — the
# scrubber strips them before matching).
REMOVED_APIS = {
    "with_failed_links": "topo::fail_links/restore_links in place",
    "configure_topology_oblivious":
        "configure({algorithm, options, CostModel::kEuclidean})",
    "configure_deadline_aware":
        "configure({algorithm, options, CostModel::kDeadlinePenalized, "
        "penalty})",
    "LinkDelayModel": "topo::backbone_link/access_link (fixed link model)",
    "build_threads": "nothing: the delay-matrix build is serial",
    "PlannerOptions": "propose_plan(cluster, max_plan_moves, state)",
    "validate_spot_checks":
        "nothing: ReoptOptions::validate runs one spot check",
    "oblivious_instance":
        "gap::build_instance(net, workload, "
        "{.topology_oblivious_costs = true})",
    "SsspUpdateStats": "the std::size_t DynamicSsspTree's hooks return",
    "AttachParams": "build_network's one access link per host",
    "HostSnapshot": "nothing: the engine's dirty set holds routers only",
    "self_keyed_at": "nothing: the engine's dirty set holds routers only",
}

# R2: the logging sink is the one legitimate stream writer in src/.
CONSOLE_IO_ALLOWLIST = {"src/util/log.cpp"}

# Rule scopes (paths relative to the repo root), shared with ast_lint.py.
R1_DIRS = ("src/",)
R1_EXEMPT = ("src/util/contracts.hpp",)
R6_DIRS = ("src/optimize/",)
R7_DIRS = ("src/solvers/", "src/optimize/")

# R6: the mutating methods of tacc::DynamicCluster, banned in R6_DIRS.
CLUSTER_MUTATORS = frozenset({
    "move", "move_pinned", "join", "leave", "rebalance", "repair",
    "fail_server", "recover_server", "evacuate_server",
})
# The receiver is captured so thread handles — e.g. thread_.join() — stay
# exempt.
CLUSTER_MUTATOR = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\.|->)\s*("
    + "|".join(sorted(CLUSTER_MUTATORS)) + r")\s*\(")

RAW_ASSERT = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
CONSOLE_IO = re.compile(
    r"std::(cout|cerr|printf|puts)\b|(?<![A-Za-z0-9_:.])(printf|puts)\s*\(")
UPHILL_INCLUDE = re.compile(r'#\s*include\s*"\.\./')
BITS_INCLUDE = re.compile(r"#\s*include\s*<bits/stdc\+\+\.h>")
INCLUDE_LINE = re.compile(r'#\s*include\s*"([^"]+)"')
# Any clang-tidy suppression marker, in a line or block comment. Groups:
# (1) variant suffix, (2) parenthesized check list incl. parens,
# (3) check list, (4) everything after the marker (the reason must live
# here — on the marker line — so the suppression and its justification
# can never drift apart).
NOLINT = re.compile(
    r"(?://|/\*)\s*NOLINT(NEXTLINE|BEGIN|END)?\b(\(([^)]*)\))?(.*)")


def strip_comments_and_strings(line: str) -> str:
    """Crude single-line scrub: drops // comments and string literals so
    rules don't fire on prose or formatted messages."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"//.*$", "", line)
    return line


def iter_files(root: Path, dirs: list[str],
               suffixes: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for d in dirs:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in suffixes and p.is_file())
    return files


def collect_findings(root: Path) -> list[dict]:
    findings: list[dict] = []

    def report(path: Path, line_no: int, rule: str, message: str) -> None:
        findings.append({
            "file": path.relative_to(root).as_posix(),
            "line": line_no,
            "rule": rule,
            "message": message,
        })

    # ---- src/-only rules (R1, R2, R4 self-include) --------------------------
    for path in iter_files(root, SRC_DIRS, (".cpp", ".hpp")):
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        in_block_comment = False

        for i, raw in enumerate(lines, start=1):
            line = raw
            if in_block_comment:
                if "*/" in line:
                    line = line.split("*/", 1)[1]
                    in_block_comment = False
                else:
                    continue
            if "/*" in line and "*/" not in line:
                in_block_comment = True
                line = line.split("/*", 1)[0]
            code = strip_comments_and_strings(line)

            if rel.startswith(R1_DIRS) and rel not in R1_EXEMPT:
                m = RAW_ASSERT.search(code)
                if m and "static_assert" not in code:
                    report(path, i, "R1",
                           "raw assert() in library code; use TACC_ASSERT/"
                           "TACC_REQUIRE/TACC_ENSURE (util/contracts.hpp)")
            if rel not in CONSOLE_IO_ALLOWLIST and CONSOLE_IO.search(code):
                if "snprintf" not in code:  # bounded formatting, not console IO
                    report(path, i, "R2",
                           "console I/O in library code; report via "
                           "util::log or return values")

            # R6: the re-optimizer only reads the cluster; all mutation
            # goes through apply_move_plan() under the owner's lock.
            if rel.startswith(R6_DIRS):
                for m in CLUSTER_MUTATOR.finditer(code):
                    if "thread" in m.group(1):
                        continue  # std::jthread handle, not a cluster
                    report(path, i, "R6",
                           f"direct DynamicCluster mutation "
                           f"'{m.group(1)}.{m.group(2)}()' in src/optimize/; "
                           "use DynamicCluster::apply_move_plan()")

            # R7: solvers and the optimizer see delays only through the
            # DelayOracle; touching the engine bypasses its rows and epochs.
            if rel.startswith(R7_DIRS):
                if re.search(r'#\s*include\s*"topology/incremental/', raw):
                    report(path, i, "R7",
                           "topology/incremental/ include; use the "
                           "DelayOracle interface (topology/oracle/oracle.hpp)")
                elif re.search(r"\bincr::", code):
                    report(path, i, "R7",
                           "tacc::topo::incr type; query delays through "
                           "DelayOracle (topology/oracle/oracle.hpp)")

        # R4: self-contained headers — a src/ .cpp includes its header first.
        if path.suffix == ".cpp":
            own = rel[len("src/"):-len(".cpp")] + ".hpp"
            if (root / "src" / own).exists():
                first = next((m.group(1) for line in lines
                              if (m := INCLUDE_LINE.match(line.strip()))),
                             None)
                if first != own:
                    report(path, 1, "R4",
                           f'first project include must be own header "{own}" '
                           f'(found {first!r})')

    # ---- Repo-wide rules (R3, R4 includes, R5) ------------------------------
    for path in iter_files(root, ALL_CODE_DIRS, (".cpp", ".hpp")):
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()

        if path.suffix == ".hpp":
            first_code = next((ln.strip() for ln in lines
                               if ln.strip() and not ln.strip().startswith("//")),
                              "")
            if first_code != "#pragma once":
                report(path, 1, "R4", "header must open with #pragma once "
                                      "(after the file comment)")

        for i, raw in enumerate(lines, start=1):
            # Include rules look at the raw line: the string-stripper would
            # erase the quoted include path itself.
            if UPHILL_INCLUDE.search(raw):
                report(path, i, "R4", 'uphill-relative include ("../"); use a '
                                      "root-relative path")
            if BITS_INCLUDE.search(raw):
                report(path, i, "R4", "<bits/stdc++.h> is non-standard")
            code = strip_comments_and_strings(raw)

            for symbol, replacement in REMOVED_APIS.items():
                if symbol in code:
                    report(path, i, "R3",
                           f"{symbol} was removed; use {replacement}")

            m = NOLINT.search(raw)
            if m:
                variant = m.group(1) or ""
                marker = "NOLINT" + variant
                checks = m.group(3)
                reason = (m.group(4) or "").strip().lstrip(":").strip()
                if reason.endswith("*/"):
                    reason = reason[:-2].strip()  # block-comment close
                if variant == "END":
                    # NOLINTEND closes a range; the justification lives on
                    # the matching NOLINTBEGIN. It must still name the
                    # check(s) so ranges can't silently widen.
                    if not checks:
                        report(path, i, "R5",
                               "NOLINTEND must name the check(s) it closes")
                elif not checks:
                    report(path, i, "R5",
                           f"bare {marker}; name the check: "
                           f"{marker}(check): why")
                elif not reason:
                    report(path, i, "R5",
                           f"{marker}({checks}) without a justification on "
                           "the marker line (a comment on the following "
                           "line does not count)")

    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description="tacc project-rule linter")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable JSON findings")
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: the repo root)")
    args = parser.parse_args()
    root = Path(args.root).resolve() if args.root else DEFAULT_ROOT

    findings = collect_findings(root)
    if args.as_json:
        print(json.dumps({"count": len(findings), "findings": findings},
                         indent=2))
        return 1 if findings else 0
    if findings:
        print(f"lint_tacc: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f['file']}:{f['line']}: {f['rule']}: {f['message']}")
        return 1
    print("lint_tacc: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
