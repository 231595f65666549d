#!/usr/bin/env python3
"""Validate BENCH_*.json perf artifacts against schema_version 1.

Usage:
    check_bench_json.py FILE_OR_DIR [FILE_OR_DIR ...] [--require-gates-pass]

A directory argument expands to every BENCH_*.json directly inside it.
Exit 0 when every file validates (and, with --require-gates-pass, every
gate in every file passed); exit 1 with one line per violation otherwise;
exit 2 on usage errors or unreadable files.

Schema (written by bench::BenchReport in bench/bench_common.hpp):
    {
      "schema_version": 1,
      "bench": "m2_churn",          # matches the BENCH_<bench>.json filename
      "provider": "steady",         # workload spec, "" for static benches
      "seed": 1000,
      "quick": true,
      "git_describe": "abc1234",
      "metrics": {"<key>": <finite number>, ...},
      "gates": [{"name": "...", "passed": true}, ...]
    }

Per-bench requirements (beyond the generic schema):
    m3_serve must record the engine shard-scaling curve: at least two
    rps_shards_<k> metrics (positive, integer k), a shard_scaling metric
    equal to rps at the largest shard count over rps at the smallest, and
    a shard_scaling gate.
    m5_reopt must record the re-optimizer contract: non-negative
    reopt_gap_pct and reopt_cpu_ratio metrics, a reopt_gap gate, a
    reopt_cpu gate on full runs (quick runs skip the timing gate), and
    the reopt_invariants + soak_accounting gates from the engine soak.
    m6_oracle must record the exact delay oracle measured at scale:
    positive engine_scratch_bytes, engine_scratch_build_bytes,
    oracle_resident_bytes, exact_resident_bytes, engine_build_ms, bind_ms,
    reweight_median_ms and reweight_max_ms metrics, a non-negative
    dirty_keys_per_reweight, and the engine_memory + engine_build +
    scale_free_reweight + rows_bit_exact gates.
"""

import json
import math
import pathlib
import sys


def check_file(path: pathlib.Path, require_gates_pass: bool) -> list[str]:
    problems = []

    def bad(msg: str) -> None:
        problems.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        return [f"{path}: unreadable or invalid JSON: {err}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]

    expected_keys = {
        "schema_version", "bench", "provider", "seed", "quick",
        "git_describe", "metrics", "gates",
    }
    missing = expected_keys - doc.keys()
    if missing:
        bad(f"missing keys: {sorted(missing)}")
    extra = doc.keys() - expected_keys
    if extra:
        bad(f"unknown keys: {sorted(extra)}")

    if doc.get("schema_version") != 1:
        bad(f"schema_version is {doc.get('schema_version')!r}, expected 1")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        bad("'bench' must be a non-empty string")
    elif path.name != f"BENCH_{bench}.json":
        bad(f"'bench' is {bench!r} but the file is named {path.name}")
    if not isinstance(doc.get("provider"), str):
        bad("'provider' must be a string")
    if not isinstance(doc.get("seed"), int) or isinstance(doc.get("seed"), bool):
        bad("'seed' must be an integer")
    if not isinstance(doc.get("quick"), bool):
        bad("'quick' must be a boolean")
    if not isinstance(doc.get("git_describe"), str) or not doc.get("git_describe"):
        bad("'git_describe' must be a non-empty string")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        bad("'metrics' must be an object")
    else:
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                bad(f"metric {key!r} is not a number: {value!r}")
            elif not math.isfinite(value):
                bad(f"metric {key!r} is not finite: {value!r}")

    gates = doc.get("gates")
    if not isinstance(gates, list):
        bad("'gates' must be an array")
    else:
        for i, gate in enumerate(gates):
            if (not isinstance(gate, dict)
                    or set(gate.keys()) != {"name", "passed"}
                    or not isinstance(gate.get("name"), str)
                    or not isinstance(gate.get("passed"), bool)):
                bad(f"gate[{i}] must be {{'name': str, 'passed': bool}}: "
                    f"{gate!r}")
            elif require_gates_pass and not gate["passed"]:
                bad(f"gate {gate['name']!r} failed")

    if bench == "m3_serve" and isinstance(metrics, dict):
        problems.extend(check_shard_curve(path, metrics, gates))
    if bench == "m5_reopt" and isinstance(metrics, dict):
        problems.extend(check_reopt_contract(path, doc, metrics, gates))
    if bench == "m6_oracle" and isinstance(metrics, dict):
        problems.extend(check_oracle_contract(path, metrics, gates))

    return problems


def check_oracle_contract(path: pathlib.Path, metrics: dict,
                          gates) -> list[str]:
    """m6_oracle: the exact oracle's measured memory and time at scale."""
    problems = []

    def bad(msg: str) -> None:
        problems.append(f"{path}: {msg}")

    for key in ("engine_scratch_bytes", "engine_scratch_build_bytes",
                "oracle_resident_bytes", "exact_resident_bytes",
                "engine_build_ms", "bind_ms", "reweight_median_ms",
                "reweight_max_ms", "dirty_keys_per_reweight"):
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            bad(f"m6_oracle must record a numeric {key} metric")
        elif value < 0 or (value == 0 and key != "dirty_keys_per_reweight"):
            bad(f"metric {key!r} must be positive, got {value!r}")

    gate_names = {g.get("name") for g in gates if isinstance(g, dict)} \
        if isinstance(gates, list) else set()
    required = {"engine_memory", "engine_build", "scale_free_reweight",
                "rows_bit_exact"}
    for name in sorted(required - gate_names):
        bad(f"m6_oracle must gate on {name}")

    return problems


def check_reopt_contract(path: pathlib.Path, doc: dict, metrics: dict,
                         gates) -> list[str]:
    """m5_reopt: the re-optimizer gap/CPU contract must be recorded."""
    problems = []

    def bad(msg: str) -> None:
        problems.append(f"{path}: {msg}")

    for key in ("reopt_gap_pct", "reopt_cpu_ratio"):
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            bad(f"m5_reopt must record a numeric {key} metric")
        elif value < 0:
            bad(f"metric {key!r} must be non-negative, got {value!r}")

    gate_names = {g.get("name") for g in gates if isinstance(g, dict)} \
        if isinstance(gates, list) else set()
    required = {"reopt_gap", "soak_accounting", "reopt_invariants"}
    if doc.get("quick") is not True:
        required.add("reopt_cpu")  # timing gate is skipped under --quick
    for name in sorted(required - gate_names):
        bad(f"m5_reopt must gate on {name}")

    return problems


def check_shard_curve(path: pathlib.Path, metrics: dict,
                      gates) -> list[str]:
    """m3_serve: the shard-scaling curve must be recorded and coherent."""
    problems = []

    def bad(msg: str) -> None:
        problems.append(f"{path}: {msg}")

    curve = {}
    for key, value in metrics.items():
        if not key.startswith("rps_shards_"):
            continue
        suffix = key[len("rps_shards_"):]
        if not suffix.isdigit() or int(suffix) == 0:
            bad(f"metric {key!r} has a non-integer shard count")
            continue
        if not isinstance(value, (int, float)) or value <= 0:
            bad(f"metric {key!r} must be a positive rps, got {value!r}")
            continue
        curve[int(suffix)] = value

    if len(curve) < 2:
        bad("m3_serve must record rps_shards_<k> for at least two shard "
            f"counts, found {sorted(curve)}")
        return problems

    scaling = metrics.get("shard_scaling")
    if not isinstance(scaling, (int, float)):
        bad("m3_serve must record a numeric shard_scaling metric")
    else:
        expected = curve[max(curve)] / curve[min(curve)]
        if not math.isclose(scaling, expected, rel_tol=1e-6):
            bad(f"shard_scaling is {scaling} but rps_shards_{max(curve)} / "
                f"rps_shards_{min(curve)} = {expected}")

    gate_names = {g.get("name") for g in gates if isinstance(g, dict)} \
        if isinstance(gates, list) else set()
    if "shard_scaling" not in gate_names:
        bad("m3_serve must gate on shard_scaling")

    return problems


def main(argv: list[str]) -> int:
    require_gates_pass = "--require-gates-pass" in argv
    paths = [a for a in argv if a != "--require-gates-pass"]
    if not paths:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2

    files: list[pathlib.Path] = []
    for arg in paths:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("BENCH_*.json")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"check_bench_json: no such file or directory: {p}",
                  file=sys.stderr)
            return 2
    if not files:
        print("check_bench_json: no BENCH_*.json files found", file=sys.stderr)
        return 2

    problems = []
    for f in files:
        problems.extend(check_file(f, require_gates_pass))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"check_bench_json: {len(files)} artifact(s) valid")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
