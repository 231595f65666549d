#!/usr/bin/env python3
"""Build and run the taccd serving benchmark (see servebench/README.md).

One run, from the root of the repository:

    python3 servebench/run.py --workload device_churn --seed 1 --seconds 10 --trace 0

builds taccd and the servebench driver from source into .bench_build (or
$CARGO_TARGET_DIR), runs one workload, and prints two JSON lines on stdout:
the provenance of the run (seed and a hash of every generated stream,
sample counts, the output checks' findings), then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics (the
real taccd binary, untraced); with --trace 1 its per_layer metrics (the
in-process layer ladder), and the socket rung's client spans are written to
.bench_build/spans/<workload>-seed<seed>.csv.

Steadiness mode repeats a run on consecutive seeds and prints, for every
metric, the median and the quartile spread (Q3 - Q1) / median, flagging
spreads above a tenth and above a third of the metric's bound:

    python3 servebench/run.py --workload all --repeat 10 --seed 100 --seconds 10
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("device_churn", "link_churn", "reopt_hotspot")
RUN_TIMEOUT_S = 170
FLAG_SPREAD = 0.10


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures and builds taccd and servebench; returns the bin dir."""
    build_dir = os.path.join(target_dir(), "servebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "servebench", "taccd"],
                   stdout=sys.stderr, check=True)
    return build_dir


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec


def run_once(bin_dir, workload, seed, seconds, trace):
    """One servebench run; returns its JSON report."""
    run_dir = os.path.join(target_dir(), "run", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(bin_dir, "servebench"), "trace" if trace else "e2e",
           f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--rundir={run_dir}"]
    if trace:
        # The socket rung's client spans, one CSV per traced run.
        spans_dir = os.path.join(target_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append("--spans-out=" + os.path.join(
            spans_dir, f"{workload}-seed{seed}.csv"))
    else:
        cmd.append("--taccd=" + os.path.join(bin_dir, "taccd"))
    # Own process group: on a timeout the daemon the driver spawned goes too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: servebench exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: servebench printed nothing")
    return json.loads(lines[-1])


def result_line(report, spec, trace):
    """The final line: exactly the declared metrics of this mode."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = report["metrics"]
    missing = [n for n in names if n not in got]
    if missing:
        raise RuntimeError("servebench did not report " + ", ".join(missing))
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": {n: got[n] for n in names}}


def steadiness(bin_dir, spec, workloads, seed, repeat, seconds, trace):
    bounds = {m["name"]: m.get("bound")
              for m in spec["per_layer" if trace else "end_to_end"]}
    summary = {}
    for workload in workloads:
        values = {}
        for k in range(repeat):
            report = run_once(bin_dir, workload, seed + k, seconds, trace)
            line = result_line(report, spec, trace)
            if not line["correct"]:
                log(f"{workload} seed {seed + k}: INCORRECT "
                    f"{report.get('problems')}")
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed + k}: " + " ".join(
                f"{n}={v['value']:.6g}" for n, v in line["metrics"].items()))
        rows = {}
        print(f"\n{workload} ({repeat} runs, seeds {seed}..{seed + repeat - 1})")
        print(f"  {'metric':34} {'median':>12} {'spread':>8}  flags")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            flags = []
            if spread > FLAG_SPREAD:
                flags.append("spread>0.1")
            bound = bounds.get(name)
            if bound is not None and spread > bound / 3:
                flags.append(f"spread>bound/3({bound / 3:.3f})")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals, "flags": flags}
            print(f"  {name:34} {med:12.6g} {spread:8.4f}  {' '.join(flags)}")
        summary[workload] = rows
    print(json.dumps({"steadiness": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or 'all' with --repeat" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload on seeds "
                             "seed..seed+N-1")
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in WORKLOADS for w in workloads) or args.seconds < 1:
        parser.error("unknown workload or bad --seconds")
    if args.workload == "all" and args.repeat < 1:
        parser.error("--workload all needs --repeat")

    try:
        spec = declared_metrics()
        bin_dir = build()
        if args.repeat > 0:
            if args.repeat < 2:
                parser.error("--repeat needs at least 2 runs")
            steadiness(bin_dir, spec, workloads, args.seed, args.repeat,
                       args.seconds, args.trace == 1)
            return 0
        report = run_once(bin_dir, args.workload, args.seed, args.seconds,
                          args.trace == 1)
        line = result_line(report, spec, args.trace == 1)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError) as error:
        log(f"servebench: {error}")
        return 1
    print(json.dumps({"provenance": report["provenance"],
                      "detail": report["detail"],
                      "problems": report["problems"]}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
