"""Benchmark of isaacslab: three workloads timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form measures one workload and prints, as its last line, one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  The second runs every workload untraced and
traced and prints all metrics as a table.  Metric names and units come
from ``BENCHMARK.json``; see ``perfbench/README.md`` for what they mean.

Each run starts fresh interpreters: set-up probes that only import,
parse and build (``setup_s`` is the median over them and the worker),
and one worker that runs the jobs.  Children run with one BLAS thread.
Both times are rescaled by a calibration loop timed next to them (see
``worker.Calibration``); the raw wall times are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
DEADLINE_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child(args, deadline):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          env={**os.environ, **CHILD_ENV}, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * i / (n - 1), sorted(times)[i]


def measure(workload, seed, seconds, traced):
    """Run one workload in fresh interpreters; returns (metrics, result)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if traced else [
        _child(["setup", workload, seed], deadline) for _ in range(SETUP_PROBES)]
    outdir = ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"
    try:
        result = _child(["run", workload, seed, seconds, int(traced), outdir], deadline)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    times = result["job_times"]
    if traced:
        metrics = dict(result["layers"])
        metrics.update({
            "cli.output_bytes": result["output_bytes"],
            "config.parse_s": result["parse_s"],
            "setup.import_s": result["import_s"],
            "rbsde.fallback": result["fallbacks"],
            "trace.overhead": (statistics.median(result["traced_scaled_times"])
                               / statistics.median(result["scaled_times"]) - 1.0),
            "trace.count_mismatches": len(result["count_mismatches"]),
        })
    else:
        setups.append(result)
        result["setup_wall"] = [probe["setup_s"] for probe in setups]
        metrics = {"setup_s": statistics.median(probe["setup_scaled"] for probe in setups),
                   "job_s": statistics.median(result["scaled_times"]),
                   "peak_rss_mb": result["peak_rss_mb"],
                   "value_err": result["value_err"]}
    return metrics, result


def _units(bench, traced):
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def _report(workload, seed, traced, metrics, result, units):
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(missing)}")
    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(),
           "python": platform.python_version(), **result["env"], **CHILD_ENV,
           "seed": seed}
    print(f"# {workload} (trace {int(traced)}) env {json.dumps(env)}")
    times = result["job_times"]
    failed = len(result["failures"])
    cal = [a + b for a, b in zip(*result["calibration_times"].values())]
    print(f"#   jobs: {result['attempted']} attempted, failed_ops = "
          f"{failed / result['attempted']:.4g}; {len(times)} timed untraced, wall "
          f"[{', '.join(f'{t:.3f}' for t in times)}], wall median "
          f"{statistics.median(times):.4f} s; calibration loop median "
          f"{statistics.median(cal):.4f} s, range {min(cal):.4f}-{max(cal):.4f} s")
    if "setup_wall" in result:
        print(f"#   set-up wall [{', '.join(f'{t:.3f}' for t in result['setup_wall'])}] s")
    tail = _tail(result["scaled_times"])
    if tail:
        print(f"#   job_s p{tail[0]:.0f} = {tail[1]:.4f} s (at reference speed)")
    for failure in result["failures"]:
        print(f"#   FAILED {failure}")
    for mismatch in result.get("count_mismatches", []):
        print(f"#   SELF-CHECK {mismatch}")
        print(f"self-check mismatch on {workload}: {mismatch}", file=sys.stderr)
    for name, unit in units.items():
        value = "n/a" if metrics[name] is None else f"{metrics[name]:.6g}"
        print(f"#   {name:28s} {value:>14s} {unit}")
    return {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        bench = json.load(spec)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "isaacslab").is_dir():
        print(f"no isaacslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    if args.workload:
        traced = bool(args.trace)
        metrics, result = measure(args.workload, args.seed, seconds, traced)
        print(json.dumps(_report(args.workload, args.seed, traced, metrics, result,
                                 _units(bench, traced))))
        return 0

    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for traced in (False, True):
            metrics, result = measure(workload, args.seed, seconds, traced)
            summary[workload][f"trace{int(traced)}"] = _report(
                workload, args.seed, traced, metrics, result, _units(bench, traced))
    correct = all(r["correct"] for w in summary.values() for r in w.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
