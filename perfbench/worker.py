"""Child process of the benchmark: one set-up probe, or one measured run.

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR

Loads isaacslab from the checkout's ``src`` and prints one JSON object
as its last line of standard output.  ``run`` does one untimed warm-up
job, then jobs back to back for SECONDS; with TRACE = 1 every second job
is traced.  Each job's output is checked after its timer stops.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
PARSE_REPEATS = 5
SELF_TIME_TOLERANCE = 0.10
# Time of each half of the calibration loop on an idle core of the
# reference machine (2-vCPU Xeon, KVM); times are rescaled to that speed.
CAL_REF_S = {"interpreter": 0.053, "arrays": 0.042}


def set_up(name, seed, outdir):
    """Import isaacslab, parse the workload's config and build its instance."""
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("isaacslab")
    import_s = perf_counter() - start
    from isaacslab.config import parse_config
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, outdir)
    workload.setup(parse_config)
    return workload, import_s, perf_counter() - start


def _plain(name, fn, *args):
    return fn(*args)


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _value_err(workload):
    """The workload's reference error, or None when failed jobs left no value."""
    try:
        return workload.value_err()
    except (AttributeError, KeyError):
        return None


def _output_bytes(outdir):
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


class Calibration:
    """Fixed numpy work, unrelated to isaacslab, that tracks the core's speed.

    The core this runs on slows by up to 2x for seconds to minutes at a
    time, from load outside the process.  Timing this loop between jobs
    measures that.  The loop has two halves, timed apart, because the two
    kinds of work slow down differently:

    - ``interpreter``: Python driving numpy on 281-element arrays, like a
      grid step or an import;
    - ``arrays``: least-squares fits and arithmetic on a 50 000 x 7 design,
      like a path regression.
    """

    def __init__(self):
        # imported here so that a set-up probe times numpy's import as part
        # of importing isaacslab
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((50_000, 7))
        self.y = rng.standard_normal(50_000)
        self.times = {"interpreter": [], "arrays": []}

    def __call__(self):
        np = self.np
        start = perf_counter()
        a = np.linspace(0.0, 1.0, 281)
        b = a[::-1].copy()
        for _ in range(15_000):
            a = np.maximum(a * 0.5 + b, b) - 0.25 * a
        middle = perf_counter()
        for _ in range(7):
            np.linalg.lstsq(self.x, self.y, rcond=None)
            (self.x * 1.5 + 2.0).sum(axis=1)
        self.times["interpreter"].append(middle - start)
        self.times["arrays"].append(perf_counter() - middle)

    def rescale(self, elapsed, kind, last):
        """A wall time at reference speed, from the ``last`` loops of one half."""
        loops = self.times[kind][-last:]
        return elapsed * CAL_REF_S[kind] * len(loops) / sum(loops)


class Run:
    def __init__(self, workload, outdir):
        self.workload = workload
        self.outdir = outdir
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0

    def job(self, index, call):
        """Time one job, then check it; returns its wall time in seconds."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.workload.job(index, call)
        except Exception as exc:  # a failing job is counted, not fatal
            self.failures.append(f"job {index}: {type(exc).__name__}: {exc}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        problems = self.workload.check(out)
        if problems:
            self.failures.append(f"job {index}: " + "; ".join(problems))
        self.workload.observe(index, out)
        if self.outdir.exists():
            self.output_bytes = _output_bytes(self.outdir)
        return elapsed


def _self_check(workload, raw, metrics, job_s):
    """Counts the code implies, and layer self times against the job time."""
    dead = [name for name in workload.ACTIVE if not raw[name + ".calls"]]
    if dead:
        raise RuntimeError(f"traced spans read zero for {', '.join(dead)}: "
                           "a wrapper missed the name its caller uses")
    mismatches = [f"{key} = {metrics[key]:g}, code implies {want:g}"
                  for key, want in workload.expected_counts().items()
                  if metrics[key] != want]
    self_total = sum(raw[layer + ".self_s"] for layer in spans.LAYERS)
    if abs(self_total / job_s - 1.0) > SELF_TIME_TOLERANCE:
        mismatches.append(f"layer self times sum to {self_total:.4f} s "
                          f"against a traced job of {job_s:.4f} s")
    return mismatches


def measure(name, seed, seconds, traced, outdir):
    workload, import_s, setup_s = set_up(name, seed, outdir)
    from isaacslab.config import parse_config

    parse_times = []
    for _ in range(PARSE_REPEATS):
        start = perf_counter()
        parse_config(workload.raw)
        parse_times.append(perf_counter() - start)

    run = Run(workload, outdir)
    calibrate = Calibration()
    calibrate()
    setup_scaled = calibrate.rescale(setup_s, "interpreter", 1)
    run.job(0, _plain)
    calibrate()
    times, scaled, traced_times, layer_samples, mismatches = [], [], [], [], []
    tracer = spans.Tracer() if traced else None
    index = 1
    start = perf_counter()
    while (perf_counter() - start < seconds or index < workload.min_jobs
           or (traced and not (times and traced_times))):
        if traced and index % 2 == 0:
            spans.install(tracer)
            try:
                elapsed = run.job(index, tracer.call)
            finally:
                tracer.uninstall()
            raw = spans.summarise(tracer.take())
            metrics = spans.layer_metrics(raw)
            if not layer_samples:
                mismatches = _self_check(workload, raw, metrics, elapsed)
            layer_samples.append(metrics)
            calibrate()
            traced_times.append(calibrate.rescale(elapsed, workload.CALIBRATION, 2))
        else:
            times.append(run.job(index, _plain))
            calibrate()
            scaled.append(calibrate.rescale(times[-1], workload.CALIBRATION, 2))
        index += 1

    result = {
        "setup_s": setup_s,
        "setup_scaled": setup_scaled,
        "import_s": import_s,
        "parse_s": statistics.median(parse_times),
        "job_times": times,
        "scaled_times": scaled,
        "calibration_times": calibrate.times,
        "attempted": run.attempted,
        "failures": run.failures,
        "value_err": _value_err(workload),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": run.output_bytes,
        "fallbacks": int(workload.fallbacks),
        "env": _environment(),
    }
    if traced:
        result["traced_scaled_times"] = traced_times
        result["layers"] = {key: statistics.median(m[key] for m in layer_samples)
                            for key in layer_samples[0]}
        result["count_mismatches"] = mismatches
    return result


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        _, _, setup_s = set_up(name, seed, None)
        calibrate = Calibration()
        calibrate()
        print(json.dumps({"setup_s": setup_s,
                          "setup_scaled": calibrate.rescale(setup_s, "interpreter", 1)}))
    else:
        seconds, traced, outdir = float(argv[3]), argv[4] == "1", Path(argv[5])
        print(json.dumps(measure(name, seed, seconds, traced, outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
