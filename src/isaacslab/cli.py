"""Batch front-end: run named experiments from JSON configs.

Commands
--------
``isaacslab run <config.json> [--seed S] [--output DIR]``
    Run the configured experiment, write a config echo, a metrics file
    and optional field dumps / convergence tables into the output
    directory.  ``--seed`` overrides ``mc.seed``, which only
    ``rbsde_oracle`` reads, and is refused for a config without an
    ``mc`` section.  All of a run's field dumps
    are formatted in one pass by up to one process per usable CPU (forked
    children, all reaped before the pass returns), whose share of the
    slices may cross from one file into the next; their bytes do not
    depend on that count.
``isaacslab list-instances``
    Print the built-in instance names.
``isaacslab validate <config.json>``
    Make every check ``run`` makes before it solves (``config.parse_config``,
    the sizing of its grids against the stability bound and the
    experiment's own pre-solve work), then probe the instance's standing
    assumptions.

Exit codes: 0 success, 2 configuration error (a config whose arrays
cannot be allocated included), 3 numerical precondition (stability
bound, divergence, contract violation), 4 I/O failure (a failed field
dump included; it leaves no partial file).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import pde
from .analysis import (
    dpp_residual,
    lower_value,
    penalization_convergence,
    upper_value,
    value_comparison,
)
from .config import load_config, parse_config, read_config
from .errors import (
    CflError,
    ConfigError,
    DivergenceError,
    EvaluationError,
    FitError,
    NotFoundError,
    PreconditionError,
)
from .oracles import crr_put, degenerate_rbsde_value
from .pde import cfl_required_nt, solve_obstacle_pde
from .problems import BUILTIN_NAMES, eval_terminal, validate_instance
from .rbsde import RegressionBasis, solve_reflected
from .sde import ControlPath, TimeMesh, simulate_paths


@dataclass(frozen=True)
class ResultRecord:
    """Outcome of one experiment run."""

    experiment: str
    timestamp: str
    config_digest: str
    metrics: dict
    schedule: Optional[dict]
    files: tuple


def _presolve(config):
    """What ``run`` computes, and may refuse, before it solves.

    Returns the grids it solves on, sized, and the experiment's own data:
    a ``dpp`` run's time index and the steps of each delta, cut to fit
    after it, or an ``american_oracle`` run's probe, tree depth and
    binomial put value.  The grids are one per ``schedules.nx`` entry for
    ``american_oracle``, none for ``rbsde_oracle`` and ``config.grid`` for
    the other experiments.  An automatic ``nt`` is set to the smallest
    the stability bound admits; an explicit ``grid.nt`` below the bound
    raises :class:`CflError`.  A binomial put value of 0, against which
    no relative error is defined, raises :class:`PreconditionError`.
    """
    if config.experiment == "rbsde_oracle":
        return [], None
    if config.experiment == "american_oracle":
        grids = [dataclasses.replace(config.grid, nx=(nx,)) for nx in config.nx_schedule]
    else:
        grids = [config.grid]
    if config.grid_nt_auto:
        grids = [dataclasses.replace(grid, nt=cfl_required_nt(config.instance, grid))
                 for grid in grids]
    else:
        for grid in grids:
            pde._check_cfl(config.instance, grid)
    options, nt = config.options, grids[0].nt
    if config.experiment == "dpp":
        t_index = int(round(options["t_fraction"] * nt))
        # every delta re-solves at least one step, so either all fit or none does
        if t_index >= nt:
            raise PreconditionError("no usable (t, delta) pair inside the horizon")
        return grids, (t_index, [min(max(1, int(round(frac * nt))), nt - t_index)
                                 for frac in config.delta_fractions])
    if config.experiment == "american_oracle":
        params = config.instance.params
        probe_x, steps = options["probe_x"], options["binomial_steps"]
        reference = crr_put(probe_x, params["K0"], params["r"], params["sigma0"], params["T"],
                            steps)
        if reference == 0.0:
            raise PreconditionError(
                f"the binomial put value at probe_x = {probe_x:g} is 0 with {steps} "
                f"binomial_steps, so no relative error is defined against it; probe "
                f"nearer the strike or take more steps")
        return grids, (probe_x, steps, reference)
    return grids, None


def _probe_initial(field, x_probe):
    x_probe = np.atleast_1d(np.asarray(x_probe, dtype=float))
    if field.grid.ndim == 1:
        return float(field.interp(0, x_probe[0]))
    nodes = field.grid.nodes()
    j = int(np.argmin(np.linalg.norm(nodes - x_probe, axis=1)))
    return float(field.slices[0].ravel()[j])


# Fewest values a forked worker formats: forking and reaping one costs about
# 3.5 ms for a 48 MB process, the time to format about 5 000 values.
_WORKER_MIN_VALUES = 5000


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _platform():
    """The Python, numpy and BLAS versions and the usable CPUs of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy that only prints its build configuration
        blas = "unknown"
    return {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "blas": blas, "cpus": _usable_cpus()}


def _write_slices(out, rows, templates, start, stop):
    for k in range(start, stop):
        out.write(str(k).join(["", *templates]) % tuple(rows[k].tolist()))


def _dump_fields(dumps, directory):
    """Write each field of ``dumps`` (file name to field) into ``directory``
    as ``t_index,flat_node_index,x_0,...,value`` rows, one time slice per block.

    Integers are written as such and floats with 17 significant digits,
    so every value reads back exactly.  Each node's row after the time
    index is a ``%`` template, so a slice is one ``join`` and one format.

    The time slices of every file, file after file, are cut into W
    contiguous runs, W being the number of usable CPUs capped by the slice
    count and by ``_WORKER_MIN_VALUES`` values per run; a run may cross
    from one file into the next.  This process writes every header and
    formats run 0 into its files; runs 1 to W - 1 are formatted by forked
    children, each into one unlinked temporary file per file it covers,
    and appended in order by a kernel copy.  The bytes do not depend on W.
    A child that fails makes this raise :class:`OSError` naming its files;
    on any failure the children are killed and reaped and every file this
    call opened is removed.  Returns W, 0 when ``dumps`` is empty.
    """
    paths, headers, slices = [], [], []
    for name, field in dumps.items():
        paths.append(Path(directory) / name)
        headers.append(",".join(["t_index", "flat_node_index"]
                                + [f"x_{i}" for i in range(field.grid.ndim)] + ["value"]))
        # per file, the rows _write_slices formats and its node templates
        slices.append((field.slices.reshape(len(field.times), -1),
                       ["".join([f",{j}"] + [f",{c:.17g}" for c in coords] + [",%.17g\n"])
                        for j, coords in enumerate(field.grid.nodes().tolist())]))
    if not paths:
        return 0
    counts = [len(rows) for rows, _ in slices]
    total, values = sum(counts), sum(rows.size for rows, _ in slices)
    workers = max(1, min(_usable_cpus(), total, values // _WORKER_MIN_VALUES))
    bounds = [total * w // workers for w in range(workers + 1)]
    # each run as (file index, first slice, stop slice) pieces, in file order
    firsts = [sum(counts[:f]) for f in range(len(paths))]
    runs = [[(f, max(lo - first, 0), min(hi - first, count))
             for f, (first, count) in enumerate(zip(firsts, counts))
             if first < hi and lo < first + count]
            for lo, hi in zip(bounds, bounds[1:])]
    outs, parts, children = [], [], []
    try:
        for path in paths:
            # a new file, not the old one truncated: ext4 starts writing a file
            # truncated to 0 back to disk as it is closed, and a rerun into the
            # same directory would wait for that write when truncating it again
            path.unlink(missing_ok=True)
            outs.append(open(path, "w", encoding="utf-8"))
        with warnings.catch_warnings():
            # Python 3.12+ warns on forking beside numpy's BLAS threads;
            # the child formats strings only and never enters BLAS
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            for run in runs[1:]:
                parts.append([(f, tempfile.TemporaryFile("w+", encoding="utf-8"))
                              for f, _, _ in run])
                pid = os.fork()
                if pid == 0:
                    # the child ends here, flushing no buffer it inherited
                    code = 1
                    try:
                        for (f, start, stop), (_, part) in zip(run, parts[-1]):
                            _write_slices(part, *slices[f], start, stop)
                            part.flush()
                        code = 0
                    finally:
                        os._exit(code)
                children.append(pid)
        for header, out in zip(headers, outs):
            out.write(header + "\n")
        for f, start, stop in runs[0]:
            _write_slices(outs[f], *slices[f], start, stop)
        for out in outs:
            out.flush()
        for pid, run in zip(list(children), parts):
            _, status = os.waitpid(pid, 0)
            children.remove(pid)
            if status:
                raise OSError("a worker formatting "
                              + ", ".join(str(paths[f]) for f, _ in run) + " failed")
            for f, part in run:
                size, sent = os.fstat(part.fileno()).st_size, 0
                while sent < size:
                    sent += os.sendfile(outs[f].fileno(), part.fileno(), sent, size - sent)
        for out in outs:
            out.close()
    except BaseException:
        import signal  # here, not at the top: loading it costs ~1 ms of every start

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for path in paths[:len(outs)]:
            path.unlink(missing_ok=True)
        raise
    finally:
        for pid in children:
            os.waitpid(pid, 0)
        for run in parts:
            for _, part in run:
                part.close()
        for out in outs:
            out.close()
    return workers


def _run_solve(config, grids, _):
    grid = grids[0]
    which = config.options["which"]
    field = solve_obstacle_pde(which, config.instance, grid)
    probe = config.options["probe_x"]
    metrics = {
        "which": which,
        "nt": grid.nt,
        "value_t0_probe": _probe_initial(field, probe),
        "probe_x": probe[0] if grid.ndim == 1 else probe,
        "initial_min": float(field.slices[0].min()),
        "initial_max": float(field.slices[0].max()),
    }
    dumps = {"field.csv": field} if "csv" in config.formats else {}
    return metrics, None, dumps


def _run_penalization(config, grids, _):
    grid = grids[0]
    table = penalization_convergence(config.instance, grid, config.m_schedule)
    metrics = {
        "nt": grid.nt,
        "monotone_ok": table.monotone_ok,
        "max_monotone_violation": table.max_monotone_violation,
        "final_gap": table.sup_gaps[-1],
    }
    schedule = {"parameter": "m", "values": list(table.m_schedule),
                "metric": "sup_gap", "metric_values": list(table.sup_gaps)}
    return metrics, schedule, {}


def _run_dpp(config, grids, pairs):
    instance, grid, (t_index, steps) = config.instance, grids[0], pairs
    field = solve_obstacle_pde(config.options["which"], instance, grid)
    reports = [dpp_residual(field, instance, t_index, k) for k in steps]
    deltas, residuals = [r.delta for r in reports], [r.max_residual for r in reports]
    metrics = {"nt": grid.nt, "t_index": t_index,
               "max_residual": max(residuals)}
    schedule = {"parameter": "delta", "values": deltas,
                "metric": "max_residual", "metric_values": residuals}
    return metrics, schedule, {}


def _run_compare_wu(config, grids, _):
    instance = config.instance
    grid = grids[0]
    low = lower_value(instance, grid)
    up = upper_value(instance, grid)
    violation, gap = value_comparison(low, up)
    metrics = {"nt": grid.nt, "max_violation": violation, "max_gap": gap}
    dumps = {"field_lower.csv": low, "field_upper.csv": up} if "csv" in config.formats else {}
    return metrics, None, dumps


def _run_american_oracle(config, grids, binomial):
    probe_x, steps, reference = binomial
    errors, nxs, value = [], [], None
    for grid in grids:
        field = solve_obstacle_pde("lower", config.instance, grid)
        value = _probe_initial(field, probe_x)
        nxs.append(grid.nx[0])
        errors.append(abs(value - reference) / abs(reference))
    metrics = {"binomial_value": reference, "binomial_steps": steps,
               "pde_value_final": value, "rel_error_final": errors[-1],
               "probe_x": probe_x}
    schedule = {"parameter": "nx", "values": nxs,
                "metric": "rel_error", "metric_values": errors}
    return metrics, schedule, {}


def _run_rbsde_oracle(config, grids, _):
    instance = config.instance
    mesh = TimeMesh(0.0, instance.T, config.mc.steps)
    bundle = simulate_paths(instance, np.zeros(instance.n), mesh,
                            ControlPath.constant(0), ControlPath.constant(0),
                            config.mc.paths, config.mc.seed)
    terminal = eval_terminal(instance, bundle.states[:, -1])
    basis = RegressionBasis(degree=config.mc.basis_degree)
    solution = solve_reflected(instance, bundle, terminal, basis)
    metrics = {"y0": solution.value(), "paths": config.mc.paths,
               "steps": config.mc.steps}
    if config.instance_name == "lemma45":
        ref = degenerate_rbsde_value(instance.params["C"], instance.params["theta"],
                                     instance.T)
        metrics["reference"] = ref
        metrics["abs_error"] = abs(metrics["y0"] - ref)
    return metrics, None, {}


_RUNNERS = {
    "solve": _run_solve,
    "penalization": _run_penalization,
    "dpp": _run_dpp,
    "compare_wu": _run_compare_wu,
    "american_oracle": _run_american_oracle,
    "rbsde_oracle": _run_rbsde_oracle,
}


def run(config):
    """Run the configured experiment and write its outputs.

    The experiment runs first and returns its metrics, schedule and the
    fields to dump.  Only then is the output directory created (an
    existing one is written into, its files of the same names replaced)
    and ``config.json`` (canonical echo), ``metrics.json`` (digest,
    metrics and schedule; no volatile fields, so reruns are
    byte-identical), ``run_info.json`` (timestamp, file list, the
    platform of :func:`_platform` and the worker count of the dump pass,
    0 when nothing is dumped) and any field dumps or convergence tables
    written, so a run refused or failing before that leaves no output
    directory behind.  Returns the record.
    """
    metrics, schedule, dumps = _RUNNERS[config.experiment](config, *_presolve(config))

    record = ResultRecord(
        experiment=config.experiment,
        timestamp=datetime.now(timezone.utc).isoformat(),
        config_digest=config.digest(),
        metrics=metrics,
        schedule=schedule,
        files=tuple(dumps),
    )
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    workers = _dump_fields(dumps, outdir)
    (outdir / "config.json").write_text(
        json.dumps(config.canonical, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (outdir / "metrics.json").write_text(
        json.dumps({"experiment": record.experiment,
                    "config_digest": record.config_digest,
                    "metrics": record.metrics,
                    "schedule": record.schedule}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (outdir / "run_info.json").write_text(
        json.dumps({"timestamp": record.timestamp, "files": list(record.files),
                    "platform": _platform(), "dump_workers": workers},
                   indent=2) + "\n", encoding="utf-8")
    if record.schedule is not None and len(record.schedule["values"]) >= 2:
        table = emit_convergence_table(record)
        (outdir / "table.txt").write_text(table + "\n", encoding="utf-8")
        (outdir / "table.csv").write_text(_schedule_csv(record), encoding="utf-8")
    return record


def _ratios(values):
    out = [None]
    for prev, cur in zip(values, values[1:]):
        out.append(cur / prev if prev else None)
    return out


def _schedule_csv(record):
    sched = record.schedule
    lines = [f"{sched['parameter']},{sched['metric']},ratio"]
    for p, m, r in zip(sched["values"], sched["metric_values"],
                       _ratios(sched["metric_values"])):
        lines.append(f"{p},{m:.17g},{'' if r is None else f'{r:.6g}'}")
    return "\n".join(lines) + "\n"


def emit_convergence_table(record):
    """Render a schedule-indexed metric as an aligned text table.

    One row per schedule entry with columns (parameter, metric, ratio to
    the previous entry).  Records without a schedule, or with fewer than
    two entries, are an error.
    """
    sched = record.schedule
    if sched is None:
        raise PreconditionError("record carries no schedule-indexed metric")
    if len(sched["values"]) < 2:
        raise PreconditionError("need >= 2 schedule points")
    header = (sched["parameter"], sched["metric"], "ratio")
    rows = [header]
    for p, m, r in zip(sched["values"], sched["metric_values"],
                       _ratios(sched["metric_values"])):
        rows.append((f"{p:g}", f"{m:.6g}", "-" if r is None else f"{r:.2g}"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
             for row in rows]
    return "\n".join(lines)


def _cmd_run(args):
    raw = read_config(args.config)
    # a config without paths to draw has nothing to seed (a null mc is none)
    if args.seed is not None and raw.get("mc") is None:
        raise ConfigError("--seed overrides 'mc.seed', and this config has no 'mc' section")
    for section, key, value in (("mc", "seed", args.seed),
                                ("output", "directory", args.output)):
        part = raw.get(section)
        # a section that is not an object is left for parse_config to reject
        if value is not None and (part is None or isinstance(part, dict)):
            raw[section] = {**(part or {}), key: value}
    config = parse_config(raw)
    record = run(config)
    print(f"experiment: {record.experiment}")
    print(f"digest:     {record.config_digest}")
    for key in sorted(record.metrics):
        print(f"  {key} = {record.metrics[key]}")
    if record.schedule is not None and len(record.schedule["values"]) >= 2:
        print(emit_convergence_table(record))
    return 0


def _cmd_list_instances(args):
    for name in BUILTIN_NAMES:
        print(name)
    return 0


def _cmd_validate(args):
    config = load_config(args.config)
    _presolve(config)  # refuses what run refuses
    seed = config.mc.seed if config.mc is not None else 0
    report = validate_instance(config.instance, probe_count=128, seed=seed)
    if report.passed:
        print(f"instance {config.instance_name!r}: assumptions hold "
              f"(estimated Lipschitz {report.estimated_lipschitz})")
        return 0
    print(f"instance {config.instance_name!r}: {len(report.violations)} violation(s)")
    for kind, witness, observed in report.violations[:10]:
        print(f"  {kind}: observed {observed:.6g} at {witness}")
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="isaacslab",
        description="Numerical laboratory for reflected stochastic differential games.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override mc.seed from the config")
    p_run.add_argument("--output", default=None,
                       help="override output.directory from the config")
    sub.add_parser("list-instances", help="print built-in instance names")
    p_val = sub.add_parser("validate", help="validate a config and its instance")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "list-instances": _cmd_list_instances,
                "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    # a config whose arrays no address space holds is refused like a bad key
    except (ConfigError, NotFoundError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CflError, DivergenceError, PreconditionError, EvaluationError,
            FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
