"""Bit-identity of the package's outputs at two commits, on a fixed battery.

    python tools/identity.py BASE [HEAD]

checks out BASE and HEAD (default ``HEAD``) into temporary ``git
worktree``s, runs the battery below against each checkout's own
``src/isaacslab`` in a fresh interpreter, and prints a JSON summary line,
then one line per array that differs: its shape, how many entries differ
in their bits, the largest absolute difference and the largest distance
in units in the last place (ulps).  Exits 0 when every array is equal bit
for bit, 1 when one differs or exists on one side only, and 2 when a side
fails to run.  CI's drift step runs it against a pull request's base
commit and turns each line after the summary into a warning.

    python tools/identity.py --digest OUT.npz

runs the battery against the importable ``isaacslab`` and saves its arrays
to ``OUT.npz``; the first form runs it in each checkout, with the
checkout as the working directory, so each side reads its own
``configs/`` and ``perfbench/workloads.py``.  The 2-D game and the grid
sizing come from ``correlated_game`` and ``sized`` of the
``tests/conftest.py`` beside this tool, so both sides build them alike.

The battery:

- every builtin's lower and upper fields, and their complementarity
  residuals per slice;
- penalized sweeps of ``american_put`` and of the 2-D correlated game,
  and a ``penalization_convergence`` table;
- the 2-D correlated game's lower and upper fields;
- a dynamic-programming residual and a time-continuity fit;
- paths driven by the feedback pair of two 1-D fields;
- a seeded path bundle with the (Y, Z, K) of its reflected and penalized
  solves;
- every shipped config's ``metrics.json``, ``field*.csv`` and ``table.*``
  as bytes, with ``config_digest`` apart from the other metrics, and the
  output of ``isaacslab validate`` on it, stdout and stderr;
- the ``validate`` output of a ``compare_wu`` config on ``minimax_gap``
  with 21 x 21 control points, more pairs than any shipped config has;
- job 0 (seed 1) of the benchmark's ``PenaltySweep`` and
  ``MinimaxFields`` workloads, whose outputs are recorded as a config's
  are, and of ``PathsReflected``, recorded as Y and Z at time 0, K at the
  horizon and the value.

A shipped config or a workload job that fails to parse or run is
recorded as ``<entry>/error``, the exception's type and message, in place
of its arrays, and the rest of the battery still runs; the report's line
for such a key gives the message.

One side takes about 1.5 s and 194 MB on a 2-vCPU Xeon; loading
``tests/conftest.py`` imports pytest, about 0.1 s of it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

# the builtins' boxes; every other builtin runs on [-2, 2]
BOXES = {"american_put": ((20.0, 300.0),)}
# the 441 control pairs that CI's config smoke validates and no shipped config reaches
_POINTS = [[k / 10 - 1] for k in range(21)]
MANY_PAIRS = {"experiment": "compare_wu",
              "instance": {"name": "minimax_gap",
                           "params": {"u_points": _POINTS, "v_points": _POINTS}},
              "grid": {"box": [[-2, 2]], "nx": [41]}}
# the benchmark's workloads whose job 0 the battery runs
WORKLOADS = ("PenaltySweep", "MinimaxFields", "PathsReflected")


def _module(name, path):
    """The module at ``path``, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixtures():
    """The ``tests/conftest.py`` of this tool's checkout, whose ``correlated_game``
    and ``sized`` build the battery's 2-D game and grids."""
    return _module("conftest", Path(__file__).resolve().parents[1] / "tests" / "conftest.py")


def _grid_arrays(isaacslab, out):
    from isaacslab import pde
    from isaacslab.sde import TimeMesh

    fixtures = _fixtures()
    for name in isaacslab.BUILTIN_NAMES:
        inst = isaacslab.builtin_instance(name)
        grid = fixtures.sized(inst, BOXES.get(name, ((-2.0, 2.0),)), (41,))
        for which in ("lower", "upper"):
            field = isaacslab.solve_obstacle_pde(which, inst, grid)
            out[f"field/{name}/{which}"] = field.slices
            out[f"residual/{name}/{which}"] = isaacslab.complementarity_residual(field, inst)[1]
            if name in ("american_put", "minimax_gap") and which == "lower":
                u, v = isaacslab.feedback_from_field(field, inst)
                x0 = grid.nodes()[grid.nx[0] // 2]
                bundle = isaacslab.simulate_paths(inst, x0, TimeMesh(0.0, inst.T, 10), u, v, 16, 3)
                for part in ("states", "u_path", "v_path"):
                    out[f"feedback/{name}/{part}"] = getattr(bundle, part)
                report = isaacslab.dpp_residual(field, inst, grid.nt // 2, grid.nt // 4)
                out[f"dpp/{name}"] = report.residuals
        if name == "american_put":
            fit = isaacslab.time_continuity_profile(field, [60.0, 100.0, 140.0],
                                                    (0.2, 0.1, 0.05, 0.025), instance=inst)
            out["time_continuity/american_put"] = np.array(
                [fit.exponent, fit.constant, *fit.moduli, *fit.obstacle_moduli])
            table = isaacslab.penalization_convergence(inst, grid, [1.0, 4.0, 16.0, 64.0])
            out["penalization/american_put"] = np.array(
                [*table.sup_gaps, table.max_monotone_violation])
    correlated = fixtures.correlated_game()
    grids = {"american_put": fixtures.sized(isaacslab.builtin_instance("american_put"),
                                            BOXES["american_put"], (57,)),
             "correlated": fixtures.sized(correlated, ((-2.0, 2.0), (-2.0, 2.0)), (13, 11))}
    for which in ("lower", "upper"):
        out[f"field/correlated/{which}"] = isaacslab.solve_obstacle_pde(
            which, correlated, grids["correlated"]).slices
    for name, inst in (("american_put", isaacslab.builtin_instance("american_put")),
                       ("correlated", correlated)):
        sweep = pde.sweep_penalized(inst, grids[name], [0.0, 1.0, 16.0, 256.0])
        out[f"penalized/{name}"] = np.stack([fields.copy() for _, fields in sweep])


def _path_arrays(isaacslab, out):
    from isaacslab.problems import eval_terminal
    from isaacslab.sde import ControlPath, TimeMesh

    inst = isaacslab.builtin_instance("american_put")
    constant = ControlPath.constant(0)
    bundle = isaacslab.simulate_paths(inst, np.array([100.0]), TimeMesh(0.0, inst.T, 20),
                                      constant, constant, 2000, 11)
    out["paths/states"] = bundle.states
    terminal = eval_terminal(inst, bundle.states[:, -1])
    basis = isaacslab.RegressionBasis(degree=3)
    for name, solution in (
            ("reflected", isaacslab.solve_reflected(inst, bundle, terminal, basis)),
            ("penalized", isaacslab.solve_penalized(inst, bundle, terminal, basis, 10.0))):
        for part in ("Y", "Z", "K"):
            out[f"paths/{name}/{part}"] = getattr(solution, part)


def _bytes(text):
    return np.frombuffer(text.encode(), dtype=np.uint8)


def _recorded(out, prefix, produce, *args):
    """Add the arrays that ``produce(got, *args)`` records into ``got`` to
    ``out`` or, when it raises, only ``<prefix>/error``, the exception's type
    and message, so that one failing entry hides no other entry's arrays;
    the traceback goes to stderr."""
    got = {}
    try:
        produce(got, *args)
    except Exception as exc:
        traceback.print_exc()
        got = {f"{prefix}/error": _bytes(f"{type(exc).__name__}: {exc}")}
    out.update(got)


def _run_outputs(got, prefix, directory):
    """A run's ``metrics.json`` as its metrics and its ``config_digest`` apart,
    so that a digest that alone differs reads as one line, and its
    ``field*.csv`` and ``table.*``, as bytes."""
    for written in sorted(directory.iterdir()):
        if written.name == "metrics.json":
            metrics = json.loads(written.read_text())
            got[f"{prefix}/config_digest"] = _bytes(metrics.pop("config_digest"))
            got[f"{prefix}/metrics"] = _bytes(json.dumps(metrics))
        elif written.name.startswith(("field", "table.")):
            got[f"{prefix}/{written.name}"] = np.frombuffer(written.read_bytes(), dtype=np.uint8)


def _config_run(got, path, directory):
    from isaacslab import cli
    from isaacslab.config import parse_config, read_config

    raw = read_config(str(path))
    raw["output"] = {**raw.get("output", {}), "directory": str(directory)}
    cli.run(parse_config(raw))
    _run_outputs(got, f"config/{path.stem}", directory)


def _validate_report(path):
    from isaacslab import cli

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = cli.main(["validate", str(path)])
    return _bytes(f"{code}\n{printed.getvalue()}")


def _config_arrays(out, workdir):
    for path in sorted(Path("configs").glob("*.json")):
        _recorded(out, f"config/{path.stem}", _config_run, path, workdir / path.stem)
        out[f"validate/{path.stem}"] = _validate_report(path)
    many_pairs = workdir / "many_pairs.json"
    many_pairs.write_text(json.dumps(MANY_PAIRS))
    out["validate/many_pairs"] = _validate_report(many_pairs)


def _call(name, fn, *args):
    return fn(*args)


def _workload_job(got, name, directory):
    """Job 0 (seed 1) of the workload class ``name`` of this checkout's
    ``perfbench/workloads.py``, so that its inputs are written down there only."""
    from isaacslab.config import parse_config

    workload = getattr(_module("workloads", "perfbench/workloads.py"), name)(1, directory)
    workload.setup(parse_config)
    result = workload.job(0, _call)
    if name == "PathsReflected":
        for part, column in (("Y", result.Y[:, 0]), ("Z", result.Z[:, 0]), ("K", result.K[:, -1])):
            got[f"workload/{name}/{part}"] = column
        got[f"workload/{name}/value"] = np.array([result.value()])
    else:
        _run_outputs(got, f"workload/{name}", directory)


def digest(target):
    """Run the battery against the importable package and save it to ``target``."""
    import isaacslab

    out = {}
    _grid_arrays(isaacslab, out)
    _path_arrays(isaacslab, out)
    with tempfile.TemporaryDirectory() as workdir:
        _config_arrays(out, Path(workdir))
        for name in WORKLOADS:
            _recorded(out, f"workload/{name}", _workload_job, name, Path(workdir) / name)
    np.savez(target, **{key: np.ascontiguousarray(value) for key, value in out.items()})


def _ordered(bits):
    """Float64 bit patterns as integers in the floats' order, so that
    neighbouring floats differ by one."""
    bits = bits.astype(object)
    return np.where(bits < 0, -(2 ** 63) - bits, bits)


def _message(array):
    """The recorded message of an ``<entry>/error`` array, on one line."""
    return " ".join(bytes(array).decode(errors="replace").splitlines())


def differences(base, head):
    """One line per array of ``base`` and ``head`` (dicts of arrays) that is not
    bit for bit equal; an ``<entry>/error`` line also gives the recorded message."""
    lines = []
    for key in sorted(set(base) | set(head)):
        error = key.endswith("/error")
        if key not in base or key not in head:
            side, array = ("head", head[key]) if key in head else ("base", base[key])
            lines.append(f"{key}: only at {side}" + (f": {_message(array)}" if error else ""))
            continue
        one, other = base[key], head[key]
        if error:
            if not np.array_equal(one, other):
                lines.append(f'{key}: "{_message(one)}" at base, "{_message(other)}" at head')
            continue
        if one.shape != other.shape or one.dtype != other.dtype:
            lines.append(f"{key}: {one.dtype}{one.shape} at base, {other.dtype}{other.shape} "
                         f"at head")
            continue
        if one.dtype.kind != "f":
            if not np.array_equal(one, other):
                lines.append(f"{key}: {int(np.count_nonzero(one != other))} of {one.size} "
                             f"entries differ")
            continue
        moved = one.view(np.int64) != other.view(np.int64)
        if not moved.any():
            continue
        with np.errstate(invalid="ignore", over="ignore"):
            gap = np.abs(one[moved] - other[moved])
        ulps = np.abs(_ordered(one.view(np.int64)[moved]) - _ordered(other.view(np.int64)[moved]))
        lines.append(f"{key}: {int(moved.sum())} of {one.size} entries differ, max abs "
                     f"{float(np.nanmax(gap, initial=0.0)):.3e}, max {int(ulps.max())} ulps")
    return lines


def _side(commit, tree):
    """The battery's arrays at ``commit``, run in a worktree of it at ``tree``."""
    subprocess.run(["git", "worktree", "add", "--detach", str(tree), commit], check=True,
                   stdout=subprocess.DEVNULL)
    try:
        target = tree.with_suffix(".npz")
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digest", str(target)],
                       check=True, cwd=tree,
                       env={**os.environ, "PYTHONPATH": str(tree / "src"),
                            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
        with np.load(target) as arrays:
            return dict(arrays)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)], check=False)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--digest"] and len(argv) == 2:
        digest(argv[1])
        return 0
    if not 1 <= len(argv) <= 2 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, head = argv[0], argv[1] if len(argv) == 2 else "HEAD"
    with tempfile.TemporaryDirectory() as scratch:
        try:
            arrays = [_side(commit, Path(scratch) / side)
                      for commit, side in ((base, "base"), (head, "head"))]
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    lines = differences(*arrays)
    names = {commit: subprocess.run(["git", "rev-parse", "--short", commit], check=False,
                                    capture_output=True, text=True).stdout.strip() or commit
             for commit in (base, head)}
    print(json.dumps({"base": names[base], "head": names[head], "arrays": len(arrays[1]),
                      "differ": len(lines)}))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
