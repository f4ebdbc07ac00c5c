"""Bit-identity of the package's outputs at two commits, on a fixed battery.

    python tools/identity.py BASE [HEAD]

checks out BASE and HEAD (default ``HEAD``) into temporary ``git
worktree``s, runs the battery below against each checkout's own
``src/isaacslab`` in a fresh interpreter, and prints one line per array
that differs: its shape, how many entries differ in their bits, the
largest absolute difference and the largest distance in units in the last
place (ulps).  Exits 0 when every array is equal bit for bit, 1 when one
differs or exists on one side only, and 2 when a side fails to run.

    python tools/identity.py --digest OUT.npz

runs the battery against the importable ``isaacslab`` and saves its arrays
to ``OUT.npz``; the first form runs it in each checkout, with the
checkout as the working directory, so each side reads its own
``configs/``.

The battery:

- every builtin's lower and upper fields, and their complementarity
  residuals per slice;
- penalized sweeps of ``american_put`` and of a 2-D correlated game, and
  a ``penalization_convergence`` table;
- the 2-D correlated game's lower and upper fields;
- a dynamic-programming residual and a time-continuity fit;
- paths driven by the feedback pair of two 1-D fields;
- a seeded path bundle with the (Y, Z, K) of its reflected and penalized
  solves;
- every shipped config's ``metrics.json``, ``field*.csv`` and ``table.*``,
  and the output of ``isaacslab validate`` on it, as bytes.

One side takes about a second on a 2-vCPU Xeon.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# the builtins' boxes; every other builtin runs on [-2, 2]
BOXES = {"american_put": ((20.0, 300.0),)}


def _correlated_game(isaacslab):
    """A 2-D game with a mixed diffusion term, 2 x 2 controls and a cost rate that reads y and z."""
    root = np.array([[0.8, 0.0], [0.4, 0.6]])
    coeffs = isaacslab.Coefficients(
        b=lambda t, x, u, v: np.stack([3.0 * u[:, 0] * x[:, 0], -2.0 * x[:, 1]], axis=1),
        sigma=lambda t, x, u, v: np.broadcast_to(root, x.shape + (2,)).copy(),
        f=lambda t, x, y, z, u, v: (-0.1 * y + 0.2 * v[:, 0] * z[:, 0]
                                    - 0.05 * np.abs(z[:, 1]) + u[:, 0] * v[:, 0]),
        phi=lambda x: np.maximum(1.0 - np.abs(x[:, 0]) - 0.5 * np.abs(x[:, 1]), 0.0),
        h=lambda t, x: 0.5 * np.maximum(0.8 - np.abs(x[:, 0] + x[:, 1]), 0.0) - 0.1 * t,
        declared_lipschitz=1.0, declared_growth=20.0)
    return isaacslab.GameInstance(
        n=2, d=2, T=0.5, coeffs=coeffs, label="correlated",
        u_grid=isaacslab.ControlGrid(np.array([[-1.0], [1.0]]), "u"),
        v_grid=isaacslab.ControlGrid(np.array([[-1.0], [0.5]]), "v"))


def _sized(isaacslab, instance, box, nx):
    grid = isaacslab.SpaceTimeGrid(box=box, nx=nx, nt=1)
    return isaacslab.SpaceTimeGrid(box=box, nx=nx, nt=isaacslab.cfl_required_nt(instance, grid))


def _grid_arrays(isaacslab, out):
    from isaacslab import pde
    from isaacslab.sde import TimeMesh

    for name in isaacslab.BUILTIN_NAMES:
        inst = isaacslab.builtin_instance(name)
        grid = _sized(isaacslab, inst, BOXES.get(name, ((-2.0, 2.0),)), (41,))
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
    correlated = _correlated_game(isaacslab)
    grids = {"american_put": _sized(isaacslab, isaacslab.builtin_instance("american_put"),
                                    BOXES["american_put"], (57,)),
             "correlated": _sized(isaacslab, correlated, ((-2.0, 2.0), (-2.0, 2.0)), (13, 11))}
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


def _config_arrays(out, workdir):
    from isaacslab import cli
    from isaacslab.config import parse_config, read_config

    for path in sorted(Path("configs").glob("*.json")):
        raw = read_config(str(path))
        raw["output"] = {**raw.get("output", {}), "directory": str(workdir / path.stem)}
        cli.run(parse_config(raw))
        for written in sorted((workdir / path.stem).iterdir()):
            if written.name == "metrics.json" or written.name.startswith(("field", "table.")):
                out[f"config/{path.stem}/{written.name}"] = np.frombuffer(
                    written.read_bytes(), dtype=np.uint8)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["validate", str(path)])
        out[f"validate/{path.stem}"] = np.frombuffer(
            f"{code}\n{printed.getvalue()}".encode(), dtype=np.uint8)


def digest(target):
    """Run the battery against the importable package and save it to ``target``."""
    import isaacslab

    out = {}
    _grid_arrays(isaacslab, out)
    _path_arrays(isaacslab, out)
    with tempfile.TemporaryDirectory() as workdir:
        _config_arrays(out, Path(workdir))
    np.savez(target, **{key: np.ascontiguousarray(value) for key, value in out.items()})


def _ordered(bits):
    """Float64 bit patterns as integers in the floats' order, so that
    neighbouring floats differ by one."""
    bits = bits.astype(object)
    return np.where(bits < 0, -(2 ** 63) - bits, bits)


def differences(base, head):
    """One line per array of ``base`` and ``head`` (dicts of arrays) that is not bit for bit equal."""
    lines = []
    for key in sorted(set(base) | set(head)):
        if key not in base or key not in head:
            lines.append(f"{key}: only at {'head' if key in head else 'base'}")
            continue
        one, other = base[key], head[key]
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
