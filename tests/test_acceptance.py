"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
Every tolerance is fixed here; nothing is deferred to later calibration.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from isaacslab.analysis import (
    dpp_residual,
    lower_value,
    penalization_convergence,
    upper_value,
    value_comparison,
)
from isaacslab.cli import main
from isaacslab.oracles import crr_put, degenerate_rbsde_value
from isaacslab.pde import SpaceTimeGrid, cfl_required_nt, solve_obstacle_pde
from isaacslab.problems import builtin_instance, eval_terminal
from isaacslab.rbsde import (
    RegressionBasis,
    backward_semigroup,
    snell_oracle,
    solve_penalized,
    solve_reflected,
)
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths

from conftest import make_bundle, make_instance, obstacle_table, sized

C0 = ControlPath.constant(0)
BASIS2 = RegressionBasis(degree=2)

INSTANCE_GRIDS = {
    "american_put": (((20.0, 300.0),), (71,)),
    "lemma45": (((-1.0, 1.0),), (21,)),
    "minimax_gap": (((-2.0, 2.0),), (41,)),
    "no_obstacle_linear": (((-1.0, 1.0),), (21,)),
    "deterministic_stop": (((-1.0, 1.0),), (21,)),
}


def _report(num, description, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num:02d}: {description} {detail}".rstrip())
    assert ok, f"criterion {num:02d} failed: {description} {detail}"


def test_c01_degenerate_closed_form(tmp_path):
    cfg = tmp_path / "rbsde.json"
    cfg.write_text(json.dumps({
        "experiment": "rbsde_oracle",
        "instance": {"name": "lemma45", "params": {"C": 1.0, "theta": 1.0,
                                                   "rho": 1.0, "T": 1.0}},
        "mc": {"paths": 1, "steps": 1000, "seed": 3},
        "output": {"directory": str(tmp_path / "out")},
    }), encoding="utf-8")
    assert main(["run", str(cfg)]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())["metrics"]
    target = degenerate_rbsde_value(1.0, 1.0, 1.0)
    err = abs(metrics["y0"] - target)
    _report(1, "constant-driver benchmark reproduces -(1/2)(1 - 1/e)",
            err <= 1e-3, f"(|y0 - {target:.6f}| = {err:.2e})")


def test_c02_american_put_against_binomial_tree():
    reference = crr_put(100.0, 100.0, 0.05, 0.2, 1.0, 2000)
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (281,))
    start = time.time()
    field = solve_obstacle_pde("lower", inst, grid)
    elapsed = time.time() - start
    value = field.interp(0, 100.0)
    rel = abs(value - reference) / reference
    _report(2, "obstacle solver matches the 2000-step binomial put",
            rel <= 0.01 and elapsed <= 60.0,
            f"(rel err {rel:.2e}, {elapsed:.1f}s)")


def test_c03_penalization_monotone_convergence():
    schedule = (1.0, 4.0, 16.0, 64.0, 256.0)
    ok = True
    details = []
    for name in ("deterministic_stop", "american_put"):
        inst = builtin_instance(name)
        if name == "deterministic_stop":
            grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(41,), nt=1000)
        else:
            grid = sized(inst, ((20.0, 300.0),), (281,))
        table = penalization_convergence(inst, grid, schedule)
        gaps = table.sup_gaps
        nonincreasing = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        ok = ok and table.monotone_ok and nonincreasing and gaps[-1] <= 0.02
        details.append(f"{name}: final gap {gaps[-1]:.4f}, "
                       f"viol {table.max_monotone_violation:.1e}")
    _report(3, "penalized fields increase to the reflected field", ok,
            "(" + "; ".join(details) + ")")


def test_c04_discrete_comparison_fifty_triples():
    rng = np.random.default_rng(42)
    worst = 0.0
    trials = 0

    def check(y_low, y_high):
        nonlocal worst, trials
        worst = max(worst, float((y_low - y_high).max()))
        trials += 1

    # single-path deterministic problems: raise terminal, driver, obstacle
    for _ in range(20):
        steps = 32
        hvals = rng.uniform(-1.0, 1.0, steps + 1)
        shift = rng.uniform(-0.3, 0.3)
        inst = make_instance(
            f=lambda t, x, y, z, u, v, s=shift: np.full(x.shape[0],
                                                        s + 0.2 * np.sin(4 * t)),
            h=obstacle_table(hvals, 0.0, 1.0 / steps))
        bundle = make_bundle(inst, 0.0, 0.0, 1.0, steps)
        xi = np.array([hvals[-1] + rng.uniform(0.0, 0.5)])
        base = solve_reflected(inst, bundle, xi, BASIS2)
        kind = rng.integers(0, 3)
        if kind == 0:
            other = solve_reflected(inst, bundle, xi + rng.uniform(0, 1), BASIS2)
        elif kind == 1:
            bump = rng.uniform(0.0, 1.0)
            inst_f = make_instance(
                f=lambda t, x, y, z, u, v, s=shift, b=bump: np.full(
                    x.shape[0], s + 0.2 * np.sin(4 * t) + b),
                h=inst.coeffs.h)
            other = solve_reflected(inst_f, bundle, xi, BASIS2)
        else:
            bump = rng.uniform(0.0, 1.0)
            inst_h = make_instance(
                f=inst.coeffs.f,
                h=lambda t, x, b=bump: inst.coeffs.h(t, x) + b)
            other = solve_reflected(inst_h, bundle, xi + bump, BASIS2)
        check(base.Y, other.Y)

    # degenerate diffusion, many paths, penalized scheme: raise terminal
    inst = builtin_instance("lemma45")
    for _ in range(15):
        bundle = make_bundle(inst, 0.0, 0.0, 1.0, 64, paths=16,
                         seed=int(rng.integers(1 << 30)))
        xi1 = rng.uniform(-0.5, 0.0, 16)
        xi2 = xi1 + rng.uniform(0.0, 1.0, 16)
        m = float(rng.choice([1.0, 10.0, 50.0]))
        check(solve_penalized(inst, bundle, xi1, BASIS2, m).Y,
              solve_penalized(inst, bundle, xi2, BASIS2, m).Y)

    # diffusive bundles with the monotone mean estimator: raise each datum
    put = builtin_instance("american_put")
    basis0 = RegressionBasis(degree=0)
    for i in range(15):
        bundle = make_bundle(put, 100.0, 0.0, 1.0, 25, paths=256,
                         seed=int(rng.integers(1 << 30)))
        xi = eval_terminal(put, bundle.states[:, -1])
        base = solve_reflected(put, bundle, xi, basis0)
        kind = i % 3
        if kind == 0:
            bump = rng.uniform(0.0, 5.0, 256)
            other = solve_reflected(put, bundle, xi + bump, basis0)
        elif kind == 1:
            bump = rng.uniform(0.0, 2.0)
            inst_f = make_instance(
                b=put.coeffs.b, sigma=put.coeffs.sigma,
                f=lambda t, x, y, z, u, v, b=bump: -0.05 * y + b,
                phi=put.coeffs.phi, h=put.coeffs.h, growth=300.0)
            other = solve_reflected(inst_f, bundle, xi, basis0)
        else:
            bump = rng.uniform(0.0, 2.0)
            inst_h = make_instance(
                b=put.coeffs.b, sigma=put.coeffs.sigma, f=put.coeffs.f,
                phi=put.coeffs.phi,
                h=lambda t, x, b=bump: put.coeffs.h(t, x) + b, growth=300.0)
            other = solve_reflected(inst_h, bundle, xi + bump, basis0)
        check(base.Y, other.Y)

    _report(4, "raising terminal, driver or obstacle never decreases values",
            trials == 50 and worst <= 1e-12,
            f"({trials} triples, worst decrease {worst:.2e})")


def test_c05_skorokhod_complementarity_battery():
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    k_ok = True
    cases = []
    put = builtin_instance("american_put")
    bundle = make_bundle(put, 100.0, 0.0, 1.0, 50, paths=512, seed=9)
    cases.append((put, bundle, eval_terminal(put, bundle.states[:, -1])))
    stop = builtin_instance("deterministic_stop")
    cases.append((stop, make_bundle(stop, 0.0, 0.0, 1.0, 200), np.zeros(1)))
    for _ in range(10):
        steps = int(rng.integers(5, 60))
        hvals = rng.uniform(-1.0, 1.0, steps + 1)
        inst = make_instance(h=obstacle_table(hvals, 0.0, 1.0 / steps))
        cases.append((inst, make_bundle(inst, 0.0, 0.0, 1.0, steps),
                      np.array([hvals[-1] + rng.uniform(0, 1)])))
    for inst, bundle, terminal in cases:
        sol = solve_reflected(inst, bundle, terminal, BASIS2)
        bound = 1e-8 * (1.0 + np.abs(sol.Y).max(axis=1))
        worst_ratio = max(worst_ratio,
                          float((np.abs(sol.skorokhod_sums()) / bound).max()))
        k_ok = k_ok and sol.K[:, 0].max() == 0.0 \
            and np.diff(sol.K, axis=1).min() >= 0.0
    _report(5, "reflection pushes only on the obstacle (complementarity)",
            worst_ratio <= 1.0 and k_ok,
            f"({len(cases)} solves, worst normalised sum {worst_ratio:.2e})")


def test_c06_dynamic_programming_identity():
    worst = 0.0
    for name, (box, nx) in INSTANCE_GRIDS.items():
        inst = builtin_instance(name)
        if name in ("deterministic_stop", "lemma45"):
            grid = SpaceTimeGrid(box=box, nx=nx, nt=400)
        else:
            grid = sized(inst, box, nx)
        field = lower_value(inst, grid)
        for t_frac, d_frac in ((0.0, 0.5), (0.25, 0.25), (0.5, 0.3)):
            t_index = int(round(t_frac * grid.nt))
            steps = min(max(1, int(round(d_frac * grid.nt))), grid.nt - t_index)
            worst = max(worst, dpp_residual(field, inst, t_index, steps).max_residual)

    # Monte Carlo cross-check: semigroup applied to the grid slice
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (141,))
    field = lower_value(inst, grid)
    t_index = grid.nt // 2
    d_steps = grid.nt // 4
    t0, t1 = float(field.times[t_index]), float(field.times[t_index + d_steps])
    grid_value = float(field.interp(t_index, 100.0))
    values = []
    for seed in range(8):
        bundle = make_bundle(inst, 100.0, t0, t1, 50, paths=10_000, seed=100 + seed)
        eta = field.interp(t_index + d_steps, bundle.states[:, -1, 0])
        values.append(backward_semigroup(inst, bundle, eta, BASIS2))
    values = np.array(values)
    se = values.std(ddof=1) / np.sqrt(len(values))
    mc_gap = abs(values.mean() - grid_value)
    tol = 3.0 * se + 5.0 * grid.dx()[0]
    _report(6, "one-step re-solve identity and Monte Carlo cross-check",
            worst <= 1e-10 and mc_gap <= tol,
            f"(grid residual {worst:.1e}; MC gap {mc_gap:.3f} vs tol {tol:.3f})")


def test_c07_lower_value_below_upper_value():
    ok = True
    details = []
    for name, (box, nx) in INSTANCE_GRIDS.items():
        inst = builtin_instance(name)
        if name in ("deterministic_stop", "lemma45"):
            grid = SpaceTimeGrid(box=box, nx=nx, nt=400)
        else:
            grid = sized(inst, box, nx)
        low, up = lower_value(inst, grid), upper_value(inst, grid)
        violation, gap = value_comparison(low, up)
        ok = ok and violation <= 1e-12
        # Hamiltonian gap on a small sample of the grid data
        samples = [(0.0, [float(grid.axes()[0][j])], 0.0, [0.1], [[0.05]])
                   for j in (1, nx[0] // 2, nx[0] - 2)]
        from isaacslab.analysis import isaacs_gap
        hgap = isaacs_gap(inst, samples)
        if hgap <= 1e-12:
            mask = grid.inner_mask()
            sup = float(np.abs(low.slices[:, mask] - up.slices[:, mask]).max())
            ok = ok and sup <= 10.0 * grid.dx()[0]
        if name == "minimax_gap":
            mask = grid.inner_mask()
            interior_gap = float((up.slices[0][mask] - low.slices[0][mask]).max())
            ok = ok and interior_gap > 0.0
            details.append(f"minimax interior gap {interior_gap:.3f}")
    _report(7, "lower value never exceeds upper value; zero gap means a value",
            ok, "(" + "; ".join(details) + ")")


def test_c08_lipschitz_stability():
    # discrete spatial Lipschitz constants under refinement
    ok = True
    details = []
    for name, (box, _) in INSTANCE_GRIDS.items():
        inst = builtin_instance(name)
        constants = []
        for nx in (71, 141, 281):
            grid = SpaceTimeGrid(box=box, nx=(nx,), nt=1)
            need = cfl_required_nt(inst, grid)
            grid = dataclasses.replace(grid, nt=max(need, 200))
            field = lower_value(inst, grid)
            dx = grid.dx()[0]
            constants.append(float(np.abs(np.diff(field.slices, axis=1)).max() / dx))
        top = max(constants)
        if top > 1e-8:
            ok = ok and top / min(constants) <= 1.5
            details.append(f"{name}: L in [{min(constants):.3f}, {top:.3f}]")
    # pathwise initial-state Lipschitz under common random numbers
    inst = builtin_instance("american_put")
    mesh = TimeMesh(0.0, 1.0, 50)

    def value_at(x0):
        bundle = simulate_paths(inst, np.array([x0]), mesh, C0, C0, 20_000, 11)
        xi = eval_terminal(inst, bundle.states[:, -1])
        return solve_reflected(inst, bundle, xi, BASIS2).value()

    base = value_at(100.0)
    quotients = [abs(value_at(100.0 + sep) - base) / sep for sep in (1.0, 0.1, 0.01)]
    ratio = max(quotients) / min(quotients)
    ok = ok and ratio <= 2.0
    details.append(f"pathwise quotients {['%.3f' % q for q in quotients]}")
    _report(8, "space Lipschitz constants stable under refinement and CRN", ok,
            "(" + "; ".join(details) + ")")


def test_c09_time_continuity_exponent():
    from isaacslab.analysis import time_continuity_profile
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (141,))
    field = lower_value(inst, grid)
    xs = grid.axes()[0][grid.inner_mask()]
    fit = time_continuity_profile(field, xs, (0.2, 0.1, 0.05, 0.025),
                                  t_window=(0.0, 0.5))
    _report(9, "time modulus exponent away from expiry is at least 0.4",
            fit.exponent >= 0.4, f"(exponent {fit.exponent:.3f})")


def test_c10_forward_moment_estimates():
    inst = builtin_instance("american_put")
    deltas = np.array([0.2, 0.1, 0.05, 0.025])
    from isaacslab.sde import empirical_moments
    moments = []
    for delta in deltas:
        bundle = make_bundle(inst, 100.0, 0.0, delta, 64, paths=10_000, seed=3)
        moments.append(empirical_moments(bundle, 2)[1])
    slope = float(np.polyfit(np.log(deltas), np.log(moments), 1)[0])
    mesh = TimeMesh(0.0, 1.0, 50)
    base = simulate_paths(inst, np.array([100.0]), mesh, C0, C0, 4000, 5)
    constants = []
    for sep in (1.0, 0.1, 0.01):
        other = simulate_paths(inst, np.array([100.0 + sep]), mesh, C0, C0,
                               4000, 5)
        diff = np.linalg.norm(base.states - other.states, axis=2).max(axis=1)
        constants.append(float(np.mean(diff**2)) / sep**2)
    ratio = max(constants) / min(constants)
    _report(10, "increment moments scale linearly; CRN constant is stable",
            0.85 <= slope <= 1.15 and ratio <= 2.0,
            f"(exponent {slope:.3f}, CRN ratio {ratio:.3f})")


def test_c11_snell_oracle_equivalence():
    rng = np.random.default_rng(2024)
    exact = 0
    for _ in range(20):
        steps = int(rng.integers(3, 50))
        hvals = rng.uniform(-2.0, 2.0, steps + 1)
        inst = make_instance(h=obstacle_table(hvals, 0.0, 1.0 / steps))
        bundle = make_bundle(inst, 0.0, 0.0, 1.0, steps)
        terminal = float(hvals[-1] + rng.uniform(0.0, 1.0))
        sol = solve_reflected(inst, bundle, np.array([terminal]), BASIS2)
        if sol.Y[0, 0] == snell_oracle(hvals, terminal):
            exact += 1
    _report(11, "reflected solve equals the stopping-scan oracle exactly",
            exact == 20, f"({exact}/20 sequences bit-equal)")


def test_c12_end_to_end_reproducibility(tmp_path):
    configs = {
        "rbsde": {
            "experiment": "rbsde_oracle", "instance": {"name": "lemma45"},
            "mc": {"paths": 1, "steps": 500, "seed": 5},
        },
        "compare": {
            "experiment": "compare_wu", "instance": {"name": "minimax_gap"},
            "grid": {"box": [[-2, 2]], "nx": [41]},
        },
        "penalization": {
            "experiment": "penalization",
            "instance": {"name": "deterministic_stop"},
            "grid": {"box": [[-1, 1]], "nx": [21], "nt": 500},
            "schedules": {"m": [1, 16, 256]},
        },
        "dpp": {
            "experiment": "dpp", "instance": {"name": "no_obstacle_linear"},
            "grid": {"box": [[-1, 1]], "nx": [21]},
        },
        "solve": {
            "experiment": "solve", "instance": {"name": "american_put"},
            "grid": {"box": [[20, 300]], "nx": [41]},
            "output": {"formats": ["csv", "json"]},
        },
        "oracle": {
            "experiment": "american_oracle", "instance": {"name": "american_put"},
            "grid": {"box": [[20, 300]]},
            "schedules": {"nx": [31, 41]},
            "options": {"binomial_steps": 500},
        },
    }
    identical = True
    for label, payload in configs.items():
        blobs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{label}_{attempt}"
            payload_run = dict(payload)
            payload_run["output"] = {**payload.get("output", {}),
                                     "directory": str(outdir)}
            cfg = tmp_path / f"{label}_{attempt}.json"
            cfg.write_text(json.dumps(payload_run), encoding="utf-8")
            assert main(["run", str(cfg)]) == 0
            blobs.append((outdir / "metrics.json").read_bytes())
            if (outdir / "field.csv").exists():
                blobs[-1] += (outdir / "field.csv").read_bytes()
        identical = identical and blobs[0] == blobs[1]
    _report(12, "reruns reproduce every metric bit for bit", identical,
            f"({len(configs)} experiments, two runs each)")
