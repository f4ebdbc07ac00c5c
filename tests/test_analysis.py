"""Game-level checks: values, Isaacs gap, dynamic programming, convergence."""

import numpy as np
import pytest

from isaacslab import analysis, pde
from isaacslab.analysis import (
    response_feedback,
    dpp_residual,
    feedback_from_field,
    isaacs_gap,
    lower_value,
    penalization_convergence,
    time_continuity_profile,
    upper_value,
    value_comparison,
)
from isaacslab.errors import FitError, PreconditionError
from isaacslab.pde import SpaceTimeGrid, solve_penalized_pde
from isaacslab.problems import (
    builtin_instance,
    eval_cost_rate,
    eval_diffusion,
    eval_drift,
    eval_obstacle,
)
from isaacslab.rbsde import RegressionBasis, cost_functional
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths

from conftest import correlated_game, declare_reads, make_instance, sized


def test_singleton_controls_make_both_values_identical():
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (71,))
    low = lower_value(inst, grid)
    up = upper_value(inst, grid)
    np.testing.assert_array_equal(low.slices, up.slices)
    assert value_comparison(low, up) == (0.0, 0.0)


def test_minimax_gap_orders_the_values_with_strict_gap():
    inst = builtin_instance("minimax_gap")
    grid = sized(inst, ((-2.0, 2.0),), (41,))
    low, up = lower_value(inst, grid), upper_value(inst, grid)
    violation, gap = value_comparison(low, up)
    assert violation <= 1e-12
    # the two-point bilinear cost accumulates an exact 2 dt gap per step
    assert gap == pytest.approx(2.0, abs=1e-12)
    mask = grid.inner_mask()
    assert (up.slices[0][mask] - low.slices[0][mask]).max() > 1.0


def test_gap_propagates_one_step_at_rate_two_dt():
    # brute-force check on a coarse grid: after j steps the gap is 2 j dt
    inst = builtin_instance("minimax_gap")
    grid = SpaceTimeGrid(box=((-2.0, 2.0),), nx=(11,), nt=20)
    low, up = lower_value(inst, grid), upper_value(inst, grid)
    dt = low.dt
    for j in (1, 2, 5):
        diff = up.slices[grid.nt - j] - low.slices[grid.nt - j]
        np.testing.assert_allclose(diff, 2.0 * j * dt, atol=1e-13)


def test_value_comparison_requires_matching_grids():
    inst = builtin_instance("minimax_gap")
    g1 = sized(inst, ((-2.0, 2.0),), (41,))
    g2 = sized(inst, ((-2.0, 2.0),), (21,))
    with pytest.raises(PreconditionError):
        value_comparison(lower_value(inst, g1), lower_value(inst, g2))


def test_isaacs_gap_samples():
    zero_sample = [(0.0, [0.0], 0.0, [0.0], [[0.0]])]
    assert isaacs_gap(builtin_instance("american_put"),
                      [(0.0, [100.0], 1.0, [0.5], [[0.01]])]) == 0.0
    assert isaacs_gap(builtin_instance("minimax_gap"), zero_sample) == 2.0


def test_isaacs_gap_zero_for_separable_costs(rng):
    # separable cost with control-free dynamics: max-min equals min-max,
    # verified against an exhaustive scan over both control grids
    inst = make_instance(
        u_points=[[-1.0], [0.5]], v_points=[[-1.0], [2.0]],
        sigma=lambda t, x, u, v: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z, u, v: u[:, 0] ** 2 - 3.0 * v[:, 0],
    )
    for _ in range(10):
        x = rng.uniform(-2, 2, 1)
        q = rng.uniform(-1, 1, 1)
        xm = rng.uniform(-1, 1, (1, 1))
        table = np.array([[u[0] ** 2 - 3.0 * v[0] + 0.5 * xm[0, 0]
                           for v in inst.v_grid.points]
                          for u in inst.u_grid.points])
        brute = table.min(axis=1).max() - table.max(axis=0).min()
        assert brute == 0.0
        assert isaacs_gap(inst, [(0.0, x, 0.0, q, xm)]) <= 1e-14


@pytest.mark.parametrize("name,box,nx", [
    ("american_put", ((20.0, 300.0),), (71,)),
    ("minimax_gap", ((-2.0, 2.0),), (41,)),
    ("no_obstacle_linear", ((-1.0, 1.0),), (21,)),
    ("deterministic_stop", ((-1.0, 1.0),), (21,)),
    ("lemma45", ((-1.0, 1.0),), (21,)),
])
def test_dpp_residual_vanishes_on_builtins(name, box, nx):
    inst = builtin_instance(name)
    grid = sized(inst, box, nx)
    field = lower_value(inst, grid)
    for t_frac, d_frac in ((0.0, 0.5), (0.25, 0.25), (0.5, 0.3)):
        t_index = int(round(t_frac * grid.nt))
        steps = max(1, int(round(d_frac * grid.nt)))
        steps = min(steps, grid.nt - t_index)
        report = dpp_residual(field, inst, t_index, steps)
        assert report.max_residual <= 1e-10


def test_dpp_residual_zero_steps_is_exactly_zero():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(21,), nt=100)
    field = lower_value(inst, grid)
    report = dpp_residual(field, inst, 40, 0)
    assert report.max_residual == 0.0


def test_dpp_residual_index_bounds():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(21,), nt=200)
    field = lower_value(inst, grid)
    with pytest.raises(PreconditionError):
        dpp_residual(field, inst, 150, 100)


def test_penalization_convergence_slack_obstacle_gaps_vanish():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    grid = sized(inst, ((-1.0, 1.0),), (21,))
    table = penalization_convergence(inst, grid, (1.0, 4.0, 16.0))
    assert table.monotone_ok
    assert max(table.sup_gaps) <= 1e-10


def one_sweep_per_weight(instance, grid, m_schedule):
    """Reference: every weight solved as its own stored field, gaps over whole
    arrays, monotonicity over the interior nodes."""
    reference = lower_value(instance, grid)
    mask = grid.inner_mask()
    interior = (slice(None),) + grid.interior()
    gaps, worst, previous = [], 0.0, None
    for m in m_schedule:
        field = solve_penalized_pde(instance, grid, m)
        if previous is not None:
            worst = max(worst, float((previous.slices - field.slices)[interior].max()))
        previous = field
        gaps.append(float(np.abs(reference.slices[:, mask] - field.slices[:, mask]).max()))
    return tuple(gaps), worst


@pytest.mark.parametrize("name, box, nx", [
    ("american_put", ((20.0, 300.0),), (57,)),
    ("minimax_gap", ((-2.0, 2.0),), (31,)),
    ("deterministic_stop", ((-1.0, 1.0),), (21,)),
    # unequal boxes and node counts: the fold's inner box against the reference's mask
    ("correlated_2d", ((-2.0, 2.0), (-1.5, 1.0)), (13, 11)),
])
@pytest.mark.parametrize("schedule", [(1.0, 4.0, 16.0, 64.0, 256.0), (3.0,), ()])
def test_penalization_convergence_matches_one_sweep_per_weight(name, box, nx, schedule):
    inst = correlated_game() if name == "correlated_2d" else builtin_instance(name)
    grid = sized(inst, box, nx)
    table = penalization_convergence(inst, grid, schedule)
    gaps, worst = one_sweep_per_weight(inst, grid, schedule)
    assert table.sup_gaps == gaps
    assert table.max_monotone_violation == worst
    assert table.monotone_ok == (worst <= 1e-12)


def test_penalization_convergence_2d_correlated_is_monotone_where_solved():
    # the 2 w1 - w2 face fill is not monotone in the weight; the interior is
    inst = correlated_game()
    grid = sized(inst, ((-2.0, 2.0), (-1.5, 1.0)), (13, 11))
    table = penalization_convergence(inst, grid, (1.0, 4.0, 16.0, 64.0, 256.0))
    assert table.monotone_ok
    assert table.max_monotone_violation <= 1e-12


def test_penalization_convergence_schedule_must_increase():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(11,), nt=100)
    with pytest.raises(PreconditionError):
        penalization_convergence(inst, grid, (4.0, 1.0))


def test_time_continuity_exact_affine_profiles():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    grid = sized(inst, ((-1.0, 1.0),), (21,))
    field = lower_value(inst, grid)
    fit = time_continuity_profile(field, [0.0], (0.2, 0.1, 0.05, 0.025))
    assert fit.exponent == pytest.approx(1.0, abs=1e-6)
    assert fit.constant == pytest.approx(1.0, rel=1e-4)

    inst2 = builtin_instance("deterministic_stop")
    grid2 = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(21,), nt=400)
    field2 = lower_value(inst2, grid2)
    fit2 = time_continuity_profile(field2, [0.0], (0.2, 0.1, 0.05, 0.025),
                                   instance=inst2)
    assert fit2.exponent == pytest.approx(1.0, abs=1e-6)
    # the obstacle itself moves at the same affine rate
    assert fit2.obstacle_moduli[0] == pytest.approx(0.2, abs=1e-9)


def per_pair_profile(field, x_samples, delta_schedule, t_window=None, instance=None):
    """Reference: the moduli pair by pair, the obstacle evaluated twice per pair.

    Returns ``(deltas, moduli, obstacle_moduli, slices read)``.
    """
    ax = field.grid.axes()[0]
    idx = np.unique(np.clip(np.searchsorted(ax, np.asarray(x_samples, dtype=float)),
                            0, len(ax) - 1))
    dt, nt = field.dt, len(field.times) - 1
    lo_t, hi_t = (0.0, field.horizon) if t_window is None else t_window
    base = [k for k in range(nt + 1) if lo_t - 1e-12 <= field.times[k] <= hi_t + 1e-12]
    used_deltas, moduli, obstacle_moduli, read = [], [], [], set()
    for delta in delta_schedule:
        j = max(1, int(round(float(delta) / dt)))
        ks = [k for k in base if k + j <= nt]
        if not ks:
            continue
        mod = obs = 0.0
        x_pts = ax[idx][:, None]
        for k in ks:
            read.update((k, k + j))
            mod = max(mod, float(np.abs(field.slices[k + j][idx] - field.slices[k][idx]).max()))
            if instance is not None:
                h_lo = eval_obstacle(instance, float(field.times[k]), x_pts)
                h_hi = eval_obstacle(instance, float(field.times[k + j]), x_pts)
                obs = max(obs, float(np.abs(h_hi - h_lo).max()))
        used_deltas.append(j * dt)
        moduli.append(mod)
        obstacle_moduli.append(obs)
    return tuple(used_deltas), tuple(moduli), tuple(obstacle_moduli), read


@pytest.mark.parametrize("name, window, obstacle", [
    ("american_put", None, False),
    ("american_put", None, True),
    ("american_put", (0.0, 0.5), True),
    ("american_put", (0.2, 0.3), True),
    ("american_put", (0.2, 0.3), "moving"),
    ("deterministic_stop", None, True),
    ("deterministic_stop", (0.5, 0.95), "moving"),
])
def test_time_continuity_matches_the_per_pair_loop(monkeypatch, name, window, obstacle):
    inst = builtin_instance(name)
    if name == "american_put":
        field = lower_value(inst, sized(inst, ((20.0, 300.0),), (141,)))
        xs = field.grid.axes()[0][field.grid.inner_mask()]
    else:
        field = lower_value(inst, SpaceTimeGrid(box=((-1.0, 1.0),), nx=(21,), nt=400))
        xs = [0.0, 0.5]
    # "moving": an obstacle that moves in time and differs across the nodes
    probe = {False: None, True: inst,
             "moving": make_instance(h=lambda t, x: np.cos(5.0 * t) * x[:, 0] / 100.0 - 50.0),
             }[obstacle]
    deltas = (0.2, 0.1, 0.05, 0.025, 0.0)
    expected = per_pair_profile(field, xs, deltas, window, probe)
    calls = []

    def counted(instance, t, x):
        calls.append(t)
        return eval_obstacle(instance, t, x)

    monkeypatch.setattr(analysis, "eval_obstacle", counted)
    fit = time_continuity_profile(field, xs, deltas, t_window=window, instance=probe)
    assert (fit.deltas, fit.moduli, fit.obstacle_moduli) == expected[:3]
    # once per slice that some pair reads, and never twice; once in all for
    # a time-homogeneous instance (american_put), whose moduli are then exactly 0
    read = sorted(float(field.times[k]) for k in expected[3]) if probe is not None else []
    if probe is not None and probe.coeffs.time_homogeneous:
        assert fit.obstacle_moduli == (0.0,) * len(fit.deltas)
        read = [0.0]
    assert sorted(calls) == read


def test_time_continuity_needs_three_deltas():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(11,), nt=100)
    field = lower_value(inst, grid)
    with pytest.raises(FitError):
        time_continuity_profile(field, [0.0], (0.1, 0.05))


def test_feedback_controls_recover_game_value():
    # optimal feedback pair read off the lower field reproduces the value
    inst = builtin_instance("minimax_gap")
    grid = sized(inst, ((-2.0, 2.0),), (41,))
    field = lower_value(inst, grid)
    u_fb, v_fb = feedback_from_field(field, inst)
    value = cost_functional(inst, 0.0, np.zeros(1), u_fb, v_fb,
                            TimeMesh(0.0, 1.0, 50), paths=64,
                            basis=RegressionBasis(2), seed=5)
    assert value == pytest.approx(field.interp(0, 0.0), abs=0.05)


def test_feedback_pair_shares_one_hamiltonian_scan_per_query(monkeypatch):
    inst = builtin_instance("minimax_gap")
    field = lower_value(inst, sized(inst, ((-2.0, 2.0),), (41,)))
    calls = {}
    for name, fn in (("drift", eval_drift), ("diffusion", eval_diffusion),
                     ("cost_rate", eval_cost_rate)):
        seen = calls[name] = []
        monkeypatch.setattr(pde, "eval_" + name,
                            lambda *args, seen=seen, fn=fn: seen.append(args[1]) or fn(*args))

    def simulate(u, v):
        for seen in calls.values():
            seen.clear()
        bundle = simulate_paths(inst, np.zeros(1), TimeMesh(0.0, 1.0, 20), u, v, 64, 7)
        return bundle, {name: len(seen) for name, seen in calls.items()}

    shared, shared_calls = simulate(*feedback_from_field(field, inst))
    # controls taken from two separate pairs share no scan
    apart, apart_calls = simulate(feedback_from_field(field, inst)[0],
                                  feedback_from_field(field, inst)[1])
    # time-homogeneous dynamics are tabulated once per field, not per query,
    # and so is minimax_gap's cost rate, which reads neither y nor z
    assert shared_calls == {"drift": 1, "diffusion": 1, "cost_rate": 1}
    assert apart_calls == {"drift": 2, "diffusion": 2, "cost_rate": 2}
    for name in ("states", "dB", "u_path", "v_path"):
        assert np.array_equal(getattr(shared, name), getattr(apart, name))
    # the best response reads the same once-tabulated stacks
    _, response_calls = simulate(ControlPath.constant(1), response_feedback(field, inst, 1))
    assert response_calls == {"drift": 1, "diffusion": 1, "cost_rate": 1}
    # a cost rate declared to read y and z is evaluated once per query, on
    # every control pair, and gives the same paths
    read, read_calls = simulate(*feedback_from_field(field, declare_reads(inst, ("y", "z"))))
    assert read_calls == {"drift": 1, "diffusion": 1, "cost_rate": 20}
    for name in ("states", "dB", "u_path", "v_path"):
        assert np.array_equal(getattr(shared, name), getattr(read, name))


def test_feedback_is_sandwiched_by_fixed_controls():
    # playing any fixed first-player control against the best response
    # cannot beat the value
    inst = builtin_instance("minimax_gap")
    grid = sized(inst, ((-2.0, 2.0),), (41,))
    field = lower_value(inst, grid)
    w0 = field.interp(0, 0.0)
    for iu in (0, 1):
        v_fb = response_feedback(field, inst, iu)
        value = cost_functional(inst, 0.0, np.zeros(1), ControlPath.constant(iu),
                                v_fb, TimeMesh(0.0, 1.0, 50), paths=64,
                                basis=RegressionBasis(2), seed=6)
        assert value <= w0 + 0.05
