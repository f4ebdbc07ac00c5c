"""Backward solvers: exact benchmarks, comparison, complementarity."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from isaacslab.errors import PreconditionError
from isaacslab.oracles import crr_put, degenerate_rbsde_value
from isaacslab.problems import builtin_instance, eval_terminal
from isaacslab.rbsde import (
    RegressionBasis,
    backward_semigroup,
    cost_functional,
    snell_oracle,
    solve_penalized,
    solve_reflected,
)
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths

from conftest import make_instance

C0 = ControlPath.constant(0)
BASIS = RegressionBasis(degree=2)


def _bundle(inst, x0, t0, t1, steps, paths=1, seed=1):
    mesh = TimeMesh(t0, t1, steps)
    return simulate_paths(inst, np.atleast_1d(x0), mesh, C0, C0, paths, seed)


def _interp_obstacle(values, t0, dt):
    """Obstacle lookup table in time, constant in space."""
    values = np.asarray(values, dtype=float)

    def h(t, x):
        k = int(round((t - t0) / dt))
        return np.full(x.shape[0], values[k])

    return h


def test_constant_driver_value_no_reflection():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 50, paths=4096, seed=11)
    sol = solve_reflected(inst, bundle, np.zeros(4096), BASIS)
    assert sol.value() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(sol.K, 0.0)
    # the gradient estimate of a constant target is pure regression noise;
    # its cross-path mean has standard error 1 / sqrt(M dt) per step
    assert np.abs(sol.Z.mean(axis=0)).max() <= 4.0 / np.sqrt(4096 * bundle.mesh.dt)


def test_deterministic_stop_exact_reflection():
    inst = builtin_instance("deterministic_stop")
    bundle = _bundle(inst, 0.3, 0.0, 1.0, 10)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    np.testing.assert_allclose(sol.Y[0], 1.0 - bundle.mesh.times(), atol=1e-14)
    np.testing.assert_allclose(np.diff(sol.K[0]), bundle.mesh.dt, atol=1e-14)


def test_degenerate_benchmark_closed_form():
    inst = builtin_instance("lemma45")
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 1000)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    assert sol.value() == pytest.approx(degenerate_rbsde_value(1.0, 1.0, 1.0),
                                        abs=1e-3)
    # slack obstacle: no reflection happens
    np.testing.assert_array_equal(sol.K, 0.0)


def test_degenerate_benchmark_closed_form_at_zero_feedback():
    # C = 0 leaves the constant cost rate -theta / 2: the closed form's limit
    inst = builtin_instance("lemma45", {"C": 0.0, "theta": 1.0})
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 100)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    assert degenerate_rbsde_value(0.0, 1.0, 1.0) == -0.5
    assert sol.value() == pytest.approx(-0.5, abs=1e-12)


def test_penalized_zero_weight_is_unreflected():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 40, paths=256, seed=3)
    sol = solve_penalized(inst, bundle, np.zeros(256), BASIS, m=0.0)
    assert sol.value() == pytest.approx(1.0, abs=1e-12)
    assert sol.scheme == "penalized" and sol.penalty == 0.0


def test_penalized_monotone_in_weight_against_reflected():
    inst = builtin_instance("deterministic_stop")
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 1000)
    values = [solve_penalized(inst, bundle, np.zeros(1), BASIS, m).value()
              for m in (1.0, 10.0, 100.0)]
    reference = solve_reflected(inst, bundle, np.zeros(1), BASIS).value()
    assert values[0] <= values[1] <= values[2] <= reference + 1e-12
    assert values[2] >= 1.0 - bundle.mesh.dt - 0.05


def test_penalized_step_closed_form():
    # one step with yhat = -2, obstacle 0, m dt = 1 gives (-2 + 0) / 2 = -1
    horizon = 1.0
    inst = make_instance(h=_interp_obstacle([0.0, -5.0], 0.0, horizon))
    bundle = _bundle(inst, 0.0, 0.0, horizon, 1)
    sol = solve_penalized(inst, bundle, np.array([-2.0]), BASIS, m=1.0)
    assert sol.Y[0, 0] == pytest.approx(-1.0, abs=0)
    assert sol.K[0, -1] == pytest.approx(1.0, abs=1e-15)  # m dt (y-h)^-


def test_terminal_below_obstacle_is_rejected():
    inst = builtin_instance("deterministic_stop")
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 5)
    with pytest.raises(PreconditionError):
        solve_reflected(inst, bundle, np.array([-1.0]), BASIS)


def test_skorokhod_complementarity_exact():
    inst = builtin_instance("american_put")
    bundle = _bundle(inst, 100.0, 0.0, 1.0, 50, paths=512, seed=9)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    sol = solve_reflected(inst, bundle, terminal, BASIS)
    assert np.abs(sol.skorokhod_sums()).max() == 0.0
    assert sol.K[:, 0].max() == 0.0
    assert np.diff(sol.K, axis=1).min() >= 0.0
    assert (sol.Y >= sol.obstacle_samples - 1e-10).all()


def _random_deterministic_problem(rng, steps=32):
    horizon = 1.0
    dt = horizon / steps
    hvals = rng.uniform(-1.0, 1.0, steps + 1)
    inst = make_instance(
        f=lambda t, x, y, z, u, v: np.full(x.shape[0], 0.3 * np.sin(3.0 * t)),
        h=_interp_obstacle(hvals, 0.0, dt),
    )
    terminal = hvals[-1] + rng.uniform(0.0, 1.0)
    return inst, hvals, terminal


def test_comparison_raising_data_never_decreases_values(rng):
    # deterministic single-path problems: ordering is exact nodewise
    for _ in range(10):
        inst, hvals, terminal = _random_deterministic_problem(rng)
        bundle = _bundle(inst, 0.0, 0.0, 1.0, 32)
        base = solve_reflected(inst, bundle, np.array([terminal]), BASIS)

        bump_xi = rng.uniform(0.0, 0.5)
        hi_xi = solve_reflected(inst, bundle, np.array([terminal + bump_xi]), BASIS)
        assert (hi_xi.Y - base.Y).min() >= 0.0

        bump_f = rng.uniform(0.0, 0.5)
        inst_f = make_instance(
            f=lambda t, x, y, z, u, v: np.full(x.shape[0],
                                               0.3 * np.sin(3.0 * t) + bump_f),
            h=inst.coeffs.h)
        hi_f = solve_reflected(inst_f, bundle, np.array([terminal]), BASIS)
        assert (hi_f.Y - base.Y).min() >= 0.0

        bump_h = rng.uniform(0.0, 0.5)
        inst_h = make_instance(f=inst.coeffs.f,
                               h=lambda t, x: inst.coeffs.h(t, x) + bump_h)
        if terminal >= hvals[-1] + bump_h:
            hi_h = solve_reflected(inst_h, bundle, np.array([terminal]), BASIS)
            assert (hi_h.Y - base.Y).min() >= 0.0


def test_comparison_penalized_terminal_ordering(rng):
    # degenerate diffusion: the conditional-mean estimator preserves order
    inst = builtin_instance("lemma45")
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 64, paths=16, seed=4)
    xi1 = rng.uniform(-0.5, 0.0, 16)
    xi2 = xi1 + rng.uniform(0.0, 1.0, 16)
    for m in (1.0, 25.0):
        y1 = solve_penalized(inst, bundle, xi1, BASIS, m)
        y2 = solve_penalized(inst, bundle, xi2, BASIS, m)
        assert y1.Y[:, 0].max() <= y2.Y[:, 0].min() + 1e-12 or \
            (y2.Y - y1.Y).min() >= -1e-12


def test_penalized_chain_below_reflected_shared_bundle():
    # monotone mean estimator (degree 0) on a diffusive bundle
    inst = builtin_instance("american_put")
    basis0 = RegressionBasis(degree=0)
    bundle = _bundle(inst, 100.0, 0.0, 1.0, 25, paths=512, seed=6)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    y_prev = None
    for m in (1.0, 4.0, 16.0, 64.0):
        sol = solve_penalized(inst, bundle, terminal, basis0, m)
        if y_prev is not None:
            assert (sol.Y - y_prev).min() >= -1e-12
        y_prev = sol.Y
    reflected = solve_reflected(inst, bundle, terminal, basis0)
    assert (reflected.Y - y_prev).min() >= -1e-12


def test_linear_growth_envelope_across_initial_points():
    inst = builtin_instance("american_put")
    ratios = []
    for x0 in (0.0, 1.0, -1.0, 10.0, -10.0):
        bundle = _bundle(inst, x0, 0.0, 1.0, 25, paths=256, seed=8)
        terminal = eval_terminal(inst, bundle.states[:, -1])
        sol = solve_reflected(inst, bundle, terminal, BASIS)
        ratios.append(abs(sol.value()) / (1.0 + abs(x0)))
    # one constant works across all initial points: no superlinear growth
    assert max(ratios) <= 1.25 * max(ratios[0], ratios[1]) + 1e-9


def test_snell_oracle_trivial_cases():
    assert snell_oracle([1.0, 0.5, 0.0], 0.0) == 1.0
    assert snell_oracle([0.0, 0.0, 0.0], 7.0) == 7.0
    assert snell_oracle([3.0], 2.0) == 2.0  # single node: hold to maturity


def test_snell_oracle_matches_solver_on_deterministic_stop():
    inst = builtin_instance("deterministic_stop")
    bundle = _bundle(inst, 0.0, 0.0, 1.0, 10)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    hvals = 1.0 - bundle.mesh.times()
    assert sol.Y[0, 0] == snell_oracle(hvals, 0.0) == 1.0


def test_snell_equivalence_randomized(rng):
    # frozen dynamics, zero driver: the solver is exactly the stopping scan
    for _ in range(5):
        steps = int(rng.integers(3, 40))
        hvals = rng.uniform(-2.0, 2.0, steps + 1)
        inst = make_instance(h=_interp_obstacle(hvals, 0.0, 1.0 / steps))
        bundle = _bundle(inst, 0.0, 0.0, 1.0, steps)
        terminal = float(hvals[-1] + rng.uniform(0.0, 1.0))
        sol = solve_reflected(inst, bundle, np.array([terminal]), BASIS)
        assert sol.Y[0, 0] == snell_oracle(hvals, terminal)


def test_backward_semigroup_constant_data():
    inst = make_instance()
    bundle = _bundle(inst, 0.0, 0.2, 0.7, 10)
    assert backward_semigroup(inst, bundle, np.array([4.0]), BASIS) == 4.0


def test_backward_semigroup_empty_interval_returns_eta():
    inst = make_instance()
    bundle = _bundle(inst, 0.0, 0.5, 0.5, 0)
    assert backward_semigroup(inst, bundle, np.array([2.5]), BASIS) == 2.5


def test_backward_semigroup_obstacle_pushes():
    inst = builtin_instance("deterministic_stop")
    bundle = _bundle(inst, 0.0, 0.0, 0.5, 100)
    value = backward_semigroup(inst, bundle, np.array([0.5]), BASIS)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_backward_semigroup_rejects_eta_below_obstacle():
    inst = builtin_instance("deterministic_stop")
    bundle = _bundle(inst, 0.0, 0.0, 0.5, 10)
    with pytest.raises(PreconditionError):
        backward_semigroup(inst, bundle, np.array([0.2]), BASIS)


def test_flow_property_splice_matches_full_solve():
    # value at an intermediate time fed back through the semigroup
    inst = builtin_instance("lemma45")
    full = solve_reflected(inst, _bundle(inst, 0.0, 0.0, 1.0, 1000),
                           np.zeros(1), BASIS).value()
    mid = solve_reflected(inst, _bundle(inst, 0.0, 0.4, 1.0, 600),
                          np.zeros(1), BASIS).value()
    spliced = backward_semigroup(inst, _bundle(inst, 0.0, 0.0, 0.4, 400),
                                 np.array([mid]), BASIS)
    assert spliced == pytest.approx(full, abs=1e-12)


def test_cost_functional_constant_data():
    inst = builtin_instance("no_obstacle_linear", {"c0": 0.0, "c1": 3.0})
    value = cost_functional(inst, 0.0, np.zeros(1), C0, C0,
                            TimeMesh(0.0, 1.0, 20), paths=128, basis=BASIS, seed=2)
    assert value == pytest.approx(3.0, abs=1e-12)


def test_cost_functional_deterministic_stop():
    inst = builtin_instance("deterministic_stop")
    value = cost_functional(inst, 0.0, np.zeros(1), C0, C0,
                            TimeMesh(0.0, 1.0, 100), paths=1, basis=BASIS, seed=2)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_cost_functional_american_put_near_binomial():
    # global polynomial fit keeps overshoot through the projection, so the
    # Monte Carlo value carries a few-percent upward bias at this degree
    inst = builtin_instance("american_put")
    reference = crr_put(100.0, 100.0, 0.05, 0.2, 1.0, 2000, american=True)
    value = cost_functional(inst, 0.0, np.array([100.0]), C0, C0,
                            TimeMesh(0.0, 1.0, 25), paths=20_000,
                            basis=RegressionBasis(degree=6), seed=11)
    assert abs(value - reference) / reference <= 0.08


def test_features_are_products_of_standardised_columns():
    x = np.random.default_rng(8).normal(loc=[1.0, -3.0], scale=[2.0, 0.5], size=(40, 2))
    xs = (x - x.mean(axis=0)) / x.std(axis=0)
    expected = [np.ones(40)]
    for deg in range(1, 4):
        for combo in combinations_with_replacement(range(2), deg):
            col = np.ones(40)
            for axis in combo:
                col = col * xs[:, axis]
            expected.append(col)
    A = RegressionBasis(degree=3).features(x)
    assert A.shape == (40, 10)
    np.testing.assert_array_equal(A, np.stack(expected, axis=1))


def test_solution_layout_and_contiguous_reductions():
    # Y, Z, K are path-major views of step-major storage; the reductions
    # the solution reports match the same formulas on C-contiguous copies
    inst = builtin_instance("american_put")
    bundle = _bundle(inst, 100.0, 0.0, 1.0, 20, paths=300, seed=4)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    sol = solve_penalized(inst, bundle, terminal, RegressionBasis(degree=3), 50.0)
    assert sol.Y.shape == sol.K.shape == sol.obstacle_samples.shape == (300, 21)
    assert sol.Z.shape == (300, 20, 1)
    Y, K, h = (np.ascontiguousarray(a) for a in (sol.Y, sol.K, sol.obstacle_samples))
    expected = ((Y[:, :-1] - h[:, :-1]) * np.diff(K, axis=1)).sum(axis=1)
    assert np.any(expected != 0.0)
    np.testing.assert_array_equal(sol.skorokhod_sums(), expected)
    assert sol.value() == float(Y[:, 0].mean())


def test_regression_fallback_flag_on_rank_deficiency():
    inst = builtin_instance("american_put")
    bundle = _bundle(inst, 100.0, 0.0, 1.0, 5, paths=2, seed=3)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    sol = solve_reflected(inst, bundle, terminal, BASIS)  # 2 paths < 3 features
    assert sol.regression_fallback


def test_mesh_must_span_t_to_horizon():
    inst = builtin_instance("deterministic_stop")
    with pytest.raises(PreconditionError):
        cost_functional(inst, 0.0, np.zeros(1), C0, C0, TimeMesh(0.0, 0.5, 10),
                        paths=1, basis=BASIS, seed=0)
