"""Backward solvers: exact benchmarks, comparison, complementarity."""

from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest

from isaacslab import rbsde, sde
from isaacslab.errors import PreconditionError
from isaacslab.oracles import crr_put, degenerate_rbsde_value
from isaacslab.problems import builtin_instance, eval_cost_rate, eval_terminal
from isaacslab.rbsde import (
    RegressionBasis,
    backward_semigroup,
    cost_functional,
    snell_oracle,
    solve_penalized,
    solve_reflected,
)
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths

from conftest import declare_linear, declare_reads, make_bundle, make_instance, obstacle_table

C0 = ControlPath.constant(0)
BASIS = RegressionBasis(degree=2)


def test_constant_driver_value_no_reflection():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 50, paths=4096, seed=11)
    sol = solve_reflected(inst, bundle, np.zeros(4096), BASIS)
    assert sol.value() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(sol.K, 0.0)
    # the gradient estimate of a constant target is pure regression noise;
    # its cross-path mean has standard error 1 / sqrt(M dt) per step
    assert np.abs(sol.Z.mean(axis=0)).max() <= 4.0 / np.sqrt(4096 * bundle.mesh.dt)


def test_deterministic_stop_exact_reflection():
    inst = builtin_instance("deterministic_stop")
    bundle = make_bundle(inst, 0.3, 0.0, 1.0, 10)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    np.testing.assert_allclose(sol.Y[0], 1.0 - bundle.mesh.times(), atol=1e-14)
    np.testing.assert_allclose(np.diff(sol.K[0]), bundle.mesh.dt, atol=1e-14)


def test_degenerate_benchmark_closed_form():
    inst = builtin_instance("lemma45")
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 1000)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    assert sol.value() == pytest.approx(degenerate_rbsde_value(1.0, 1.0, 1.0),
                                        abs=1e-3)
    # slack obstacle: no reflection happens
    np.testing.assert_array_equal(sol.K, 0.0)


def test_degenerate_benchmark_closed_form_at_zero_feedback():
    # C = 0 leaves the constant cost rate -theta / 2: the closed form's limit
    inst = builtin_instance("lemma45", {"C": 0.0, "theta": 1.0})
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 100)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    assert degenerate_rbsde_value(0.0, 1.0, 1.0) == -0.5
    assert sol.value() == pytest.approx(-0.5, abs=1e-12)


def test_penalized_zero_weight_is_unreflected():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 40, paths=256, seed=3)
    sol = solve_penalized(inst, bundle, np.zeros(256), BASIS, m=0.0)
    assert sol.value() == pytest.approx(1.0, abs=1e-12)
    assert sol.scheme == "penalized" and sol.penalty == 0.0


def test_penalized_monotone_in_weight_against_reflected():
    inst = builtin_instance("deterministic_stop")
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 1000)
    values = [solve_penalized(inst, bundle, np.zeros(1), BASIS, m).value()
              for m in (1.0, 10.0, 100.0)]
    reference = solve_reflected(inst, bundle, np.zeros(1), BASIS).value()
    assert values[0] <= values[1] <= values[2] <= reference + 1e-12
    assert values[2] >= 1.0 - bundle.mesh.dt - 0.05


def test_penalized_step_closed_form():
    # one step with yhat = -2, obstacle 0, m dt = 1 gives (-2 + 0) / 2 = -1
    horizon = 1.0
    inst = make_instance(h=obstacle_table([0.0, -5.0], 0.0, horizon))
    bundle = make_bundle(inst, 0.0, 0.0, horizon, 1)
    sol = solve_penalized(inst, bundle, np.array([-2.0]), BASIS, m=1.0)
    assert sol.Y[0, 0] == pytest.approx(-1.0, abs=0)
    assert sol.K[0, -1] == pytest.approx(1.0, abs=1e-15)  # m dt (y-h)^-


def test_terminal_below_obstacle_is_rejected():
    inst = builtin_instance("deterministic_stop")
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 5)
    with pytest.raises(PreconditionError):
        solve_reflected(inst, bundle, np.array([-1.0]), BASIS)


def test_skorokhod_complementarity_exact():
    inst = builtin_instance("american_put")
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, 50, paths=512, seed=9)
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
        h=obstacle_table(hvals, 0.0, dt),
    )
    terminal = hvals[-1] + rng.uniform(0.0, 1.0)
    return inst, hvals, terminal


def test_comparison_raising_data_never_decreases_values(rng):
    # deterministic single-path problems: ordering is exact nodewise
    for _ in range(10):
        inst, hvals, terminal = _random_deterministic_problem(rng)
        bundle = make_bundle(inst, 0.0, 0.0, 1.0, 32)
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
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 64, paths=16, seed=4)
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
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, 25, paths=512, seed=6)
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
        bundle = make_bundle(inst, x0, 0.0, 1.0, 25, paths=256, seed=8)
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
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 10)
    sol = solve_reflected(inst, bundle, np.zeros(1), BASIS)
    hvals = 1.0 - bundle.mesh.times()
    assert sol.Y[0, 0] == snell_oracle(hvals, 0.0) == 1.0


def test_snell_equivalence_randomized(rng):
    # frozen dynamics, zero driver: the solver is exactly the stopping scan
    for _ in range(5):
        steps = int(rng.integers(3, 40))
        hvals = rng.uniform(-2.0, 2.0, steps + 1)
        inst = make_instance(h=obstacle_table(hvals, 0.0, 1.0 / steps))
        bundle = make_bundle(inst, 0.0, 0.0, 1.0, steps)
        terminal = float(hvals[-1] + rng.uniform(0.0, 1.0))
        sol = solve_reflected(inst, bundle, np.array([terminal]), BASIS)
        assert sol.Y[0, 0] == snell_oracle(hvals, terminal)


def test_backward_semigroup_constant_data():
    inst = make_instance()
    bundle = make_bundle(inst, 0.0, 0.2, 0.7, 10)
    assert backward_semigroup(inst, bundle, np.array([4.0]), BASIS) == 4.0


def test_backward_semigroup_empty_interval_returns_eta():
    inst = make_instance()
    bundle = make_bundle(inst, 0.0, 0.5, 0.5, 0)
    assert backward_semigroup(inst, bundle, np.array([2.5]), BASIS) == 2.5


def test_backward_semigroup_empty_interval_returns_the_mean_of_eta():
    inst = builtin_instance("american_put")
    bundle = make_bundle(inst, 100.0, 0.3, 0.3, 0, paths=257, seed=4)
    eta = 40.0 + np.random.default_rng(5).uniform(0.0, 1.0, 257)
    assert backward_semigroup(inst, bundle, eta, BASIS) == eta.mean()


@pytest.mark.parametrize("eta", [np.full(8, 0.2), np.full(7, 2.0)], ids=["below", "shape"])
def test_backward_semigroup_empty_interval_checks_eta(eta):
    inst = builtin_instance("deterministic_stop")
    bundle = make_bundle(inst, 0.0, 0.5, 0.5, 0, paths=8)
    with pytest.raises(PreconditionError):
        backward_semigroup(inst, bundle, eta, BASIS)


def test_backward_semigroup_obstacle_pushes():
    inst = builtin_instance("deterministic_stop")
    bundle = make_bundle(inst, 0.0, 0.0, 0.5, 100)
    value = backward_semigroup(inst, bundle, np.array([0.5]), BASIS)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_backward_semigroup_rejects_eta_below_obstacle():
    inst = builtin_instance("deterministic_stop")
    bundle = make_bundle(inst, 0.0, 0.0, 0.5, 10)
    with pytest.raises(PreconditionError):
        backward_semigroup(inst, bundle, np.array([0.2]), BASIS)


def test_flow_property_splice_matches_full_solve():
    # value at an intermediate time fed back through the semigroup
    inst = builtin_instance("lemma45")
    full = solve_reflected(inst, make_bundle(inst, 0.0, 0.0, 1.0, 1000),
                           np.zeros(1), BASIS).value()
    mid = solve_reflected(inst, make_bundle(inst, 0.0, 0.4, 1.0, 600),
                          np.zeros(1), BASIS).value()
    spliced = backward_semigroup(inst, make_bundle(inst, 0.0, 0.0, 0.4, 400),
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
    reference = crr_put(100.0, 100.0, 0.05, 0.2, 1.0, 2000)
    value = cost_functional(inst, 0.0, np.array([100.0]), C0, C0,
                            TimeMesh(0.0, 1.0, 25), paths=20_000,
                            basis=RegressionBasis(degree=6), seed=11)
    assert abs(value - reference) / reference <= 0.08


def test_features_are_products_of_standardised_columns():
    x = np.random.default_rng(8).normal(loc=[1.0, -3.0], scale=[2.0, 0.5], size=(40, 2))
    # one row per coordinate: x - mean, scaled by that row's root mean square
    centred = np.ascontiguousarray((x - x.mean(axis=0)).T)
    xs = (centred / np.sqrt(np.square(centred).mean(axis=1))[:, None]).T
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


def test_features_fill_the_given_buffer():
    x = np.random.default_rng(5).normal(size=(50, 2))
    basis = RegressionBasis(degree=3)
    buf = np.full((10, 50), np.nan)
    A = basis.features(x, out=buf)
    assert A.base is buf
    assert np.array_equal(A, basis.features(x))


@pytest.mark.parametrize("block", [None, 40])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 6, 10])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_from_moments_matches_the_product(monkeypatch, n, degree, block):
    if block is not None:  # several sample blocks, the last one short
        monkeypatch.setattr(rbsde, "GRAM_BLOCK", block)
    rng = np.random.default_rng(n + 10 * degree)
    x = rng.normal(size=(301, n))
    targets = rng.normal(size=(1 + n, 301))
    basis = RegressionBasis(degree=degree)
    A = basis.features(x)
    G, rhs = basis.gram(A, targets)
    reference = A.T @ A
    assert G.shape == reference.shape == (A.shape[1],) * 2
    assert np.array_equal(G, G.T)
    assert np.abs(G - reference).max() <= 1e-14 * np.abs(reference).max()
    reference = A.T @ targets.T
    assert rhs.shape == reference.shape == (A.shape[1], 1 + n)
    assert np.abs(rhs - reference).max() <= 1e-14 * np.abs(reference).max()


def test_gram_rejects_a_column_count_of_no_basis():
    with pytest.raises(ValueError):
        RegressionBasis(degree=2).gram(np.ones((5, 4)), np.ones((1, 5)))


def test_solution_layout_and_contiguous_reductions():
    # Y, Z, K are path-major views of step-major storage; the reductions
    # the solution reports match the same formulas on C-contiguous copies
    inst = builtin_instance("american_put")
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, 20, paths=300, seed=4)
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
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, 5, paths=2, seed=3)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    sol = solve_reflected(inst, bundle, terminal, BASIS)  # 2 paths < 3 features
    assert sol.regression_fallback


def _regression_steps(degree, steps=10, paths=4000, seed=7):
    """Per regressed step of an american_put bundle: the design matrix, the
    fitted values the backward solve forms from it, and the two targets it
    fits (Y and Y dB / dt)."""
    inst = builtin_instance("american_put")
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, steps, paths=paths, seed=seed)
    y_next = eval_terminal(inst, bundle.states[:, -1])
    basis = RegressionBasis(degree=degree)
    for k in range(1, steps):
        A = basis.features(bundle.states[:, k])
        rows = np.vstack([y_next, (y_next[:, None] * bundle.dB[:, k]).T / bundle.mesh.dt])
        gram, rhs = basis.gram(A, rows)
        fitted, fell_back = rbsde._conditional_fits(A, gram, rhs, rows)
        assert not fell_back
        targets = (y_next, y_next[:, None] * bundle.dB[:, k] / bundle.mesh.dt)
        yield A, gram, zip((fitted[0], fitted[1:].T), targets)


def test_gram_fit_matches_svd_fit():
    for A, gram, fits in _regression_steps(degree=6):
        assert np.linalg.cond(gram) <= rbsde.GRAM_COND_MAX  # the normal equations are used
        for fitted, target in fits:
            reference = A @ np.linalg.lstsq(A, target, rcond=None)[0]
            assert np.abs(fitted - reference).max() <= 1e-9 * np.abs(reference).max()


def test_ill_conditioned_gram_falls_back_to_svd_fit_bit_for_bit():
    for A, gram, fits in _regression_steps(degree=10):
        assert np.linalg.cond(gram) > rbsde.GRAM_COND_MAX
        for fitted, target in fits:
            assert np.array_equal(fitted, A @ np.linalg.lstsq(A, target, rcond=None)[0])


class _CountingNumpy:
    """numpy as seen by a module, with ``linalg.lstsq`` calls counted and the
    shape of each call's matrix recorded."""

    def __init__(self):
        self.lstsq_calls = 0
        self.lstsq_shapes = []
        self.linalg = SimpleNamespace(lstsq=self._lstsq)

    def _lstsq(self, a, *args, **kwargs):
        self.lstsq_calls += 1
        self.lstsq_shapes.append(a.shape)
        return np.linalg.lstsq(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def test_two_least_squares_solves_per_regressed_step(monkeypatch):
    # every path starts at the same state, so step 0 is the plain mean and
    # steps 1..N-1 each fit Y and Y dB / dt on one Gram matrix
    counting = _CountingNumpy()
    monkeypatch.setattr(rbsde, "np", counting)
    inst = builtin_instance("american_put")
    steps = 10
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, steps, paths=4000, seed=7)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    sol = solve_reflected(inst, bundle, terminal, RegressionBasis(degree=6))
    assert not sol.regression_fallback
    assert counting.lstsq_calls == 2 * (steps - 1)


def test_degree_ten_solve_falls_back_to_least_squares_on_the_design(monkeypatch):
    # cond(G) > GRAM_COND_MAX at every regressed step: each fit on G is redone on A
    counting = _CountingNumpy()
    monkeypatch.setattr(rbsde, "np", counting)
    inst = builtin_instance("american_put")
    steps, paths = 6, 4000
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, steps, paths=paths, seed=7)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    sol = solve_reflected(inst, bundle, terminal, RegressionBasis(degree=10))
    assert not sol.regression_fallback
    assert counting.lstsq_shapes == [(11, 11), (paths, 11)] * (2 * (steps - 1))


def test_seeded_reflected_solves_repeat_bit_for_bit():
    inst = builtin_instance("american_put")
    solutions = []
    for _ in range(2):
        bundle = make_bundle(inst, 100.0, 0.0, 1.0, 10, paths=4000, seed=7)
        terminal = eval_terminal(inst, bundle.states[:, -1])
        solutions.append(solve_reflected(inst, bundle, terminal, RegressionBasis(degree=6)))
    for name in ("Y", "Z", "K"):
        assert np.array_equal(getattr(solutions[0], name), getattr(solutions[1], name))


def test_mesh_must_span_t_to_horizon():
    inst = builtin_instance("deterministic_stop")
    with pytest.raises(PreconditionError):
        cost_functional(inst, 0.0, np.zeros(1), C0, C0, TimeMesh(0.0, 0.5, 10),
                        paths=1, basis=BASIS, seed=0)


def group_by_group(evaluate, pairs_seen):
    """``evaluate`` called once per applied control pair on that pair's rows,
    with the pair's point broadcast over them: a reference for one call on
    rows under mixed controls.  Appends the pair count of each call."""
    def grouped(instance, t, x, *args):
        *data, u, v = args
        uv = np.concatenate([u, v], axis=1)
        pairs = np.unique(uv, axis=0)
        pairs_seen.append(len(pairs))
        out = None
        for pair in pairs:
            mask = (uv == pair).all(axis=1)
            rows = int(mask.sum())
            part = evaluate(instance, t, x[mask], *(a[mask] for a in data),
                            np.broadcast_to(pair[:u.shape[1]], (rows, u.shape[1])),
                            np.broadcast_to(pair[u.shape[1]:], (rows, v.shape[1])))
            if out is None:
                out = np.empty((len(x),) + part.shape[1:])
            out[mask] = part
        return out

    return grouped


def test_mixed_pair_steps_are_the_group_by_group_steps_bit_for_bit(monkeypatch):
    # feedback controls that split the paths over three pairs of a 2 x 2 grid;
    # the cost rate reads both controls, y and z
    inst = make_instance(
        b=lambda t, x, u, v: 0.5 * u - 0.25 * v * x,
        sigma=lambda t, x, u, v: (1.0 + 0.5 * u * v)[:, :, None] * np.ones(x.shape + (1,)),
        f=lambda t, x, y, z, u, v: u[:, 0] * v[:, 0] - 0.2 * u[:, 0] * y + v[:, 0] * z[:, 0],
        h=lambda t, x: -np.abs(x[:, 0]),
        u_points=[[-1.0], [1.0]], v_points=[[-1.0], [0.5]])
    u = ControlPath.from_feedback(lambda t, x: (x[:, 0] > 0.0).astype(int))
    v = ControlPath.from_feedback(lambda t, x: (x[:, 0] > 0.4).astype(int))
    mesh = TimeMesh(0.0, 1.0, 12)

    def solve():
        bundle = simulate_paths(inst, np.zeros(1), mesh, u, v, 256, 3)
        terminal = np.zeros(bundle.paths)
        return bundle, solve_reflected(inst, bundle, terminal, BASIS)

    bundle, solution = solve()
    seen = []
    monkeypatch.setattr(sde, "eval_drift", group_by_group(sde.eval_drift, seen))
    monkeypatch.setattr(sde, "eval_diffusion", group_by_group(sde.eval_diffusion, seen))
    monkeypatch.setattr(rbsde, "eval_cost_rate", group_by_group(rbsde.eval_cost_rate, seen))
    reference_bundle, reference = solve()
    assert max(seen) == 3
    for name in ("states", "u_path", "v_path"):
        assert np.array_equal(getattr(bundle, name), getattr(reference_bundle, name))
    for name in ("Y", "Z", "K"):
        assert np.array_equal(getattr(solution, name), getattr(reference, name))


@pytest.mark.parametrize("name", ["minimax_gap", "no_obstacle_linear", "deterministic_stop"])
def test_cost_rate_that_reads_no_y_skips_the_corrector_bit_for_bit(monkeypatch, name):
    # the corrector of a cost rate that does not read y returns the
    # predictor's value: one cost-rate call per step instead of two
    inst = builtin_instance(name)
    assert "y" not in inst.coeffs.cost_rate_reads
    calls = []
    monkeypatch.setattr(rbsde, "eval_cost_rate",
                        lambda *args: calls.append(args[1]) or eval_cost_rate(*args))
    bundle = make_bundle(inst, 0.3, 0.0, 1.0, 20, paths=256, seed=5)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    undeclared = declare_reads(inst, ("y", "z"))
    for solve in (lambda i: solve_reflected(i, bundle, terminal, BASIS),
                  lambda i: solve_penalized(i, bundle, terminal, BASIS, 4.0)):
        calls.clear()
        declared = solve(inst)
        assert calls == list(bundle.mesh.times()[-2::-1])
        calls.clear()
        reference = solve(undeclared)
        assert len(calls) == 2 * 20
        for part in ("Y", "Z", "K"):
            assert np.array_equal(getattr(declared, part), getattr(reference, part))


def test_cost_rate_declared_linear_makes_one_slope_call_per_step_bit_for_bit(monkeypatch):
    # american_put's -r y: the predictor and the corrector multiply the slope
    # at y = 1 by p and by y0, where the undeclared copy calls f on each
    inst = builtin_instance("american_put")
    assert inst.coeffs.cost_rate_linear
    calls = []
    monkeypatch.setattr(rbsde, "eval_cost_rate",
                        lambda *args: calls.append(args[1:4]) or eval_cost_rate(*args))
    bundle = make_bundle(inst, 100.0, 0.0, 1.0, 20, paths=256, seed=5)
    terminal = eval_terminal(inst, bundle.states[:, -1])
    undeclared = declare_linear(inst, False)
    for solve in (lambda i: solve_reflected(i, bundle, terminal, BASIS),
                  lambda i: solve_penalized(i, bundle, terminal, BASIS, 4.0)):
        calls.clear()
        declared = solve(inst)
        assert [t for t, _, _ in calls] == list(bundle.mesh.times()[-2::-1])
        assert all((y == 1.0).all() for _, _, y in calls)
        calls.clear()
        reference = solve(undeclared)
        assert len(calls) == 2 * 20
        assert declared.K[:, -1].any()
        for part in ("Y", "Z", "K"):
            mine, theirs = getattr(declared, part), getattr(reference, part)
            assert np.array_equal(mine, theirs)
            assert np.array_equal(np.signbit(mine), np.signbit(theirs))


@pytest.mark.parametrize("scheme", ["reflected", "penalized"])
@pytest.mark.parametrize("name, params, x0", [
    ("lemma45", {"theta": 4.0, "rho": 0.25}, 0.0), ("minimax_gap", {}, 0.3),
    ("american_put", {}, 80.0)])
def test_one_step_is_the_hand_computed_predictor_corrector_bit_for_bit(name, params, x0,
                                                                       scheme):
    # every path starts at x0, so the first step's regression is the plain
    # mean p with z = 0; from fresh arrays, y0 = p + dt f(p) and yhat = p +
    # dt f(y0), then the projection or the penalty: lemma45's f reads y and
    # z, minimax_gap's neither, american_put's is declared linear in y.  The
    # obstacle binds on lemma45 and american_put
    inst = builtin_instance(name, params)
    paths, m = 64, 4.0
    bundle = make_bundle(inst, x0, 0.0, 1.0, 1, paths=paths, seed=5)
    terminal = eval_terminal(inst, bundle.states[:, -1]) + np.linspace(0.0, 1.0, paths)
    if scheme == "reflected":
        sol = solve_reflected(inst, bundle, terminal, BASIS)
    else:
        sol = solve_penalized(inst, bundle, terminal, BASIS, m)
    dt, x = bundle.mesh.dt, bundle.states[:, 0]
    up, vp = (np.repeat(grid.points[:1], paths, axis=0) for grid in (inst.u_grid, inst.v_grid))
    z = np.zeros((paths, inst.d))
    p = np.full(paths, terminal.mean())
    y0 = p + dt * eval_cost_rate(inst, 0.0, x, p, z, up, vp)
    yhat = p + dt * eval_cost_rate(inst, 0.0, x, y0, z, up, vp)
    h = sol.obstacle_samples[:, 0]
    if scheme == "reflected":
        y = np.maximum(yhat, h)
        k = y - yhat
    else:
        c = m * dt
        y = np.where(yhat < h, (yhat + c * h) / (1.0 + c), yhat)
        k = c * np.maximum(h - y, 0.0)
    assert k.any() == (name != "minimax_gap")
    for mine, theirs in ((sol.Y[:, 0], y), (sol.K[:, 1], k), (sol.Z[:, 0], z)):
        assert np.array_equal(mine, theirs)
        assert np.array_equal(np.signbit(mine), np.signbit(theirs))


def test_cost_rate_that_reads_y_is_called_at_p_then_at_y0(monkeypatch):
    # lemma45's f reads y and z: two calls per step, the predictor's at p and
    # the corrector's at y0 = p + dt f(p)
    inst = builtin_instance("lemma45")
    calls = []

    def counted(*args):
        f = eval_cost_rate(*args)
        calls.append((args[1], args[3].copy(), f.copy()))
        return f

    monkeypatch.setattr(rbsde, "eval_cost_rate", counted)
    bundle = make_bundle(inst, 0.0, 0.0, 1.0, 10, paths=16, seed=5)
    sol = solve_reflected(inst, bundle, np.linspace(0.0, 1.0, 16), BASIS)
    times, dt = bundle.mesh.times(), bundle.mesh.dt
    assert [t for t, _, _ in calls] == [t for t in times[-2::-1] for _ in range(2)]
    for (_, p, f), (_, y0, _), y_next in zip(calls[::2], calls[1::2], sol.Y.T[:0:-1]):
        assert np.array_equal(p, np.full(16, y_next.mean()))
        assert np.array_equal(y0, p + dt * f)
