"""Grid solver: Hamiltonians, exact fields, monotonicity, residuals."""

import dataclasses

import numpy as np
import pytest

from isaacslab import pde
from isaacslab.analysis import feedback_from_field, response_feedback
from isaacslab.errors import CflError, DivergenceError, PreconditionError
from isaacslab.oracles import crr_put
from isaacslab.pde import (
    BOUNDARY_POLICIES,
    HAMILTONIANS,
    SpaceTimeGrid,
    _check_cfl,
    _sweep,
    cfl_required_nt,
    complementarity_residual,
    eval_hamiltonian,
    solve_obstacle_pde,
    solve_penalized_pde,
    sweep_penalized,
)
from isaacslab.problems import (
    BUILTIN_NAMES,
    builtin_instance,
    eval_drift,
    eval_obstacle,
    eval_terminal,
)
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths

from conftest import declare_homogeneous, make_instance, sized


def test_grid_invariants():
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((0.0, 1.0),), nx=(2,), nt=1)
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((1.0, 0.0),), nx=(5,), nt=1)
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((0.0, 1.0),) * 3, nx=(5, 5, 5), nt=1)
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((0.0, 1.0),), nx=(5,), nt=1, boundary="nope")


def test_linear_extrapolation_needs_two_interior_nodes():
    # with one interior node the far face was extrapolated from its own
    # stale entry: minimax_gap on [-2, 2], nx 3, nt 10 gave slice 0 = [-2, -1, 0]
    with pytest.raises(ValueError, match="linear_extrapolation needs at least 4"):
        SpaceTimeGrid(box=((-2.0, 2.0),), nx=(3,), nt=10)
    with pytest.raises(ValueError, match="at least 4"):
        SpaceTimeGrid(box=((-2.0, 2.0), (0.0, 1.0)), nx=(5, 3), nt=10)
    inst = builtin_instance("minimax_gap")
    frozen = SpaceTimeGrid(box=((-2.0, 2.0),), nx=(3,), nt=10,
                           boundary="dirichlet_terminal_extension")
    assert frozen.nx == (3,)
    field = solve_obstacle_pde("lower", inst, SpaceTimeGrid(box=((-2.0, 2.0),), nx=(4,), nt=10))
    np.testing.assert_allclose(field.slices[:, 0], 2 * field.slices[:, 1] - field.slices[:, 2])
    np.testing.assert_allclose(field.slices[:, 3], 2 * field.slices[:, 2] - field.slices[:, 1])


def test_cfl_flag_and_refusal():
    inst = builtin_instance("american_put")
    grid = SpaceTimeGrid(box=((20.0, 300.0),), nx=(281,), nt=10)
    with pytest.raises(CflError) as err:
        solve_obstacle_pde("lower", inst, grid)
    assert err.value.required_nt == 3601
    assert str(err.value.required_nt) in str(err.value)
    # the refusal and the sizing helper agree on the smallest stable grid
    good = sized(inst, grid.box, grid.nx)
    assert good.nt == err.value.required_nt
    assert inst.T / good.nt <= err.value.required_dt < inst.T / (good.nt - 1)
    _check_cfl(inst, good)
    with pytest.raises(CflError):
        _check_cfl(inst, dataclasses.replace(good, nt=good.nt - 1))


def test_hamiltonian_identity_trace():
    # singleton controls, unit diffusion in two dimensions: value is tr(I)/2
    inst = make_instance(
        n=2, d=2,
        sigma=lambda t, x, u, v: np.broadcast_to(np.eye(2), x.shape + (2,)).copy(),
    )
    val, iu, iv = eval_hamiltonian("lower", inst, 0.0, [0.0, 0.0], 0.0,
                                   [0.0, 0.0], np.eye(2))
    assert val == pytest.approx(1.0, abs=0)
    assert (iu, iv) == (0, 0)


def test_hamiltonian_bilinear_minimax_gap():
    inst = builtin_instance("minimax_gap")
    lo, *_ = eval_hamiltonian("lower", inst, 0.0, [0.0], 0.0, [0.0], [[0.0]])
    up, *_ = eval_hamiltonian("upper", inst, 0.0, [0.0], 0.0, [0.0], [[0.0]])
    assert (lo, up) == (-1.0, 1.0)


def test_hamiltonian_american_put_arithmetic():
    # 0.5 (0.2 * 100)^2 0.001 + (-0.4)(0.05 * 100) + (-0.05 * 5) = -2.05
    inst = builtin_instance("american_put")
    val, _, _ = eval_hamiltonian("lower", inst, 0.0, [100.0], 5.0, [-0.4],
                                 [[0.001]])
    assert val == pytest.approx(-2.05, abs=1e-12)


def test_hamiltonian_tie_breaks_to_lowest_index():
    # cost rate ignores the first player: every u attains the max, index 0 wins
    inst = make_instance(u_points=[[-1.0], [1.0]], v_points=[[-1.0], [1.0]],
                         f=lambda t, x, y, z, u, v: np.full(x.shape[0], v[0]))
    val, iu, iv = eval_hamiltonian("lower", inst, 0.0, [0.0], 0.0, [0.0], [[0.0]])
    assert (val, iu, iv) == (-1.0, 0, 0)


def test_constant_cost_field_is_exact():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    grid = sized(inst, ((-1.0, 1.0),), (21,))
    field = solve_obstacle_pde("lower", inst, grid)
    expected = (1.0 - field.times)[:, None]
    np.testing.assert_allclose(field.slices, np.broadcast_to(expected, field.slices.shape),
                               atol=1e-12)


def test_deterministic_stop_field_equals_obstacle():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(41,), nt=500)
    field = solve_obstacle_pde("lower", inst, grid)
    expected = (1.0 - field.times)[:, None]
    np.testing.assert_allclose(field.slices, np.broadcast_to(expected, field.slices.shape),
                               atol=1e-12)


def test_american_put_matches_binomial_tree():
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (141,))
    field = solve_obstacle_pde("lower", inst, grid)
    reference = crr_put(100.0, 100.0, 0.05, 0.2, 1.0, 2000, american=True)
    assert abs(field.interp(0, 100.0) - reference) / reference <= 0.01


def test_terminal_slice_equals_payoff_exactly():
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (71,))
    field = solve_obstacle_pde("lower", inst, grid)
    payoff = np.maximum(100.0 - grid.axes()[0], 0.0)
    np.testing.assert_array_equal(field.slices[-1], payoff)


@pytest.mark.parametrize("name", ["american_put", "deterministic_stop",
                                  "minimax_gap"])
@pytest.mark.parametrize("which", ["lower", "upper"])
def test_obstacle_dominance_every_node(name, which):
    inst = builtin_instance(name)
    box = ((20.0, 300.0),) if name == "american_put" else ((-2.0, 2.0),)
    nx = (71,) if name == "american_put" else (31,)
    grid = sized(inst, box, nx)
    field = solve_obstacle_pde(which, inst, grid)
    nodes = grid.nodes()
    for k, t in enumerate(field.times):
        h = eval_obstacle(inst, float(t), nodes)
        assert (field.slices[k].ravel() >= h - 1e-12).all()


def test_lower_hamiltonian_below_upper_on_random_samples(rng):
    inst = builtin_instance("minimax_gap")
    for _ in range(25):
        x = rng.uniform(-2, 2, 1)
        q = rng.uniform(-1, 1, 1)
        xm = rng.uniform(-1, 1, (1, 1))
        lo, *_ = eval_hamiltonian("lower", inst, 0.3, x, rng.uniform(-1, 1),
                                  q, xm)
        up, *_ = eval_hamiltonian("upper", inst, 0.3, x, rng.uniform(-1, 1),
                                  q, xm)
        assert lo <= up + 1e-14


def _bumpy(base_phi, bump_knots, bump_vals):
    def phi(x):
        return base_phi(x) + np.interp(x[:, 0], bump_knots, bump_vals)
    return phi


def test_scheme_monotone_in_terminal_data_dirichlet(rng):
    # frozen-boundary policy keeps the whole step map monotone nodewise
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (71,),
                 boundary="dirichlet_terminal_extension")
    base = solve_obstacle_pde("lower", inst, grid)
    knots = np.linspace(20.0, 300.0, 12)
    for _ in range(3):
        vals = rng.uniform(0.0, 5.0, 12)
        bumped = make_instance(
            b=inst.coeffs.b, sigma=inst.coeffs.sigma, f=inst.coeffs.f,
            phi=_bumpy(inst.coeffs.phi, knots, vals), h=inst.coeffs.h,
            growth=300.0)
        hi = solve_obstacle_pde("lower", bumped, grid)
        assert (hi.slices - base.slices).min() >= -1e-12


def test_scheme_monotone_in_terminal_data_extrapolation_interior(rng):
    # extrapolated boundary nodes sit outside the monotone step map; the
    # ordering is asserted on the inner sub-box
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (71,))
    mask = grid.inner_mask()
    base = solve_obstacle_pde("lower", inst, grid)
    knots = np.linspace(20.0, 300.0, 12)
    vals = rng.uniform(0.0, 5.0, 12)
    bumped = make_instance(
        b=inst.coeffs.b, sigma=inst.coeffs.sigma, f=inst.coeffs.f,
        phi=_bumpy(inst.coeffs.phi, knots, vals), h=inst.coeffs.h, growth=300.0)
    hi = solve_obstacle_pde("lower", bumped, grid)
    assert (hi.slices[:, mask] - base.slices[:, mask]).min() >= -1e-12


def test_penalized_zero_weight_matches_obstacle_solver_when_slack():
    inst = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    grid = sized(inst, ((-1.0, 1.0),), (21,))
    pen = solve_penalized_pde(inst, grid, 0.0)
    ref = solve_obstacle_pde("lower", inst, grid)
    np.testing.assert_array_equal(pen.slices, ref.slices)


def test_penalized_deterministic_stop_converges_from_below():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(41,), nt=1000)
    field = solve_penalized_pde(inst, grid, 100.0)
    assert (field.slices[0] >= 1.0 - 0.05).all()
    assert (field.slices[0] <= 1.0 + 1e-12).all()


def test_penalized_fields_monotone_in_weight_nodewise():
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (71,))
    f1 = solve_penalized_pde(inst, grid, 1.0)
    f10 = solve_penalized_pde(inst, grid, 10.0)
    ref = solve_obstacle_pde("lower", inst, grid)
    assert (f10.slices - f1.slices).min() >= -1e-12
    assert (ref.slices - f10.slices).min() >= -1e-12


def correlated_game():
    # a_01 = 0.32 != 0, a drift that is upwinded near the edges of the box,
    # 2 x 2 controls and a cost rate that reads y and both components of z
    root = np.array([[0.8, 0.0], [0.4, 0.6]])
    return make_instance(
        n=2, d=2, horizon=0.5,
        b=lambda t, x, u, v: np.stack([3.0 * u[0] * x[:, 0], -2.0 * x[:, 1]], axis=1),
        sigma=lambda t, x, u, v: np.broadcast_to(root, x.shape + (2,)).copy(),
        f=lambda t, x, y, z, u, v: (-0.1 * y + 0.2 * v[0] * z[:, 0]
                                    - 0.05 * np.abs(z[:, 1]) + u[0] * v[0]),
        phi=lambda x: np.maximum(1.0 - np.abs(x[:, 0]) - 0.5 * np.abs(x[:, 1]), 0.0),
        h=lambda t, x: 0.5 * np.maximum(0.8 - np.abs(x[:, 0] + x[:, 1]), 0.0) - 0.1 * t,
        u_points=[[-1.0], [1.0]], v_points=[[-1.0], [0.5]], growth=20.0)


@pytest.mark.parametrize("boundary", BOUNDARY_POLICIES)
@pytest.mark.parametrize("case", ["american_put", "correlated_2d"])
def test_batched_penalized_sweep_matches_single_solves_bit_for_bit(case, boundary):
    if case == "american_put":
        inst = builtin_instance("american_put")
        grid = sized(inst, ((20.0, 300.0),), (57,), boundary)
    else:
        inst = correlated_game()
        grid = sized(inst, ((-2.0, 2.0), (-2.0, 2.0)), (13, 11), boundary)
    schedule = [0.0, 1.0, 16.0, 256.0]
    singles = [solve_penalized_pde(inst, grid, m).slices for m in schedule]
    visited = []
    for k, fields in sweep_penalized(inst, grid, schedule):
        visited.append(k)
        assert fields.shape == (len(schedule),) + grid.shape
        for single, batched in zip(singles, fields):
            assert np.array_equal(single[k], batched)
    assert visited == list(range(grid.nt, -1, -1))


@pytest.mark.parametrize("boundary", BOUNDARY_POLICIES)
@pytest.mark.parametrize("case", BUILTIN_NAMES + ("correlated_2d",))
def test_time_homogeneous_solves_match_per_step_evaluation_bit_for_bit(case, boundary):
    # drift and diffusion tabulated once per solve give the same fields,
    # residuals, feedback paths and penalty sweep as evaluating them at
    # every step
    if case == "correlated_2d":
        declared = declare_homogeneous(correlated_game())
        grid = sized(declared, ((-2.0, 2.0), (-2.0, 2.0)), (13, 11), boundary)
    else:
        declared = builtin_instance(case)
        box = ((20.0, 300.0),) if case == "american_put" else ((-2.0, 2.0),)
        grid = sized(declared, box, (41,), boundary)
    per_step = declare_homogeneous(declared, False)
    assert declared.coeffs.time_homogeneous
    for which in HAMILTONIANS:
        fields = [solve_obstacle_pde(which, inst, grid) for inst in (declared, per_step)]
        for k in range(grid.nt + 1):
            assert np.array_equal(fields[0].slices[k], fields[1].slices[k])
        residuals = [complementarity_residual(f, inst)[1]
                     for f, inst in zip(fields, (declared, per_step))]
        assert np.array_equal(*residuals)
        if grid.ndim == 1:
            # feedback and best-response paths read the same stacks
            bundles = [feedback_bundles(f, inst) for f, inst in zip(fields, (declared, per_step))]
            for one, other in zip(*bundles):
                for name in ("states", "u_path", "v_path"):
                    assert np.array_equal(getattr(one, name), getattr(other, name))
    schedule = [0.0, 4.0, 64.0]
    for (k, tabulated), (j, evaluated) in zip(sweep_penalized(declared, grid, schedule),
                                              sweep_penalized(per_step, grid, schedule)):
        assert k == j and np.array_equal(tabulated, evaluated)


def feedback_bundles(field, inst):
    """Paths driven by the feedback pair and by each best response of ``field``."""
    x0 = field.grid.nodes()[field.grid.nx[0] // 2]
    mesh = TimeMesh(0.0, inst.T, 10)
    drivers = [feedback_from_field(field, inst)]
    drivers += [(ControlPath.constant(iu), response_feedback(field, inst, iu))
                for iu in range(len(inst.u_grid))]
    return [simulate_paths(inst, x0, mesh, u, v, 16, 3) for u, v in drivers]


def test_drift_evaluated_once_per_control_pair_per_solve(monkeypatch):
    inst = builtin_instance("minimax_gap")
    per_step = declare_homogeneous(inst, False)
    grid = sized(inst, ((-2.0, 2.0),), (21,))
    calls = []
    monkeypatch.setattr(pde, "eval_drift",
                        lambda *args: calls.append(args[1]) or eval_drift(*args))
    pairs = len(inst.u_grid) * len(inst.v_grid)
    field = solve_obstacle_pde("lower", inst, grid)
    assert calls == [field.times[-2]] * pairs
    calls.clear()
    solve_obstacle_pde("lower", per_step, grid)
    # otherwise each step evaluates every pair at its own time
    assert calls == [t for t in field.times[-2::-1] for _ in range(pairs)]


def test_unstable_solve_raises_divergence_at_first_non_finite_slice():
    # 1000 steps where the stability bound asks for 3601: every step
    # amplifies the highest grid mode, and the field overflows before t = 0
    inst = builtin_instance("american_put")
    grid = SpaceTimeGrid(box=((20.0, 300.0),), nx=(281,), nt=1000)
    # the solvers refuse this grid up front, so drive the sweep below them
    times = (inst.T / grid.nt) * np.arange(grid.nt + 1)
    terminal = eval_terminal(inst, grid.nodes()).reshape(grid.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            # a full store, one slot per time, as a single-field solve uses
            for _ in _sweep("lower", inst, grid, times, terminal, None,
                            np.empty((len(times),) + grid.shape)):
                pass
        step = err.value.step
        assert 0 < step < grid.nt - 1
        assert f"step {step}" in str(err.value)
        # the batched sweep stops at the first slice that is not finite
        batch = np.broadcast_to(terminal, (2,) + grid.shape)
        visited = []
        with pytest.raises(DivergenceError) as err:
            for k, fields in _sweep("lower", inst, grid, times, batch, [1.0, 4.0],
                                    np.empty((2,) + batch.shape)):
                assert np.isfinite(fields).all()
                visited.append(k)
    assert err.value.step == visited[-1] - 1


def test_sweep_accepts_finite_slices_whose_sum_overflows():
    # 41 entries of 1e307 sum past the largest float: the finiteness test
    # must accept every slice, and without an overflow warning
    inst = make_instance()
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(41,), nt=4)
    times = np.linspace(0.0, inst.T, grid.nt + 1)
    terminal = np.full(grid.shape, 1e307)
    slices = [w.copy() for _, w in _sweep("lower", inst, grid, times, terminal, None,
                                           np.zeros((2,) + grid.shape))]
    assert len(slices) == grid.nt + 1
    assert all(np.array_equal(w, terminal) for w in slices)


@pytest.mark.parametrize("rho", [0.5, -0.5])
def test_cross_derivative_step_exact_on_quadratic(rho):
    # correlated constant diffusion, quadratic data: one explicit step adds
    # dt * tr(a X)/2 with X = [[2, 1], [1, 2]] exactly (both sign-split
    # mixed stencils, and the others, are exact on quadratics)
    root = np.array([[1.0, 0.0], [rho, np.sqrt(1.0 - rho * rho)]])
    inst = make_instance(
        n=2, d=2, horizon=0.02,
        sigma=lambda t, x, u, v: np.broadcast_to(root, x.shape + (2,)).copy(),
        phi=lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1] + x[:, 1] ** 2,
        growth=20.0)
    grid = SpaceTimeGrid(box=((-1.0, 1.0), (-1.0, 1.0)), nx=(9, 9), nt=1)
    _check_cfl(inst, grid)
    field = solve_obstacle_pde("lower", inst, grid)
    a = root @ root.T
    rate = 0.5 * np.trace(a @ np.array([[2.0, 1.0], [1.0, 2.0]]))
    interior = (slice(1, -1), slice(1, -1))
    expected = field.slices[1][interior] + 0.02 * rate
    np.testing.assert_allclose(field.slices[0][interior], expected, atol=1e-12)


def test_upwind_step_exact_on_quadratic_in_two_dimensions():
    # |b_i| dx_i > a_ii on both axes selects the forward quotient on axis 0
    # (b_0 > 0) and the backward one on axis 1 (b_1 < 0); on quadratic data
    # these equal the gradient shifted by +dx_0 and -dx_1 respectively
    drift = np.array([3.0, -2.0])
    root = 0.5 * np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
    inst = make_instance(
        n=2, d=2, horizon=0.02,
        b=lambda t, x, u, v: np.broadcast_to(drift, x.shape).copy(),
        sigma=lambda t, x, u, v: np.broadcast_to(root, x.shape + (2,)).copy(),
        phi=lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1] + x[:, 1] ** 2,
        growth=20.0)
    grid = SpaceTimeGrid(box=((-1.0, 1.0), (-1.0, 1.0)), nx=(9, 9), nt=1)
    _check_cfl(inst, grid)
    a = root @ root.T
    dx = np.array(grid.dx())
    assert (np.abs(drift) * dx > np.diag(a)).all()
    field = solve_obstacle_pde("lower", inst, grid)
    x_int = grid.interior_nodes()
    grad = np.stack([2.0 * x_int[:, 0] + x_int[:, 1],
                     x_int[:, 0] + 2.0 * x_int[:, 1]], axis=1)
    upwind = grad + np.sign(drift) * dx
    rate = 0.5 * np.trace(a @ np.array([[2.0, 1.0], [1.0, 2.0]])) + upwind @ drift
    interior = (slice(1, -1), slice(1, -1))
    expected = field.slices[1][interior].ravel() + 0.02 * rate
    np.testing.assert_allclose(field.slices[0][interior].ravel(), expected, atol=1e-12)


def test_residual_trivial_cases():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(41,), nt=400)
    field = solve_obstacle_pde("lower", inst, grid)
    sup, per = complementarity_residual(field, inst)
    assert sup <= field.dt + grid.dx()[0]

    inst2 = builtin_instance("no_obstacle_linear", {"c0": 1.0, "c1": 0.0})
    grid2 = sized(inst2, ((-1.0, 1.0),), (21,))
    field2 = solve_obstacle_pde("lower", inst2, grid2)
    sup2, _ = complementarity_residual(field2, inst2)
    assert sup2 <= 1e-8


def test_residual_decreases_under_refinement():
    # measured on the inner sub-box, away from the terminal payoff kink
    inst = builtin_instance("american_put")
    sups = []
    for nx in (71, 141, 281):
        grid = sized(inst, ((20.0, 300.0),), (nx,))
        field = solve_obstacle_pde("lower", inst, grid)
        _, per = complementarity_residual(field, inst, inner_only=True)
        cutoff = int(0.9 * grid.nt)
        sups.append(per[:cutoff].max())
    assert sups[0] > sups[1] > sups[2]


def test_residual_rejects_penalized_fields():
    inst = builtin_instance("deterministic_stop")
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(11,), nt=50)
    field = solve_penalized_pde(inst, grid, 5.0)
    with pytest.raises(PreconditionError):
        complementarity_residual(field, inst)


def test_boundary_insensitivity_of_interior_values():
    # shrinking the box moves interior values by less than one cell
    inst = builtin_instance("american_put")
    wide = solve_obstacle_pde("lower", inst, sized(inst, ((20.0, 300.0),), (141,)))
    narrow = solve_obstacle_pde("lower", inst, sized(inst, ((40.0, 260.0),), (111,)))
    xs = np.linspace(80.0, 160.0, 17)
    gap = np.abs(wide.interp(0, xs) - narrow.interp(0, xs)).max()
    assert gap < 2.0  # one wide-grid cell


def test_dirichlet_policy_freezes_boundary():
    inst = builtin_instance("american_put")
    grid = sized(inst, ((20.0, 300.0),), (71,),
                 boundary="dirichlet_terminal_extension")
    field = solve_obstacle_pde("lower", inst, grid)
    # left boundary: terminal payoff 80 dominates the obstacle forever
    assert (field.slices[:, 0] == 80.0).all()


def test_with_stable_nt_matches_required():
    inst = builtin_instance("american_put")
    grid = SpaceTimeGrid(box=((20.0, 300.0),), nx=(281,), nt=1)
    sized_grid = sized(inst, grid.box, grid.nx)
    assert sized_grid.nt == cfl_required_nt(inst, grid) == 3601
    _check_cfl(inst, sized_grid)


def test_two_dimensional_residual_path():
    # x-uniform affine solution in two dimensions: the residual machinery
    # (central gradients, matrix second differences, batched Hamiltonian)
    # reproduces the exact-zero unconstrained residual
    inst = make_instance(
        n=2, d=2,
        sigma=lambda t, x, u, v: np.broadcast_to(np.eye(2), x.shape + (2,)).copy(),
        f=lambda t, x, y, z, u, v: np.ones(x.shape[0]),
        phi=lambda x: np.zeros(x.shape[0]),
        h=lambda t, x: np.full(x.shape[0], -5.0),
        horizon=0.5, growth=10.0)
    grid = sized(inst, ((-1.0, 1.0), (-1.0, 1.0)), (9, 9))
    # the boundary fill of the first axis reads old entries on the second
    # axis's faces: memory just freed full of infinities, of the store's
    # size, must not leak into the solve as an invalid-value warning
    junk = np.full((grid.nt + 1,) + grid.shape, np.inf)
    del junk
    field = solve_obstacle_pde("lower", inst, grid)
    expected = (0.5 - field.times)[:, None, None]
    np.testing.assert_allclose(field.slices,
                               np.broadcast_to(expected, field.slices.shape),
                               atol=1e-12)
    sup, _ = complementarity_residual(field, inst)
    assert sup <= 1e-8
