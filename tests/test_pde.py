"""Grid solver: Hamiltonians, exact fields, monotonicity, residuals."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from isaacslab import analysis, pde
from isaacslab.analysis import (
    feedback_from_field,
    lower_value,
    penalization_convergence,
    response_feedback,
    upper_value,
)
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
    eval_cost_rate,
    eval_diffusion,
    eval_drift,
    eval_obstacle,
    eval_terminal,
)
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths

from conftest import (
    correlated_game,
    declare_homogeneous,
    frozen_obstacle,
    make_instance,
    mixed_dominance_game,
    sized,
)


def test_grid_invariants():
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((0.0, 1.0),), nx=(2,), nt=1)
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((1.0, 0.0),), nx=(5,), nt=1)
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((0.0, 1.0),) * 3, nx=(5, 5, 5), nt=1)
    with pytest.raises(ValueError):
        SpaceTimeGrid(box=((0.0, 1.0),), nx=(5,), nt=1, boundary="nope")


@pytest.mark.parametrize("box, nx", [
    (((20.0, 300.0),), (281,)),
    (((-1.0, 1.0),), (4,)),
    (((-2.0, 2.0), (-1.5, 1.0)), (13, 11)),
    (((0.0, 1.0), (-3.0, 7.0)), (4, 40)),
])
def test_inner_mask_is_the_product_of_the_inner_box_slices(box, nx):
    grid = SpaceTimeGrid(box=box, nx=nx, nt=1)
    inner = grid.inner_box()
    axes = [np.zeros(k, dtype=bool) for k in nx]
    for ax, piece in zip(axes, inner):
        ax[piece] = True
        assert ax.any()
    np.testing.assert_array_equal(grid.inner_mask(), np.logical_and.reduce(
        np.meshgrid(*axes, indexing="ij")))
    # each axis keeps the nodes within INNER_FRACTION / 2 of its width from the midpoint
    for (lo, hi), ax, keep in zip(grid.box, grid.axes(), axes):
        np.testing.assert_array_equal(
            keep, np.abs(ax - 0.5 * (lo + hi)) <= 0.5 * pde.INNER_FRACTION * (hi - lo) + 1e-12)


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


@pytest.mark.parametrize("name, box, nx, nt", [
    ("american_put", ((20.0, 300.0),), 71, 226),
    ("american_put", ((20.0, 300.0),), 141, 901),
    ("minimax_gap", ((-2.0, 2.0),), 41, 101),
    ("minimax_gap", ((-2.0, 2.0),), 121, 901),
    # no diffusion and no drift: only the cost rate's L_y = 1 over T = 1
    ("lemma45", ((-2.0, 2.0),), 41, 1),
    ("deterministic_stop", ((-1.0, 1.0),), 41, 1),
])
def test_step_sized_by_the_stencil_monotonicity(name, box, nx, nt):
    # dt <= 1 / (a / dx^2 + L_y) for these driftless or central-drift grids
    assert sized(builtin_instance(name), box, (nx,)).nt == nt


def test_step_count_rounds_up_past_a_ceil_that_undershoots():
    # 0.1 / (1 / 750) rounds to 75.0, but 0.1 / 75 exceeds 1 / 750
    assert math.ceil(0.1 / (1.0 / 750.0)) == 75 and 0.1 / 75 > 1.0 / 750.0
    assert pde._bound_and_nt(0.1, 750.0) == (1.0 / 750.0, 76)


def drift_dominated(drift, time_homogeneous=True):
    return declare_homogeneous(make_instance(
        b=lambda t, x, u, v: np.full(x.shape, drift(t)),
        sigma=lambda t, x, u, v: np.full(x.shape + (1,), 0.1),
        phi=lambda x: np.maximum(1.0 - np.abs(x[:, 0]), 0.0)), time_homogeneous)


@pytest.mark.parametrize("drift, need", [(50.0, 502), (10.0, 102)])
def test_drift_dominated_grid_is_refused_then_stays_in_range(drift, need):
    # b dx > a: the upwind quotient puts |b| / dx = 10 b on the centre weight,
    # so dt <= 1 / (10 b + a / dx^2 + L_y); a rule without the drift admits
    # 101 steps, on which b = 50 grows the field to 8.6e49 and stays finite
    inst = drift_dominated(lambda t: drift)
    grid = SpaceTimeGrid(box=((-3.0, 3.0),), nx=(61,), nt=101)
    with pytest.raises(CflError) as err:
        solve_obstacle_pde("lower", inst, grid)
    assert err.value.required_nt == need
    frozen = sized(inst, grid.box, grid.nx, boundary="dirichlet_terminal_extension")
    assert frozen.nt == need
    field = solve_obstacle_pde("lower", inst, frozen)
    terminal = field.slices[-1]
    assert terminal.min() <= field.slices.min() and field.slices.max() <= terminal.max()


def test_time_dependent_drift_is_checked_at_every_step():
    # the drift vanishes at t = 0 and t = T, where the rule samples it, and
    # peaks at 50 halfway: the sweep refuses the step whose tables ask for more
    inst = drift_dominated(lambda t: 50.0 * 4.0 * t * (1.0 - t), time_homogeneous=False)
    grid = sized(inst, ((-3.0, 3.0),), (61,))
    assert grid.nt == 2
    with pytest.raises(CflError) as err:
        solve_obstacle_pde("lower", inst, grid)
    assert "at time step 1 (t = 0.5)" in str(err.value)
    assert err.value.required_nt == 502
    with pytest.raises(CflError, match="at time step 1"):
        for _ in sweep_penalized(inst, grid, [1.0, 4.0]):
            pass


def test_mixed_dominance_is_refused_whatever_the_step():
    # dx_0 = 5 dx_1: the neighbours on axis 0 weigh
    # a_00 / dx_0^2 - |a_01| / (dx_0 dx_1) = 16 - 72 < 0
    inst = mixed_dominance_game()
    skewed = SpaceTimeGrid(box=((-1.0, 1.0), (-1.0, 1.0)), nx=(9, 41), nt=100000)
    with pytest.raises(PreconditionError, match="not monotone on axis 0"):
        cfl_required_nt(inst, skewed)
    with pytest.raises(PreconditionError, match="not monotone on axis 0"):
        solve_obstacle_pde("lower", inst, skewed)
    # equal spacings keep every weight nonnegative: 2/h^2 - 0.9/h^2 + L_y
    square = sized(inst, ((-1.0, 1.0), (-1.0, 1.0)), (9, 9))
    assert square.nt == math.ceil(0.1 * (1.1 * 16.0 + 1.0))


def test_correlated_stencil_gives_every_neighbour_a_nonnegative_weight():
    # a_01 = 0.32 takes |a_01| / (2 dx_0 dx_1) from each axis neighbour; a
    # central drift quotient chosen on a_ii alone left 22 of the 99 interior
    # nodes with an axis-1 neighbour weight of -0.575 for every pair
    inst, grid = stencil_case("correlated_2d")
    tables = pde._pair_tables(inst, 0.0, grid.interior_nodes(), 1)
    stencil = pde._stencil_weights(tables, grid.dx())
    assert stencil.shape == (4, 3, 3, 99)
    for cell in pde._cells(2)[1:]:
        assert stencil[(slice(None), *cell)].min() >= 0.0


def stencil_case(case):
    """``american_put`` on nx 57, or the correlated game on nx (13, 11), sized."""
    if case == "american_put":
        inst = builtin_instance("american_put")
        return inst, sized(inst, ((20.0, 300.0),), (57,))
    inst = correlated_game()
    return inst, sized(inst, ((-2.0, 2.0), (-2.0, 2.0)), (13, 11))


def diffusion_slack(a, dx):
    """``a_ii - sum_{j != i} |a_ij| dx_i / dx_j`` per row and axis, (m, n): the
    drift quotient on axis i is central where it is at least ``|b_i| dx_i``."""
    n = len(dx)
    return np.stack([a[:, i, i] - sum(np.abs(a[:, i, j]) * (dx[i] / dx[j])
                                      for j in range(n) if j != i)
                     for i in range(n)], axis=1)


def neighbour_offsets(dx):
    """Offsets of the stencil's neighbours in space, (offsets, n): up and
    down each axis, then (+, +), (-, -), (+, -), (-, +) on each axis pair."""
    basis = np.diag(dx)
    offsets = [sign * basis[i] for i in range(len(dx)) for sign in (1.0, -1.0)]
    for i, j in itertools.combinations(range(len(dx)), 2):
        offsets += [si * basis[i] + sj * basis[j]
                    for si, sj in ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))]
    return np.array(offsets)


# the put's diffusion 0.04 x^2 covers its drift 0.05 x dx on every node of
# the box, so only the correlated game upwinds
@pytest.mark.parametrize("case, upwinds", [("american_put", False), ("correlated_2d", True)])
def test_stencil_weights_are_locally_consistent(case, upwinds):
    # Kushner & Dupuis: per node the weights sum to zero, their first moment
    # is the drift and their second the diffusion, plus |b_i| dx_i on the
    # diagonal of an axis whose drift quotient is upwinded
    inst, grid = stencil_case(case)
    dx = np.array(grid.dx())
    n = len(dx)
    offsets = neighbour_offsets(dx)
    tables = pde._pair_tables(inst, 0.0, grid.interior_nodes(), 1)
    upwinded = 0
    centre_cell, *cells = pde._cells(n)
    for a, b, table in zip(tables[1], tables[2], pde._stencil_weights(tables, dx)):
        centre = table[centre_cell]
        w = np.stack([table[cell] for cell in cells], axis=1)          # (m, offsets)
        scale = np.abs(w).sum(axis=1) + np.abs(centre)
        np.testing.assert_allclose(centre + w.sum(axis=1), 0.0, atol=1e-12 * scale.max())
        first = w @ offsets
        first_scale = np.abs(w) @ np.abs(offsets)
        np.testing.assert_allclose(first, b, rtol=1e-12, atol=1e-12 * first_scale.max())
        second = np.einsum("mo,oi,oj->mij", w, offsets, offsets)
        second_scale = np.einsum("mo,oi,oj->mij", np.abs(w), np.abs(offsets), np.abs(offsets))
        upwind = diffusion_slack(a, dx) < np.abs(b) * dx
        upwinded += upwind.sum()
        expected = a + np.einsum("mi,ij->mij", np.where(upwind, np.abs(b) * dx, 0.0), np.eye(n))
        np.testing.assert_allclose(second, expected, rtol=1e-12,
                                   atol=1e-12 * second_scale.max())
    assert (upwinded > 0) == upwinds


OFFSET_SLICES = {-1: slice(None, -2), 0: slice(1, -1), 1: slice(2, None)}


def neighbour_blocks(ndim):
    """Index tuples of the interior block and of its shifted copies, a
    reference for the window cells: ``(centre, axes, pairs)``, with
    ``axes[i]`` the blocks one node up and one node down axis ``i`` and
    ``pairs[i, j]`` the diagonal blocks (+, +), (-, -), (+, -), (-, +)."""
    def shifted(*moves):
        offsets = dict(moves)
        return (Ellipsis,) + tuple(OFFSET_SLICES[offsets.get(k, 0)] for k in range(ndim))

    axes = [(shifted((i, 1)), shifted((i, -1))) for i in range(ndim)]
    pairs = {(i, j): (shifted((i, 1), (j, 1)), shifted((i, -1), (j, -1)),
                      shifted((i, 1), (j, -1)), shifted((i, -1), (j, 1)))
             for i, j in itertools.combinations(range(ndim), 2)}
    return shifted(), axes, pairs


def pair_rows(inst, rows):
    """Every control pair, u-major, each point broadcast to ``rows`` rows."""
    return [(np.broadcast_to(up, (rows, up.size)), np.broadcast_to(vp, (rows, vp.size)))
            for up in inst.u_grid.points for vp in inst.v_grid.points]


def per_pair_tables(inst, t, x, fields):
    """Drift and diffusion pair by pair, a reference for the stacked tables:
    one ``(u, v, a, b, sigma)`` per pair, u-major, the control rows and each
    array repeated for ``fields`` fields."""
    tables = []
    for up, vp in pair_rows(inst, len(x)):
        bv = eval_drift(inst, t, x, up, vp)
        sv = eval_diffusion(inst, t, x, up, vp)
        a = np.einsum("mik,mjk->mij", sv, sv)
        if fields > 1:
            a, bv, sv, up, vp = (np.concatenate([arr] * fields) for arr in (a, bv, sv, up, vp))
        tables.append((up, vp, a, bv, sv))
    return tables


def differences(w, dx):
    """Central difference quotients of ``w`` at its interior nodes from the
    shifted blocks, flattened: ``(wc, d2, central, cross)``, with per axis
    the second and the first quotient and per axis pair the mixed one."""
    centre, axes, pairs = neighbour_blocks(len(dx))
    wc = w[centre]
    d2, central = [], []
    for h, (up, down) in zip(dx, axes):
        wp, wm = w[up], w[down]
        d2.append(((wp - 2.0 * wc + wm) / (h * h)).ravel())
        central.append(((wp - wm) / (2.0 * h)).ravel())
    cross = {(i, j): ((w[pp] + w[mm] - w[pm] - w[mp]) / (4.0 * dx[i] * dx[j])).ravel()
             for (i, j), (pp, mm, pm, mp) in pairs.items()}
    return wc.ravel(), d2, central, cross


def per_pair_hamiltonian(inst, t, x, y, q, xmat, tables):
    """Generator values at ``(q, xmat)`` pair by pair from
    :func:`per_pair_tables`, shape (nu, nv, m)."""
    vals = np.empty((len(tables), y.size))
    for row, (up, vp, a, b, sv) in zip(vals, tables):
        z = q[:, :1] * sv[:, 0, :]
        for i in range(1, q.shape[1]):
            z = z + q[:, i:i + 1] * sv[:, i, :]
        part = 0.5 * np.einsum("mij,mij->m", a, xmat) + np.einsum("mi,mi->m", q, b)
        np.add(part, eval_cost_rate(inst, t, x, y, z, up, vp), out=row)
    return vals.reshape(len(inst.u_grid), len(inst.v_grid), y.size)


def per_pair_field_stacks(field, inst):
    """``pde._field_stacks`` from the shifted blocks and the per-pair tables."""
    grid = field.grid
    x = grid.interior_nodes()
    tables = None

    def stack(t, k):
        nonlocal tables
        wc, d2, central, cross = differences(field.slices[k], grid.dx())
        xmat = np.empty((wc.size, grid.ndim, grid.ndim))
        for i, d2_i in enumerate(d2):
            xmat[:, i, i] = d2_i
        for (i, j), mixed in cross.items():
            xmat[:, i, j] = xmat[:, j, i] = mixed
        if tables is None or not inst.coeffs.time_homogeneous:
            tables = per_pair_tables(inst, t, x, 1)
        return x, wc, per_pair_hamiltonian(inst, t, x, wc, np.stack(central, axis=1), xmat,
                                           tables)

    return stack


def quotient_step(which, inst, t, dt, w, grid, tables):
    """The explicit step in difference-quotient form, a reference for the
    weight table: per axis the three-point second quotient and a central,
    forward or backward first quotient, per axis pair the sign-split
    seven-point mixed quotient."""
    dx = grid.dx()
    centre, axes, pairs = neighbour_blocks(grid.ndim)
    wc = w[centre].ravel()
    near = [(w[up].ravel(), w[down].ravel()) for up, down in axes]
    parts = []
    for a, b in zip(tables[1], tables[2]):
        part = 0.0
        slack = diffusion_slack(a, dx)
        for i, ((wp, wm), h) in enumerate(zip(near, dx)):
            first = np.where(slack[:, i] >= np.abs(b[:, i]) * h, (wp - wm) / (2.0 * h),
                             np.where(b[:, i] >= 0.0, (wp - wc) / h, (wc - wm) / h))
            part = part + 0.5 * a[:, i, i] * (wp - 2.0 * wc + wm) / (h * h) + b[:, i] * first
        for (i, j), (pp, mm, pm, mp) in pairs.items():
            sides = sum(near[i]) + sum(near[j])
            denom = 2.0 * dx[i] * dx[j]
            plus = (2.0 * wc + w[pp].ravel() + w[mm].ravel() - sides) / denom
            minus = (sides - 2.0 * wc - w[pm].ravel() - w[mp].ravel()) / denom
            part = part + a[:, i, j] * np.where(a[:, i, j] >= 0.0, plus, minus)
        parts.append(part)
    grad = [(wp - wm) / (2.0 * h) for (wp, wm), h in zip(near, dx)]
    vals = pde._generator_stack(inst, t, wc, grad, tables, np.stack(parts))
    return wc + dt * pde._minimax(which, vals)


def stacked_step(which, inst, t, dt, w, grid, tables):
    """``pde._step_slice`` from the slice ``w`` through a one-slot window,
    with the step's own stacks; returns the new interior, flattened."""
    out = np.empty(w[grid.interior()].shape)
    table = pde._stencil_weights(tables, grid.dx())
    pde._step_slice(which, inst, t, dt, pde._windows(w[None], grid.ndim)[0], grid.dx(), tables,
                    table.reshape(table.shape[:-1] + out.shape), out)
    return out.ravel()


@pytest.mark.parametrize("case", ["american_put", "correlated_2d"])
def test_weight_table_step_matches_the_quotient_step(case):
    # summing weights times values rounds differently from summing
    # coefficients times quotients, by far less than 1e-12 of the field
    inst, grid = stencil_case(case)
    field = solve_obstacle_pde("lower", inst, grid)
    x_int = grid.interior_nodes()
    for k in (grid.nt - 1, grid.nt // 2, 0):
        t, dt = field.times[k], field.times[k + 1] - field.times[k]
        w = field.slices[k + 1]
        tables = pde._pair_tables(inst, t, x_int, 1)
        for which in HAMILTONIANS:
            step = stacked_step(which, inst, t, dt, w, grid, tables)
            np.testing.assert_allclose(step, quotient_step(which, inst, t, dt, w, grid, tables),
                                       rtol=1e-12, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("ndim, batch", [(1, ()), (1, (2,)), (2, ()), (2, (3,))])
def test_window_cells_are_the_neighbour_blocks_in_stencil_order(rng, ndim, batch):
    shape = (7, 6)[:ndim]
    store = rng.normal(size=(3,) + batch + shape)
    windows = pde._windows(store, ndim)
    assert windows.shape == (3,) + (3,) * ndim + batch + tuple(k - 2 for k in shape)
    centre, axes, pairs = neighbour_blocks(ndim)
    blocks = [centre, *itertools.chain(*axes, *pairs.values())]
    cells = pde._cells(ndim)
    # in one and two dimensions the stencil fills its window
    assert len(set(cells)) == len(blocks) == 3 ** ndim
    store[1] += 1.0  # a view: later writes to the store show through
    for window, w in zip(windows, store):
        for cell, block in zip(cells, blocks):
            assert np.array_equal(window[cell], w[block])
    with pytest.raises(ValueError, match="read-only"):
        windows[0][cells[0]] += 1.0


def per_pair_step(which, inst, t, dt, w, x_rows, dx, tables, stencil):
    """The explicit step pair by pair, a bitwise reference for the stacked
    one: the shifted blocks of ``w`` raveled once, each pair's part summed
    from the centre on and its ``z`` formed on its own."""
    centre, axes, pairs = neighbour_blocks(len(dx))
    wc = w[centre].ravel()
    shifted = [w[o].ravel() for o in itertools.chain(*axes, *pairs.values())]
    grad = [(up - down) / (2.0 * h) for up, down, h in zip(shifted[0::2], shifted[1::2], dx)]
    sigma = tables[3]
    vals = np.empty((len(sigma), wc.size))
    centre_cell, *cells = pde._cells(len(dx))
    for row, (up, vp), sv, table in zip(vals, pair_rows(inst, wc.size), sigma, stencil):
        part = sum((table[c] * s for c, s in zip(cells, shifted)), table[centre_cell] * wc)
        z = grad[0][:, None] * sv[:, 0, :]
        for i in range(1, len(grad)):
            z = z + grad[i][:, None] * sv[:, i, :]
        np.add(part, eval_cost_rate(inst, t, x_rows, wc, z, up, vp), out=row)
    vals = vals.reshape(len(inst.u_grid), len(inst.v_grid), wc.size)
    return wc + dt * pde._minimax(which, vals)


def per_pair_sweep(which, inst, grid, penalties=None):
    """Every slice of a sweep stepped by :func:`per_pair_step`, then filled
    and projected (or penalized, one weight per field) as the solver does."""
    times, terminal = pde._times_and_terminal(inst, grid)
    if penalties is not None:
        terminal = np.broadcast_to(terminal, (len(penalties),) + grid.shape)
        penalties = np.reshape(penalties, (-1,) + (1,) * grid.ndim)
    interior = (Ellipsis,) + grid.interior()
    fields = 1 if penalties is None else len(penalties)
    x_int = grid.interior_nodes()
    x_rows = np.concatenate([x_int] * fields)
    slices = [terminal]
    for k in range(grid.nt - 1, -1, -1):
        t, dt = times[k], times[k + 1] - times[k]
        if k == grid.nt - 1 or not inst.coeffs.time_homogeneous:
            tables = pde._pair_tables(inst, t, x_int, fields)
            stencil = pde._stencil_weights(tables, grid.dx())
        w = np.zeros(terminal.shape)
        w[interior] = per_pair_step(which, inst, t, dt, slices[-1], x_rows, grid.dx(), tables,
                                    stencil).reshape(w[interior].shape)
        pde._fill_boundary(w, grid, terminal)
        h = eval_obstacle(inst, t, grid.nodes()).reshape(grid.shape)
        if penalties is None:
            np.maximum(w, h, out=w)
        else:
            pde._penalize(w, h, penalties * dt)
        slices.append(w)
    return slices[::-1]


def signed_correlation_game():
    """``correlated_game`` with ``a_01 = 0.32 u``: mixed terms of both signs."""
    inst = correlated_game()

    def sigma(t, x, u, v):
        root = np.zeros(x.shape + (2,))
        root[:, 0, 0], root[:, 1, 0], root[:, 1, 1] = 0.8, 0.4 * u[:, 0], 0.6
        return root

    return dataclasses.replace(inst, coeffs=dataclasses.replace(inst.coeffs, sigma=sigma))


STACKED_CASES = {
    "american_put": lambda: (builtin_instance("american_put"), ((20.0, 300.0),), (57,)),
    "minimax_2x2": lambda: (builtin_instance("minimax_gap"), ((-2.0, 2.0),), (41,)),
    "minimax_3x3": lambda: (builtin_instance("minimax_gap", {
        "u_points": [[-1.0], [0.0], [1.0]], "v_points": [[-1.0], [0.5], [1.0]]}),
        ((-2.0, 2.0),), (41,)),
    "correlated_2d": lambda: (signed_correlation_game(), ((-2.0, 2.0), (-2.0, 2.0)), (13, 11)),
    "correlated_2d_timed": lambda: (declare_homogeneous(signed_correlation_game(), False),
                                    ((-2.0, 2.0), (-2.0, 2.0)), (13, 11)),
}


@pytest.mark.parametrize("boundary", BOUNDARY_POLICIES)
@pytest.mark.parametrize("case", STACKED_CASES)
def test_stacked_step_is_the_per_pair_step_bit_for_bit(case, boundary):
    inst, box, nx = STACKED_CASES[case]()
    grid = sized(inst, box, nx, boundary)
    if case.startswith("correlated"):
        a01 = pde._pair_tables(inst, 0.0, grid.nodes(), 1)[1][..., 0, 1]
        assert a01.min() < 0.0 < a01.max()
    for which in HAMILTONIANS:
        field = solve_obstacle_pde(which, inst, grid)
        for mine, reference in zip(field.slices, per_pair_sweep(which, inst, grid), strict=True):
            assert np.array_equal(mine, reference)
    schedule = [1.0, 8.0, 64.0]
    reference = per_pair_sweep("lower", inst, grid, schedule)
    steps = 0
    for k, slices in sweep_penalized(inst, grid, schedule):
        assert np.array_equal(slices, reference[k])
        steps += 1
    assert steps == grid.nt + 1


@pytest.mark.parametrize("fields", [1, 3])
@pytest.mark.parametrize("case", ["american_put", "minimax_3x3", "correlated_2d"])
def test_pair_tables_are_the_per_pair_tables_stacked(case, fields):
    inst, box, nx = STACKED_CASES[case]()
    x = SpaceTimeGrid(box=box, nx=nx, nt=1).interior_nodes()
    rows, a, b, sigma = pde._pair_tables(inst, 0.25, x, fields)
    reference = per_pair_tables(inst, 0.25, x, fields)
    assert a.shape == (len(reference), fields * len(x), inst.n, inst.n)
    # the rows of the cost rate: pair by pair, then field by field
    xs, us, vs = (arr.reshape(len(reference), fields * len(x), -1) for arr in rows)
    for xp, u, v, ap, bp, sp, (ru, rv, ra, rb, rs) in zip(xs, us, vs, a, b, sigma, reference):
        assert np.array_equal(xp, np.concatenate([x] * fields))
        assert np.array_equal(u, ru) and np.array_equal(v, rv)
        assert np.array_equal(ap, ra) and np.array_equal(bp, rb) and np.array_equal(sp, rs)


def random_game(rng, n, d):
    """A game with state-dependent drift and diffusion of random scale, 2 x 3
    controls and a cost rate that reads y and every component of z."""
    scale_b, scale_s = rng.normal(size=n), rng.normal(size=(n, d))
    return make_instance(
        n=n, d=d,
        b=lambda t, x, u, v: np.sin(x + u) * scale_b + v,
        sigma=lambda t, x, u, v: (
            (1.0 + 0.3 * np.cos(x[:, :1, None] * v[:, :, None])) * scale_s + u[:, :, None]),
        f=lambda t, x, y, z, u, v: u[:, 0] * y + v[:, 0] * z.sum(axis=1),
        u_points=[[-1.0], [1.0]], v_points=[[-1.0], [0.5], [2.0]])


@pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_stacked_products_are_the_per_pair_products(rng, n, d):
    # a = sigma sigma^T and the generator's contractions, stacked over the
    # pairs, round as the per-pair einsums do
    inst = random_game(rng, n, d)
    x = rng.uniform(-2.0, 2.0, size=(37, n))
    tables = pde._pair_tables(inst, 0.3, x, 1)
    reference = per_pair_tables(inst, 0.3, x, 1)
    assert all(np.array_equal(ap, ra) for ap, (_, _, ra, _, _) in zip(tables[1], reference))
    y, q, xmat = rng.normal(size=37), rng.normal(size=(37, n)), rng.normal(size=(37, n, n))
    assert np.array_equal(pde._hamiltonian_stack(inst, 0.3, y, q, xmat, tables),
                          per_pair_hamiltonian(inst, 0.3, x, y, q, xmat, reference))


@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("case", ["american_put", "minimax_3x3", "correlated_2d"])
def test_field_stacks_are_the_shifted_block_stacks_bit_for_bit(monkeypatch, case, homogeneous):
    inst, box, nx = STACKED_CASES[case]()
    # correlated_2d's obstacle reads t: a declared one is held at t = 0
    inst = declare_homogeneous(frozen_obstacle(inst) if homogeneous else inst, homogeneous)
    grid = sized(inst, box, nx)
    for which in HAMILTONIANS:
        field = solve_obstacle_pde(which, inst, grid)
        mine, reference = pde._field_stacks(field, inst), per_pair_field_stacks(field, inst)
        for k in (0, 1, grid.nt // 2, grid.nt - 1):
            t = float(field.times[k])
            for got, expected in zip(mine(t, k), reference(t, k), strict=True):
                assert np.array_equal(got, expected)
        # the residual and the feedback indices of a run on the reference helpers
        runs = []
        for stacks in (pde._field_stacks, per_pair_field_stacks):
            monkeypatch.setattr(pde, "_field_stacks", stacks)
            monkeypatch.setattr(analysis, "_field_stacks", stacks)
            run = [complementarity_residual(field, inst)[1]]
            if grid.ndim == 1:
                u, v = feedback_from_field(field, inst)
                nodes = grid.nodes()
                run += [ctrl.rule(0, t, nodes) for t in field.times[::5] for ctrl in (u, v)]
            runs.append(run)
        monkeypatch.undo()
        for got, expected in zip(*runs, strict=True):
            assert np.array_equal(got, expected)


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
                         f=lambda t, x, y, z, u, v: v[:, 0])
    val, iu, iv = eval_hamiltonian("lower", inst, 0.0, [0.0], 0.0, [0.0], [[0.0]])
    assert (val, iu, iv) == (-1.0, 0, 0)


@pytest.mark.parametrize("rows", [1, 7, 279])
def test_singleton_minimax_is_both_reductions(rng, rows):
    vals = rng.normal(size=(1, 1, rows))
    vals[0, 0, 0] = -0.0
    lower = vals.min(axis=1).max(axis=0)
    upper = vals.max(axis=0).min(axis=0)
    for which in HAMILTONIANS:
        out = pde._minimax(which, vals)
        assert np.array_equal(out, lower) and np.array_equal(out, upper)
        assert np.array_equal(np.signbit(out), np.signbit(lower))


def test_penalty_update_matches_the_where_form_bit_for_bit(rng):
    # three weights on one obstacle; nodes below, above and exactly on it
    h = rng.normal(size=40)
    w = h + rng.normal(size=(3, 40))
    w[:, ::5] = h[::5]
    assert (w < h).any() and (w > h).any() and (w == h).any()
    c = np.array([1.0, 16.0, 256.0]).reshape(3, 1) * 2.7e-4
    expected = np.where(w < h, (w + c * h) / (1.0 + c), w)
    pde._penalize(w, h, c)
    assert np.array_equal(w, expected)


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
    reference = crr_put(100.0, 100.0, 0.05, 0.2, 1.0, 2000)
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
    # drift, diffusion and obstacle evaluated once per solve give the same
    # fields, residuals, feedback paths and penalty sweep as evaluating them
    # at every step; an obstacle that reads t (correlated_2d's and
    # deterministic_stop's) is held at t = 0 to declare it
    if case == "correlated_2d":
        declared = declare_homogeneous(frozen_obstacle(correlated_game()))
        grid = sized(declared, ((-2.0, 2.0), (-2.0, 2.0)), (13, 11), boundary)
    else:
        declared = builtin_instance(case)
        if not declared.coeffs.time_homogeneous:
            declared = declare_homogeneous(frozen_obstacle(declared))
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


@pytest.mark.parametrize("name, homogeneous", [
    ("american_put", True), ("american_put", False), ("minimax_gap", True),
    ("minimax_gap", False), ("deterministic_stop", False)])
def test_time_homogeneous_obstacle_evaluated_once_per_sweep(monkeypatch, name, homogeneous):
    inst = builtin_instance(name)
    assert inst.coeffs.time_homogeneous == (name != "deterministic_stop")
    inst = declare_homogeneous(inst, homogeneous)
    box = ((20.0, 300.0),) if name == "american_put" else ((-2.0, 2.0),)
    grid = sized(inst, box, (41,))
    times = (inst.T / grid.nt) * np.arange(grid.nt + 1)
    calls = []
    monkeypatch.setattr(pde, "eval_obstacle",
                        lambda *args: calls.append(args[1]) or eval_obstacle(*args))
    # two sweeps each: the reflected reference and the penalty batch of a
    # penalization run, the lower and the upper field of compare_wu
    if name == "american_put":
        penalization_convergence(inst, grid, [1.0, 4.0, 16.0])
    else:
        field = lower_value(inst, grid)
        upper_value(inst, grid)
    per_sweep = [times[-2]] if homogeneous else list(times[-2::-1])
    assert calls == per_sweep * 2
    if name != "american_put":
        # the residual reads the obstacle at its first slice, t = 0, or at every slice
        calls.clear()
        complementarity_residual(field, inst)
        assert calls == ([0.0] if homogeneous else list(times[:-1]))


def feedback_bundles(field, inst):
    """Paths driven by the feedback pair and by each best response of ``field``."""
    x0 = field.grid.nodes()[field.grid.nx[0] // 2]
    mesh = TimeMesh(0.0, inst.T, 10)
    drivers = [feedback_from_field(field, inst)]
    drivers += [(ControlPath.constant(iu), response_feedback(field, inst, iu))
                for iu in range(len(inst.u_grid))]
    return [simulate_paths(inst, x0, mesh, u, v, 16, 3) for u, v in drivers]


def test_drift_evaluated_once_per_table_build(monkeypatch):
    inst = builtin_instance("minimax_gap")
    per_step = declare_homogeneous(inst, False)
    grid = sized(inst, ((-2.0, 2.0),), (21,))
    calls = []
    monkeypatch.setattr(pde, "eval_drift",
                        lambda *args: calls.append((args[1], len(args[2]))) or eval_drift(*args))
    pairs = len(inst.u_grid) * len(inst.v_grid)
    field = solve_obstacle_pde("lower", inst, grid)
    # one call on every pair's rows: the stability rule's at t = 0 on all
    # nodes, the sweep's at its first step on the interior ones
    assert calls == [(0.0, pairs * 21), (field.times[-2], pairs * 19)]
    calls.clear()
    solve_obstacle_pde("lower", per_step, grid)
    # otherwise the rule samples t = 0 and t = T, and each step builds its own
    assert calls == ([(0.0, pairs * 21), (inst.T, pairs * 21)]
                     + [(t, pairs * 19) for t in field.times[-2::-1]])


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
