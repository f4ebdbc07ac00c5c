"""Finite-difference solver for obstacle equations of game type.

The value fields solve

    min{ w - h, -dw/dt - H(t, x, w, Dw, D^2w) } = 0,    w(T, .) = phi,

backwards in time on a truncated box, where H scans the finite control
grids: the lower Hamiltonian maximises over the first player's grid the
minimum over the second player's, the upper Hamiltonian swaps the order.

The scheme is explicit, and one stability rule sizes and checks its
time step: ``dt <= dx^2 / (n * D + 1)``, where ``D`` is the largest
diagonal entry of sigma sigma^T sampled at t = 0 and t = T (at t = 0
alone for time-homogeneous dynamics) on every node and control pair.
:func:`cfl_required_nt` gives the smallest admissible number of steps,
and every solve refuses a grid that breaks the rule.
The rule ignores the drift and the mixed-derivative terms, so it does
not make the stencil monotone where the drift dominates.

The stencil is built per axis, so one code path serves every dimension:
on each axis the standard three-point second quotient and a first
quotient that is central where the diffusion dominates the drift on the
cell and upwind otherwise; on each pair of axes the sign-split
seven-point mixed quotient.  Each step evolves the previous slice and
then applies either the obstacle projection ``max(., h)`` or the
semi-implicit penalty update, at every node.  Boundary nodes follow the
grid policy: linear extrapolation from the two nearest interior nodes
(default, consistent with linear growth of the value) or freezing at the
terminal data.  A batch of fields, one per penalty weight, is stepped in
one sweep that evaluates the cost rate and the obstacle once per step
for the whole batch, and a slice that is not finite stops the sweep with
a divergence error.

Apart from the stability rule, which samples sigma itself,
:func:`_pair_tables` is the only grid code that evaluates drift and
diffusion: per control pair it gates b and sigma once on the interior
nodes and forms sigma sigma^T.  A solve builds these tables, and the
upwind stencil's per-pair constants with them, at its first step when
the instance declares time-homogeneous dynamics
(``Coefficients.time_homogeneous``) and at every step otherwise; the
queries of a stored field (:func:`_field_stacks`) do the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import add
from typing import Optional

import numpy as np

from .errors import CflError, DivergenceError, PreconditionError
from .problems import (
    eval_cost_rate,
    eval_diffusion,
    eval_drift,
    eval_obstacle,
    eval_terminal,
)

BOUNDARY_POLICIES = ("linear_extrapolation", "dirichlet_terminal_extension")
HAMILTONIANS = ("lower", "upper")
INNER_FRACTION = 0.6


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Truncated spatial box with a uniform time mesh over ``[0, T]``."""

    box: tuple
    nx: tuple
    nt: int
    boundary: str = "linear_extrapolation"

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in np.atleast_2d(self.box))
        nx = tuple(int(k) for k in np.atleast_1d(self.nx))
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "nx", nx)
        if not 1 <= len(box) <= 2:
            raise ValueError("grid solves support one or two spatial dimensions")
        if len(nx) != len(box):
            raise ValueError("box and nx must agree in dimension")
        if self.boundary not in BOUNDARY_POLICIES:
            raise ValueError(f"boundary policy must be one of {BOUNDARY_POLICIES}")
        # extrapolation reads two interior nodes next to each face
        least = 4 if self.boundary == "linear_extrapolation" else 3
        if any(k < least for k in nx):
            raise ValueError(f"{self.boundary} needs at least {least} points per dimension")
        if math.prod(nx) > np.iinfo(np.intp).max:
            raise ValueError("more grid nodes than an array can index")
        if any(lo >= hi for lo, hi in box):
            raise ValueError("box bounds must satisfy lo < hi")
        if self.nt < 1:
            raise ValueError("need at least one time step")

    @property
    def ndim(self):
        return len(self.box)

    @property
    def shape(self):
        return self.nx

    def axes(self):
        return [np.linspace(lo, hi, k) for (lo, hi), k in zip(self.box, self.nx)]

    def dx(self):
        return tuple((hi - lo) / (k - 1) for (lo, hi), k in zip(self.box, self.nx))

    def nodes(self):
        """All node coordinates, C-ordered, shape (num_nodes, n)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def interior(self):
        return tuple(slice(1, -1) for _ in self.nx)

    def interior_nodes(self):
        grid_coords = self.nodes().reshape(self.shape + (self.ndim,))
        return grid_coords[self.interior()].reshape(-1, self.ndim)

    def inner_mask(self):
        """Boolean mask of nodes inside the central ``INNER_FRACTION`` of the box."""
        masks = []
        for (lo, hi), ax in zip(self.box, self.axes()):
            mid, half = 0.5 * (lo + hi), 0.5 * INNER_FRACTION * (hi - lo)
            masks.append(np.abs(ax - mid) <= half + 1e-12)
        return np.logical_and.reduce(np.meshgrid(*masks, indexing="ij"))


@dataclass(frozen=True)
class ValueField:
    """Value samples on a space-time grid."""

    grid: SpaceTimeGrid
    times: np.ndarray       # (nt+1,)
    slices: np.ndarray      # (nt+1, *grid.shape)
    kind: str               # "lower", "upper" or "penalized"
    penalty: Optional[float] = None

    @property
    def horizon(self):
        return float(self.times[-1])

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def interp(self, t_index, x):
        """Value at off-grid points of one time slice (1-D grids only)."""
        if self.grid.ndim != 1:
            raise PreconditionError("interp is implemented for 1-D grids")
        ax = self.grid.axes()[0]
        return np.interp(np.asarray(x, dtype=float), ax, self.slices[t_index])


def _stability(instance, grid):
    """The stability bound on the explicit time step and the smallest ``nt`` meeting it.

    The bound is ``dx^2 / (n * D + 1)`` with ``dx`` the smallest spacing
    and ``D`` the largest diagonal entry of sigma sigma^T, sampled at
    t = 0 and t = T on every node and control pair; time-homogeneous
    dynamics are sampled at t = 0 only.  Returns ``(bound, nt)``, and
    raises :class:`PreconditionError` when the bound is zero or not
    finite (an overflowing diffusion or spacing).
    """
    nodes = grid.nodes()
    worst = 0.0
    for t in (0.0,) if instance.coeffs.time_homogeneous else (0.0, instance.T):
        for u in instance.u_grid.points:
            for v in instance.v_grid.points:
                sv = eval_diffusion(instance, t, nodes, u, v)
                worst = max(worst, float(np.sum(sv * sv, axis=2).max()))
    bound = min(step * step for step in grid.dx()) / (grid.ndim * worst + 1.0)
    if not 0.0 < bound < math.inf:
        raise PreconditionError(f"the stability bound {bound} on the time step is not "
                                f"a positive finite number")
    nt = int(np.ceil(instance.T / bound))
    while instance.T / nt > bound:
        nt += 1
    return bound, nt


def cfl_required_nt(instance, grid):
    """Smallest number of time steps satisfying the stability bound."""
    return _stability(instance, grid)[1]


def _check_cfl(instance, grid):
    """Refuse a grid whose time step exceeds the stability bound."""
    bound, nt = _stability(instance, grid)
    if instance.T / grid.nt > bound * (1.0 + 1e-12):
        raise CflError(
            f"explicit step dt={instance.T / grid.nt:.3e} exceeds the stability "
            f"bound {bound:.3e}; need nt >= {nt}",
            required_dt=bound, required_nt=nt,
        )


_OFFSET_SLICES = {-1: slice(None, -2), 0: slice(1, -1), 1: slice(2, None)}


@lru_cache(maxsize=None)
def _neighbours(ndim):
    """Index tuples of the interior block and of its shifted copies.

    Returns ``(centre, axes, pairs)``: ``axes[i]`` holds the blocks one
    node up and one node down axis ``i``, and ``pairs[i, j]`` for
    ``i < j`` the diagonal blocks shifted (+, +), (-, -), (+, -), (-, +).
    The tuples index the trailing ``ndim`` axes, so leading batch axes
    pass through.
    """
    def shifted(*moves):
        offsets = dict(moves)
        return (Ellipsis,) + tuple(_OFFSET_SLICES[offsets.get(k, 0)] for k in range(ndim))

    axes = [(shifted((i, 1)), shifted((i, -1))) for i in range(ndim)]
    pairs = {(i, j): (shifted((i, 1), (j, 1)), shifted((i, -1), (j, -1)),
                      shifted((i, 1), (j, -1)), shifted((i, -1), (j, 1)))
             for i, j in combinations(range(ndim), 2)}
    return shifted(), axes, pairs


def _differences(w, dx):
    """Per-axis difference quotients of ``w`` at its interior nodes.

    ``w`` has the spatial axes last, after any leading batch axes.
    Returns ``(wc, d2, central, fwd, bwd, cross)``, flattened C-ordered,
    so a batch of B fields gives arrays of B * m entries, field by field:
    the interior values, then per axis the three-point second quotient
    and the central, forward and backward first quotients, and per axis
    pair ``i < j`` the two sign-split seven-point mixed quotients
    ``cross[i, j] = (plus, minus)``.  ``plus`` is monotone for a
    nonnegative coefficient, ``minus`` for a negative one, and their mean
    is the central mixed quotient.
    """
    centre, axes, pairs = _neighbours(len(dx))
    wc = w[centre]
    d2, central, fwd, bwd = [], [], [], []
    for h, (up, down) in zip(dx, axes):
        wp, wm = w[up], w[down]
        d2.append(((wp - 2.0 * wc + wm) / (h * h)).ravel())
        central.append(((wp - wm) / (2.0 * h)).ravel())
        fwd.append(((wp - wc) / h).ravel())
        bwd.append(((wc - wm) / h).ravel())
    cross = {}
    for (i, j), (pp, mm, pm, mp) in pairs.items():
        wip, wim = w[axes[i][0]], w[axes[i][1]]
        wjp, wjm = w[axes[j][0]], w[axes[j][1]]
        denom = 2.0 * dx[i] * dx[j]
        plus = (2.0 * wc + w[pp] + w[mm] - wip - wim - wjp - wjm) / denom
        minus = (wip + wim + wjp + wjm - 2.0 * wc - w[pm] - w[mp]) / denom
        cross[i, j] = (plus.ravel(), minus.ravel())
    return wc.ravel(), d2, central, fwd, bwd, cross


def _minimax(which, pair_values):
    """Reduce an (nu, nv, rows) stack of generator values to (rows,)."""
    if which == "lower":
        return pair_values.min(axis=1).max(axis=0)
    return pair_values.max(axis=0).min(axis=0)


def _pair_tables(instance, t, x, fields):
    """Drift and diffusion of every control pair on the nodes ``x`` at time ``t``.

    Returns one ``(u, v, a, b, sigma)`` per pair, u-major, with
    ``a = sigma sigma^T``; each array is repeated for ``fields`` fields,
    so ``a``, ``b`` and ``sigma`` have B * m rows, field by field.
    """
    tables = []
    for up in instance.u_grid.points:
        for vp in instance.v_grid.points:
            bv = eval_drift(instance, t, x, up, vp)
            sv = eval_diffusion(instance, t, x, up, vp)
            a = np.einsum("mik,mjk->mij", sv, sv)
            if fields > 1:
                a, bv, sv = (np.concatenate([arr] * fields) for arr in (a, bv, sv))
            tables.append((up, vp, a, bv, sv))
    return tables


def _generator_stack(instance, t, x_rows, y, grad, tables, parts):
    """Generator values for every control pair, shape (nu, nv, B * m).

    ``y`` and each of ``grad`` hold B fields at the nodes ``x_rows``
    (B * m rows, field by field), and ``tables`` are their
    :func:`_pair_tables`.  ``parts`` yields, pair by pair, the
    second-order plus drift part; the cost rate is added, evaluated once
    per pair on all rows with ``z = q sigma``, where ``grad`` holds the
    columns of the gradient ``q``, one per axis.
    """
    vals = np.empty((len(tables), y.size))
    for row, (up, vp, _, _, sv), part in zip(vals, tables, parts):
        z = grad[0][:, None] * sv[:, 0, :]
        for i in range(1, len(grad)):
            z = z + grad[i][:, None] * sv[:, i, :]
        row[:] = part + eval_cost_rate(instance, t, x_rows, y, z, up, vp)
    return vals.reshape(len(instance.u_grid), len(instance.v_grid), y.size)


def _upwind_constants(tables, dx):
    """Per-pair constants of the upwind stencil, which depend on ``(a, b)`` only.

    Per pair: per axis ``(a_ii / 2, central?, forward?, b_i)``, where the
    central quotient applies where the diffusion dominates the drift on
    the cell and the forward one elsewhere where ``b_i >= 0``; per axis
    pair ``(a_ij, a_ij >= 0)``, which picks the sign-split mixed quotient.
    """
    constants = []
    for _, _, a, b, _ in tables:
        axes = [(0.5 * a[:, i, i], a[:, i, i] >= np.abs(b[:, i]) * h, b[:, i] >= 0.0, b[:, i])
                for i, h in enumerate(dx)]
        cross = {(i, j): (a[:, i, j], a[:, i, j] >= 0.0)
                 for i, j in combinations(range(len(dx)), 2)}
        constants.append((axes, cross))
    return constants


def _step_slice(which, instance, t, dt, w, x_rows, dx, tables, stencil):
    """One explicit backward step; returns updated interior values, flattened.

    ``tables`` and ``stencil`` are the step's :func:`_pair_tables` and
    their :func:`_upwind_constants`.
    """
    wc, d2, central, fwd, bwd, cross = _differences(w, dx)

    def upwind_terms(axes, mixed):
        second, drift = [], []
        for i, (half_aii, is_central, is_forward, bi) in enumerate(axes):
            second.append(half_aii * d2[i])
            drift.append(bi * np.where(is_central, central[i],
                                       np.where(is_forward, fwd[i], bwd[i])))
        for (i, j), (aij, nonneg) in mixed.items():
            plus, minus = cross[i, j]
            second.append(aij * np.where(nonneg, plus, minus))
        return reduce(add, second) + reduce(add, drift)

    vals = _generator_stack(instance, t, x_rows, wc, central, tables,
                            (upwind_terms(*pair) for pair in stencil))
    return wc + dt * _minimax(which, vals)


def _fill_boundary(w, grid, terminal):
    """Boundary faces of the spatial (trailing) axes, axis by axis.

    Frozen at ``terminal`` (same shape as ``w``) or extrapolated linearly
    from the two nearest interior nodes.
    """
    frozen = grid.boundary == "dirichlet_terminal_extension"
    for axis in range(w.ndim - grid.ndim, w.ndim):
        face = w.swapaxes(0, axis)
        if frozen:
            data = terminal.swapaxes(0, axis)
            face[0] = data[0]
            face[-1] = data[-1]
        else:
            face[0] = 2.0 * face[1] - face[2]
            face[-1] = 2.0 * face[-2] - face[-3]


def _sweep(which, instance, grid, times, terminal, weights, store):
    """Step ``terminal`` backwards over ``times``, one slice at a time.

    ``terminal`` is one slice of shape ``grid.shape`` or a batch of B
    slices, shape ``(B, *grid.shape)``.  ``weights`` is None for the
    obstacle projection ``max(., h)``, or the penalty weight (one per
    field) of the semi-implicit penalty update.  Every step evaluates
    the obstacle once and each control pair's cost rate once for the
    whole batch; the pair tables of drift and diffusion are built at the
    first step for time-homogeneous dynamics and at every step otherwise.
    Slice ``k`` is written to ``store[k % len(store)]``: a store with
    one slot per time keeps every slice, one with two slots only the
    latest two.  In two dimensions the boundary fill of the first axis
    reads the slot's old entries on the second axis's faces before that
    axis overwrites them, so a store must start finite (zeroed).  Yields
    ``(k, slice)`` for ``k = nt, ..., 0`` and raises
    :class:`DivergenceError` on the first slice that is not finite.
    """
    shape = grid.shape
    batch = terminal.shape[:terminal.ndim - grid.ndim]
    nodes_all = grid.nodes()
    x_int = grid.interior_nodes()
    fields = math.prod(batch)
    x_rows = np.concatenate([x_int] * fields) if fields > 1 else x_int
    interior = (Ellipsis,) + grid.interior()
    interior_shape = batch + tuple(k - 2 for k in shape)
    dx = grid.dx()
    if weights is not None:
        weights = np.reshape(weights, batch + (1,) * grid.ndim)
    times = np.asarray(times, dtype=float).tolist()
    slots = len(store)
    steps = len(times) - 1
    store[steps % slots] = terminal
    yield steps, store[steps % slots]
    homogeneous = instance.coeffs.time_homogeneous
    for k in range(steps - 1, -1, -1):
        t = times[k]
        dt = times[k + 1] - t
        if k == steps - 1 or not homogeneous:
            tables = _pair_tables(instance, t, x_int, fields)
            stencil = _upwind_constants(tables, dx)
        w = store[k % slots]
        w[interior] = _step_slice(which, instance, t, dt, store[(k + 1) % slots], x_rows,
                                  dx, tables, stencil).reshape(interior_shape)
        _fill_boundary(w, grid, terminal)
        h_k = eval_obstacle(instance, t, nodes_all).reshape(shape)
        if weights is None:
            np.maximum(w, h_k, out=w)
        else:
            c = weights * dt
            w[...] = np.where(w < h_k, (w + c * h_k) / (1.0 + c), w)
        if not np.isfinite(w).all():
            raise DivergenceError(
                f"value field turned non-finite at time step {k} (t = {t:.6g}); "
                f"the explicit scheme is unstable on this grid", step=k)
        yield k, w


def _solve_field(which, instance, grid, times, terminal_slice, penalty_m):
    slices = np.zeros((len(times),) + grid.shape)
    for _ in _sweep(which, instance, grid, times, terminal_slice, penalty_m, slices):
        pass
    kind = which if penalty_m is None else "penalized"
    return ValueField(grid=grid, times=np.asarray(times, dtype=float).copy(),
                      slices=slices, kind=kind, penalty=penalty_m)


def _times_and_terminal(instance, grid):
    """The uniform time mesh and the terminal slice, after the stability check."""
    _check_cfl(instance, grid)
    times = (instance.T / grid.nt) * np.arange(grid.nt + 1)
    return times, eval_terminal(instance, grid.nodes()).reshape(grid.shape)


def solve_obstacle_pde(which, instance, grid):
    """Solve the obstacle equation for the lower or upper Hamiltonian.

    Steps the terminal payoff backwards with the explicit monotone
    stencil and projects onto the obstacle after every step.  Refuses to
    run when the stability bound is violated, reporting the smallest
    admissible number of time steps.
    """
    if which not in HAMILTONIANS:
        raise PreconditionError(f"which must be one of {HAMILTONIANS}")
    times, terminal = _times_and_terminal(instance, grid)
    return _solve_field(which, instance, grid, times, terminal, None)


def solve_penalized_pde(instance, grid, m):
    """Solve the penalized equation with weight ``m`` (lower Hamiltonian).

    The reflection constraint is replaced by the penalty driver term,
    applied semi-implicitly in closed form so stability is uniform in m.
    """
    if m < 0:
        raise PreconditionError("penalty weight must be nonnegative")
    times, terminal = _times_and_terminal(instance, grid)
    return _solve_field("lower", instance, grid, times, terminal, float(m))


def sweep_penalized(instance, grid, m_schedule):
    """Step the penalized equation for every weight of ``m_schedule`` at once.

    One backward sweep serves the whole schedule: each step evaluates the
    coefficients once and shares them across the weights.  The weights
    and the stability bound are checked at the call, which returns an iterator over
    ``(k, slices)`` for ``k = nt, ..., 0``: ``slices[i]`` is slice ``k``
    of the field with weight ``m_schedule[i]`` and equals that slice of
    :func:`solve_penalized_pde` bit for bit.  Only the latest two slices
    are held, so read each one before resuming the iterator.  An empty
    schedule yields nothing.
    """
    weights = [float(m) for m in m_schedule]
    if any(m < 0 for m in weights):
        raise PreconditionError("penalty weight must be nonnegative")
    times, terminal = _times_and_terminal(instance, grid)
    if not weights:
        return iter(())
    shape = (len(weights),) + grid.shape
    return _sweep("lower", instance, grid, times, np.broadcast_to(terminal, shape),
                  weights, np.zeros((2,) + shape))


def _hamiltonian_stack(instance, t, x, y, q, xmat, tables):
    """Generator values at given ``(q, xmat)`` for every control pair, (nu, nv, m).

    ``tables`` are the :func:`_pair_tables` of ``x``.
    """
    parts = (0.5 * np.einsum("mij,mij->m", a, xmat) + np.einsum("mi,mi->m", q, b)
             for _, _, a, b, _ in tables)
    return _generator_stack(instance, t, x, y, q.T, tables, parts)


def _argopt(which, vals):
    """Reduce an (nu, nv, m) generator stack with its attained optimisers.

    Returns ``(values, u_indices, v_indices)`` with ties broken towards
    the lowest index; the reported indices are the outer and inner
    optimisers actually attained.
    """
    cols = np.arange(vals.shape[2])
    if which == "lower":
        inner = vals.min(axis=1)                 # (nu, m)
        inner_arg = vals.argmin(axis=1)          # (nu, m)
        iu = inner.argmax(axis=0)                # (m,)
        value = inner[iu, cols]
        iv = inner_arg[iu, cols]
    else:
        inner = vals.max(axis=0)                 # (nv, m)
        inner_arg = vals.argmax(axis=0)          # (nv, m)
        iv = inner.argmin(axis=0)
        value = inner[iv, cols]
        iu = inner_arg[iv, cols]
    return value, iu, iv


def eval_hamiltonian(which, instance, t, x, y, q, xmat):
    """Lower or upper Hamiltonian at one point.

    Parameters
    ----------
    which : str
        "lower" maximises over the first grid the minimum over the
        second; "upper" swaps the order.
    t, y : float
    x, q : array_like, shape (n,)
    xmat : array_like, shape (n, n), symmetric second-order argument.

    Returns
    -------
    (value, argmax_u, arginf_v)
    """
    if which not in HAMILTONIANS:
        raise PreconditionError(f"which must be one of {HAMILTONIANS}")
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    q = np.atleast_1d(np.asarray(q, dtype=float))[None, :]
    xmat = np.atleast_2d(np.asarray(xmat, dtype=float))[None, :, :]
    yb = np.atleast_1d(float(y))
    vals = _hamiltonian_stack(instance, t, x, yb, q, xmat, _pair_tables(instance, t, x, 1))
    value, iu, iv = _argopt(which, vals)
    return float(value[0]), int(iu[0]), int(iv[0])


def _field_stacks(field, instance):
    """Generator stacks of a stored lower/upper field, one slice at a time.

    Returns ``stack(t, k) -> (x, w, vals)``: the interior nodes, slice
    ``k`` on them, and the (nu, nv, m) generator values of every control
    pair at time ``t`` with the slice's central difference data.  The
    pair tables of drift and diffusion are built at the first call for
    time-homogeneous dynamics and at every call otherwise.
    """
    grid = field.grid
    x = grid.interior_nodes()
    tables = None

    def stack(t, k):
        nonlocal tables
        wc, d2, central, _, _, cross = _differences(field.slices[k], grid.dx())
        xmat = np.empty((wc.size, grid.ndim, grid.ndim))
        for i, d2_i in enumerate(d2):
            xmat[:, i, i] = d2_i
        for (i, j), (plus, minus) in cross.items():
            xmat[:, i, j] = xmat[:, j, i] = 0.5 * (plus + minus)
        if tables is None or not instance.coeffs.time_homogeneous:
            tables = _pair_tables(instance, t, x, 1)
        return x, wc, _hamiltonian_stack(instance, t, x, wc, np.stack(central, axis=1),
                                         xmat, tables)

    return stack


def complementarity_residual(field, instance, inner_only=False):
    """Discrete residual of the min-equation on the interior nodes.

    At each interior node evaluates
    ``r = min(w - h, -dw/dt - H(t, x, w, Dw, D2w))`` with forward time
    quotients and central space quotients.  Returns the supremum of
    ``|r|`` together with the per-slice maxima.  ``inner_only`` restricts
    the spatial maxima to the central sub-box, away from the truncation
    boundary.  Note the residual is a genuine independent measure: it
    does not vanish where the terminal data is not smooth (for a kinked
    payoff the last slices carry an O(1/dx) spike), so convergence is
    read on slices away from the terminal layer.
    """
    if field.kind not in HAMILTONIANS:
        raise PreconditionError("residuals are defined for lower/upper fields")
    grid = field.grid
    nt = len(field.times) - 1
    interior = grid.interior()
    keep = grid.inner_mask()[interior].ravel() if inner_only else slice(None)
    stack = _field_stacks(field, instance)
    per_slice = np.empty(nt)
    for k in range(nt):
        t = float(field.times[k])
        dt = float(field.times[k + 1] - field.times[k])
        x_int, wc, vals = stack(t, k)
        h_int = eval_obstacle(instance, t, x_int)
        dwdt = (field.slices[k + 1][interior].ravel() - wc) / dt
        r = np.minimum(wc - h_int, -dwdt - _minimax(field.kind, vals))
        per_slice[k] = float(np.abs(r[keep]).max())
    return float(per_slice.max()), per_slice
