"""Finite-difference solver for obstacle equations of game type.

The value fields solve

    min{ w - h, -dw/dt - H(t, x, w, Dw, D^2w) } = 0,    w(T, .) = phi,

backwards in time on a truncated box, where H scans the finite control
grids: the lower Hamiltonian maximises over the first player's grid the
minimum over the second player's, the upper Hamiltonian swaps the order.

The scheme is explicit, and one weight table over every control pair is
both its step and what its stability rule checks.  :func:`_stencil_weights`
gives, per pair and node, the centre weight and a weight per unit dt for
each neighbour: up and down each axis (the three-point second quotient,
and a first quotient that is central where the diffusion, net of the
mixed terms, covers the drift on the cell and upwind elsewhere), then the
four diagonal neighbours of each axis pair (the sign-split seven-point
mixed quotient).  The step is monotone (Barles & Souganidis) when every
neighbour weight is nonnegative, which no dt changes, and ``dt <= 1 /
max(L_y - centre)`` over every node and control pair, with ``L_y`` the
``declared_lipschitz`` of the cost rate in the value.
:func:`_monotone_rate` checks both on the coefficients at t = 0 and
t = T (t = 0 alone for a time-homogeneous instance): where the mixed term
outweighs the diagonal one a neighbour weight is negative and the grid
is refused.  :func:`cfl_required_nt` gives the smallest admissible
number of steps, and every solve refuses a grid that breaks the rule;
without declared time-homogeneity the sweep also checks each step
against that step's own coefficients.  One effect lies outside the
rule: a cost rate that reads the gradient ``z`` enters through central
quotients that are not upwinded.

Each step evolves the previous slice by one product of the weight
table with a read-only view of every node's neighbourhood
(:func:`_windows`, built once per sweep), summed in stencil order, and
then applies either the obstacle projection ``max(., h)`` or the
semi-implicit penalty update, at every node.  Boundary nodes follow the
grid policy: linear extrapolation from the two nearest interior nodes
(default, consistent with linear growth of the value) or freezing at
the terminal data.  A batch of fields, one per penalty weight, is
stepped in one sweep: each step makes one cost-rate call on the rows of
every control pair and field, and a slice that is not finite stops the
sweep with a divergence error.

:func:`_pair_tables` is the only grid code that evaluates drift and
diffusion: one call of each on the given nodes (all of them for the
stability rule, the interior ones for a solve) repeated for every
control pair and field, each row under its pair's controls, stacked
with sigma sigma^T over the pairs.  A solve builds these stacks, the
weight table with them and the obstacle at its first step when the
instance declares that b, sigma and h do not read t
(``Coefficients.time_homogeneous``) and at every step otherwise; the
queries of a stored field (:func:`_field_stacks`,
:func:`complementarity_residual`) do the same, and read its slices
through one neighbourhood view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
        # nodes() holds ndim float64 coordinates per node, and numpy refuses an
        # array of more bytes than an index can count
        if math.prod(nx) * len(nx) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise ValueError(f"prod(nx) * {len(nx)} float64 node coordinates are more bytes "
                             f"than an array can index")
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

    def inner_box(self):
        """Per-axis slices of the nodes inside the central ``INNER_FRACTION`` of the box.

        The nodes of an axis within ``INNER_FRACTION / 2`` of its width
        from its midpoint form one run, never empty, so the inner nodes
        are a box of the grid.
        """
        box = []
        for (lo, hi), ax in zip(self.box, self.axes()):
            mid, half = 0.5 * (lo + hi), 0.5 * INNER_FRACTION * (hi - lo)
            inside = np.flatnonzero(np.abs(ax - mid) <= half + 1e-12)
            box.append(slice(int(inside[0]), int(inside[-1]) + 1))
        return tuple(box)

    def inner_mask(self):
        """Boolean mask of the nodes of :meth:`inner_box`."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.inner_box()] = True
        return mask


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

    The bound is ``1 / R``, with ``R`` the largest :func:`_monotone_rate`
    of the weight table over every node and control pair, sampled at t = 0
    and t = T (at t = 0 alone for a time-homogeneous instance).  Returns
    ``(bound, nt)``.  Raises :class:`PreconditionError` when a squared
    spacing is zero or overflows, when no time step makes the mixed
    stencil monotone, and when the bound is zero or not finite (an
    overflowing diffusion or drift).
    """
    dx = grid.dx()
    if not all(0.0 < h * h < math.inf for h in dx):
        raise PreconditionError(f"the squared grid spacing of {dx} is not a positive "
                                f"finite number")
    nodes = grid.nodes()
    times = (0.0,) if instance.coeffs.time_homogeneous else (0.0, instance.T)
    rates = [_monotone_rate(_stencil_weights(_pair_tables(instance, t, nodes, 1), dx),
                            instance.coeffs.declared_lipschitz) for t in times]
    return _bound_and_nt(instance.T, float(np.max(rates)))


def _monotone_rate(stencil, lipschitz):
    """The largest rate ``R`` such that every step ``dt <= 1 / R`` is monotone.

    ``stencil`` is the :func:`_stencil_weights` table of the pairs.  One
    explicit step weighs each neighbour by dt times its weight in the
    table and the centre by ``1 - dt * (L_y - centre)``, where ``L_y``
    is ``declared_lipschitz``, which bounds the cost rate's dependence
    on the value.  ``R`` is the largest ``L_y - centre`` over rows and
    pairs; NaN or inf when the coefficients overflow.  No dt mends a
    negative neighbour weight: it raises :class:`PreconditionError`.
    """
    centre, *neighbours = _cells(stencil.ndim - 2)
    for o, cell in enumerate(neighbours):
        weight = stencil[(slice(None), *cell)]
        # a diagonal weight is never negative, so o is an axis neighbour, on axis o // 2
        if (weight < 0.0).any():
            raise PreconditionError(
                f"the mixed-derivative stencil is not monotone on axis {o // 2} at any "
                f"time step: a neighbour weighs {float(weight.min()):.3e} per unit time, "
                f"as a_ii / dx_i^2 falls below sum |a_ij| / (dx_i dx_j); change the "
                f"spacings")
    return float(np.max(lipschitz - stencil[(slice(None), *centre)]))


def _bound_and_nt(horizon, rate):
    """The time-step bound ``1 / rate`` and the fewest uniform steps over ``horizon`` within it."""
    bound = 1.0 / rate
    if not 0.0 < bound < math.inf:
        raise PreconditionError(f"the stability bound {bound} on the time step is not "
                                f"a positive finite number")
    nt = math.ceil(horizon / bound)
    while horizon / nt > bound:
        nt += 1
    return bound, nt


def cfl_required_nt(instance, grid):
    """Smallest number of time steps satisfying the stability bound."""
    return _stability(instance, grid)[1]


def _check_cfl(instance, grid):
    """Refuse a grid whose time step exceeds the stability bound."""
    _check_dt(instance.T / grid.nt, *_stability(instance, grid))


def _check_dt(dt, bound, nt, where=""):
    """Raise :class:`CflError` when ``dt`` exceeds ``bound``, which ``nt`` steps meet."""
    if dt > bound * (1.0 + 1e-12):
        raise CflError(
            f"explicit step dt={dt:.3e}{where} exceeds the stability bound {bound:.3e}; "
            f"need nt >= {nt}",
            required_dt=bound, required_nt=nt,
        )


@lru_cache(maxsize=None)
def _cells(ndim):
    """The :func:`_windows` cells of the stencil, in its order.

    Cell ``c`` holds the node at offset ``c - 1``: the centre, up then
    down each axis, then the diagonal neighbours (+, +), (-, -), (+, -),
    (-, +) of each axis pair ``i < j``.
    """
    def cell(*moves):
        offsets = dict(moves)
        return tuple(1 + offsets.get(k, 0) for k in range(ndim))

    axes = [cell((i, sign)) for i in range(ndim) for sign in (1, -1)]
    pairs = [cell((i, si), (j, sj)) for i, j in combinations(range(ndim), 2)
             for si, sj in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    return (cell(), *axes, *pairs)


def _windows(store, ndim):
    """A read-only view of the 3^ndim neighbourhood of every interior node of every slot.

    ``store`` is ``(slots, *batch, *shape)`` with ``ndim`` spatial axes,
    the view ``(slots, *(3,) * ndim, *batch, *interior)`` with
    ``windows[j][c][..., i]`` the entry ``store[j][..., i + c]``.
    """
    lead, space = store.ndim - ndim, store.strides[store.ndim - ndim:]
    interior = tuple(k - 2 for k in store.shape[lead:])
    return np.lib.stride_tricks.as_strided(
        store, store.shape[:1] + (3,) * ndim + store.shape[1:lead] + interior,
        store.strides[:1] + space + store.strides[1:lead] + space, writeable=False)


def _minimax(which, pair_values):
    """Reduce an (nu, nv, rows) stack of generator values to (rows,).

    With one control pair both orders return its row, a view of the stack.
    """
    if pair_values.shape[:2] == (1, 1):
        return pair_values[0, 0]
    if which == "lower":
        return pair_values.min(axis=1).max(axis=0)
    return pair_values.max(axis=0).min(axis=0)


def _pair_tables(instance, t, x, fields):
    """Drift and diffusion of every control pair on ``fields`` copies of the nodes ``x``.

    Returns ``(rows, a, b, sigma)``: ``rows`` the states and both
    controls of P * B * m rows, u-major, then field, then node (read-only
    views where no copy is needed, as with one pair and one field), and
    the coefficients of one drift and one diffusion call on them stacked
    over the pairs, ``a = sigma sigma^T`` (P, B * m, n, n), ``b`` (P, B *
    m, n) and ``sigma`` (P, B * m, n, d).
    """
    us, vs = instance.u_grid.points, instance.v_grid.points
    lead = (len(us), len(vs), fields, len(x))
    rows = tuple(np.broadcast_to(arr, lead + arr.shape[-1:]).reshape(-1, arr.shape[-1])
                 for arr in (x, us[:, None, None, None], vs[:, None, None]))
    stack = (len(us) * len(vs), fields * len(x))
    b = eval_drift(instance, t, *rows).reshape(stack + (instance.n,))
    sigma = eval_diffusion(instance, t, *rows).reshape(stack + (instance.n, instance.d))
    return rows, np.einsum("pmik,pmjk->pmij", sigma, sigma), b, sigma


def _generator_stack(instance, t, y, grad, tables, parts):
    """Generator values for every control pair, shape (nu, nv, B * m).

    ``y`` and each of ``grad`` hold B fields at the nodes of ``tables``
    (B * m rows, field by field), their :func:`_pair_tables`.  The cost
    rate is added in place to the pairs' second-order plus drift parts
    ``parts`` (P, B * m), evaluated in one call on the P * B * m rows of
    the tables with ``z = q sigma``, where ``grad`` holds the columns of
    the gradient ``q``, one per axis.
    """
    (x, u, v), _, _, sigma = tables
    z = grad[0][:, None] * sigma[:, :, 0, :]
    for i in range(1, len(grad)):
        z = z + grad[i][:, None] * sigma[:, :, i, :]
    # with one pair y itself: a broadcast_to view costs microseconds per step
    y_rows = y if len(parts) == 1 else np.concatenate([y] * len(parts))
    f = eval_cost_rate(instance, t, x, y_rows, z.reshape(len(x), -1), u, v)
    parts += f.reshape(parts.shape)
    return parts.reshape(len(instance.u_grid), len(instance.v_grid), y.size)


def _stencil_weights(tables, dx):
    """The weight table of the explicit step, which depends on ``(a, b)`` only.

    Every pair of the :func:`_pair_tables` ``tables`` at once, shaped
    like a :func:`_windows` slot with a leading pair axis, ``(P, *(3,) *
    ndim, rows)``: pair ``p``'s second-order plus drift part at a node is
    the sum over the :func:`_cells` of its window, in their order, of
    ``table[p][c]`` times the value in cell ``c``.  The drift quotient
    on axis ``i`` is central where the diffusion net of the mixed terms
    covers the drift on the cell,

        slack_i = a_ii - sum_{j != i} |a_ij| dx_i / dx_j >= |b_i| dx_i,

    and upwind elsewhere; the mixed term ``a_ij`` weighs the diagonal
    pair whose sign it has, and is taken off the axis neighbours.  The
    weights sum to zero, their first moment is ``b`` and their second
    ``a``, plus ``|b_i| dx_i`` on the diagonal of an upwinded axis.
    """
    _, a, b, _ = tables
    mixed = {(i, j): a[..., i, j] for i, j in combinations(range(len(dx)), 2)}
    slack = [a[..., i, i] for i in range(len(dx))]
    for (i, j), aij in mixed.items():
        slack[i] = slack[i] - np.abs(aij) * (dx[i] / dx[j])
        slack[j] = slack[j] - np.abs(aij) * (dx[j] / dx[i])
    centre, weights = 0.0, []
    for i, h in enumerate(dx):
        bh = b[..., i] * h
        central = slack[i] >= np.abs(bh)
        # times 2 dx_i^2: a central quotient moves b_i dx_i from one neighbour
        # to the other, an upwind one adds 2 |b_i| dx_i downwind
        up = np.where(central, slack[i] + bh, slack[i] + 2.0 * np.maximum(bh, 0.0))
        down = np.where(central, slack[i] - bh, slack[i] - 2.0 * np.minimum(bh, 0.0))
        weights += [up / (2.0 * h * h), down / (2.0 * h * h)]
        centre = centre - a[..., i, i] / (h * h) - np.where(central, 0.0, np.abs(b[..., i]) / h)
    for (i, j), aij in mixed.items():
        # (+, +) and (-, -) where a_ij >= 0, (+, -) and (-, +) elsewhere
        corner = np.abs(aij) / (2.0 * dx[i] * dx[j])
        plus = np.where(aij >= 0.0, corner, 0.0)
        minus = np.where(aij >= 0.0, 0.0, corner)
        weights += [plus, plus, minus, minus]
        centre = centre + np.abs(aij) / (dx[i] * dx[j])
    table = np.zeros(b.shape[:1] + (3,) * len(dx) + b.shape[1:2])
    for cell, weight in zip(_cells(len(dx)), [centre, *weights]):
        table[(slice(None), *cell)] = weight
    return table


def _step_slice(which, instance, t, dt, window, dx, tables, weights, out):
    """One explicit backward step from ``window``, a :func:`_windows` slot, into ``out``.

    ``tables`` are the step's :func:`_pair_tables` and ``weights`` their
    :func:`_stencil_weights` in the window's shape.  One product weighs
    every cell for every pair, and the cells are summed in stencil
    order, so each pair's part rounds as the sum of its weights times
    its neighbours from the centre on.
    """
    cells = _cells(len(dx))
    weighed = weights * window
    parts = weighed[(slice(None), *cells[0])] + weighed[(slice(None), *cells[1])]
    for cell in cells[2:]:
        parts += weighed[(slice(None), *cell)]
    wc = window[cells[0]]
    # the axis neighbours follow the centre, up then down on each axis
    grad = [((window[up] - window[down]) / (2.0 * h)).ravel()
            for up, down, h in zip(cells[1::2], cells[2::2], dx)]
    vals = _generator_stack(instance, t, wc.ravel(), grad, tables, parts.reshape(len(parts), -1))
    np.add(wc, dt * _minimax(which, vals).reshape(wc.shape), out=out)


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


def _penalize(w, h, c):
    """The semi-implicit penalty update of ``w`` in place, ``c`` the weight times dt.

    Where ``w < h`` the node becomes ``(w + c h) / (1 + c)``; elsewhere it is kept.
    """
    np.copyto(w, (w + c * h) / (1.0 + c), where=w < h)


def _sweep(which, instance, grid, times, terminal, weights, store):
    """Step ``terminal`` backwards over ``times``, one slice at a time.

    ``terminal`` is one slice of shape ``grid.shape`` or a batch of B
    slices, shape ``(B, *grid.shape)``.  ``weights`` is None for the
    obstacle projection ``max(., h)``, or the penalty weight (one per
    field) of the semi-implicit penalty update.  Every step makes one
    cost-rate call on the rows of every control pair and field; the
    pair tables of drift and diffusion and the obstacle, held at the
    batch's shape, are built at the first step for a time-homogeneous
    instance and at every step otherwise, where a step longer than its
    own tables allow raises :class:`CflError`.
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
    interior = (Ellipsis,) + grid.interior()
    interior_shape = batch + tuple(k - 2 for k in shape)
    dx = grid.dx()
    if weights is not None:
        # held at the batch's shape, as is the obstacle: same-shape operands
        # make the penalty update cheaper than broadcast ones
        weights = np.repeat(weights, math.prod(shape)).reshape(terminal.shape)
    times = np.asarray(times, dtype=float).tolist()
    slots = len(store)
    windows = _windows(store, grid.ndim)
    steps = len(times) - 1
    store[steps % slots] = terminal
    yield steps, store[steps % slots]
    homogeneous = instance.coeffs.time_homogeneous
    for k in range(steps - 1, -1, -1):
        t = times[k]
        dt = times[k + 1] - t
        if k == steps - 1 or not homogeneous:
            tables = _pair_tables(instance, t, x_int, fields)
            stencil = _stencil_weights(tables, dx)
            table = stencil.reshape(stencil.shape[:-1] + interior_shape)
            h = np.broadcast_to(eval_obstacle(instance, t, nodes_all).reshape(shape),
                                terminal.shape).copy()
            if not homogeneous:
                rate = _monotone_rate(stencil, instance.coeffs.declared_lipschitz)
                _check_dt(dt, *_bound_and_nt(instance.T, rate), f" at time step {k} (t = {t:.6g})")
        w = store[k % slots]
        _step_slice(which, instance, t, dt, windows[(k + 1) % slots], dx, tables, table,
                    w[interior])
        _fill_boundary(w, grid, terminal)
        if weights is None:
            np.maximum(w, h, out=w)
        else:
            _penalize(w, h, weights * dt)
        if np.count_nonzero(np.isfinite(w)) != w.size:  # cheaper than .all()
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


def _hamiltonian_stack(instance, t, y, q, xmat, tables):
    """Generator values at given ``(q, xmat)`` for every control pair, (nu, nv, m).

    ``tables`` are the :func:`_pair_tables` of the m nodes.
    """
    _, a, b, _ = tables
    parts = 0.5 * np.einsum("pmij,mij->pm", a, xmat) + np.einsum("mi,pmi->pm", q, b)
    return _generator_stack(instance, t, y, q.T, tables, parts)


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
    vals = _hamiltonian_stack(instance, t, yb, q, xmat, _pair_tables(instance, t, x, 1))
    value, iu, iv = _argopt(which, vals)
    return float(value[0]), int(iu[0]), int(iv[0])


def _field_stacks(field, instance):
    """Generator stacks of a stored lower/upper field, one slice at a time.

    Returns ``stack(t, k) -> (x, w, vals)``: the interior nodes, slice
    ``k`` on them, and the (nu, nv, m) generator values of every control
    pair at time ``t`` with the slice's central difference data, read
    off the cells of slot ``k`` of one :func:`_windows` view of the
    stored slices.  The pair tables of drift and diffusion are built at
    the first call for a time-homogeneous instance and at every call
    otherwise.
    """
    grid = field.grid
    x = grid.interior_nodes()
    dx = grid.dx()
    windows = _windows(field.slices, grid.ndim)
    tables = None

    def stack(t, k):
        nonlocal tables
        wc, *near = (windows[k][cell].ravel() for cell in _cells(grid.ndim))
        q = np.empty((wc.size, grid.ndim))
        xmat = np.empty((wc.size, grid.ndim, grid.ndim))
        for i, h in enumerate(dx):
            wp, wm = near[2 * i], near[2 * i + 1]
            xmat[:, i, i] = (wp - 2.0 * wc + wm) / (h * h)
            q[:, i] = (wp - wm) / (2.0 * h)
        # the diagonal cells follow the axis ones, four per axis pair
        corners = near[2 * grid.ndim:]
        for p, (i, j) in enumerate(combinations(range(grid.ndim), 2)):
            pp, mm, pm, mp = corners[4 * p:4 * p + 4]
            xmat[:, i, j] = xmat[:, j, i] = (pp + mm - pm - mp) / (4.0 * dx[i] * dx[j])
        if tables is None or not instance.coeffs.time_homogeneous:
            tables = _pair_tables(instance, t, x, 1)
        return x, wc, _hamiltonian_stack(instance, t, wc, q, xmat, tables)

    return stack


def complementarity_residual(field, instance, inner_only=False):
    """Discrete residual of the min-equation on the interior nodes.

    At each interior node evaluates
    ``r = min(w - h, -dw/dt - H(t, x, w, Dw, D2w))`` with forward time
    quotients, central space quotients and h read at every slice (at
    the first alone for a time-homogeneous instance).  Returns the
    supremum of ``|r|`` together with the per-slice maxima.
    ``inner_only`` restricts the spatial maxima to the central sub-box,
    away from the truncation boundary.  Note the residual is a genuine independent measure: it
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
        if k == 0 or not instance.coeffs.time_homogeneous:
            h_int = eval_obstacle(instance, t, x_int)
        dwdt = (field.slices[k + 1][interior].ravel() - wc) / dt
        r = np.minimum(wc - h_int, -dwdt - _minimax(field.kind, vals))
        per_slice[k] = float(np.abs(r[keep]).max())
    return float(per_slice.max()), per_slice
