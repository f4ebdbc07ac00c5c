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
rule for an instance whose cost rate reads the gradient ``z``
(``Coefficients.cost_rate_reads``): z enters through central quotients
that are not upwinded.

Each step evolves the previous slice by one product of the weight
table with a read-only view of every node's neighbourhood
(:func:`_windows`), summed in stencil order, and then applies either
the obstacle projection ``max(., h)`` or the semi-implicit penalty
update, at every interior node and on the frozen faces, which hold the
terminal data.  The other faces are filled after that, axis by axis,
each from the settled nodes next to it, and settled in turn, so that
the next step reads a face made of the values it reads beside it.
Each table build freezes a face at the terminal data where its linear
extrapolation from the two nearest interior nodes would give the step a
negative weight (a drift out of the box, a mixed term on a corner), and
extrapolates it elsewhere (:func:`_frozen_faces`).  A
batch of fields, one per penalty weight, is stepped in one sweep, and a
slice that is not finite stops the sweep with a divergence error.  The
cost rate is one call per step on the rows of every control pair and
field, with the value ``y`` and ``z = q sigma`` (``q`` the central
gradient) where ``Coefficients.cost_rate_reads`` declares that it reads
them and zeros elsewhere: a step forms no gradient for a cost rate that
does not read z and copies no value for one that does not read y.  One
that reads neither is called once per table build instead, and so is
one declared linear in y (``Coefficients.cost_rate_linear``), at y = 1:
its step multiplies that slope by the value, in one ufunc call.  A
sweep steps between the two slots of a zeroed ring, batch axis last,
through one :class:`_StepPlan`, which lays out the step into each slot,
its face fill and its settling once, as a tuple of ufunc calls with
their operands: views of the ring, and buffers that each table build
writes the weights, the cost rate or its slope and the obstacle into,
with dt a 0-d operand and the penalty's ``c h`` and ``1 + c`` refreshed
in place when dt or the tables change.  The tuples are built again only
when a table build changes the frozen faces, never per step, so a step
costs its arithmetic plus a fixed count of calls on any time mesh, with
or without declarations.  A slice is finite when its dot product with
zeros is: one exact reduction, NaN when an entry is NaN or infinite and
0 otherwise, which no finite entry overflows.

:func:`_pair_tables` is the only grid code that evaluates drift and
diffusion: one call of each on the given state rows (every node for
the stability rule; in a sweep the interior nodes, each once per
field) repeated for every control pair, each row under its pair's
controls, stacked with sigma sigma^T over the pairs.  A sweep builds
these stacks, the weight table with them and the obstacle at its first
step when the instance declares that b, sigma, f and h do not read t
(``Coefficients.time_homogeneous``) and at every step otherwise; the
queries of a stored field (:func:`_field_stacks`,
:func:`complementarity_residual`) do the same and read its slices
through one neighbourhood view; they and :func:`eval_hamiltonian` fix
the cost rate or its slope by the sweep's rule, :func:`_cost_rate_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
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

HAMILTONIANS = ("lower", "upper")
INNER_FRACTION = 0.6
# the factor of a face's linear extrapolation, a 0-d operand: a float one
# costs a conversion at every call
_TWO = np.array(2.0)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Truncated spatial box with a uniform time mesh over ``[0, T]``."""

    box: tuple
    nx: tuple
    nt: int

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in np.atleast_2d(self.box))
        nx = tuple(int(k) for k in np.atleast_1d(self.nx))
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "nx", nx)
        if not 1 <= len(box) <= 2:
            raise ValueError("grid solves support one or two spatial dimensions")
        if len(nx) != len(box):
            raise ValueError("box and nx must agree in dimension")
        # an extrapolated face reads the two interior nodes next to it
        if any(k < 4 for k in nx):
            raise ValueError("a grid needs at least 4 points per dimension")
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
    of the weight table over every interior node (the nodes the sweep
    steps) and control pair, sampled at t = 0 and t = T (at t = 0 alone
    for a time-homogeneous instance).  Returns
    ``(bound, nt)``.  Raises :class:`PreconditionError` when a squared
    spacing is zero or overflows, when no time step makes the mixed
    stencil monotone, and when the bound is zero or not finite (an
    overflowing diffusion or drift).
    """
    dx = grid.dx()
    if not all(0.0 < h * h < math.inf for h in dx):
        raise PreconditionError(f"the squared grid spacing of {dx} is not a positive "
                                f"finite number")
    nodes = grid.interior_nodes()
    times = (0.0,) if instance.coeffs.time_homogeneous else (0.0, instance.T)
    rates = [_monotone_rate(_stencil_weights(_pair_tables(instance, t, nodes), dx),
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

    ``store`` is ``(slots, *shape, *batch)`` with ``ndim`` spatial axes,
    the view ``(slots, *(3,) * ndim, *interior, *batch)`` with
    ``windows[j][c][i]`` the entry ``store[j][i + c]``.
    """
    space = store.strides[1:1 + ndim]
    interior = tuple(k - 2 for k in store.shape[1:1 + ndim])
    return np.lib.stride_tricks.as_strided(
        store, store.shape[:1] + (3,) * ndim + interior + store.shape[1 + ndim:],
        store.strides[:1] + space + space + store.strides[1 + ndim:], writeable=False)


def _minimax(which, pair_values):
    """Reduce an (nu, nv, rows) stack of generator values to (rows,).

    With one control pair both orders return its row, a view of the stack.
    """
    if pair_values.shape[:2] == (1, 1):
        return pair_values[0, 0]
    if which == "lower":
        return pair_values.min(axis=1).max(axis=0)
    return pair_values.max(axis=0).min(axis=0)


def _pair_tables(instance, t, x):
    """Drift and diffusion of every control pair on the state rows ``x``.

    Returns ``(rows, a, b, sigma)``: ``rows`` the states and both
    controls of P * m rows, u-major, then state (read-only views where
    no copy is needed, as with one pair), and the coefficients of one
    drift and one diffusion call on them stacked over the pairs, ``a =
    sigma sigma^T`` (P, m, n, n), ``b`` (P, m, n) and ``sigma`` (P, m,
    n, d).
    """
    us, vs = instance.u_grid.points, instance.v_grid.points
    lead = (len(us), len(vs), len(x))
    rows = tuple(np.broadcast_to(arr, lead + arr.shape[-1:]).reshape(-1, arr.shape[-1])
                 for arr in (x, us[:, None, None], vs[:, None]))
    stack = (len(us) * len(vs), len(x))
    b = eval_drift(instance, t, *rows).reshape(stack + (instance.n,))
    sigma = eval_diffusion(instance, t, *rows).reshape(stack + (instance.n, instance.d))
    return rows, np.einsum("pmik,pmjk->pmij", sigma, sigma), b, sigma


@lru_cache(maxsize=None)
def _filled(value, shape):
    """A read-only array of ``shape`` holding ``value``: zeros for a cost
    rate's argument that it does not read, ones for the value at which a
    cost rate linear in y gives its slope."""
    return np.broadcast_to(value, shape)


def _cost_rate_table(instance, t, rows):
    """What one table build fixes of the cost rate on ``rows``: ``(rate, slope)``.

    ``rate`` is the cost rate itself when it reads neither y nor z, so
    that every step that reads the table takes it from there.  ``slope``
    is its value at y = 1 when it is declared linear in y
    (``Coefficients.cost_rate_linear``), so that the cost rate at t is
    the slope times the value.  Each is None where it does not apply.
    """
    coeffs = instance.coeffs
    if coeffs.cost_rate_linear:
        return None, _cost_rate(instance, t, rows, _filled(1.0, (len(rows[0]),)),
                                None, None, None, None)
    if coeffs.cost_rate_reads:
        return None, None
    return _cost_rate(instance, t, rows, None, None, None, None, None), None


def _cost_rate(instance, t, rows, y, z, grad, sigma, term):
    """The cost rate of every control pair on ``rows``, one call, shape (P * B * m,).

    ``rows`` are the ``(x, u, v)`` rows of :func:`_pair_tables`, ``y``
    the value on them and ``grad`` the columns ``(B * m, 1)`` of the
    gradient ``q``, one per axis.  ``z = q sigma`` is formed in ``z`` (P,
    B * m, d) from ``sigma``, the diffusion's rows ``(P, B * m, d)`` one
    per axis, with ``term`` (``z``'s shape, or None in one dimension)
    holding each further axis's product.  Where
    ``Coefficients.cost_rate_reads`` declares that f does not read y, or
    z, zeros take its place and the arguments that would give it go
    unread.
    """
    x, u, v = rows
    reads = instance.coeffs.cost_rate_reads
    if "z" in reads:
        np.multiply(grad[0], sigma[0], out=z)
        for g, s in zip(grad[1:], sigma[1:]):
            np.multiply(g, s, out=term)
            np.add(z, term, out=z)
    return eval_cost_rate(instance, t, x, y if "y" in reads else _filled(0.0, (len(x),)),
                          z.reshape(len(x), -1) if "z" in reads
                          else _filled(0.0, (len(x), instance.d)), u, v)


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


def _face(array, axis, edge):
    """The nodes of ``array`` at index ``edge`` along spatial ``axis``, a view, 0-d for one node."""
    return np.moveaxis(array, axis, 0)[edge, ...]


def _frozen_faces(table, ndim):
    """Per axis, whether its ``(low, high)`` faces are frozen at the terminal data.

    ``table`` is a :func:`_stencil_weights` table of ``ndim`` axes, rows
    shaped ``(*interior, *batch)``.  The low face of axis i is filled by
    ``2 w1 - w2`` from the settled nodes one and two cells in, the values
    the next step reads there, so folding the fill into that step takes
    the weight of cell ``c_i = 0`` off cell ``c_i = 2``: the face is
    frozen where some node next to it, under some pair, weighs ``c_i =
    0`` above ``c_i = 2``; the high face mirrors it.  A fill from the
    nodes before they are settled would not fold: where the obstacle or a
    large penalty holds the node two cells in, the step would still read
    ``-w2`` through the face.
    """
    # per axis i, its cells first, then the interior nodes along it
    moved = [np.moveaxis(table, (1 + i, 1 + ndim + i), (0, 1)) for i in range(ndim)]
    return [(bool((w[0, 0] > w[2, 0]).any()), bool((w[2, -1] > w[0, -1]).any())) for w in moved]


class _StepPlan:
    """One sweep's explicit steps, each a call sequence built once over fixed buffers.

    The sweep steps between the two slots of a zeroed ring ``(2, *shape,
    *batch)``, slice ``k`` in slot ``k % 2``.  The batch axis is last, so
    that the neighbour cells of a batch are contiguous blocks, like those
    of one field; :attr:`slices` are the slots viewed ``(*batch,
    *shape)``.  :meth:`tabulate` builds the tables of one time and writes
    them into the plan's buffers: the weight table in the :func:`_windows`
    slot's shape, the cost rate or its slope where :func:`_cost_rate_table`
    fixes them, and the obstacle at the ring's slot shape; its
    :func:`_frozen_faces` choose how each face is filled.  Per slot,
    :meth:`_build` lays out the step into that slot and its settling as a
    tuple of ``(callable, operands)`` over views of the ring and those
    buffers (the product of table and window with its cells, the pairs'
    parts, the gradient columns and the rows of y and z where the cost
    rate reads them, the slope times the value for a cost rate linear in
    y, the penalty's scratch), with dt a 0-d operand.  The tuples are
    built again only when a table build changes the frozen faces, so
    :meth:`advance` makes only the ufunc calls of the arithmetic.
    """

    def __init__(self, which, instance, grid, terminal, weights):
        ndim = grid.ndim
        batch = terminal.shape[:terminal.ndim - ndim]
        inner = tuple(k - 2 for k in grid.shape) + batch
        rows = math.prod(inner)
        nu, nv = len(instance.u_grid), len(instance.v_grid)
        self.which, self.instance, self.grid = which, instance, grid
        self.nodes, self.inner = grid.nodes(), inner
        # the interior nodes, each once per field, node by node
        self.x = np.repeat(grid.interior_nodes(), math.prod(batch), axis=0)
        self.ring = np.zeros((2,) + grid.shape + batch)
        front, back = tuple(range(len(batch))), tuple(range(ndim, ndim + len(batch)))
        self.slices = [np.moveaxis(w, back, front) for w in self.ring]
        self.terminal = np.moveaxis(terminal, front, back)
        self.windows = _windows(self.ring, ndim)
        self.table = np.empty((nu * nv,) + self.windows.shape[1:])
        self.product = np.empty(self.table.shape)
        self.parts = np.empty((nu * nv,) + inner)
        # one pair's part is its value; more are reduced into the value's buffer
        self.vals = self.reduced = self.value = None
        if nu * nv > 1:
            self.vals = self.parts.reshape(nu, nv, rows)
            self.reduced = np.empty((nu if which == "lower" else nv, rows))
            self.value = np.empty(rows)
        # the value and gradient arguments of a cost rate that reads them,
        # for one linear in y its slope and the slope times the value, and
        # for one that reads neither the rate itself
        reads, linear = instance.coeffs.cost_rate_reads, instance.coeffs.cost_rate_linear
        self.y = np.empty((nu * nv,) + inner) if "y" in reads and not linear else None
        self.slope = np.empty(self.parts.shape) if linear else None
        self.scaled = np.empty(self.parts.shape) if linear else None
        self.rate = np.empty(self.parts.shape) if not reads else None
        self.grad = self.z = None
        if "z" in reads:
            self.grad = np.empty((ndim,) + inner)
            self.halves = [2.0 * h for h in grid.dx()]
            self.z = np.empty((nu * nv, rows, instance.d))
        self.h = np.empty(self.ring.shape[1:])
        self.dt, self.last_dt = np.zeros(()), None
        self.weights = None
        if weights is not None:
            # held at the slot's shape, as is the obstacle: same-shape operands
            # make the penalty update cheaper than broadcast ones
            self.weights = np.broadcast_to(np.asarray(weights, dtype=float), self.h.shape).copy()
            self.ch, self.shrink = np.empty(self.h.shape), np.empty(self.h.shape)
            self.scratch = np.empty(self.h.shape)
            self.mask = np.empty(self.h.shape, dtype=bool)
        # the finiteness test: the slot's dot product with zeros is 0 unless
        # an entry is NaN or infinite, and no finite entry overflows it
        zeros = np.zeros(self.h.size)
        self.checks = [(w.reshape(-1).dot, zeros) for w in self.ring]
        self.frozen_faces = self.sequences = None
        # what follows a new dt or table build: the penalty's c h and 1 + c
        self.refresh = () if weights is None else (
            (np.multiply, (self.weights, self.dt, self.shrink)),
            (np.multiply, (self.shrink, self.h, self.ch)),
            (np.add, (self.shrink, 1.0, self.shrink)))

    def tabulate(self, t):
        """Build the tables of time ``t`` into the buffers and return its :func:`_stencil_weights`."""
        rows, _, _, sigma = tables = _pair_tables(self.instance, t, self.x)
        stencil = _stencil_weights(tables, self.grid.dx())
        np.copyto(self.table, stencil.reshape(self.table.shape))
        # the arguments of _cost_rate after the time, None where it reads none
        z, ndim = self.z, self.grid.ndim
        self.generator = (rows, None if self.y is None else self.y.reshape(-1), z,
                          None if z is None else [g.reshape(-1, 1) for g in self.grad],
                          [sigma[:, :, i] for i in range(ndim)],
                          None if z is None or ndim == 1 else np.empty_like(z))
        for buffer, f in zip((self.rate, self.slope), _cost_rate_table(self.instance, t, rows)):
            if f is not None:
                np.copyto(buffer, f.reshape(buffer.shape))
        obstacle = eval_obstacle(self.instance, t, self.nodes)
        np.copyto(self.h, obstacle.reshape(self.grid.shape + (1,) * (self.h.ndim - ndim)))
        # the penalty's c h reads the obstacle
        self.last_dt = None
        faces = _frozen_faces(self.table, ndim)
        if faces != self.frozen_faces:
            self.frozen_faces = faces
            self.sequences = [self._build(s) for s in range(2)]
        return stencil

    def _build(self, s):
        """The calls that step slot ``1 - s`` into slot ``s``, settle it and fill its faces.

        One product weighs every cell for every pair, and the cells are
        summed in stencil order, so each pair's part rounds as the sum of
        its weights times its neighbours from the centre on.  The interior
        and the faces that :attr:`frozen_faces` freezes, holding the
        terminal data, are then settled by the obstacle projection or the
        penalty update (:meth:`_settled`); axis by axis, each other face
        is extrapolated from the settled nodes inward and settled in turn:
        the next step reads a face filled from the values it reads next
        to it.
        """
        ndim, w = self.grid.ndim, self.ring[s]
        # one pair's buffers are read without their pair axis: an operand that
        # broadcasts over a pair axis of length 1 costs a call more than one that
        # does not
        pair = (0,) if len(self.parts) == 1 else (slice(None),)
        parts, product = self.parts[pair], self.product[pair]
        cells = _cells(ndim)
        centre, *near = (self.windows[1 - s][cell] for cell in cells)
        first, second, *rest = (product[(Ellipsis, *cell) + (slice(None),) * len(self.inner)]
                                for cell in cells)
        calls = [(np.multiply, (self.table[pair], self.windows[1 - s], product)),
                 (np.add, (first, second, parts))]
        calls += [(np.add, (parts, term, parts)) for term in rest]
        if self.grad is not None:
            # the axis neighbours follow the centre, up then down on each axis
            for g, up, down, half in zip(self.grad, near[0::2], near[1::2], self.halves):
                calls += [(np.subtract, (up, down, g)), (np.divide, (g, half, g))]
        if self.y is not None:
            calls.append((np.copyto, (self.y[pair], centre)))
        if self.slope is not None:
            calls += [(np.multiply, (self.slope[pair], centre, self.scaled[pair])),
                      (np.add, (parts, self.scaled[pair], parts))]
        elif self.rate is not None:
            calls.append((np.add, (parts, self.rate[pair], parts)))
        else:
            calls.append((self._add_cost_rate, ()))
        value = parts
        if self.vals is not None:
            # the lower order takes the min over v and then the max over u, the upper the
            # max over u and then the min over v, as _minimax does
            lower = self.which == "lower"
            value = self.value.reshape(self.inner)
            calls += [((np.minimum if lower else np.maximum).reduce,
                       (self.vals, 1 if lower else 0, None, self.reduced)),
                      ((np.maximum if lower else np.minimum).reduce,
                       (self.reduced, 0, None, self.value))]
        interior = w[self.grid.interior()]
        calls += [(np.multiply, (value, self.dt, interior)), (np.add, (centre, interior, interior))]
        # the frozen faces take the terminal data and are settled with the interior
        settled = []
        for axis, (low, high) in enumerate(self.frozen_faces):
            settled.append(slice(0 if low else 1, None if high else -1))
            for frozen, edge in zip((low, high), (0, -1)):
                if frozen:
                    calls.append((np.copyto, (_face(w, axis, edge), _face(self.terminal, axis, edge))))
        calls += self._settled(w, lambda a: a[tuple(settled)])
        for axis, ends in enumerate(self.frozen_faces):
            # 2 w1 goes to a spare buffer, and so does the projection's fill: an
            # in-place call on a 0-d face costs twice one into another buffer
            spare, filled = (np.empty(_face(w, axis, 0).shape) for _ in range(2))
            for frozen, (edge, one, two) in zip(ends, ((0, 1, 2), (-1, -2, -3))):
                if frozen:
                    continue
                face, inward = _face(w, axis, edge), _face(w, axis, two)
                calls.append((np.multiply, (_face(w, axis, one), _TWO, spare)))
                if self.weights is None:
                    calls += [(np.subtract, (spare, inward, filled)),
                              (partial(np.maximum, out=face), (filled, _face(self.h, axis, edge)))]
                else:
                    calls.append((np.subtract, (spare, inward, face)))
                    calls += self._settled(w, partial(_face, axis=axis, edge=edge))
        return tuple(calls)

    def _settled(self, w, view):
        """The calls that project or penalize the nodes ``view`` picks out of ``w``.

        ``w`` is shaped like a slot, and ``view`` maps such an array to a
        view of those nodes.  The penalty update makes ``(w + c h) / (1 +
        c)`` of a node below the obstacle, ``c`` the weight times dt.
        """
        w, h = view(w), view(self.h)
        if self.weights is None:
            return [(partial(np.maximum, out=w), (w, h))]
        scratch, mask = view(self.scratch), view(self.mask)
        return [(np.add, (w, view(self.ch), scratch)), (np.less, (w, h, mask)),
                (partial(np.divide, out=w, where=mask), (scratch, view(self.shrink)))]

    def _add_cost_rate(self):
        """Add the cost rate at the step's time, one call on the rows of every pair and field."""
        rate = _cost_rate(self.instance, self.t, *self.generator)
        np.add(self.parts, rate.reshape(self.parts.shape), self.parts)

    def advance(self, k, t, dt):
        """Write slice ``k`` from slice ``k + 1`` by one step of length ``dt`` at time ``t``.

        Runs slot ``k % 2``'s call sequence on the tables of the last
        build; the penalty's ``c h`` and ``1 + c`` are refreshed in place
        when dt or the tables change.  True when the slice is finite.
        """
        if dt != self.last_dt:
            self.last_dt = dt
            self.dt[()] = dt
            for call, operands in self.refresh:
                call(*operands)
        self.t = t
        for call, operands in self.sequences[k % 2]:
            call(*operands)
        dot, zeros = self.checks[k % 2]
        return math.isfinite(dot(zeros))


def _sweep(which, instance, grid, times, terminal, weights):
    """Step ``terminal`` backwards over ``times``, one slice at a time.

    ``terminal`` is one slice of shape ``grid.shape`` or a batch of B
    slices, shape ``(B, *grid.shape)``.  ``weights`` is None for the
    obstacle projection ``max(., h)``, or the penalty weight (one per
    field) of the semi-implicit penalty update.  The sweep owns a zeroed
    two-slot ring and builds one :class:`_StepPlan` over it.  Every step
    makes one cost-rate call on the rows of every control pair and
    field, unless :func:`_cost_rate_table` fixes it or its slope; the
    plan's tables (drift and diffusion of every pair, the weight table,
    and the obstacle at the ring's slot shape) are built at the first
    step for a time-homogeneous instance and at every step otherwise,
    where a step longer than its own tables allow raises
    :class:`CflError`.
    Yields ``(k, slice)`` for ``k = nt, ..., 0``, the slice a view of the
    ring, shaped like ``terminal``, that the step after next overwrites,
    and raises :class:`DivergenceError` on the first slice that is not
    finite.
    """
    plan = _StepPlan(which, instance, grid, terminal, weights)
    times = np.asarray(times, dtype=float).tolist()
    steps = len(times) - 1
    plan.slices[steps % 2][...] = terminal
    yield steps, plan.slices[steps % 2]
    homogeneous = instance.coeffs.time_homogeneous
    for k in range(steps - 1, -1, -1):
        t = times[k]
        dt = times[k + 1] - t
        if k == steps - 1 or not homogeneous:
            stencil = plan.tabulate(t)
            if not homogeneous:
                rate = _monotone_rate(stencil, instance.coeffs.declared_lipschitz)
                _check_dt(dt, *_bound_and_nt(instance.T, rate), f" at time step {k} (t = {t:.6g})")
        if not plan.advance(k, t, dt):
            raise DivergenceError(
                f"value field turned non-finite at time step {k} (t = {t:.6g}); "
                f"the explicit scheme is unstable on this grid", step=k)
        yield k, plan.slices[k % 2]


def _solve_field(which, instance, grid, times, terminal_slice, penalty_m):
    slices = np.empty((len(times),) + grid.shape)
    for k, w in _sweep(which, instance, grid, times, terminal_slice, penalty_m):
        slices[k] = w
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
    are held, and ``slices`` is a strided view of them, so read each one
    before resuming the iterator.  An empty schedule yields nothing.
    """
    weights = [float(m) for m in m_schedule]
    if any(m < 0 for m in weights):
        raise PreconditionError("penalty weight must be nonnegative")
    times, terminal = _times_and_terminal(instance, grid)
    if not weights:
        return iter(())
    shape = (len(weights),) + grid.shape
    return _sweep("lower", instance, grid, times, np.broadcast_to(terminal, shape), weights)


def _hamiltonian_stack(instance, t, y, q, xmat, tables, rate, slope):
    """Generator values at given ``(q, xmat)`` for every control pair, (nu, nv, m).

    ``tables`` are the :func:`_pair_tables` of the m nodes, and ``rate``
    and ``slope`` what :func:`_cost_rate_table` fixes of the cost rate on
    their rows: the cost rate is ``rate``, or ``slope`` times ``y``, or,
    where both are None, one call at ``(y, q)``.
    """
    rows, a, b, sigma = tables
    parts = 0.5 * np.einsum("pmij,mij->pm", a, xmat) + np.einsum("mi,pmi->pm", q, b)
    if slope is not None:
        rate = slope.reshape(parts.shape) * y
    elif rate is None:
        z = np.empty(sigma.shape[:2] + sigma.shape[3:])
        rate = _cost_rate(instance, t, rows, np.concatenate([y] * len(parts)), z,
                          [q[:, i, None] for i in range(q.shape[1])],
                          [sigma[:, :, i] for i in range(q.shape[1])], np.empty_like(z))
    np.add(parts, rate.reshape(parts.shape), out=parts)
    return parts.reshape(len(instance.u_grid), len(instance.v_grid), y.size)


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
    tables = _pair_tables(instance, t, x)
    vals = _hamiltonian_stack(instance, t, yb, q, xmat, tables,
                              *_cost_rate_table(instance, t, tables[0]))
    value, iu, iv = _argopt(which, vals)
    return float(value[0]), int(iu[0]), int(iv[0])


def _field_stacks(field, instance):
    """Generator stacks of a stored lower/upper field, one slice at a time.

    Returns ``stack(t, k) -> (x, w, vals)``: the interior nodes, slice
    ``k`` on them, and the (nu, nv, m) generator values of every control
    pair at time ``t`` with the slice's central difference data, read
    off the cells of slot ``k`` of one :func:`_windows` view of the
    stored slices.  The pair tables of drift and diffusion, with the
    cost rate or its slope where :func:`_cost_rate_table` fixes them,
    are built at the first call for a time-homogeneous instance and at
    every call otherwise.
    """
    grid = field.grid
    x = grid.interior_nodes()
    dx = grid.dx()
    windows = _windows(field.slices, grid.ndim)
    tables = fixed = None

    def stack(t, k):
        nonlocal tables, fixed
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
            tables = _pair_tables(instance, t, x)
            fixed = _cost_rate_table(instance, t, tables[0])
        return x, wc, _hamiltonian_stack(instance, t, wc, q, xmat, tables, *fixed)

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
