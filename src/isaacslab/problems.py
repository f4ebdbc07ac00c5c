"""Problem instances: coefficients, control grids, validation, built-ins.

A game instance bundles the data of a controlled diffusion with running
cost, terminal payoff and an obstacle that the value process must stay
above.  Coefficients are plain callables evaluated on batches of states:

    b(t, x, u, v)        -> drift,      shape (m, n)
    sigma(t, x, u, v)    -> diffusion,  shape (m, n, d)
    f(t, x, y, z, u, v)  -> cost rate,  shape (m,)
    phi(x)               -> terminal,   shape (m,)
    h(t, x)              -> obstacle,   shape (m,)

where ``t`` is a scalar time, ``x`` has shape (m, n), ``y`` shape (m,),
``z`` shape (m, d) and ``u``, ``v`` shape (m, k), one control point per
row, so that one call serves rows under every control pair.  A row's
value must depend on that row alone (``u[:, 0]``, not ``u[0]``), which
:class:`GameInstance` checks.  Control rows, states, a value or
gradient argument that the cost rate does not read, and the unit value
at which a cost rate declared linear in y is evaluated, may be
read-only views: a control shared by every row is a ``broadcast_to`` of
its point.
Returns may be scalars or broadcastable arrays.  The
``eval_*`` helpers share one gate, ``_evaluate``: it calls the
coefficient, normalises the shape and turns any failure into an
``EvaluationError`` carrying the first row's point.

An instance declared time-homogeneous (``Coefficients.time_homogeneous``:
b, sigma, f and h do not read ``t``) has b, sigma and h evaluated once
per grid solve rather than once per step, and
``Coefficients.cost_rate_reads`` names which of y and z the cost rate
reads, so that the solvers skip what only the others need.  A cost rate
that reads y alone may be declared linear in it
(``Coefficients.cost_rate_linear``): the solvers then evaluate its slope
f(t, x, 1, z, u, v) and multiply, where they would call f on each value.
One rule, ``_declaration_moves``, measures how far probe rows over every
control pair move under these declarations: :class:`GameInstance` refuses
the first contradiction on its fixed probes at t = 0 and t = T, and
:func:`validate_instance` reports each one at its sampled probes.

Control sets are finite grids, so suprema and infima over controls are
finite scans everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, NotFoundError

BUILTIN_NAMES = (
    "american_put",
    "lemma45",
    "minimax_gap",
    "no_obstacle_linear",
    "deterministic_stop",
)

# Probing tolerance: observed difference quotients may exceed declared
# Lipschitz constants by 5% before a violation is recorded.
LIPSCHITZ_SLACK = 1.05
DEFAULT_PROBE_BOX_HALFWIDTH = 10.0
# the arguments of the cost rate that Coefficients.cost_rate_reads may name
COST_RATE_ARGUMENTS = ("y", "z")


@dataclass(frozen=True)
class ControlGrid:
    """Finite grid standing in for a compact control set."""

    points: np.ndarray  # (num_points, k)
    label: str = ""

    def __post_init__(self):
        # C order, so that ``sde._control_rows`` can view one row as a buffer
        pts = np.atleast_2d(np.ascontiguousarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("control grid must be nonempty")
        if pts.ndim != 2:
            raise ValueError("control points must share a common dimension")
        # rows sorted lexicographically, then compared with their neighbours: as
        # np.unique(pts, axis=0) counts them (0.0 and -0.0 are one point, two NaNs
        # are not), without the numpy.ma import that np.unique makes
        ordered = pts[np.lexsort(pts.T[::-1])]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError(f"duplicate control points in grid {self.label!r}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @staticmethod
    def singleton():
        return ControlGrid(points=np.array([[0.0]]), label="fixed")


@dataclass(frozen=True)
class Coefficients:
    """Coefficient maps of a game instance plus declared regularity bounds.

    ``declared_lipschitz`` bounds the Lipschitz constants in the state
    (and, for the cost rate, in value and gradient arguments);
    ``declared_growth`` bounds the linear-growth constants.
    ``time_homogeneous`` declares that b, sigma, f and h do not depend on
    t, so the grid solver may evaluate them once per solve.
    ``cost_rate_reads`` names the arguments among ``("y", "z")`` that f
    depends on, both by default; the solvers hand f zeros for the others
    and skip what only they need.  ``cost_rate_linear`` declares that
    ``f(t, x, y, z, u, v) = f(t, x, 1, z, u, v) * y`` bit for bit, and
    needs ``cost_rate_reads == ("y",)``; the solvers then multiply that
    slope by the value instead of calling f.  All five are probed, not
    proved, the declarations by ``_declaration_moves`` at build and in validation.
    """

    b: Callable
    sigma: Callable
    f: Callable
    phi: Callable
    h: Callable
    declared_lipschitz: float
    declared_growth: float
    time_homogeneous: bool = False
    cost_rate_reads: tuple = COST_RATE_ARGUMENTS
    cost_rate_linear: bool = False

    def __post_init__(self):
        reads = tuple(self.cost_rate_reads)
        if not set(reads) <= set(COST_RATE_ARGUMENTS):
            raise ValueError(f"cost_rate_reads must be a subset of {COST_RATE_ARGUMENTS}")
        reads = tuple(a for a in COST_RATE_ARGUMENTS if a in reads)
        object.__setattr__(self, "cost_rate_reads", reads)
        if self.cost_rate_linear and reads != ("y",):
            raise ValueError(f"cost_rate_linear needs cost_rate_reads = ('y',), "
                             f"not {reads}")
        if self.declared_lipschitz <= 0:
            raise ValueError("declared_lipschitz must be positive")
        if self.declared_growth <= 0:
            raise ValueError("declared_growth must be positive")


@dataclass(frozen=True)
class GameInstance:
    """Full datum of a two-player zero-sum game with reflection."""

    n: int
    d: int
    T: float
    coeffs: Coefficients
    u_grid: ControlGrid
    v_grid: ControlGrid
    label: str = ""
    params: dict = field(default_factory=dict, compare=False)  # resolved builder parameters

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("state and noise dimensions must be >= 1")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        # Smoke-evaluate every coefficient so shape bugs surface early, and probe the
        # declarations, at t = 0 and T, x = 0 and 1 (where t read through a product
        # with x shows), (y, y') = (1, 0), (0, 1) and (2, 2), z = 1 and z' = 0.
        times = (0.0, self.T)
        y, y_other = np.tile(np.repeat([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0]], 2, axis=1), 2)
        x, z = np.tile([[0.0], [1.0]], (6, self.n)), np.ones((12, self.d))
        x, y, y_other, z, z_other, u, v = _pair_rows(self, x, y, y_other, z, 0.0 * z)
        values, moves = _declaration_moves(self, times, x, y, y_other, z, z_other, u, v)
        # each row at x = 0 and y = z = 1 must equal its pair evaluated alone
        for i in np.flatnonzero((x[:, 0] == 0.0) & (y == 1.0)):
            t, (xi, yi, zi, ui, vi) = times[2 * i // len(x)], (a[i:i + 1] for a in (x, y, z, u, v))
            for what, alone in (("drift", eval_drift(self, t, xi, ui, vi)),
                                ("diffusion", eval_diffusion(self, t, xi, ui, vi)),
                                ("cost rate", eval_cost_rate(self, t, xi, yi, zi, ui, vi))):
                if not np.array_equal(values[what][i], alone[0]):
                    raise ValueError(f"the {what} reads another row's control: u and v "
                                     f"hold one control point per state row")
        # a declaration these rows contradict would freeze a coefficient at one
        # step, hand the cost rate a zero it reads or a slope it does not have
        for kind, what, bad, _ in moves:
            if not bad.any():
                continue
            i = np.flatnonzero(bad)[0] * (len(x) // len(bad))
            t, declared = times[2 * i // len(x)], kind.split(":")[0]
            found = {"time_homogeneous": f"the {what} differs at t = 0 and t = T = {self.T:g}",
                     "cost_rate_reads": f"the cost rate differs at {what} = 0 and {what} = 1 "
                                        f"(t = {t:g})",
                     "cost_rate_linear": f"the cost rate at y = {y[i]:g} (t = {t:g}) is not "
                                         f"its value at y = 1 times {y[i]:g}"}[declared]
            reads = f" = {self.coeffs.cost_rate_reads}" if declared == "cost_rate_reads" else ""
            raise ValueError(f"{found}, but the instance declares {declared}{reads}")
        eval_terminal(self, x)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of assumption probing on a game instance."""

    passed: bool
    violations: list
    estimated_lipschitz: dict

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise ValueError("passed must reflect an empty violation list")


def _same_bits(one, other):
    """Per entry: equal, with zeros of the same sign."""
    return (one == other) & (np.signbit(one) == np.signbit(other))


def _failure(what, t, x, controls):
    """The error of a failed evaluation at ``(t, x[0], u[0], v[0])``, minus what the call lacks."""
    x0, *rows = (np.asarray(a)[0] if len(x) else None for a in (x, *controls))
    point = ((x0,) if t is None else (float(t), x0)) + tuple(rows)
    return EvaluationError(f"{what} at {point}", point=point)


def _as_batch(out, shape, what, t, x, controls):
    """``out`` as a read-only float array of ``shape``, checked finite.

    A return that already has ``shape`` is viewed, not copied; any other
    is broadcast to it.  Either way the caller's own array keeps its
    flags and the result refuses writes.
    """
    try:
        arr = np.asarray(out, dtype=float)
        if arr.shape == shape:  # broadcast_to costs microseconds even then
            arr = arr.view()
            arr.flags.writeable = False
        else:
            arr = np.broadcast_to(arr, shape)
    except Exception as exc:  # shape mismatch or non-numeric return
        raise _failure(f"{what} returned un-broadcastable value", t, x, controls) from exc
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all()
        raise _failure(f"{what} returned non-finite value", t, x, controls)
    return arr


def _evaluate(what, shape, fn, t, x, extra=(), controls=()):
    """The one evaluation gate: ``fn(t, x, *extra, *controls)`` normalised to ``shape``.

    ``t`` is None for the terminal payoff, which takes no time argument.
    A raising callable, an un-broadcastable return and a non-finite
    value all become :class:`EvaluationError` carrying the point.
    """
    args = (x, *extra, *controls) if t is None else (t, x, *extra, *controls)
    try:
        out = fn(*args)
    except Exception as exc:
        raise _failure(f"{what} failed", t, x, controls) from exc
    return _as_batch(out, shape, what, t, x, controls)


def eval_drift(instance, t, x, u, v):
    """Evaluate the drift on a state batch, normalising to shape (m, n)."""
    return _evaluate("drift", (x.shape[0], instance.n), instance.coeffs.b, t, x,
                     controls=(u, v))


def eval_diffusion(instance, t, x, u, v):
    """Evaluate the diffusion on a state batch, shape (m, n, d)."""
    return _evaluate("diffusion", (x.shape[0], instance.n, instance.d),
                     instance.coeffs.sigma, t, x, controls=(u, v))


def eval_cost_rate(instance, t, x, y, z, u, v):
    """Evaluate the running cost rate on a batch, shape (m,)."""
    return _evaluate("cost rate", (x.shape[0],), instance.coeffs.f, t, x, (y, z), (u, v))


def eval_terminal(instance, x):
    """Evaluate the terminal payoff on a batch, shape (m,)."""
    return _evaluate("terminal payoff", (x.shape[0],), instance.coeffs.phi, None, x)


def eval_obstacle(instance, t, x):
    """Evaluate the obstacle on a batch, shape (m,)."""
    return _evaluate("obstacle", (x.shape[0],), instance.coeffs.h, t, x)


def _pair_rows(instance, *columns):
    """Each probe's row of ``columns`` once per control pair, u-major, then the pairs' u and v."""
    nu, nv = len(instance.u_grid), len(instance.v_grid)
    u = np.tile(np.repeat(instance.u_grid.points, nv, axis=0), (len(columns[0]), 1))
    v = np.tile(instance.v_grid.points, (len(columns[0]) * nu, 1))
    return (*(np.repeat(c, nu * nv, axis=0) for c in columns), u, v)


def _by_time(evaluate, instance, times, *rows):
    """``evaluate`` once per entry of ``times``, on that entry's equal share of ``rows``."""
    m = len(rows[0]) // len(times)
    return np.concatenate([evaluate(instance, t, *(r[i * m:(i + 1) * m] for r in rows))
                           for i, t in enumerate(times)])


def _coefficients(instance, times, x, y, z, u, v):
    """b, sigma and f on :func:`_pair_rows` rows and h on each probe, one call per time."""
    probe = slice(None, None, len(instance.u_grid) * len(instance.v_grid))
    return {"drift": _by_time(eval_drift, instance, times, x, u, v),
            "diffusion": _by_time(eval_diffusion, instance, times, x, u, v),
            "cost rate": _by_time(eval_cost_rate, instance, times, x, y, z, u, v),
            "obstacle": _by_time(eval_obstacle, instance, times, x[probe])}


def _moved(one, other):
    """Per row: whether ``one`` differs from ``other``, and by the norm of the difference."""
    diff = (one - other).reshape(len(one), -1)
    far = np.abs(diff[:, 0]) if one.ndim == 1 else np.linalg.norm(diff, axis=1)
    return (diff != 0.0).any(axis=1), far


def _declaration_moves(instance, times, x, y, y_other, z, z_other, u, v):
    """The :func:`_coefficients` at ``times``, and ``moves``: ``(kind, what, bad rows,
    how far each row moves)`` in the order :class:`GameInstance` refuses them, for b,
    sigma, f and h against t = 0; f against f at ``y_other`` (``z_other``) for an
    argument declared unread; f against f at y = 1 times y, bitwise.
    """
    values = _coefficients(instance, times, x, y, z, u, v)
    moves = []
    if instance.coeffs.time_homogeneous:
        at_zero = _coefficients(instance, (0.0,), x, y, z, u, v)
        kinds = {"drift": "dynamics", "diffusion": "dynamics", "cost rate": "running_cost"}
        moves = [(f"time_homogeneous:{kinds.get(what, what)}", what, *_moved(value, at_zero[what]))
                 for what, value in values.items()]
    f = values["cost rate"]
    for arg, other in (("y", (x, y_other, z, u, v)), ("z", (x, y, z_other, u, v))):
        if arg not in instance.coeffs.cost_rate_reads:
            moved = _moved(f, _by_time(eval_cost_rate, instance, times, *other))
            moves.append((f"cost_rate_reads:{arg}", arg, *moved))
    if instance.coeffs.cost_rate_linear:
        scaled = _by_time(eval_cost_rate, instance, times, x, np.ones_like(y), z, u, v) * y
        moves.append(("cost_rate_linear:y", "y", ~_same_bits(f, scaled), np.abs(f - scaled)))
    return values, moves


def validate_instance(instance, probe_count=64, seed=0, probe_box=None):
    """Probe the standing assumptions of a game instance.

    Samples ``probe_count`` state pairs inside ``probe_box``
    (default ``[-10, 10]^n``) together with value/gradient probes and a
    time each, and records, over every control pair, every violation of

    * Lipschitz bounds (difference quotient above the declared constant
      with 5% slack),
    * linear-growth bounds against ``declared_growth``,
    * the barrier condition ``h(T, x) <= phi(x)``,
    * the declarations, by the rule :class:`GameInstance` applies, against
      each probe's pair for the other value and gradient: ``time_homogeneous:*``
      (``dynamics`` sums the drift's and diffusion's norms, ``running_cost``,
      ``obstacle``), ``cost_rate_reads:y`` and ``:z``, ``cost_rate_linear:y``.

    Each evaluation is one call per probe, at its time, on the rows of
    every control pair.  The probes are seeded uniform draws, so the report
    is deterministic for fixed ``(instance, probe_count, seed)``.

    Returns
    -------
    ValidationReport
        ``passed`` is true iff no violation was recorded; ``estimated_lipschitz``
        holds the largest observed difference quotient per coefficient.
    """
    if probe_count < 2:
        raise ValueError("probe_count must be >= 2")
    n, dns, w = instance.n, instance.d, DEFAULT_PROBE_BOX_HALFWIDTH
    lo, hi = np.array([(-w, w)] * n if probe_box is None else probe_box, dtype=float).T

    raw = np.random.default_rng(seed).random((probe_count, 2 * n + 2 + 2 * dns + 1))
    xs, xps, ys, yps, zs, zps, ts = np.split(raw, np.cumsum([n, n, 1, 1, dns, dns]), axis=1)
    xs, xps = lo + xs * (hi - lo), lo + xps * (hi - lo)
    ys, yps, zs, zps = (-10.0 + 20.0 * c for c in (ys[:, 0], yps[:, 0], zs, zps))
    ts = instance.T * ts[:, 0]

    C = instance.coeffs.declared_lipschitz * LIPSCHITZ_SLACK
    G = instance.coeffs.declared_growth * LIPSCHITZ_SLACK
    violations = []
    grid = (probe_count, len(instance.u_grid) * len(instance.v_grid))  # (probe, pair)

    def record(kind, bad, observed, witness):
        for i in np.flatnonzero(bad):
            violations.append((kind, witness(i), float(observed.flat[i])))

    def quotient(kind, diff, denom, witness=None):
        """Largest ``diff / denom`` where ``denom > 1e-9``; rows above C become ``kind``."""
        observed = diff / np.maximum(denom, 1e-300)
        defined = np.broadcast_to(denom > 1e-9, observed.shape)
        if kind is not None:
            record(kind, defined & (observed > C), observed, witness)
        return float(observed[defined].max(initial=0.0))

    def point(i, primed=()):
        """``(t, x, *primed, iu, iv)`` of the probe and pair on flat (probe, pair) row ``i``."""
        probe, pair = divmod(int(i), grid[1])
        return (float(ts[probe]), tuple(xs[probe]), *(tuple(p[probe]) for p in primed),
                *divmod(pair, len(instance.v_grid)))

    x, xp, y, yp, z, zp, u, v = _pair_rows(instance, xs, xps, ys, yps, zs, zps)
    values, moves = _declaration_moves(instance, ts, x, y, yp, z, zp, u, v)
    primed = _coefficients(instance, ts, xp, yp, zp, u, v)
    far = {what: _moved(value, primed[what])[1] for what, value in values.items()}
    size = {what: _moved(value, 0.0)[1] for what, value in values.items()}

    # Lipschitz: the dynamics in x, drift and diffusion estimated apart, the
    # cost rate in (x, y, z) jointly, the terminal payoff and the obstacle in x.
    dx = np.linalg.norm(xs - xps, axis=1)
    db, ds, df = (far[what].reshape(grid) for what in ("drift", "diffusion", "cost rate"))
    quotient("lipschitz:dynamics", db + ds, dx[:, None], lambda i: point(i, (xps,)))
    denom_f = dx + np.abs(ys - yps) + np.linalg.norm(zs - zps, axis=1)
    phi_a = eval_terminal(instance, xs)
    est = {"drift": quotient(None, db, dx[:, None]),
           "diffusion": quotient(None, ds, dx[:, None]),
           "running_cost": quotient("lipschitz:running_cost", df, denom_f[:, None],
                                    lambda i: point(i, (xps,))),
           "terminal": quotient("lipschitz:terminal", np.abs(phi_a - eval_terminal(instance, xps)),
                                dx, lambda i: (tuple(xs[i]), tuple(xps[i]))),
           "obstacle": quotient("lipschitz:obstacle", far["obstacle"], dx,
                                lambda i: (float(ts[i]), tuple(xs[i]), tuple(xps[i])))}

    # The terminal barrier, and the declarations.
    h_T = eval_obstacle(instance, instance.T, xs)
    record("barrier:terminal", h_T > phi_a + 1e-12, h_T - phi_a, lambda i: tuple(xs[i]))
    for kind in dict.fromkeys(kind for kind, *_ in moves):
        _, _, bad, moved = zip(*(move for move in moves if move[0] == kind))
        record(kind, np.any(bad, axis=0), sum(moved),
               (lambda i: (float(ts[i]), tuple(xs[i]))) if kind.endswith("obstacle") else point)

    # Linear growth of dynamics and of costs at zero value/gradient.
    f_0 = _by_time(eval_cost_rate, instance, ts, x, np.zeros_like(y), np.zeros_like(z), u, v)
    lin = 1.0 + np.linalg.norm(xs, axis=1)[:, None]
    g_dyn = (size["drift"] + size["diffusion"]).reshape(grid)
    g_cost = np.abs(f_0).reshape(grid) + np.abs(phi_a)[:, None] + size["obstacle"][:, None]
    record("growth:dynamics", g_dyn > G * lin, g_dyn / lin, point)
    record("growth:costs", g_cost > G * lin, g_cost / lin, point)

    violations.sort(key=lambda rec: (rec[0], -rec[2], str(rec[1])))
    return ValidationReport(passed=not violations, violations=violations,
                            estimated_lipschitz=est)


def _american_put(p):
    r, vol, strike = p["r"], p["sigma0"], p["K0"]

    def payoff(x):
        return np.maximum(strike - x[..., 0], 0.0)

    return Coefficients(
        b=lambda t, x, u, v: r * x,
        sigma=lambda t, x, u, v: vol * x[..., None],
        f=lambda t, x, y, z, u, v: -r * y,
        phi=payoff,
        h=lambda t, x: payoff(x),
        declared_lipschitz=max(1.0, r, vol),
        declared_growth=2.0 * strike + 1.0,
        time_homogeneous=True,
        cost_rate_reads=("y",),
        cost_rate_linear=True,
    )


def _lemma45(p):
    c, theta, rho = p["C"], p["theta"], p["rho"]
    return Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z, u, v: c * (np.abs(y) + np.linalg.norm(z, axis=-1)) - 0.5 * theta,
        phi=lambda x: np.zeros(x.shape[0]),
        h=lambda t, x: np.full(x.shape[0], -rho),
        declared_lipschitz=max(c, 1.0),
        declared_growth=0.5 * theta + rho + 1.0,
        time_homogeneous=True,
        cost_rate_reads=("y", "z"),
    )


def _minimax_gap(p):
    vol, floor = p["sigma0"], p["floor"]
    bound = float(np.abs(p["u_points"]).max() * np.abs(p["v_points"]).max())
    return Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.full(x.shape + (1,), vol),
        f=lambda t, x, y, z, u, v: u[:, 0] * v[:, 0],
        phi=lambda x: np.zeros(x.shape[0]),
        h=lambda t, x: np.full(x.shape[0], floor),
        declared_lipschitz=1.0,
        declared_growth=abs(floor) + vol + bound + 1.0,
        time_homogeneous=True,
        cost_rate_reads=(),
    )


def _no_obstacle_linear(p):
    c0, c1, vol = p["c0"], p["c1"], p["sigma0"]
    floor = c1 - 1.0 - c0 * p["T"]
    return Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.full(x.shape + (1,), vol),
        f=lambda t, x, y, z, u, v: np.full(x.shape[0], c0),
        phi=lambda x: np.full(x.shape[0], c1),
        h=lambda t, x: np.full(x.shape[0], floor),
        declared_lipschitz=1.0,
        declared_growth=abs(c0) + abs(c1) + abs(floor) + vol + 1.0,
        time_homogeneous=True,
        cost_rate_reads=(),
    )


def _deterministic_stop(p):
    horizon = p["T"]
    return Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z, u, v: np.zeros(x.shape[0]),
        phi=lambda x: np.zeros(x.shape[0]),
        h=lambda t, x: np.full(x.shape[0], horizon - t),
        declared_lipschitz=1.0,
        declared_growth=horizon + 1.0,
        cost_rate_reads=(),
    )


# name -> (coefficient builder, defaults of every parameter it reads);
# entries named ``*_points`` are control grids of one-number points, all
# others floats.
_BUILDERS = {
    "american_put": (_american_put, {"r": 0.05, "sigma0": 0.2, "K0": 100.0, "T": 1.0}),
    "lemma45": (_lemma45, {"C": 1.0, "theta": 1.0, "rho": 1.0, "T": 1.0}),
    "minimax_gap": (_minimax_gap, {"sigma0": 1.0, "T": 1.0, "floor": -10.0,
                                   "u_points": [[-1.0], [1.0]],
                                   "v_points": [[-1.0], [1.0]]}),
    "no_obstacle_linear": (_no_obstacle_linear,
                           {"c0": 1.0, "c1": 0.0, "sigma0": 1.0, "T": 1.0}),
    "deterministic_stop": (_deterministic_stop, {"T": 1.0}),
}


def _control_points(key, value):
    """The control grid ``key`` as a (k, 1) array; :class:`ControlGrid` refuses it empty."""
    try:
        points = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged or not numbers
        points = None
    if points is None or points.size and (points.ndim != 2 or points.shape[1] != 1):
        raise ValueError(f"{key} must be a list of one-number lists, such as [[-1.0], [1.0]]")
    return np.atleast_2d(points)


def builtin_instance(name, params=None):
    """Return a named benchmark instance.

    ``params`` overrides the documented defaults (for example ``r``,
    ``sigma0``, ``K0`` for ``american_put`` or ``C``, ``theta``, ``rho``
    for ``lemma45``); the instance's ``params`` holds every parameter
    with its default resolved.  Unknown names raise
    :class:`NotFoundError` listing the valid ones; unknown parameters,
    and a ``*_points`` grid that is not a list of one-number lists,
    raise :class:`ConfigError`-style ``ValueError`` naming them.
    """
    if name not in _BUILDERS:
        raise NotFoundError(
            f"unknown instance {name!r}; valid names: {', '.join(BUILTIN_NAMES)}"
        )
    build, defaults = _BUILDERS[name]
    given = dict(params or {})
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {', '.join(unknown)}")
    resolved = {key: _control_points(key, value) if key.endswith("_points") else float(value)
                for key, value in {**defaults, **given}.items()}
    # the grids first: they refuse an empty grid that a builder would reduce
    u_grid, v_grid = (ControlGrid(resolved[key], key[0]) if key in resolved
                      else ControlGrid.singleton() for key in ("u_points", "v_points"))
    coeffs = build(resolved)
    return GameInstance(n=1, d=1, T=resolved["T"], coeffs=coeffs, u_grid=u_grid,
                        v_grid=v_grid, label=name, params=resolved)
