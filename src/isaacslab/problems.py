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
:class:`GameInstance` refuses any of these declarations where its
values at t = 0 and t = T, on the states x = 0 and x = 1 with y and z at
1 and each at 0 in turn (and y at 2 for linearity), contradict it, and
:func:`validate_instance` probes each at every sampled point.

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
        if len(np.unique(pts, axis=0)) != len(pts):
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
    slope by the value instead of calling f.  All five are checked by
    probing in :func:`validate_instance`, not symbolically.
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
        # Smoke-evaluate every coefficient so shape bugs surface early, on one
        # row per control pair at x = 0 and one at x = 1, where a coefficient
        # that reads t only through a product with x moves too; each row at
        # x = 0 must equal its pair evaluated alone.  The cost rate takes
        # y = z = 1 there, and y = 0 or z = 0 where it is declared not to read it.
        nu, nv = len(self.u_grid), len(self.v_grid)
        u = np.tile(np.repeat(self.u_grid.points, nv, axis=0), (2, 1))
        v = np.tile(self.v_grid.points, (2 * nu, 1))
        x = np.repeat([[0.0], [1.0]], nu * nv, axis=0) * np.ones(self.n)
        y, z = np.ones(2 * nu * nv), np.ones((2 * nu * nv, self.d))
        values = {}
        for t in (0.0, self.T):
            for what, evaluate, args in (("drift", eval_drift, (x, u, v)),
                                         ("diffusion", eval_diffusion, (x, u, v)),
                                         ("cost rate", eval_cost_rate, (x, y, z, u, v))):
                values[what, t] = rows = evaluate(self, t, *args)
                if any(not np.array_equal(row, evaluate(self, t, *(a[i:i + 1] for a in args))[0])
                       for i, row in enumerate(rows[:nu * nv])):
                    raise ValueError(f"the {what} reads another row's control: u and v "
                                     f"hold one control point per state row")
            values["obstacle", t] = eval_obstacle(self, t, x)
        # a declaration these values contradict would freeze them at one step
        homogeneous = ("drift", "diffusion", "cost rate", "obstacle")
        for what in homogeneous if self.coeffs.time_homogeneous else ():
            if not np.array_equal(values[what, 0.0], values[what, self.T]):
                raise ValueError(f"the {what} differs at t = 0 and t = T = {self.T:g}, but "
                                 f"the instance declares time_homogeneous")
        # ... or hand the cost rate a zero it reads
        reads = self.coeffs.cost_rate_reads
        for arg, zeroed in (("y", (0.0 * y, z)), ("z", (y, 0.0 * z))):
            if arg in reads:
                continue
            for t in (0.0, self.T):
                if not np.array_equal(eval_cost_rate(self, t, x, *zeroed, u, v),
                                      values["cost rate", t]):
                    raise ValueError(f"the cost rate differs at {arg} = 0 and {arg} = 1 "
                                     f"(t = {t:g}), but the instance declares "
                                     f"cost_rate_reads = {reads}")
        # ... or take f at y = 1 for a slope that it does not have
        for t in (0.0, self.T) if self.coeffs.cost_rate_linear else ():
            slope = values["cost rate", t]
            for at in (0.0, 2.0):
                if not _same_bits(eval_cost_rate(self, t, x, at * y, z, u, v), slope * at):
                    raise ValueError(f"the cost rate at y = {at:g} (t = {t:g}) is not its "
                                     f"value at y = 1 times {at:g}, but the instance "
                                     f"declares cost_rate_linear")
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
    """Equal arrays whose zeros also carry the same signs."""
    return np.array_equal(one, other) and np.array_equal(np.signbit(one), np.signbit(other))


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


def validate_instance(instance, probe_count=64, seed=0, probe_box=None):
    """Probe the standing assumptions of a game instance.

    Samples ``probe_count`` state pairs inside ``probe_box``
    (default ``[-10, 10]^n``) together with value/gradient probes and all
    control pairs, and records every violation of

    * Lipschitz bounds (difference quotient above the declared constant
      with 5% slack),
    * linear-growth bounds against ``declared_growth``,
    * the barrier condition ``h(T, x) <= phi(x)``,
    * for an instance declared time-homogeneous, equality of b, sigma, f
      and h at each probe's own time with their values at t = 0,
    * for a cost rate declared not to read y (or z), equality of f at the
      probe's value (gradient) and at the other value (gradient) of its
      pair, recorded as ``cost_rate_reads:y`` (``cost_rate_reads:z``),
    * for a cost rate declared linear in y, bitwise equality of f at the
      probe and of f at y = 1 times the probe's y, recorded as
      ``cost_rate_linear:y``.

    The probes are seeded uniform draws, so the report is deterministic for
    fixed ``(instance, probe_count, seed)``.

    Returns
    -------
    ValidationReport
        ``passed`` is true iff no violation was recorded;
        ``estimated_lipschitz`` holds the largest observed difference
        quotient per coefficient.
    """
    if probe_count < 2:
        raise ValueError("probe_count must be >= 2")
    n, dns = instance.n, instance.d
    if probe_box is None:
        w = DEFAULT_PROBE_BOX_HALFWIDTH
        probe_box = [(-w, w)] * n
    lo, hi = np.array(probe_box, dtype=float).T

    # Columns: x, x', y, y', z, z', t.
    raw = np.random.default_rng(seed).random((probe_count, 2 * n + 2 + 2 * dns + 1))
    xs = lo + raw[:, :n] * (hi - lo)
    xps = lo + raw[:, n : 2 * n] * (hi - lo)
    ys = -10.0 + 20.0 * raw[:, 2 * n]
    yps = -10.0 + 20.0 * raw[:, 2 * n + 1]
    zs = -10.0 + 20.0 * raw[:, 2 * n + 2 : 2 * n + 2 + dns]
    zps = -10.0 + 20.0 * raw[:, 2 * n + 2 + dns : 2 * n + 2 + 2 * dns]
    ts = instance.T * raw[:, -1]

    C = instance.coeffs.declared_lipschitz * LIPSCHITZ_SLACK
    G = instance.coeffs.declared_growth * LIPSCHITZ_SLACK
    violations = []
    est = dict.fromkeys(("drift", "diffusion", "running_cost", "terminal", "obstacle"), 0.0)

    def record(kind, bad, observed, witness):
        for i in np.flatnonzero(bad):
            violations.append((kind, witness(i), float(observed[i])))

    def quotient(kind, diff, denom, witness=None):
        """Largest ``diff / denom`` where ``denom > 1e-9``; rows above C become ``kind``."""
        observed = diff / np.maximum(denom, 1e-300)
        defined = denom > 1e-9
        if kind is not None:
            record(kind, defined & (observed > C), observed, witness)
        return float(observed[defined].max(initial=0.0))

    def per_row(evaluate, columns, *controls, times=ts):
        """``evaluate`` at each probe's time (its own by default) on its row of ``columns``."""
        return np.array([evaluate(instance, t, *(col[i : i + 1] for col in columns), *controls)[0]
                         for i, t in enumerate(times)])

    dx = np.linalg.norm(xs - xps, axis=1)
    phi_a = eval_terminal(instance, xs)
    est["terminal"] = quotient("lipschitz:terminal",
                               np.abs(phi_a - eval_terminal(instance, xps)), dx,
                               lambda i: (tuple(xs[i]), tuple(xps[i])))

    # Obstacle: Lipschitz in x at each sampled t, plus the terminal barrier.
    h_a = per_row(eval_obstacle, (xs,))
    est["obstacle"] = quotient("lipschitz:obstacle", np.abs(h_a - per_row(eval_obstacle, (xps,))),
                               dx, lambda i: (float(ts[i]), tuple(xs[i]), tuple(xps[i])))
    h_T = eval_obstacle(instance, instance.T, xs)
    record("barrier:terminal", h_T > phi_a + 1e-12, h_T - phi_a, lambda i: tuple(xs[i]))
    t_0 = np.zeros_like(ts)
    if instance.coeffs.time_homogeneous:
        moved = np.abs(h_a - per_row(eval_obstacle, (xs,), times=t_0))
        record("time_homogeneous:obstacle", moved > 0.0, moved,
               lambda i: (float(ts[i]), tuple(xs[i])))

    lin = 1.0 + np.linalg.norm(xs, axis=1)
    denom_f = dx + np.abs(ys - yps) + np.linalg.norm(zs - zps, axis=1)
    for iu, u in enumerate(instance.u_grid.points[:, None]):
        for iv, v in enumerate(instance.v_grid.points[:, None]):
            def pair(i):
                return float(ts[i]), tuple(xs[i]), tuple(xps[i]), iu, iv

            def point(i):
                return float(ts[i]), tuple(xs[i]), iu, iv

            # Dynamics: Lipschitz in x, drift and diffusion estimated apart.
            b_a = per_row(eval_drift, (xs,), u, v)
            s_a = per_row(eval_diffusion, (xs,), u, v).reshape(probe_count, -1)
            db = np.linalg.norm(b_a - per_row(eval_drift, (xps,), u, v), axis=1)
            ds = np.linalg.norm(s_a - per_row(eval_diffusion, (xps,), u, v)
                                .reshape(probe_count, -1), axis=1)
            est["drift"] = max(est["drift"], quotient(None, db, dx))
            est["diffusion"] = max(est["diffusion"], quotient(None, ds, dx))
            quotient("lipschitz:dynamics", db + ds, dx, pair)
            if instance.coeffs.time_homogeneous:
                moved = (np.linalg.norm(b_a - per_row(eval_drift, (xs,), u, v, times=t_0), axis=1)
                         + np.linalg.norm(s_a - per_row(eval_diffusion, (xs,), u, v, times=t_0)
                                          .reshape(probe_count, -1), axis=1))
                record("time_homogeneous:dynamics", moved > 0.0, moved, point)

            # Cost rate: Lipschitz in (x, y, z) jointly.
            f_a = per_row(eval_cost_rate, (xs, ys, zs), u, v)
            f_b = per_row(eval_cost_rate, (xps, yps, zps), u, v)
            est["running_cost"] = max(est["running_cost"], quotient(
                "lipschitz:running_cost", np.abs(f_a - f_b), denom_f, pair))
            # ... unmoved by an argument it is declared not to read, and by t
            for arg, columns in (("y", (xs, yps, zs)), ("z", (xs, ys, zps))):
                if arg not in instance.coeffs.cost_rate_reads:
                    moved = np.abs(f_a - per_row(eval_cost_rate, columns, u, v))
                    record(f"cost_rate_reads:{arg}", moved > 0.0, moved, point)
            # ... and, declared linear in y, its slope at y = 1 times y
            if instance.coeffs.cost_rate_linear:
                scaled = per_row(eval_cost_rate, (xs, np.ones_like(ys), zs), u, v) * ys
                unequal = (f_a != scaled) | (np.signbit(f_a) != np.signbit(scaled))
                record("cost_rate_linear:y", unequal, np.abs(f_a - scaled), point)
            if instance.coeffs.time_homogeneous:
                moved = np.abs(f_a - per_row(eval_cost_rate, (xs, ys, zs), u, v, times=t_0))
                record("time_homogeneous:running_cost", moved > 0.0, moved, point)

            # Linear growth of dynamics and of costs at zero value/gradient.
            f_0 = per_row(eval_cost_rate, (xs, np.zeros_like(ys), np.zeros_like(zs)), u, v)
            g_dyn = np.linalg.norm(b_a, axis=1) + np.linalg.norm(s_a, axis=1)
            g_cost = np.abs(f_0) + np.abs(phi_a) + np.abs(h_a)
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
