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
``z`` shape (m, d) and ``u``, ``v`` are single control vectors.  Returns
may be scalars or broadcastable arrays; the ``eval_*`` helpers normalise
shapes and wrap evaluation failures.

Control sets are finite grids, so suprema and infima over controls are
finite scans everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.stats import qmc

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


@dataclass(frozen=True)
class ControlGrid:
    """Finite grid standing in for a compact control set."""

    points: np.ndarray  # (num_points, k)
    label: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
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
    def singleton(value=0.0, label="fixed"):
        return ControlGrid(points=np.array([[float(value)]]), label=label)


@dataclass(frozen=True)
class Coefficients:
    """Coefficient maps of a game instance plus declared regularity bounds.

    ``declared_lipschitz`` bounds the Lipschitz constants in the state
    (and, for the cost rate, in value and gradient arguments);
    ``declared_growth`` bounds the linear-growth constants.  Both are
    checked by probing in :func:`validate_instance`, not symbolically.
    """

    b: Callable
    sigma: Callable
    f: Callable
    phi: Callable
    h: Callable
    declared_lipschitz: float
    declared_growth: float

    def __post_init__(self):
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
        # Smoke-evaluate every coefficient once so shape bugs surface early.
        x = np.zeros((1, self.n))
        u = self.u_grid.points[0]
        v = self.v_grid.points[0]
        for t in (0.0, self.T):
            eval_drift(self, t, x, u, v)
            eval_diffusion(self, t, x, u, v)
            eval_cost_rate(self, t, x, np.zeros(1), np.zeros((1, self.d)), u, v)
            eval_obstacle(self, t, x)
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


def _as_batch(out, shape, what, point):
    try:
        arr = np.asarray(out, dtype=float)
        arr = np.broadcast_to(arr, shape)
    except Exception as exc:  # shape mismatch or non-numeric return
        raise EvaluationError(
            f"{what} returned un-broadcastable value at {point}", point=point
        ) from exc
    if not np.all(np.isfinite(arr)):
        raise EvaluationError(f"{what} returned non-finite value at {point}", point=point)
    return arr


def eval_drift(instance, t, x, u, v):
    """Evaluate the drift on a state batch, normalising to shape (m, n)."""
    point = (float(t), np.asarray(x)[0] if len(x) else None, u, v)
    try:
        out = instance.coeffs.b(t, x, u, v)
    except Exception as exc:
        raise EvaluationError(f"drift failed at {point}", point=point) from exc
    return _as_batch(out, (x.shape[0], instance.n), "drift", point)


def eval_diffusion(instance, t, x, u, v):
    """Evaluate the diffusion on a state batch, shape (m, n, d)."""
    point = (float(t), np.asarray(x)[0] if len(x) else None, u, v)
    try:
        out = instance.coeffs.sigma(t, x, u, v)
    except Exception as exc:
        raise EvaluationError(f"diffusion failed at {point}", point=point) from exc
    return _as_batch(out, (x.shape[0], instance.n, instance.d), "diffusion", point)


def eval_cost_rate(instance, t, x, y, z, u, v):
    """Evaluate the running cost rate on a batch, shape (m,)."""
    point = (float(t), np.asarray(x)[0] if len(x) else None, u, v)
    try:
        out = instance.coeffs.f(t, x, y, z, u, v)
    except Exception as exc:
        raise EvaluationError(f"cost rate failed at {point}", point=point) from exc
    return _as_batch(out, (x.shape[0],), "cost rate", point)


def eval_terminal(instance, x):
    """Evaluate the terminal payoff on a batch, shape (m,)."""
    point = (np.asarray(x)[0] if len(x) else None,)
    try:
        out = instance.coeffs.phi(x)
    except Exception as exc:
        raise EvaluationError(f"terminal payoff failed at {point}", point=point) from exc
    return _as_batch(out, (x.shape[0],), "terminal payoff", point)


def eval_obstacle(instance, t, x):
    """Evaluate the obstacle on a batch, shape (m,)."""
    point = (float(t), np.asarray(x)[0] if len(x) else None)
    try:
        out = instance.coeffs.h(t, x)
    except Exception as exc:
        raise EvaluationError(f"obstacle failed at {point}", point=point) from exc
    return _as_batch(out, (x.shape[0],), "obstacle", point)


def _sobol_block(dim, count, seed):
    # Sobol points are balanced for powers of two; draw the next power and slice.
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    full = 1 << max(1, int(np.ceil(np.log2(max(count, 2)))))
    return sampler.random(full)[:count]


def validate_instance(instance, probe_count=64, seed=0, probe_box=None):
    """Probe the standing assumptions of a game instance.

    Samples ``probe_count`` quasi-random state pairs inside ``probe_box``
    (default ``[-10, 10]^n``) together with value/gradient probes and all
    control pairs, and records every violation of

    * Lipschitz bounds (difference quotient above the declared constant
      with 5% slack),
    * linear-growth bounds against ``declared_growth``,
    * the barrier condition ``h(T, x) <= phi(x)``.

    Deterministic for fixed ``(instance, probe_count, seed)``.

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
    lo = np.array([b[0] for b in probe_box], dtype=float)
    hi = np.array([b[1] for b in probe_box], dtype=float)

    # Columns: x, x', y, y', z, z', t.
    raw = _sobol_block(2 * n + 2 + 2 * dns + 1, probe_count, seed)
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
    est = {"drift": 0.0, "diffusion": 0.0, "running_cost": 0.0, "terminal": 0.0, "obstacle": 0.0}

    def record(kind, mask, witness_rows, observed):
        for i in np.flatnonzero(mask):
            violations.append((kind, witness_rows(i), float(observed[i])))

    dx = np.linalg.norm(xs - xps, axis=1)
    ok_pair = dx > 1e-9

    phi_a = eval_terminal(instance, xs)
    phi_b = eval_terminal(instance, xps)
    q_phi = np.abs(phi_a - phi_b)[ok_pair] / dx[ok_pair]
    if q_phi.size:
        est["terminal"] = float(q_phi.max())
    bad = np.zeros(probe_count, dtype=bool)
    bad[ok_pair] = q_phi > C
    record("lipschitz:terminal", bad, lambda i: (tuple(xs[i]), tuple(xps[i])),
           np.abs(phi_a - phi_b) / np.maximum(dx, 1e-300))

    # Obstacle: Lipschitz in x at each sampled t, plus the terminal barrier.
    h_a = np.array([eval_obstacle(instance, ts[i], xs[i : i + 1])[0] for i in range(probe_count)])
    h_b = np.array([eval_obstacle(instance, ts[i], xps[i : i + 1])[0] for i in range(probe_count)])
    q_h = np.abs(h_a - h_b)[ok_pair] / dx[ok_pair]
    if q_h.size:
        est["obstacle"] = float(q_h.max())
    bad = np.zeros(probe_count, dtype=bool)
    bad[ok_pair] = q_h > C
    record("lipschitz:obstacle", bad, lambda i: (float(ts[i]), tuple(xs[i]), tuple(xps[i])),
           np.abs(h_a - h_b) / np.maximum(dx, 1e-300))

    h_T = eval_obstacle(instance, instance.T, xs)
    bad = h_T > phi_a + 1e-12
    record("barrier:terminal", bad, lambda i: tuple(xs[i]), h_T - phi_a)

    for iu, u in enumerate(instance.u_grid.points):
        for iv, v in enumerate(instance.v_grid.points):
            # Dynamics Lipschitz quotients, one probe time per row.
            b_a = np.empty((probe_count, n))
            b_b = np.empty((probe_count, n))
            s_a = np.empty((probe_count, n, dns))
            s_b = np.empty((probe_count, n, dns))
            f_a = np.empty(probe_count)
            f_b = np.empty(probe_count)
            f_0 = np.empty(probe_count)
            for i in range(probe_count):
                t = ts[i]
                b_a[i] = eval_drift(instance, t, xs[i : i + 1], u, v)[0]
                b_b[i] = eval_drift(instance, t, xps[i : i + 1], u, v)[0]
                s_a[i] = eval_diffusion(instance, t, xs[i : i + 1], u, v)[0]
                s_b[i] = eval_diffusion(instance, t, xps[i : i + 1], u, v)[0]
                f_a[i] = eval_cost_rate(instance, t, xs[i : i + 1], ys[i : i + 1],
                                        zs[i : i + 1], u, v)[0]
                f_b[i] = eval_cost_rate(instance, t, xps[i : i + 1], yps[i : i + 1],
                                        zps[i : i + 1], u, v)[0]
                f_0[i] = eval_cost_rate(instance, t, xs[i : i + 1], np.zeros(1),
                                        np.zeros((1, dns)), u, v)[0]

            db = np.linalg.norm(b_a - b_b, axis=1)
            ds = np.linalg.norm((s_a - s_b).reshape(probe_count, -1), axis=1)
            q_b = db[ok_pair] / dx[ok_pair]
            q_s = ds[ok_pair] / dx[ok_pair]
            if q_b.size:
                est["drift"] = max(est["drift"], float(q_b.max()))
                est["diffusion"] = max(est["diffusion"], float(q_s.max()))
            bad = np.zeros(probe_count, dtype=bool)
            bad[ok_pair] = (db[ok_pair] + ds[ok_pair]) / dx[ok_pair] > C
            record("lipschitz:dynamics", bad,
                   lambda i, iu=iu, iv=iv: (float(ts[i]), tuple(xs[i]), tuple(xps[i]), iu, iv),
                   (db + ds) / np.maximum(dx, 1e-300))

            # Cost-rate Lipschitz in (x, y, z) jointly.
            denom = dx + np.abs(ys - yps) + np.linalg.norm(zs - zps, axis=1)
            okf = denom > 1e-9
            q_f = np.abs(f_a - f_b)[okf] / denom[okf]
            if q_f.size:
                est["running_cost"] = max(est["running_cost"], float(q_f.max()))
            bad = np.zeros(probe_count, dtype=bool)
            bad[okf] = q_f > C
            record("lipschitz:running_cost", bad,
                   lambda i, iu=iu, iv=iv: (float(ts[i]), tuple(xs[i]), tuple(xps[i]), iu, iv),
                   np.abs(f_a - f_b) / np.maximum(denom, 1e-300))

            # Linear growth of dynamics and of costs at zero value/gradient.
            lin = 1.0 + np.linalg.norm(xs, axis=1)
            g_dyn = np.linalg.norm(b_a, axis=1) + np.linalg.norm(
                s_a.reshape(probe_count, -1), axis=1)
            bad = g_dyn > G * lin
            record("growth:dynamics", bad,
                   lambda i, iu=iu, iv=iv: (float(ts[i]), tuple(xs[i]), iu, iv), g_dyn / lin)
            g_cost = np.abs(f_0) + np.abs(phi_a) + np.abs(h_a)
            bad = g_cost > G * lin
            record("growth:costs", bad,
                   lambda i, iu=iu, iv=iv: (float(ts[i]), tuple(xs[i]), iu, iv), g_cost / lin)

    violations.sort(key=lambda rec: (rec[0], -rec[2], str(rec[1])))
    return ValidationReport(passed=not violations, violations=violations,
                            estimated_lipschitz=est)


def _instance_american_put(params):
    r = float(params.pop("r", 0.05))
    vol = float(params.pop("sigma0", 0.2))
    strike = float(params.pop("K0", 100.0))
    horizon = float(params.pop("T", 1.0))

    def payoff(x):
        return np.maximum(strike - x[..., 0], 0.0)

    coeffs = Coefficients(
        b=lambda t, x, u, v: r * x,
        sigma=lambda t, x, u, v: vol * x[..., None],
        f=lambda t, x, y, z, u, v: -r * y,
        phi=payoff,
        h=lambda t, x: payoff(x),
        declared_lipschitz=max(1.0, r, vol),
        declared_growth=2.0 * strike + 1.0,
    )
    return GameInstance(n=1, d=1, T=horizon, coeffs=coeffs,
                        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton(),
                        label="american_put",
                        params={"r": r, "sigma0": vol, "K0": strike, "T": horizon})


def _instance_lemma45(params):
    c = float(params.pop("C", 1.0))
    theta = float(params.pop("theta", 1.0))
    rho = float(params.pop("rho", 1.0))
    horizon = float(params.pop("T", 1.0))

    coeffs = Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z, u, v: c * (np.abs(y) + np.linalg.norm(z, axis=-1)) - 0.5 * theta,
        phi=lambda x: np.zeros(x.shape[0]),
        h=lambda t, x: np.full(x.shape[0], -rho),
        declared_lipschitz=max(c, 1.0),
        declared_growth=0.5 * theta + rho + 1.0,
    )
    return GameInstance(n=1, d=1, T=horizon, coeffs=coeffs,
                        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton(),
                        label="lemma45",
                        params={"C": c, "theta": theta, "rho": rho, "T": horizon})


def _instance_minimax_gap(params):
    vol = float(params.pop("sigma0", 1.0))
    horizon = float(params.pop("T", 1.0))
    floor = float(params.pop("floor", -10.0))
    u_points = np.atleast_2d(params.pop("u_points", [[-1.0], [1.0]]))
    v_points = np.atleast_2d(params.pop("v_points", [[-1.0], [1.0]]))
    bound = float(np.abs(u_points).max() * np.abs(v_points).max())

    coeffs = Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.full(x.shape + (1,), vol),
        f=lambda t, x, y, z, u, v: np.full(x.shape[0], u[0] * v[0]),
        phi=lambda x: np.zeros(x.shape[0]),
        h=lambda t, x: np.full(x.shape[0], floor),
        declared_lipschitz=1.0,
        declared_growth=abs(floor) + vol + bound + 1.0,
    )
    return GameInstance(n=1, d=1, T=horizon, coeffs=coeffs,
                        u_grid=ControlGrid(u_points, "u"),
                        v_grid=ControlGrid(v_points, "v"), label="minimax_gap",
                        params={"sigma0": vol, "T": horizon, "floor": floor,
                                "u_points": u_points, "v_points": v_points})


def _instance_no_obstacle_linear(params):
    c0 = float(params.pop("c0", 1.0))
    c1 = float(params.pop("c1", 0.0))
    vol = float(params.pop("sigma0", 1.0))
    horizon = float(params.pop("T", 1.0))
    floor = c1 - 1.0 - c0 * horizon

    coeffs = Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.full(x.shape + (1,), vol),
        f=lambda t, x, y, z, u, v: np.full(x.shape[0], c0),
        phi=lambda x: np.full(x.shape[0], c1),
        h=lambda t, x: np.full(x.shape[0], floor),
        declared_lipschitz=1.0,
        declared_growth=abs(c0) + abs(c1) + abs(floor) + vol + 1.0,
    )
    return GameInstance(n=1, d=1, T=horizon, coeffs=coeffs,
                        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton(),
                        label="no_obstacle_linear",
                        params={"c0": c0, "c1": c1, "sigma0": vol, "T": horizon})


def _instance_deterministic_stop(params):
    horizon = float(params.pop("T", 1.0))

    coeffs = Coefficients(
        b=lambda t, x, u, v: np.zeros_like(x),
        sigma=lambda t, x, u, v: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z, u, v: np.zeros(x.shape[0]),
        phi=lambda x: np.zeros(x.shape[0]),
        h=lambda t, x: np.full(x.shape[0], horizon - t),
        declared_lipschitz=1.0,
        declared_growth=horizon + 1.0,
    )
    return GameInstance(n=1, d=1, T=horizon, coeffs=coeffs,
                        u_grid=ControlGrid.singleton(), v_grid=ControlGrid.singleton(),
                        label="deterministic_stop", params={"T": horizon})


_BUILDERS = {
    "american_put": _instance_american_put,
    "lemma45": _instance_lemma45,
    "minimax_gap": _instance_minimax_gap,
    "no_obstacle_linear": _instance_no_obstacle_linear,
    "deterministic_stop": _instance_deterministic_stop,
}


def builtin_instance(name, params=None):
    """Return a named benchmark instance.

    ``params`` overrides the documented defaults (for example ``r``,
    ``sigma0``, ``K0`` for ``american_put`` or ``C``, ``theta``, ``rho``
    for ``lemma45``); the instance's ``params`` holds every parameter
    with its default resolved.  Unknown names raise
    :class:`NotFoundError` listing the valid ones; unknown parameters
    raise :class:`ConfigError`-style ``ValueError``.
    """
    if name not in _BUILDERS:
        raise NotFoundError(
            f"unknown instance {name!r}; valid names: {', '.join(BUILTIN_NAMES)}"
        )
    remaining = dict(params or {})
    instance = _BUILDERS[name](remaining)
    if remaining:
        raise ValueError(
            f"unknown parameters for {name!r}: {', '.join(sorted(remaining))}"
        )
    return instance
