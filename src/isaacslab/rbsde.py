"""Backward solvers along simulated paths.

Two schemes solve the constrained backward equation on a path bundle:

* ``solve_reflected`` projects onto the obstacle at every step, producing
  the triple (Y, Z, K) with K the cumulative reflection push.  The
  discrete complementarity sum ``(Y_k - h_k) * dK_k`` vanishes step by
  step by construction.
* ``solve_penalized`` replaces the projection by the semi-implicit
  penalty update ``y = yhat + m dt (y - h)^-`` solved in closed form,
  which is stable uniformly in the penalty weight m.

Conditional expectations are least-squares fits on a polynomial basis of
the current states.  When all paths share the same state (single path or
degenerate diffusion) the estimator reduces to the plain mean and the
gradient estimate to zero, which makes the deterministic test cases
exact.  Backward induction per step:

    p    = E[Y_{k+1} | X_k]                     (regression)
    Z_k  = E[Y_{k+1} dB_k | X_k] / dt           (regression)
    y0   = p + dt f(t_k, X_k, p,  Z_k, u, v)    (predict)
    yhat = p + dt f(t_k, X_k, y0, Z_k, u, v)    (correct once)
    Y_k  = projection / penalty applied to yhat

The solve reads the bundle's step-major storage (see ``sde``) and keeps
Y, Z, K and the obstacle samples step-major too, so every step works on
contiguous rows; ``BackwardSolution`` exposes them path-major as
transposed views.  A reduction over the steps of such a view may round
differently from the same reduction over a C-contiguous copy;
``skorokhod_sums`` sums C-contiguous terms, so its per-path sums do not
depend on the storage layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .problems import eval_cost_rate, eval_obstacle, eval_terminal
from .sde import TimeMesh, simulate_paths, _control_groups

TERMINAL_BARRIER_TOL = 1e-9


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis of bounded total degree."""

    degree: int = 2

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def features(self, x):
        """Design matrix of all monomials with total degree <= degree.

        States are standardised batchwise before taking powers; this
        spans the same polynomial space but keeps the normal equations
        well conditioned for high degrees on wide state ranges.
        """
        m, n = x.shape
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
        xs = (x - mean) / scale
        combos = [combo for deg in range(1, self.degree + 1)
                  for combo in combinations_with_replacement(range(n), deg)]
        A = np.empty((m, 1 + len(combos)))
        A[:, 0] = 1.0
        column = {(): 0}
        # each monomial is its parent (the combo minus its last factor) times
        # one coordinate, so columns equal the products 1 * x_a * x_b ... bit for bit
        for j, combo in enumerate(combos, start=1):
            np.multiply(A[:, column[combo[:-1]]], xs[:, combo[-1]], out=A[:, j])
            column[combo] = j
        return A


@dataclass(frozen=True)
class BackwardSolution:
    """Discrete (Y, Z, K) triple along a path bundle.

    The arrays are path-major views of step-major storage (see the module
    docstring).
    """

    mesh: TimeMesh
    Y: np.ndarray                # (M, N+1), view of (N+1, M) storage
    Z: np.ndarray                # (M, N, d), view of (N, M, d) storage
    K: np.ndarray                # (M, N+1), cumulative, K[:, 0] = 0; view of (N+1, M)
    scheme: str                  # "reflected" or "penalized"
    penalty: Optional[float]     # m for the penalized scheme
    obstacle_samples: np.ndarray  # (M, N+1), view of (N+1, M) storage
    regression_fallback: bool = False

    def value(self):
        """Value estimate at the initial time (mean over paths)."""
        return float(self.Y[:, 0].mean())

    def skorokhod_sums(self):
        """Per-path complementarity sums ``sum_k (Y_k - h_k) dK_k``."""
        gaps = self.Y[:, :-1] - self.obstacle_samples[:, :-1]
        dK = np.diff(self.K, axis=1)
        # terms laid out C-contiguous, so each path sums in the same order
        # whatever the storage layout
        return np.multiply(gaps, dK, order="C").sum(axis=1)


def _conditional_fit(A, targets):
    """Least-squares fitted values; falls back to the mean when deficient."""
    coef, _, rank, _ = np.linalg.lstsq(A, targets, rcond=None)
    if rank < A.shape[1]:
        mean = targets.mean(axis=0)
        return np.broadcast_to(mean, targets.shape).copy(), True
    return A @ coef, False


def _solve_backward(instance, bundle, terminal, basis, penalty_m):
    # step-major storage of the bundle: row k holds step k of every path
    states = bundle.states.transpose(1, 0, 2)
    dB = bundle.dB.transpose(1, 0, 2)
    u_path, v_path = bundle.u_path.T, bundle.v_path.T
    N1, M, _ = states.shape
    N = N1 - 1
    d = instance.d
    times = bundle.mesh.times()
    dt = bundle.mesh.dt

    h_all = np.empty((N + 1, M))
    for k in range(N + 1):
        h_all[k] = eval_obstacle(instance, times[k], states[k])

    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (M,):
        raise PreconditionError(f"terminal data must have shape ({M},)")
    if np.any(terminal < h_all[N] - TERMINAL_BARRIER_TOL):
        i = int(np.argmax(h_all[N] - terminal))
        raise PreconditionError(
            f"terminal value below the obstacle at maturity (path {i}: "
            f"{terminal[i]:.6g} < {h_all[N, i]:.6g})"
        )

    Y = np.empty((N + 1, M))
    Z = np.zeros((N, M, d))
    # K[k + 1] holds step k's increment until the cumulative sum at the end
    K = np.zeros((N + 1, M))
    Y[N] = terminal
    fallback = False

    for k in range(N - 1, -1, -1):
        t = times[k]
        xk = states[k]
        y_next = Y[k + 1]
        degenerate = M == 1 or float(np.ptp(xk, axis=0).max()) == 0.0
        if degenerate:
            p = y_next.copy() if M == 1 else np.full(M, y_next.mean())
            z = np.zeros((M, d))
        else:
            A = basis.features(xk)
            p, fb1 = _conditional_fit(A, y_next)
            z, fb2 = _conditional_fit(A, y_next[:, None] * dB[k] / dt)
            fallback = fallback or fb1 or fb2

        yhat = np.empty(M)
        for iu, iv, mask in _control_groups(u_path[k], v_path[k]):
            up = instance.u_grid.points[iu]
            vp = instance.v_grid.points[iv]
            xg, pg, zg = xk[mask], p[mask], z[mask]
            f1 = eval_cost_rate(instance, t, xg, pg, zg, up, vp)
            y0 = pg + dt * f1
            f2 = eval_cost_rate(instance, t, xg, y0, zg, up, vp)
            yhat[mask] = pg + dt * f2

        hk = h_all[k]
        if penalty_m is None:
            yk = np.maximum(yhat, hk)
            K[k + 1] = yk - yhat
        else:
            c = penalty_m * dt
            yk = np.where(yhat < hk, (yhat + c * hk) / (1.0 + c), yhat)
            K[k + 1] = c * np.maximum(hk - yk, 0.0)
        Y[k] = yk
        Z[k] = z

    np.cumsum(K, axis=0, out=K)
    scheme = "reflected" if penalty_m is None else "penalized"
    return BackwardSolution(mesh=bundle.mesh, Y=Y.T, Z=Z.transpose(1, 0, 2), K=K.T,
                            scheme=scheme, penalty=penalty_m, obstacle_samples=h_all.T,
                            regression_fallback=fallback)


def solve_reflected(instance, bundle, terminal, basis):
    """Solve the reflected backward equation along a bundle.

    ``terminal`` holds the per-path terminal values and must dominate the
    obstacle at maturity (a precondition, never clamped silently).  The
    returned solution satisfies ``Y >= obstacle`` at every node, ``K``
    nondecreasing with ``K_0 = 0``, and exact discrete complementarity.
    """
    return _solve_backward(instance, bundle, terminal, basis, penalty_m=None)


def solve_penalized(instance, bundle, terminal, basis, m):
    """Solve the penalized backward equation with penalty weight ``m``.

    Each step solves ``y = yhat + m dt (y - h)^-`` exactly:
    ``y = yhat`` when ``yhat >= h`` and ``y = (yhat + m dt h)/(1 + m dt)``
    otherwise.  ``K`` reports the accumulated penalty
    ``m dt (y - h)^-``.  ``m = 0`` recovers the unconstrained solve.
    """
    if m < 0:
        raise PreconditionError("penalty weight must be nonnegative")
    return _solve_backward(instance, bundle, terminal, basis, penalty_m=float(m))


def backward_semigroup(instance, bundle, eta, basis):
    """Value at the bundle's initial time for terminal data ``eta``.

    ``eta`` must be given per path as a function of the terminal state
    and must dominate the obstacle there.  With zero steps the terminal
    data itself is returned.
    """
    eta = np.asarray(eta, dtype=float)
    M = bundle.paths
    if eta.shape != (M,):
        raise PreconditionError(f"eta must have shape ({M},)")
    t1 = bundle.mesh.t1
    h_T = eval_obstacle(instance, t1, bundle.states[:, -1])
    if np.any(eta < h_T - TERMINAL_BARRIER_TOL):
        raise PreconditionError("eta below the obstacle at the subinterval end")
    if bundle.mesh.steps == 0:
        return float(eta.mean())
    return solve_reflected(instance, bundle, eta, basis).value()


def cost_functional(instance, t, x0, u, v, mesh, paths, basis, seed):
    """Monte Carlo value of the controlled pair ``(u, v)`` started at ``(t, x0)``.

    Simulates a bundle on ``mesh`` (which must span ``[t, T]``), solves
    the reflected backward equation with the terminal payoff, and
    returns the value at ``t``.
    """
    if abs(mesh.t0 - t) > 1e-12 or abs(mesh.t1 - instance.T) > 1e-12:
        raise PreconditionError("mesh must span [t, T]")
    bundle = simulate_paths(instance, x0, mesh, u, v, paths, seed)
    terminal = eval_terminal(instance, bundle.states[:, -1])
    return solve_reflected(instance, bundle, terminal, basis).value()


def snell_oracle(obstacle_values, terminal):
    """Brute-force optimal stopping value on one deterministic path.

    Scans every stopping index: stopping at ``k < N`` pays
    ``obstacle_values[k]``, holding to maturity pays ``terminal``.
    """
    vals = np.asarray(obstacle_values, dtype=float)
    if vals.ndim != 1:
        raise PreconditionError("obstacle_values must be a 1-D sequence")
    if len(vals) <= 1:
        return float(terminal)
    return float(max(vals[:-1].max(), terminal))
