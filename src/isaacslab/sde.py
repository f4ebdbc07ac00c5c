"""Forward simulation of the controlled state equation.

Paths follow the explicit Euler scheme

    X[k+1] = X[k] + b(t_k, X[k], u_k, v_k) dt + sigma(t_k, X[k], u_k, v_k) dB_k

on an equidistant mesh.  Brownian increments are drawn in one block from a
seeded generator, so two bundles with the same ``(paths, steps, seed)``
share their noise exactly (common random numbers) regardless of the
initial point or the controls.

Path arrays are stored step-major, so each Euler step reads and writes
one contiguous ``(paths, n)`` row; ``PathBundle`` exposes them path-major
as transposed views of that storage (``states[:, k]`` is a contiguous
row, ``states[i]`` a strided one).  Numpy may round a reduction over the
steps of such a view differently from the same reduction over a
C-contiguous copy: take ``np.ascontiguousarray`` first where the last
bit matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, PreconditionError
from .problems import eval_drift, eval_diffusion

DIVERGENCE_BOUND = 1e9


@dataclass(frozen=True)
class TimeMesh:
    """Equidistant time mesh on ``[t0, t1]`` with ``steps`` intervals.

    ``steps == 0`` together with ``t0 == t1`` denotes the empty interval
    (used by the backward semigroup with zero step size).
    """

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if self.t0 < 0.0 or self.t1 < self.t0:
            raise ValueError("need 0 <= t0 <= t1")
        if self.steps < 1 and self.t1 > self.t0:
            raise ValueError("need at least one step on a nonempty interval")
        if self.steps > 0 and self.t1 == self.t0:
            raise ValueError("empty interval must have zero steps")

    @property
    def dt(self):
        if self.steps == 0:
            return 0.0
        return (self.t1 - self.t0) / self.steps

    def times(self):
        return self.t0 + self.dt * np.arange(self.steps + 1)


@dataclass(frozen=True)
class ControlPath:
    """Computable control subclass: constant, piecewise or state feedback.

    ``rule(step, t, x_batch)`` returns the grid indices applied at mesh
    step ``step``, shape (paths,) for ``x_batch`` of shape (paths, n).
    Feedback callables receive ``(t, x_batch)`` and must return integer
    grid indices of shape (paths,).
    """

    rule: Callable

    @staticmethod
    def constant(index=0):
        index = int(index)
        return ControlPath(lambda step, t, x: np.full(x.shape[0], index, dtype=np.int64))

    @staticmethod
    def piecewise(indices):
        arr = np.asarray(indices, dtype=np.int64)

        def rule(step, t, x):
            if step >= len(arr):
                raise PreconditionError(
                    f"piecewise control has {len(arr)} steps, needs {step + 1}"
                )
            return np.full(x.shape[0], arr[step], dtype=np.int64)

        return ControlPath(rule)

    @staticmethod
    def from_feedback(fn):
        return ControlPath(lambda step, t, x: np.asarray(fn(t, x), dtype=np.int64))

    def resolve(self, step, t, x_batch, grid_size):
        idx = self.rule(step, t, x_batch)
        if idx.shape != (x_batch.shape[0],):
            raise PreconditionError("feedback control must return one index per path")
        if idx.min() < 0 or idx.max() >= grid_size:
            raise PreconditionError("control index outside its grid")
        return idx


@dataclass(frozen=True)
class PathBundle:
    """Simulated forward trajectories with their noise and applied controls.

    The arrays are path-major views of step-major storage (see the module
    docstring); ``.transpose`` of the first two axes gives the storage.
    """

    mesh: TimeMesh
    states: np.ndarray  # (M, N+1, n), view of (N+1, M, n) storage
    dB: np.ndarray      # (M, N, d), view of (N, M, d) storage
    u_path: np.ndarray  # (M, N) indices into the u grid, view of (N, M) storage
    v_path: np.ndarray  # (M, N) indices into the v grid, view of (N, M) storage
    seed: int

    @property
    def paths(self):
        return self.states.shape[0]


def simulate_paths(instance, x0, mesh, u, v, paths, seed):
    """Simulate controlled Euler paths.

    Parameters
    ----------
    instance : GameInstance
    x0 : array_like
        Common initial state, shape (n,).
    mesh : TimeMesh
    u, v : ControlPath
        Controls for the two players, resolved step by step (feedback
        controls see the current state batch).
    paths : int
        Number of Monte Carlo paths M.
    seed : int
        Seed of the noise generator; identical arguments reproduce the
        bundle bit for bit.

    Raises
    ------
    DivergenceError
        If a state leaves ``[-1e9, 1e9]`` or turns non-finite, naming the
        first offending path and step.
    """
    if paths < 1:
        raise PreconditionError("need at least one path")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (instance.n,) or not np.all(np.isfinite(x0)):
        raise PreconditionError(f"x0 must be a finite vector of length {instance.n}")
    if mesh.t1 > instance.T + 1e-12:
        raise PreconditionError("mesh extends beyond the instance horizon")

    N, n, d = mesh.steps, instance.n, instance.d
    dt = mesh.dt
    times = mesh.times()
    rng = np.random.default_rng(seed)
    # drawn path-major, so the seeded stream is unchanged, then stored step-major
    noise = rng.standard_normal((paths, N, d))
    dB = np.empty((N, paths, d))
    np.multiply(noise.transpose(1, 0, 2), np.sqrt(dt), out=dB)
    del noise

    states = np.empty((N + 1, paths, n))
    states[0] = x0
    u_idx = np.empty((N, paths), dtype=np.int64)
    v_idx = np.empty((N, paths), dtype=np.int64)

    for k in range(N):
        t = times[k]
        xk = states[k]
        ui = u.resolve(k, t, xk, len(instance.u_grid))
        vi = v.resolve(k, t, xk, len(instance.v_grid))
        u_idx[k] = ui
        v_idx[k] = vi
        nxt, dBk = states[k + 1], dB[k]
        for iu, iv, mask in _control_groups(ui, vi):
            up = instance.u_grid.points[iu]
            vp = instance.v_grid.points[iv]
            xg = xk[mask]
            bv = eval_drift(instance, t, xg, up, vp)
            sv = eval_diffusion(instance, t, xg, up, vp)
            nxt[mask] = xg + bv * dt + np.einsum("mij,mj->mi", sv, dBk[mask])
        bad = ~np.isfinite(nxt).all(axis=1) | (np.abs(nxt).max(axis=1) > DIVERGENCE_BOUND)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise DivergenceError(
                f"path {i} diverged at step {k + 1} (t={times[k + 1]:.6g})",
                path_index=i, step=k + 1,
            )

    return PathBundle(mesh=mesh, states=states.transpose(1, 0, 2),
                      dB=dB.transpose(1, 0, 2), u_path=u_idx.T, v_path=v_idx.T,
                      seed=int(seed))


def _control_groups(ui, vi):
    """Yield (u_index, v_index, path mask) for each applied control pair."""
    if ui.min() == ui.max() and vi.min() == vi.max():
        yield int(ui[0]), int(vi[0]), slice(None)
        return
    pairs = np.unique(np.stack([ui, vi], axis=1), axis=0)
    for iu, iv in pairs:
        yield int(iu), int(iv), (ui == iu) & (vi == iv)


def empirical_moments(bundle, p):
    """Monte Carlo estimates of running-supremum moments.

    Returns ``(sup_moment, increment_moment)`` where the first is the
    sample mean of ``sup_k |X_k|^p`` and the second of
    ``sup_k |X_k - x0|^p``.
    """
    if p not in (2, 4):
        raise PreconditionError("p must be 2 or 4")
    norms = np.linalg.norm(bundle.states, axis=2)
    sup_moment = float(np.mean(norms.max(axis=1) ** p))
    incr = np.linalg.norm(bundle.states - bundle.states[:, :1], axis=2)
    increment_moment = float(np.mean(incr.max(axis=1) ** p))
    if not (np.isfinite(sup_moment) and np.isfinite(increment_moment)):
        raise DivergenceError("moment estimate overflowed")
    return sup_moment, increment_moment
