"""Shared builders for the test suite."""

import dataclasses

import numpy as np
import pytest

from isaacslab.pde import SpaceTimeGrid, cfl_required_nt
from isaacslab.problems import Coefficients, ControlGrid, GameInstance
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths


def make_instance(n=1, d=1, horizon=1.0, b=None, sigma=None, f=None, phi=None,
                  h=None, u_points=None, v_points=None, lipschitz=1.0, growth=10.0,
                  label="custom"):
    """Custom game instance with sensible zero defaults."""
    coeffs = Coefficients(
        b=b or (lambda t, x, u, v: np.zeros_like(x)),
        sigma=sigma or (lambda t, x, u, v: np.zeros(x.shape + (d,))),
        f=f or (lambda t, x, y, z, u, v: np.zeros(x.shape[0])),
        phi=phi or (lambda x: np.zeros(x.shape[0])),
        h=h or (lambda t, x: np.full(x.shape[0], -1e6)),
        declared_lipschitz=lipschitz,
        declared_growth=growth,
    )
    u_grid = ControlGrid(np.atleast_2d(u_points), "u") if u_points is not None \
        else ControlGrid.singleton()
    v_grid = ControlGrid(np.atleast_2d(v_points), "v") if v_points is not None \
        else ControlGrid.singleton()
    return GameInstance(n=n, d=d, T=horizon, coeffs=coeffs,
                        u_grid=u_grid, v_grid=v_grid, label=label)


def declare_homogeneous(instance, flag=True):
    """``instance`` with ``Coefficients.time_homogeneous`` set to ``flag``."""
    coeffs = dataclasses.replace(instance.coeffs, time_homogeneous=flag)
    return dataclasses.replace(instance, coeffs=coeffs)


def frozen_obstacle(instance):
    """``instance`` with its obstacle held at its values at t = 0."""
    h = instance.coeffs.h
    coeffs = dataclasses.replace(instance.coeffs, h=lambda t, x: h(0.0, x))
    return dataclasses.replace(instance, coeffs=coeffs)


def make_bundle(inst, x0, t0, t1, steps, paths=1, seed=1):
    """Euler paths of ``inst`` from ``x0`` on ``[t0, t1]`` under the control pair (0, 0)."""
    c0 = ControlPath.constant(0)
    return simulate_paths(inst, np.atleast_1d(x0), TimeMesh(t0, t1, steps), c0, c0, paths, seed)


def obstacle_table(values, t0, dt):
    """Obstacle that reads ``values`` at mesh step ``round((t - t0) / dt)``, constant in space."""
    values = np.asarray(values, dtype=float)

    def h(t, x):
        return np.full(x.shape[0], values[int(round((t - t0) / dt))])

    return h


def mixed_dominance_game():
    """2-D game with a = [[1, 0.9], [0.9, 1]], monotone only on near-square cells."""
    root = np.array([[1.0, 0.0], [0.9, np.sqrt(1.0 - 0.81)]])
    return make_instance(
        n=2, d=2, horizon=0.1,
        sigma=lambda t, x, u, v: np.broadcast_to(root, x.shape + (2,)).copy())


def correlated_game():
    # a_01 = 0.32 != 0, a drift that is upwinded near the edges of the box,
    # 2 x 2 controls and a cost rate that reads y and both components of z
    root = np.array([[0.8, 0.0], [0.4, 0.6]])
    return make_instance(
        n=2, d=2, horizon=0.5,
        b=lambda t, x, u, v: np.stack([3.0 * u[:, 0] * x[:, 0], -2.0 * x[:, 1]], axis=1),
        sigma=lambda t, x, u, v: np.broadcast_to(root, x.shape + (2,)).copy(),
        f=lambda t, x, y, z, u, v: (-0.1 * y + 0.2 * v[:, 0] * z[:, 0]
                                    - 0.05 * np.abs(z[:, 1]) + u[:, 0] * v[:, 0]),
        phi=lambda x: np.maximum(1.0 - np.abs(x[:, 0]) - 0.5 * np.abs(x[:, 1]), 0.0),
        h=lambda t, x: 0.5 * np.maximum(0.8 - np.abs(x[:, 0] + x[:, 1]), 0.0) - 0.1 * t,
        u_points=[[-1.0], [1.0]], v_points=[[-1.0], [0.5]], growth=20.0)


def sized(instance, box, nx, boundary="linear_extrapolation"):
    """Grid on ``box`` with ``nx`` nodes and the smallest stable number of steps."""
    grid = SpaceTimeGrid(box=box, nx=nx, nt=1, boundary=boundary)
    return dataclasses.replace(grid, nt=cfl_required_nt(instance, grid))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
