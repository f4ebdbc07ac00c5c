"""Shared builders for the test suite."""

import dataclasses

import numpy as np
import pytest

from isaacslab.pde import SpaceTimeGrid, cfl_required_nt
from isaacslab.problems import Coefficients, ControlGrid, GameInstance


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


def sized(instance, box, nx, boundary="linear_extrapolation"):
    """Grid on ``box`` with ``nx`` nodes and the smallest stable number of steps."""
    grid = SpaceTimeGrid(box=box, nx=nx, nt=1, boundary=boundary)
    return dataclasses.replace(grid, nt=cfl_required_nt(instance, grid))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
