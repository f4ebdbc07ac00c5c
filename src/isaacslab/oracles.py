"""Independent reference values used to check the solvers.

These are deliberately simple, self-contained implementations: a
Cox-Ross-Rubinstein binomial tree for American put prices and the
closed-form value of the degenerate constant-driver benchmark.  Nothing
here shares code with the solvers they are used to test.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError


def crr_put(s0, strike, rate, vol, expiry, steps):
    """Cox-Ross-Rubinstein binomial American put price.

    Parameters
    ----------
    s0, strike, rate, vol, expiry : float
        Spot, strike, continuously compounded rate, volatility, maturity.
    steps : int
        Tree depth.
    """
    dt = expiry / steps
    up = np.exp(vol * np.sqrt(dt))
    down = 1.0 / up
    disc = np.exp(-rate * dt)
    # a flat tree (vol = 0) has no risk-neutral weight: refuse it before dividing by 0
    p = (np.exp(rate * dt) - down) / (up - down) if up != down else 0.0
    if not (0.0 < p < 1.0):
        raise PreconditionError("tree parameters give a degenerate risk-neutral weight")

    # level i holds s0 up^j down^(i - j), j = 0..i: the same products from two tables
    k = np.arange(steps + 1)
    s0_up, down_k = s0 * up ** k, down ** k
    values = np.maximum(strike - s0_up * down_k[::-1], 0.0)
    for i in range(steps - 1, -1, -1):
        values = disc * (p * values[1 : i + 2] + (1.0 - p) * values[: i + 1])
        values = np.maximum(values, strike - s0_up[: i + 1] * down_k[i::-1])
    return float(values[0])


def degenerate_rbsde_value(c, theta, delta):
    """Closed-form initial value of the degenerate constant-driver equation.

    With frozen dynamics, driver ``c (|y| + |z|) - theta / 2``, zero
    terminal value and an obstacle low enough never to bind, the solution
    over an interval of length ``delta`` starts at
    ``-(theta / (2 c)) (1 - exp(-c delta))``; at ``c = 0`` it is the
    limit ``-theta delta / 2``.
    """
    if c == 0:
        return -0.5 * theta * delta
    return -(theta / (2.0 * c)) * (1.0 - np.exp(-c * delta))
