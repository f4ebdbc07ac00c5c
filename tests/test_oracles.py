"""The independent reference prices."""

import numpy as np
import pytest

from isaacslab.oracles import crr_put


def crr_put_per_level(s0, strike, rate, vol, expiry, steps):
    """The binomial put with each level's prices s0 up^j down^(i - j) computed afresh."""
    dt = expiry / steps
    up = np.exp(vol * np.sqrt(dt))
    down = 1.0 / up
    disc = np.exp(-rate * dt)
    p = (np.exp(rate * dt) - down) / (up - down)
    j = np.arange(steps + 1)
    values = np.maximum(strike - s0 * up ** j * down ** (steps - j), 0.0)
    for i in range(steps - 1, -1, -1):
        values = disc * (p * values[1 : i + 2] + (1.0 - p) * values[: i + 1])
        j = np.arange(i + 1)
        values = np.maximum(values, strike - s0 * up ** j * down ** (i - j))
    return float(values[0])


@pytest.mark.parametrize("steps", [1, 7, 500, 2000])
@pytest.mark.parametrize("s0", [80.0, 100.0, 125.0], ids=["in", "at", "out"])
def test_crr_put_from_power_tables_is_the_per_level_price_bit_for_bit(s0, steps):
    # the tables multiply the same floats in the same order as each level did
    assert crr_put(s0, 100.0, 0.05, 0.2, 1.0, steps) == crr_put_per_level(
        s0, 100.0, 0.05, 0.2, 1.0, steps)
