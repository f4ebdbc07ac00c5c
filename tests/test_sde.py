"""Forward path simulation: exactness, noise law, common random numbers."""

import numpy as np
import pytest

from isaacslab.errors import DivergenceError, PreconditionError
from isaacslab.problems import builtin_instance
from isaacslab.sde import ControlPath, TimeMesh, empirical_moments, simulate_paths

from conftest import make_instance

C0 = ControlPath.constant(0)


def test_frozen_dynamics_keeps_state():
    inst = make_instance()
    bundle = simulate_paths(inst, np.array([5.0]), TimeMesh(0.0, 1.0, 20), C0, C0,
                            paths=7, seed=1)
    np.testing.assert_array_equal(bundle.states, 5.0)


def test_constant_drift_integrates_exactly():
    inst = make_instance(b=lambda t, x, u, v: np.ones_like(x))
    bundle = simulate_paths(inst, np.zeros(1), TimeMesh(0.0, 1.0, 10), C0, C0,
                            paths=3, seed=2)
    expected = np.tile(np.arange(11) / 10.0, (3, 1))
    np.testing.assert_allclose(bundle.states[:, :, 0], expected, atol=1e-15)


def test_gbm_terminal_mean_matches_closed_form():
    # lognormal mean exp(r T); oracle is the geometric Brownian motion moment
    inst = builtin_instance("american_put")
    bundle = simulate_paths(inst, np.array([100.0]), TimeMesh(0.0, 1.0, 250),
                            C0, C0, paths=10_000, seed=31)
    xT = bundle.states[:, -1, 0]
    se = xT.std(ddof=1) / np.sqrt(len(xT))
    assert abs(xT.mean() - 100.0 * np.exp(0.05)) <= 3.0 * se


def test_determinism_bit_identical():
    inst = builtin_instance("american_put")
    kw = dict(x0=np.array([90.0]), mesh=TimeMesh(0.0, 1.0, 25), u=C0, v=C0,
              paths=64, seed=123)
    b1 = simulate_paths(inst, **kw)
    b2 = simulate_paths(inst, **kw)
    np.testing.assert_array_equal(b1.states, b2.states)
    np.testing.assert_array_equal(b1.dB, b2.dB)


def test_common_random_numbers_share_increments():
    inst = builtin_instance("american_put")
    mesh = TimeMesh(0.0, 1.0, 25)
    b1 = simulate_paths(inst, np.array([90.0]), mesh, C0, C0, paths=64, seed=5)
    b2 = simulate_paths(inst, np.array([110.0]), mesh, C0, C0, paths=64, seed=5)
    np.testing.assert_array_equal(b1.dB, b2.dB)


def test_initial_condition_lipschitz_under_crn():
    # pathwise sup |X - X'|^2 / |dx0|^2 stays flat as the separation shrinks
    inst = builtin_instance("american_put")
    mesh = TimeMesh(0.0, 1.0, 50)
    base = simulate_paths(inst, np.array([100.0]), mesh, C0, C0, 2000, seed=7)
    constants = []
    for sep in (1.0, 0.1, 0.01):
        other = simulate_paths(inst, np.array([100.0 + sep]), mesh, C0, C0, 2000,
                               seed=7)
        diff = np.linalg.norm(base.states - other.states, axis=2).max(axis=1)
        constants.append(np.mean(diff**2) / sep**2)
    assert max(constants) / min(constants) <= 2.0


def test_noise_increments_have_zero_mean():
    # per-coordinate sample mean within 4 sqrt(dt / (M N)) of zero
    inst = make_instance()
    mesh = TimeMesh(0.0, 1.0, 40)
    bundle = simulate_paths(inst, np.zeros(1), mesh, C0, C0, paths=500, seed=17)
    tol = 4.0 * np.sqrt(mesh.dt / (500 * 40))
    assert abs(bundle.dB.mean()) <= tol


def test_divergence_error_names_path_and_step():
    inst = make_instance(b=lambda t, x, u, v: 1e10 * np.ones_like(x))
    with pytest.raises(DivergenceError) as err:
        simulate_paths(inst, np.zeros(1), TimeMesh(0.0, 1.0, 4), C0, C0,
                       paths=3, seed=0)
    assert err.value.path_index == 0
    assert err.value.step == 1


def test_bundle_shapes_and_contiguous_feedback_rows():
    # public arrays stay path-major; each state row a feedback rule sees is
    # one contiguous (M, n) block of the step-major storage
    inst = make_instance(n=2, d=3, u_points=[[0.0], [1.0]],
                         sigma=lambda t, x, u, v: 0.1 * np.ones(x.shape + (3,)))
    seen = []

    def rule(t, x):
        seen.append((x.shape, x.flags.c_contiguous))
        return (x[:, 0] > 0.0).astype(int)

    bundle = simulate_paths(inst, np.zeros(2), TimeMesh(0.0, 1.0, 6),
                            ControlPath.from_feedback(rule), C0, paths=5, seed=4)
    assert bundle.states.shape == (5, 7, 2)
    assert bundle.dB.shape == (5, 6, 3)
    assert bundle.u_path.shape == bundle.v_path.shape == (5, 6)
    assert bundle.paths == 5
    assert seen == [((5, 2), True)] * 6
    np.testing.assert_array_equal(bundle.states[:, 0], 0.0)


def test_noise_is_the_path_major_draw():
    # the seeded stream is drawn in (M, N, d) order whatever the storage
    mesh = TimeMesh(0.0, 1.0, 8)
    bundle = simulate_paths(make_instance(d=2), np.zeros(1), mesh, C0, C0,
                            paths=6, seed=9)
    expected = np.random.default_rng(9).standard_normal((6, 8, 2)) * np.sqrt(mesh.dt)
    np.testing.assert_array_equal(bundle.dB, expected)


def test_piecewise_and_feedback_controls_recorded():
    inst = make_instance(u_points=[[0.0], [1.0]], v_points=[[0.0], [1.0]])
    mesh = TimeMesh(0.0, 1.0, 4)
    u = ControlPath.piecewise([0, 1, 1, 0])
    v = ControlPath.from_feedback(lambda t, x: (x[:, 0] > 0.5).astype(int))
    bundle = simulate_paths(inst, np.ones(1), mesh, u, v, paths=2, seed=3)
    np.testing.assert_array_equal(bundle.u_path[0], [0, 1, 1, 0])
    np.testing.assert_array_equal(bundle.v_path, 1)


def test_control_index_out_of_grid_raises():
    inst = make_instance()
    with pytest.raises(PreconditionError):
        simulate_paths(inst, np.zeros(1), TimeMesh(0.0, 1.0, 2),
                       ControlPath.constant(3), C0, paths=1, seed=0)


@pytest.mark.parametrize("control, message", [
    (ControlPath.piecewise([0, 0, 0]), "piecewise control has 3 steps, needs 4"),
    (ControlPath.from_feedback(lambda t, x: np.zeros((x.shape[0], 1), dtype=int)),
     "feedback control must return one index per path"),
], ids=["piecewise-shorter-than-mesh", "feedback-wrong-shape"])
def test_malformed_control_raises(control, message):
    inst = make_instance()
    with pytest.raises(PreconditionError, match=message):
        simulate_paths(inst, np.zeros(1), TimeMesh(0.0, 1.0, 4), control, C0,
                       paths=2, seed=0)


def test_moments_frozen_dynamics():
    inst = make_instance()
    bundle = simulate_paths(inst, np.array([2.0]), TimeMesh(0.0, 1.0, 10), C0, C0,
                            paths=5, seed=1)
    sup_m, inc_m = empirical_moments(bundle, 2)
    assert sup_m == 4.0
    assert inc_m == 0.0


def test_moments_brownian_doob_bound():
    # E sup_{s<=delta} |B_s|^2 <= 4 delta, with 2.5% slack
    inst = make_instance(sigma=lambda t, x, u, v: np.ones(x.shape + (1,)))
    for delta in (0.1, 0.05, 0.025):
        bundle = simulate_paths(inst, np.zeros(1), TimeMesh(0.0, delta, 64),
                                C0, C0, paths=10_000, seed=23)
        _, inc_m = empirical_moments(bundle, 2)
        assert inc_m <= 4.1 * delta


def test_sup_moment_dominates_initial_value():
    inst = builtin_instance("american_put")
    bundle = simulate_paths(inst, np.array([80.0]), TimeMesh(0.0, 0.5, 20),
                            C0, C0, paths=200, seed=2)
    sup_m, _ = empirical_moments(bundle, 2)
    assert sup_m >= 80.0**2


def test_moments_reject_odd_power():
    inst = make_instance()
    bundle = simulate_paths(inst, np.zeros(1), TimeMesh(0.0, 1.0, 2), C0, C0,
                            paths=1, seed=0)
    with pytest.raises(PreconditionError):
        empirical_moments(bundle, 3)


def test_increment_moment_scales_linearly_in_horizon():
    # log-log slope of E sup |X - x0|^2 against the horizon within 1.0 +/- 0.15
    inst = builtin_instance("american_put")
    deltas = np.array([0.2, 0.1, 0.05, 0.025])
    moments = []
    for delta in deltas:
        bundle = simulate_paths(inst, np.array([100.0]), TimeMesh(0.0, delta, 64),
                                C0, C0, paths=10_000, seed=3)
        moments.append(empirical_moments(bundle, 2)[1])
    slope = np.polyfit(np.log(deltas), np.log(moments), 1)[0]
    assert 0.85 <= slope <= 1.15


def test_moments_fourth_power_frozen():
    inst = make_instance()
    bundle = simulate_paths(inst, np.array([2.0]), TimeMesh(0.0, 1.0, 5), C0, C0,
                            paths=3, seed=4)
    sup_m, inc_m = empirical_moments(bundle, 4)
    assert sup_m == 16.0 and inc_m == 0.0
