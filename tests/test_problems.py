"""Instance construction, validation probing and built-in benchmarks."""

import numpy as np
import pytest

from isaacslab.errors import EvaluationError, NotFoundError
from isaacslab.problems import (
    BUILTIN_NAMES,
    Coefficients,
    ControlGrid,
    _as_batch,
    builtin_instance,
    validate_instance,
)

from conftest import declare_homogeneous, make_instance


def test_control_grid_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        ControlGrid(points=np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError):
        ControlGrid(points=np.zeros((0, 1)))
    grid = ControlGrid(points=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert len(grid) == 2 and grid.dim == 2


def test_coefficients_require_positive_declared_constants():
    with pytest.raises(ValueError):
        Coefficients(b=lambda *a: 0, sigma=lambda *a: 0, f=lambda *a: 0,
                     phi=lambda x: 0, h=lambda t, x: 0,
                     declared_lipschitz=0.0, declared_growth=1.0)


def test_validate_constant_instance_passes():
    # all-constant coefficients satisfy every bound
    inst = make_instance(
        sigma=lambda t, x, u, v: np.broadcast_to(np.eye(1), x.shape + (1,)),
        h=lambda t, x: np.full(x.shape[0], -1.0),
        lipschitz=1.0, growth=10.0,
    )
    report = validate_instance(inst, probe_count=32, seed=1)
    assert report.passed
    assert report.violations == []


def test_validate_flags_obstacle_above_terminal():
    inst = make_instance(h=lambda t, x: np.ones(x.shape[0]),
                         phi=lambda x: np.zeros(x.shape[0]))
    report = validate_instance(inst, probe_count=16, seed=2)
    assert not report.passed
    barrier = [v for v in report.violations if v[0] == "barrier:terminal"]
    # h = 1 > 0 = phi fails at every probe point
    assert len(barrier) == 16


def test_validate_flags_quadratic_cost_lipschitz():
    inst = make_instance(f=lambda t, x, y, z, u, v: x[:, 0] ** 2, lipschitz=1.0,
                         growth=60.0)
    report = validate_instance(inst, probe_count=64, seed=3,
                               probe_box=[(-5.0, 5.0)])
    bad = [v for v in report.violations if v[0] == "lipschitz:running_cost"]
    assert bad, "difference quotient 2|x| must exceed the declared bound"
    assert not report.passed
    assert report.estimated_lipschitz["running_cost"] > 1.05


def test_validate_is_deterministic():
    inst = builtin_instance("american_put")
    r1 = validate_instance(inst, probe_count=32, seed=9)
    r2 = validate_instance(inst, probe_count=32, seed=9)
    assert r1.violations == r2.violations
    assert r1.estimated_lipschitz == r2.estimated_lipschitz


def test_validate_flags_time_dependent_drift_declared_homogeneous():
    inst = make_instance(b=lambda t, x, u, v: t * x, h=lambda t, x: np.full(x.shape[0], -1.0))
    assert validate_instance(inst, probe_count=16, seed=2).passed
    report = validate_instance(declare_homogeneous(inst), probe_count=16, seed=2)
    moved = [v for v in report.violations if v[0] == "time_homogeneous:dynamics"]
    # b(t, x) - b(0, x) = t x is nonzero at every probe
    assert len(moved) == 16 and len(report.violations) == 16
    assert all(observed > 0.0 for _, _, observed in moved)


def test_validate_flags_time_dependent_obstacle_declared_static():
    # h agrees at t = 0 and t = T = 1, where the instance checks it, and moves between
    inst = make_instance(h=lambda t, x: t * (1.0 - t) - x[:, 0],
                         phi=lambda x: np.maximum(1.0 - x[:, 0], 0.0))
    assert validate_instance(inst, probe_count=16, seed=2).passed
    report = validate_instance(declare_homogeneous(inst), probe_count=16, seed=2)
    moved = [v for v in report.violations if v[0] == "time_homogeneous:obstacle"]
    # h(t, x) - h(0, x) = t (1 - t) is nonzero at every probe
    assert len(moved) == 16 and len(report.violations) == 16
    assert all(observed > 0.0 for _, _, observed in moved)


@pytest.mark.parametrize("what, build", [
    ("drift", lambda: make_instance(b=lambda t, x, u, v: t + x)),
    ("diffusion", lambda: make_instance(sigma=lambda t, x, u, v: np.full(x.shape + (1,), 1.0 + t))),
    ("obstacle", lambda: builtin_instance("deterministic_stop")),
], ids=["drift", "diffusion", "obstacle"])
def test_declaring_a_coefficient_that_reads_t_homogeneous_raises_naming_it(what, build):
    # deterministic_stop's obstacle is T - t: a declaration would hold it at its first step
    inst = build()
    assert not inst.coeffs.time_homogeneous
    with pytest.raises(ValueError, match=f"^the {what} differs at t = 0 and t = T = 1, "):
        declare_homogeneous(inst)


@pytest.mark.parametrize("key", ["u_points", "v_points"])
@pytest.mark.parametrize("points", [[-1.0, 1.0], [[-1.0, 1.0]], [[-1.0], [1.0, 2.0]], 1.0,
                                    [[[-1.0]], [[1.0]]], "ab"])
def test_builtin_refuses_control_points_that_are_not_one_number_lists(key, points):
    # a flat [-1.0, 1.0] used to become one control point with two components
    with pytest.raises(ValueError, match=f"{key} must be a list of one-number lists"):
        builtin_instance("minimax_gap", {key: points})


def test_as_batch_accepts_large_finite_entries_and_rejects_non_finite():
    x = np.zeros((2, 1))
    # the sum of the entries overflows; the test must neither warn nor refuse
    arr = _as_batch([1e308, 1e308], (2,), "drift", 0.0, x, ())
    np.testing.assert_array_equal(arr, [1e308, 1e308])
    assert not arr.flags.writeable
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(EvaluationError, match="drift returned non-finite value"):
            _as_batch([1.0, bad], (2,), "drift", 0.0, x, ())


def test_as_batch_views_a_return_of_the_right_shape_read_only():
    x = np.zeros((3, 1))
    out = np.array([[1.0, -2.0], [0.5, 3.0], [4.0, -0.0]])
    before = out.copy()
    arr = _as_batch(out, (3, 2), "drift", 0.0, x, ())
    assert np.shares_memory(arr, out)
    assert not arr.flags.writeable
    assert out.flags.writeable
    np.testing.assert_array_equal(arr, before)
    assert np.array_equal(np.signbit(arr), np.signbit(before))
    # a scalar still broadcasts, read-only; a wrong shape is still refused
    scalar = _as_batch(2.5, (3,), "cost rate", 0.0, x, ())
    assert scalar.shape == (3,) and not scalar.flags.writeable
    np.testing.assert_array_equal(scalar, [2.5, 2.5, 2.5])
    with pytest.raises(EvaluationError, match="drift returned un-broadcastable value"):
        _as_batch(np.ones((2, 2)), (3, 2), "drift", 0.0, x, ())


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_instances_validate(name):
    inst = builtin_instance(name)
    # deterministic_stop's obstacle is T - t
    assert inst.coeffs.time_homogeneous == (name != "deterministic_stop")
    report = validate_instance(inst, probe_count=64, seed=5)
    assert report.passed, report.violations[:3]


def test_builtin_unknown_name_lists_valid():
    with pytest.raises(NotFoundError) as err:
        builtin_instance("nope")
    for name in BUILTIN_NAMES:
        assert name in str(err.value)


def test_builtin_rejects_unknown_params():
    with pytest.raises(ValueError):
        builtin_instance("american_put", {"strike_typo": 1.0})


def test_lemma45_driver_at_origin():
    # driver value C(|y|+|z|) - theta/2 at y = z = 0
    inst = builtin_instance("lemma45")
    val = inst.coeffs.f(0.0, np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)),
                        inst.u_grid.points[:1], inst.v_grid.points[:1])
    assert val[0] == pytest.approx(-0.5, abs=0)


def test_no_obstacle_linear_levels():
    inst = builtin_instance("no_obstacle_linear", {"c0": 0.0, "c1": 3.0})
    x = np.zeros((1, 1))
    assert inst.coeffs.phi(x)[0] == 3.0
    assert inst.coeffs.h(0.3, x)[0] == 2.0


def test_american_put_barrier_holds_with_equality():
    inst = builtin_instance("american_put")
    x = np.linspace(-10, 10, 31)[:, None]
    np.testing.assert_array_equal(inst.coeffs.h(inst.T, x), inst.coeffs.phi(x))


def test_minimax_gap_validates_with_unit_lipschitz():
    inst = builtin_instance("minimax_gap")
    assert inst.coeffs.declared_lipschitz >= 1.0
    assert validate_instance(inst, probe_count=32, seed=4).passed


def test_evaluation_error_carries_offending_point():
    def bad_drift(t, x, u, v):
        raise FloatingPointError("boom")

    inst = make_instance()
    object.__setattr__(inst.coeffs, "b", bad_drift)
    with pytest.raises(EvaluationError) as err:
        validate_instance(inst, probe_count=8, seed=0)
    assert err.value.point is not None


# u and v hold one control point per state row, so u[0] is the first row's
# point: on one row per pair of a 2 x 2 grid such a coefficient gives every
# row the first pair's value
@pytest.mark.parametrize("what, coefficient", [
    ("drift", {"b": lambda t, x, u, v: np.full(x.shape, u[0] * v[0])}),
    ("diffusion", {"sigma": lambda t, x, u, v: np.full(x.shape + (1,), 1.0 + u[0] * v[0])}),
    ("cost rate", {"f": lambda t, x, y, z, u, v: np.full(x.shape[0], u[0] * v[0])}),
])
def test_coefficient_reading_the_first_rows_control_is_refused(what, coefficient):
    with pytest.raises(ValueError, match=f"the {what} reads another row's control"):
        make_instance(u_points=[[-1.0], [1.0]], v_points=[[-1.0], [1.0]], **coefficient)
    # one control pair has no other row to read
    make_instance(**coefficient)


def test_every_builtin_meets_the_per_row_control_contract():
    for name in BUILTIN_NAMES:
        builtin_instance(name)
    builtin_instance("minimax_gap", {"u_points": [[-1.0], [0.0], [2.0]],
                                     "v_points": [[0.5], [1.0]]})
