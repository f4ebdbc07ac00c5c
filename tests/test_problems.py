"""Instance construction, validation probing and built-in benchmarks."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isaacslab.errors import EvaluationError, NotFoundError
from isaacslab.problems import (
    BUILTIN_NAMES,
    COST_RATE_ARGUMENTS,
    Coefficients,
    ControlGrid,
    _as_batch,
    builtin_instance,
    validate_instance,
)

from conftest import declare_homogeneous, declare_linear, declare_reads, make_instance


def test_control_grid_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        ControlGrid(points=np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError):
        ControlGrid(points=np.zeros((0, 1)))
    grid = ControlGrid(points=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert len(grid) == 2 and grid.dim == 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_control_grid_duplicates_are_those_np_unique_counts(rng, dim):
    # rows drawn from few values, signed zeros and NaN among them: 0.0 and
    # -0.0 are one point, two NaNs are not
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.nan])
    for _ in range(300):
        pts = rng.choice(values, size=(rng.integers(1, 6), dim))
        duplicated = len(np.unique(pts, axis=0)) != len(pts)
        if duplicated:
            with pytest.raises(ValueError, match="duplicate control points"):
                ControlGrid(points=pts)
        else:
            assert len(ControlGrid(points=pts)) == len(pts)


def test_building_parsing_and_a_penalization_import_no_numpy_ma():
    # np.unique imports numpy.ma, 10-19 ms of every fresh interpreter; building
    # the builtins, parsing a config, a small penalization run and a time
    # modulus fit (of a time-dependent obstacle, whose slices it reads) must not
    code = """
import sys
from isaacslab import cli
from isaacslab.analysis import lower_value, time_continuity_profile
from isaacslab.config import parse_config
from isaacslab.pde import SpaceTimeGrid
from isaacslab.problems import BUILTIN_NAMES, builtin_instance
for name in BUILTIN_NAMES:
    builtin_instance(name)
config = parse_config({"experiment": "penalization", "instance": {"name": "american_put"},
                       "grid": {"box": [[20, 300]], "nx": [21]}, "schedules": {"m": [1, 4]}})
cli._run_penalization(config, *cli._presolve(config))
stop = builtin_instance("deterministic_stop")
field = lower_value(stop, SpaceTimeGrid(box=((-1.0, 1.0),), nx=(11,), nt=40))
time_continuity_profile(field, [0.0, 0.0, 0.5], (0.2, 0.1, 0.05), instance=stop)
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "False"


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
    # the drift vanishes at x = 0 and x = 1, where the instance checks it, and
    # moves with t elsewhere (t x declared homogeneous is refused at build)
    inst = make_instance(b=lambda t, x, u, v: 0.02 * t * x * (x - 1.0),
                         h=lambda t, x: np.full(x.shape[0], -1.0))
    assert validate_instance(inst, probe_count=16, seed=2).passed
    report = validate_instance(declare_homogeneous(inst), probe_count=16, seed=2)
    moved = [v for v in report.violations if v[0] == "time_homogeneous:dynamics"]
    # b(t, x) - b(0, x) = 0.02 t x (x - 1) is nonzero at every probe
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
    ("drift", lambda: make_instance(b=lambda t, x, u, v: t * x)),
    ("obstacle", lambda: make_instance(h=lambda t, x: t * x[:, 0] - 1.0)),
    ("cost rate", lambda: make_instance(f=lambda t, x, y, z, u, v: t * y)),
], ids=["drift", "diffusion", "obstacle", "drift_times_state", "obstacle_times_state",
        "cost_rate_times_value"])
def test_declaring_a_coefficient_that_reads_t_homogeneous_raises_naming_it(what, build):
    # deterministic_stop's obstacle is T - t: a declaration would hold it at its
    # first step; t x and t x - 1 read t only away from x = 0
    inst = build()
    assert not inst.coeffs.time_homogeneous
    with pytest.raises(ValueError, match=f"^the {what} differs at t = 0 and t = T = 1, "):
        declare_homogeneous(inst)


def test_validate_flags_time_dependent_cost_rate_declared_homogeneous():
    # f agrees at t = 0 and t = T = 1, where the instance checks it, and moves between
    inst = make_instance(f=lambda t, x, y, z, u, v: np.full(x.shape[0], 0.1 * t * (1.0 - t)),
                         h=lambda t, x: np.full(x.shape[0], -1.0))
    assert validate_instance(inst, probe_count=16, seed=2).passed
    report = validate_instance(declare_homogeneous(inst), probe_count=16, seed=2)
    moved = [v for v in report.violations if v[0] == "time_homogeneous:running_cost"]
    assert len(moved) == 16 and len(report.violations) == 16
    assert all(observed > 0.0 for _, _, observed in moved)


@pytest.mark.parametrize("arg, f", [
    ("y", lambda t, x, y, z, u, v: 0.01 * y * (y - 1.0)),
    ("z", lambda t, x, y, z, u, v: 0.01 * z[:, 0] * (z[:, 0] - 1.0)),
])
def test_validate_flags_a_cost_rate_reading_an_argument_declared_unread(arg, f):
    # f is the same at 0 and 1, where the instance checks it, and moves between
    inst = make_instance(f=f, h=lambda t, x: np.full(x.shape[0], -1.0))
    assert validate_instance(inst, probe_count=16, seed=2).passed
    other = "z" if arg == "y" else "y"
    report = validate_instance(declare_reads(inst, (other,)), probe_count=16, seed=2)
    moved = [v for v in report.violations if v[0] == f"cost_rate_reads:{arg}"]
    # the probe's own value and its pair's differ at every probe
    assert len(moved) == 16 and len(report.violations) == 16
    assert all(observed > 0.0 for _, _, observed in moved)
    # declaring the other argument unread too adds no violation: f does not read it
    assert validate_instance(declare_reads(inst, ()), probe_count=16, seed=2) == report


@pytest.mark.parametrize("arg, f", [
    ("y", lambda t, x, y, z, u, v: 0.1 * y),
    ("z", lambda t, x, y, z, u, v: 0.1 * z[:, 0]),
    ("y", lambda t, x, y, z, u, v: 0.1 * x[:, 0] * y),
    ("z", lambda t, x, y, z, u, v: 0.1 * t * z[:, 0]),
], ids=["y", "z", "y_times_state", "z_times_time"])
def test_declaring_a_cost_rate_argument_unread_raises_naming_it(arg, f):
    # x y moves with y only at x = 1, t z only at t = T
    inst = make_instance(f=f)
    other = "z" if arg == "y" else "y"
    with pytest.raises(ValueError, match=f"^the cost rate differs at {arg} = 0 and {arg} = 1 "):
        declare_reads(inst, (other,))
    with pytest.raises(ValueError, match=r"declares cost_rate_reads = \(\)$"):
        declare_reads(inst, ())
    assert declare_reads(inst, (arg,)).coeffs.cost_rate_reads == (arg,)


def test_cost_rate_reads_is_a_subset_of_y_and_z_in_order():
    inst = make_instance()
    assert inst.coeffs.cost_rate_reads == COST_RATE_ARGUMENTS == ("y", "z")
    assert declare_reads(inst, ["z", "y"]).coeffs.cost_rate_reads == ("y", "z")
    with pytest.raises(ValueError, match="cost_rate_reads must be a subset of"):
        declare_reads(inst, ("y", "t"))


def test_builtin_cost_rate_declarations():
    declared = {name: builtin_instance(name).coeffs.cost_rate_reads for name in BUILTIN_NAMES}
    assert declared == {"american_put": ("y",), "lemma45": ("y", "z"), "minimax_gap": (),
                        "no_obstacle_linear": (), "deterministic_stop": ()}
    linear = [name for name in BUILTIN_NAMES if builtin_instance(name).coeffs.cost_rate_linear]
    assert linear == ["american_put"]


@pytest.mark.parametrize("f, at", [
    (lambda t, x, y, z, u, v: -0.05 * y + 1.0, 0),
    (lambda t, x, y, z, u, v: y * np.abs(y), 2),
    # linear in y only away from x = 0 and t = 0, where the instance checks it
    (lambda t, x, y, z, u, v: 0.1 * y + t * x[:, 0] * (y - 1.0) ** 2, 0),
], ids=["affine", "y_times_abs_y", "t_times_state"])
def test_declaring_a_cost_rate_linear_that_is_not_raises(f, at):
    inst = declare_reads(make_instance(f=f), ("y",))
    with pytest.raises(ValueError, match=f"^the cost rate at y = {at} .* cost_rate_linear$"):
        declare_linear(inst)


@pytest.mark.parametrize("reads", [(), ("z",), ("y", "z")])
def test_cost_rate_linear_needs_a_cost_rate_that_reads_y_alone(reads):
    coeffs = dict(b=None, sigma=None, f=None, phi=None, h=None, declared_lipschitz=1.0,
                  declared_growth=1.0, cost_rate_reads=reads, cost_rate_linear=True)
    with pytest.raises(ValueError, match=r"cost_rate_linear needs cost_rate_reads = \('y',\)"):
        Coefficients(**coeffs)
    assert Coefficients(**{**coeffs, "cost_rate_reads": ("y",)}).cost_rate_linear


def test_validate_flags_a_cost_rate_declared_linear_that_is_not():
    # f is 0.1 y at y = 0, 1 and 2, where the instance checks it, and not between
    inst = make_instance(f=lambda t, x, y, z, u, v: 0.1 * y + 0.001 * y * (y - 1.0) * (y - 2.0),
                         h=lambda t, x: np.full(x.shape[0], -1.0))
    inst = declare_reads(inst, ("y",))
    assert validate_instance(inst, probe_count=16, seed=2).passed
    report = validate_instance(declare_linear(inst), probe_count=16, seed=2)
    assert {kind for kind, _, _ in report.violations} == {"cost_rate_linear:y"}
    assert len(report.violations) == 16
    assert all(observed > 0.0 for _, _, observed in report.violations)


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


def counting_coefficients(instance):
    """``instance`` with each coefficient counting its calls, and the counts."""
    counts = dict.fromkeys(("b", "sigma", "f", "phi", "h"), 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    coeffs = dataclasses.replace(instance.coeffs, **{name: counted(name, getattr(
        instance.coeffs, name)) for name in counts})
    return dataclasses.replace(instance, coeffs=coeffs), counts


@pytest.mark.parametrize("f, declare", [
    (lambda t, x, y, z, u, v: u[:, 0] * v[:, 0],
     lambda inst: declare_reads(declare_homogeneous(inst), ())),
    (lambda t, x, y, z, u, v: u[:, 0] * v[:, 0] * y,
     lambda inst: declare_linear(declare_reads(inst, ("y",)))),
], ids=["homogeneous_reads_none", "linear_in_y"])
def test_validate_makes_as_many_coefficient_calls_whatever_the_number_of_pairs(f, declare):
    calls = []
    for points in ([[1.0]], [[-1.0], [0.5], [2.0]]):
        inst, counts = counting_coefficients(
            declare(make_instance(f=f, u_points=points, v_points=points)))
        counts.update(dict.fromkeys(counts, 0))  # building the instance calls them too
        validate_instance(inst, probe_count=16, seed=3)
        calls.append(dict(counts))
    assert calls[0] == calls[1]
    assert min(calls[0].values()) > 0


def pair_witness_instance(u_points, v_points):
    # only pairs with u v != 0 move the cost rate, and only u != 0 the drift; the
    # terminal payoff and the obstacle break their bounds whatever the pair
    inst = make_instance(
        b=lambda t, x, u, v: u[:, :1] * x * (1.0 + 0.02 * t * (x - 1.0)),
        f=lambda t, x, y, z, u, v: u[:, 0] * v[:, 0] * (
            x[:, 0] ** 2 + 0.1 * t * (1.0 - t) + 0.01 * y * (y - 1.0)),
        phi=lambda x: 2.0 * np.minimum(1.0 - x[:, 0], 0.0),
        h=lambda t, x: t * (1.0 - t) - 2.0 * x[:, 0],
        u_points=u_points, v_points=v_points, growth=10.0)
    return declare_reads(declare_homogeneous(inst), ())


def test_validate_reports_each_pairs_violations_under_its_own_indices():
    u_points, v_points = [[-1.0], [0.0], [2.0]], [[0.5], [1.0]]
    report = validate_instance(pair_witness_instance(u_points, v_points), probe_count=24,
                               seed=7)
    pair_free = {"lipschitz:terminal", "lipschitz:obstacle", "barrier:terminal",
                 "time_homogeneous:obstacle"}
    union, singles = set(), []
    for iu, u in enumerate(u_points):
        for iv, v in enumerate(v_points):
            single = validate_instance(pair_witness_instance([u], [v]), probe_count=24, seed=7)
            singles.append(single)
            for kind, witness, observed in single.violations:
                if kind not in pair_free:
                    assert witness[-2:] == (0, 0)
                    witness = witness[:-2] + (iu, iv)
                union.add((kind, witness, observed))
    assert report.violations == sorted(union, key=lambda rec: (rec[0], -rec[2], str(rec[1])))
    kinds = {kind for kind, _, _ in report.violations}
    assert pair_free | {"time_homogeneous:dynamics", "time_homogeneous:running_cost",
                        "cost_rate_reads:y", "lipschitz:dynamics", "lipschitz:running_cost",
                        "growth:costs"} <= kinds
    # some pairs break the pair-dependent bounds and others do not
    moved = {witness[-2:] for kind, witness, _ in report.violations
             if kind == "time_homogeneous:running_cost"}
    assert moved == {(0, 0), (0, 1), (2, 0), (2, 1)}
    assert report.estimated_lipschitz == {
        key: max(single.estimated_lipschitz[key] for single in singles)
        for key in report.estimated_lipschitz}
