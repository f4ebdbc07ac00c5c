"""tools/identity.py: the array comparison, the battery's per-config records and its inputs."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from isaacslab import cli
from isaacslab.pde import cfl_required_nt
from isaacslab.problems import builtin_instance

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_negative_zero_differs_from_zero():
    lines = identity.differences({"a": np.array([0.0, 1.0])}, {"a": np.array([-0.0, 1.0])})
    assert lines == ["a: 1 of 2 entries differ, max abs 0.000e+00, max 0 ulps"]


def test_neighbouring_floats_are_one_ulp_apart():
    base = np.array([1.0, 0.0, -5e-324, 3.0])
    head = np.array([np.nextafter(1.0, 2.0), 5e-324, 5e-324, 3.0])
    (line,) = identity.differences({"a": base[:2]}, {"a": head[:2]})
    assert line.startswith("a: 2 of 2 entries differ") and line.endswith("max 1 ulps")
    # across zero the two smallest subnormals are two steps apart
    (line,) = identity.differences({"a": base[2:]}, {"a": head[2:]})
    assert line.startswith("a: 1 of 2 entries differ") and line.endswith("max 2 ulps")


def test_equal_nans_pass():
    arrays = {"a": np.array([np.nan, 1.0]), "b": np.array([[np.nan]])}
    assert identity.differences(arrays, {key: value.copy() for key, value in arrays.items()}) == []


def test_keys_on_one_side_only_are_named():
    one = np.zeros(2)
    assert identity.differences({"kept": one, "gone": one}, {"kept": one, "new": one}) == [
        "gone: only at base", "new: only at head"]


def test_error_lines_give_the_recorded_message():
    one, other = identity._bytes("ConfigError: one"), identity._bytes("ValueError: other\nline")
    assert identity.differences({"a/error": one}, {"b/error": other, "c": one}) == [
        "a/error: only at base: ConfigError: one", "b/error: only at head: ValueError: other line",
        "c: only at head"]
    assert identity.differences({"a/error": one}, {"a/error": other}) == [
        'a/error: "ConfigError: one" at base, "ValueError: other line" at head']
    assert identity.differences({"a/error": one}, {"a/error": one.copy()}) == []


def test_shape_and_dtype_changes_are_named():
    lines = identity.differences({"s": np.zeros((2, 3)), "t": np.zeros(3)},
                                 {"s": np.zeros((3, 2)), "t": np.zeros(3, dtype=np.float32)})
    assert lines == ["s: float64(2, 3) at base, float64(3, 2) at head",
                     "t: float64(3,) at base, float32(3,) at head"]


def test_differing_bytes_are_counted():
    base = np.frombuffer(b"abcdef", dtype=np.uint8)
    head = np.frombuffer(b"abXdeY", dtype=np.uint8)
    assert identity.differences({"b": base}, {"b": head}) == ["b: 2 of 6 entries differ"]


def test_a_config_that_fails_to_parse_is_recorded_as_an_error(tmp_path, monkeypatch):
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "bad.json").write_text(json.dumps({"experiment": "no_such"}))
    (tmp_path / "configs" / "good.json").write_text(json.dumps(
        {"experiment": "compare_wu", "instance": {"name": "minimax_gap"},
         "grid": {"box": [[-2, 2]], "nx": [11]}}))
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    out = {}
    identity._config_arrays(out, tmp_path / "out")
    assert sorted(key for key in out if key.startswith("config/bad/")) == ["config/bad/error"]
    assert bytes(out["config/bad/error"]).startswith(b"ConfigError: ")
    assert bytes(out["validate/bad"]).startswith(b"2\n")
    # the failure hides no other config's arrays, and the digest is kept apart
    metrics = json.loads(bytes(out["config/good/metrics"]))
    assert metrics["experiment"] == "compare_wu" and "config_digest" not in metrics
    assert len(out["config/good/config_digest"]) == 64
    assert bytes(out["validate/good"]).startswith(b"0\n")
    assert bytes(out["validate/many_pairs"]).startswith(b"0\n")


def test_a_validate_report_records_the_error_message(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "no_such"}))
    report = bytes(identity._validate_report(bad)).decode()
    assert report.startswith("2\nerror: config error at 'experiment': must be one of ")


def test_a_passing_validate_report_holds_stdout_only(tmp_path, capsys):
    many_pairs = tmp_path / "many_pairs.json"
    many_pairs.write_text(json.dumps(identity.MANY_PAIRS))
    report = bytes(identity._validate_report(many_pairs)).decode()
    assert cli.main(["validate", str(many_pairs)]) == 0
    printed = capsys.readouterr()
    assert printed.err == "" and report == f"0\n{printed.out}"


def test_the_battery_inputs_build():
    # the battery's 2-D game and grid sizing come from tests/conftest.py, so a
    # rename there would otherwise show only as a side that fails to run
    fixtures = identity._fixtures()
    game = fixtures.correlated_game()
    assert (game.n, game.d, len(game.u_grid), len(game.v_grid)) == (2, 2, 2, 2)
    grid = fixtures.sized(game, ((-2.0, 2.0), (-2.0, 2.0)), (13, 11))
    assert grid.nx == (13, 11) and grid.nt == cfl_required_nt(game, grid) > 1
    instance = builtin_instance("minimax_gap", identity.MANY_PAIRS["instance"]["params"])
    assert (len(instance.u_grid), len(instance.v_grid)) == (21, 21)
