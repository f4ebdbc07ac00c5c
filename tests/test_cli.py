"""Config parsing, experiment dispatch, output files, exit codes."""

import dataclasses
import errno
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import isaacslab
from isaacslab import cli, pde, problems
from isaacslab.analysis import lower_value, upper_value
from isaacslab.cli import ResultRecord, _dump_field, emit_convergence_table, main, run
from isaacslab.config import load_config, parse_config
from isaacslab.errors import ConfigError, PreconditionError
from isaacslab.oracles import degenerate_rbsde_value
from isaacslab.pde import SpaceTimeGrid, ValueField

from conftest import mixed_dominance_game


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def rbsde_oracle_config(tmp_path, outdir="run"):
    return write_config(tmp_path, "rbsde.json", {
        "experiment": "rbsde_oracle",
        "instance": {"name": "lemma45"},
        "mc": {"paths": 1, "steps": 1000, "seed": 7},
        "output": {"directory": str(tmp_path / outdir)},
    })


def test_unknown_config_key_is_named():
    with pytest.raises(ConfigError) as err:
        parse_config({"experiment": "solve", "instance": {"name": "lemma45"},
                      "grd": {}})
    assert "grd" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config({"experiment": "solve",
                      "instance": {"name": "lemma45", "bogus": 1}})
    assert "instance.bogus" in str(err.value)


def test_mc_section_requires_seed():
    with pytest.raises(ConfigError) as err:
        parse_config({"experiment": "rbsde_oracle",
                      "instance": {"name": "lemma45"},
                      "mc": {"paths": 1, "steps": 10}})
    assert "seed" in str(err.value)


def test_config_digest_stable_under_key_order(tmp_path):
    a = parse_config({"experiment": "rbsde_oracle",
                      "instance": {"name": "lemma45"},
                      "mc": {"seed": 1, "steps": 10, "paths": 1}})
    b = parse_config({"mc": {"paths": 1, "steps": 10, "seed": 1},
                      "instance": {"name": "lemma45"},
                      "experiment": "rbsde_oracle"})
    assert a.digest() == b.digest()


def test_config_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "solve",\n  bad}', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 2" in str(err.value)


def test_run_rbsde_oracle_reproduces_closed_form(tmp_path, capsys):
    code = main(["run", rbsde_oracle_config(tmp_path)])
    assert code == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())["metrics"]
    assert abs(metrics["y0"] - degenerate_rbsde_value(1.0, 1.0, 1.0)) <= 1e-3
    assert metrics["abs_error"] <= 1e-3


def test_rerun_is_bit_for_bit_identical(tmp_path):
    cfg = rbsde_oracle_config(tmp_path, outdir="run1")
    assert main(["run", cfg]) == 0
    assert main(["run", cfg, "--output", str(tmp_path / "run2")]) == 0
    m1 = (tmp_path / "run1" / "metrics.json").read_bytes()
    m2 = (tmp_path / "run2" / "metrics.json").read_bytes()
    assert m1 == m2


def test_unknown_instance_exits_2_and_lists_names(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "experiment": "solve",
        "instance": {"name": "mystery"},
        "grid": {"box": [[-1, 1]], "nx": [11]},
    })
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    for name in ("american_put", "lemma45", "minimax_gap"):
        assert name in err


def test_cfl_refusal_exits_3_reporting_minimal_nt(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfl.json", {
        "experiment": "solve",
        "instance": {"name": "american_put"},
        "grid": {"box": [[20, 300]], "nx": [281], "nt": 10},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfg]) == 3
    assert "3601" in capsys.readouterr().err


def test_run_compare_wu_minimax(tmp_path):
    cfg = write_config(tmp_path, "cw.json", {
        "experiment": "compare_wu",
        "instance": {"name": "minimax_gap"},
        "grid": {"box": [[-2, 2]], "nx": [41]},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfg]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())["metrics"]
    assert metrics["max_violation"] <= 1e-12
    assert metrics["max_gap"] > 0.0


def test_run_penalization_deterministic_stop(tmp_path):
    cfg = write_config(tmp_path, "pen.json", {
        "experiment": "penalization",
        "instance": {"name": "deterministic_stop"},
        "grid": {"box": [[-1, 1]], "nx": [21], "nt": 1000},
        "schedules": {"m": [1, 4, 16, 64, 256]},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfg]) == 0
    out = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert out["metrics"]["monotone_ok"] is True
    gaps = out["schedule"]["metric_values"]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert out["metrics"]["final_gap"] <= 0.02
    assert (tmp_path / "out" / "table.txt").exists()
    assert (tmp_path / "out" / "table.csv").exists()


def test_run_dpp_residuals(tmp_path):
    cfg = write_config(tmp_path, "dpp.json", {
        "experiment": "dpp",
        "instance": {"name": "no_obstacle_linear"},
        "grid": {"box": [[-1, 1]], "nx": [21]},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfg]) == 0
    out = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert out["metrics"]["max_residual"] <= 1e-12


def test_run_american_oracle_errors_decrease(tmp_path):
    cfg = write_config(tmp_path, "ao.json", {
        "experiment": "american_oracle",
        "instance": {"name": "american_put"},
        "grid": {"box": [[20, 300]], "nx": [71]},
        "schedules": {"nx": [71, 141]},
        "options": {"binomial_steps": 2000},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfg]) == 0
    out = json.loads((tmp_path / "out" / "metrics.json").read_text())
    errors = out["schedule"]["metric_values"]
    assert errors[1] < errors[0]
    assert out["metrics"]["rel_error_final"] <= 0.01


def test_run_solve_writes_field_dump_with_exact_columns(tmp_path):
    cfg = write_config(tmp_path, "solve.json", {
        "experiment": "solve",
        "instance": {"name": "no_obstacle_linear"},
        "grid": {"box": [[-1, 1]], "nx": [11]},
        "output": {"directory": str(tmp_path / "out"), "formats": ["csv", "json"]},
    })
    assert main(["run", cfg]) == 0
    dump = (tmp_path / "out" / "field.csv").read_text().splitlines()
    assert dump[0] == "t_index,flat_node_index,x_0,value"
    first = dump[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == -1.0
    grid_nodes = 11
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())["metrics"]
    assert len(dump) - 1 == (metrics["nt"] + 1) * grid_nodes


def test_run_compare_wu_dumps_the_lower_and_the_upper_field(tmp_path):
    config = parse_config({
        "experiment": "compare_wu",
        "instance": {"name": "minimax_gap"},
        "grid": {"box": [[-2, 2]], "nx": [21]},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json", "csv"]},
    })
    run(config)
    names = ["field_lower.csv", "field_upper.csv"]
    assert json.loads((tmp_path / "out" / "run_info.json").read_text())["files"] == names
    grid = cli._presolve(config)[0][0]
    for name, solve in zip(names, (lower_value, upper_value)):
        _dump_field(solve(config.instance, grid), tmp_path, name)
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()


def force_dump_workers(monkeypatch, cpus):
    """Give field dumps ``cpus`` usable CPUs and no minimum run size.

    Returns the list of forks the dumps make.  Each fork first warns as
    Python 3.12+ does when other threads run, which the dump must absorb.
    """
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                      "fork() may lead to deadlocks in the child.", DeprecationWarning)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_WORKER_MIN_VALUES", 1)
    return forks


def dumps_at_each_worker_count(monkeypatch, field, directory):
    """The bytes of ``field``'s dump made with 1, 2 and 3 usable CPUs."""
    dumps = []
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            forks = force_dump_workers(patch, cpus)
            _dump_field(field, directory, "field.csv")
        assert len(forks) == min(cpus, len(field.times)) - 1
        dumps.append((directory / "field.csv").read_bytes())
    return dumps


@pytest.mark.parametrize("box, nx, nt", [
    pytest.param(((-1.0, 2.5),), (7,), 3, id="box0-nx0"),
    pytest.param(((-1.0, 1.0), (0.1, 3.0)), (4, 5), 3, id="box1-nx1"),
    pytest.param(((-1.0, 2.5),), (7,), 1, id="two-slices")])
def test_field_dump_matches_savetxt_byte_for_byte(tmp_path, monkeypatch, box, nx, nt):
    # reference: the np.savetxt layout the dump has always had
    grid = SpaceTimeGrid(box=box, nx=nx, nt=nt)
    rng = np.random.default_rng(5)
    slices = rng.normal(scale=1e3, size=(grid.nt + 1,) + grid.shape)
    slices.flat[:4] = [0.0, -0.0, 1.0, 1e-300]
    field = ValueField(grid=grid, times=np.linspace(0.0, 1.0, grid.nt + 1),
                       slices=slices, kind="lower")
    n = grid.ndim
    t_index, node = np.meshgrid(np.arange(grid.nt + 1), np.arange(slices[0].size),
                                indexing="ij")
    data = np.column_stack([t_index.ravel(), node.ravel(), grid.nodes()[node.ravel()],
                            slices.ravel()])
    header = ",".join(["t_index", "flat_node_index"]
                      + [f"x_{i}" for i in range(n)] + ["value"])
    np.savetxt(tmp_path / "reference.csv", data, fmt=["%d", "%d"] + ["%.17g"] * (n + 1),
               delimiter=",", header=header, comments="")
    reference = (tmp_path / "reference.csv").read_bytes()
    assert dumps_at_each_worker_count(monkeypatch, field, tmp_path) == [reference] * 3


@pytest.mark.parametrize("box, nx, nt", [
    pytest.param(((-1.0, 2.5),), (5,), 11, id="box0-nx0"),
    pytest.param(((-1.0, 1.0), (0.1, 3.0)), (4, 5), 11, id="box1-nx1"),
    pytest.param(((-1.0, 2.5),), (5,), 1, id="two-slices")])
def test_field_dump_templates_match_per_row_formatting(tmp_path, monkeypatch, box, nx, nt):
    # one %-template per node gives the bytes of formatting every row on its own
    grid = SpaceTimeGrid(box=box, nx=nx, nt=nt)
    rng = np.random.default_rng(9)
    slices = rng.normal(scale=1e3, size=(grid.nt + 1,) + grid.shape)
    special = [-0.0, 5e-324, 1e300, -1e300, 3.0, -42.0, 1e16, 0.0]
    slices.flat[:len(special)] = special
    slices.flat[-len(special):] = special
    field = ValueField(grid=grid, times=np.linspace(0.0, 1.0, grid.nt + 1),
                       slices=slices, kind="lower")
    lines = [",".join(["t_index", "flat_node_index"]
                      + [f"x_{i}" for i in range(grid.ndim)] + ["value"]) + "\n"]
    nodes = grid.nodes().tolist()
    for k, values in enumerate(slices.reshape(grid.nt + 1, -1).tolist()):
        for j, (coords, v) in enumerate(zip(nodes, values)):
            lines.append(f"{k},{j}," + "".join(f"{c:.17g}," for c in coords) + f"{v:.17g}\n")
    reference = "".join(lines).encode("utf-8")
    assert dumps_at_each_worker_count(monkeypatch, field, tmp_path) == [reference] * 3


def test_field_dump_runs_are_sized_from_the_cpu_count(tmp_path, monkeypatch):
    # the minimum run size caps the workers; a small dump forks none
    forks = force_dump_workers(monkeypatch, 4)
    monkeypatch.setattr(cli, "_WORKER_MIN_VALUES", 10)
    grid = SpaceTimeGrid(box=((-1.0, 1.0),), nx=(5,), nt=9)
    field = ValueField(grid=grid, times=np.linspace(0.0, 1.0, 10),
                       slices=np.zeros((10, 5)), kind="lower")
    _dump_field(field, tmp_path, "field.csv")
    assert len(forks) == 3  # min(4 CPUs, 10 slices, 50 // 10 values) = 4 runs
    forks.clear()
    monkeypatch.setattr(cli, "_WORKER_MIN_VALUES", 26)
    _dump_field(field, tmp_path, "field.csv")
    assert forks == []


@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_failed_dump_exits_4_leaving_no_file_and_no_process(tmp_path, monkeypatch, capsys,
                                                            failing):
    force_dump_workers(monkeypatch, 3)
    real_write = cli._write_slices

    def write_slices(out, rows, templates, start, stop):
        if failing == "worker" and start > 0:
            raise ValueError("formatting failed")
        if failing == "parent" and start == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        if failing == "parent":
            time.sleep(30)  # a worker the failing parent must kill
        real_write(out, rows, templates, start, stop)

    monkeypatch.setattr(cli, "_write_slices", write_slices)
    cfg = write_config(tmp_path, "solve.json", {
        "experiment": "solve",
        "instance": {"name": "no_obstacle_linear"},
        "grid": {"box": [[-1, 1]], "nx": [11]},
        "output": {"directory": str(tmp_path / "out"), "formats": ["csv", "json"]},
    })
    start = time.perf_counter()
    assert main(["run", cfg]) == 4
    assert time.perf_counter() - start < 20
    err = capsys.readouterr().err
    assert "field.csv" in err if failing == "worker" else "No space left" in err
    assert not (tmp_path / "out" / "field.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_run_with_field_dumps_prints_each_line_once(tmp_path):
    # stdout is a pipe, so a line printed before the dump still sits in its
    # buffer when the dump forks; a worker must neither flush it nor return
    src = str(Path(isaacslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    config = Path(__file__).resolve().parent.parent / "configs" / "solve_put.json"
    code = ("import os\n"
            "import sys\n"
            "from isaacslab.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any machine\n"
            "print('before the run')\n"
            f"sys.exit(main(['run', {str(config)!r}, '--output', {str(tmp_path)!r}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    lines = out.stdout.splitlines()
    assert lines[:2] == ["before the run", "experiment: solve"]
    assert len(lines) == len(set(lines))
    assert out.stderr == ""
    assert (tmp_path / "field.csv").stat().st_size > 0


def test_seed_override_changes_digest(tmp_path):
    cfg = rbsde_oracle_config(tmp_path, outdir="runA")
    assert main(["run", cfg]) == 0
    assert main(["run", cfg, "--seed", "99",
                 "--output", str(tmp_path / "runB")]) == 0
    d1 = json.loads((tmp_path / "runA" / "metrics.json").read_text())["config_digest"]
    d2 = json.loads((tmp_path / "runB" / "metrics.json").read_text())["config_digest"]
    assert d1 != d2


def test_list_instances(capsys):
    assert main(["list-instances"]) == 0
    out = capsys.readouterr().out
    assert "american_put" in out and "deterministic_stop" in out


def test_cli_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency, also of assumption probing
    src = str(Path(isaacslab.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, isaacslab.cli\n"
            "from isaacslab.problems import builtin_instance, validate_instance\n"
            "assert validate_instance(builtin_instance('minimax_gap')).passed\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_validate_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "val.json", {
        "experiment": "solve",
        "instance": {"name": "american_put"},
        "grid": {"box": [[20, 300]], "nx": [41]},
    })
    assert main(["validate", cfg]) == 0
    assert "assumptions hold" in capsys.readouterr().out


def test_validate_unknown_instance_param_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "val.json", {
        "experiment": "solve",
        "instance": {"name": "american_put", "params": {"nope": 1}},
        "grid": {"box": [[20, 300]], "nx": [41]},
    })
    assert main(["validate", cfg]) == 2
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["m", "delta", "nx"])
def test_empty_schedule_exits_2_naming_the_key(tmp_path, capsys, key):
    cfg = write_config(tmp_path, "empty.json", {
        "experiment": "penalization",
        "instance": {"name": "deterministic_stop"},
        "grid": {"box": [[-1, 1]], "nx": [11], "nt": 100},
        "schedules": {key: []},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfg]) == 2
    assert f"schedules.{key}" in capsys.readouterr().err


_SOLVE = {"experiment": "solve", "instance": {"name": "american_put"},
          "grid": {"box": [[20, 300]], "nx": [29]}}
_MINIMAX = {"experiment": "solve", "instance": {"name": "minimax_gap"},
            "grid": {"box": [[-2, 2]], "nx": [21]}}
_RBSDE = {"experiment": "rbsde_oracle", "instance": {"name": "lemma45"},
          "mc": {"paths": 1, "steps": 10, "seed": 7}}
_ORACLE = {"experiment": "american_oracle", "instance": {"name": "american_put"},
           "grid": {"box": [[20, 300]], "nx": [29]}, "schedules": {"nx": [29]},
           "options": {"binomial_steps": 50}}
NAN, INF = float("nan"), float("inf")


def _with(base, section, key, value):
    """``base`` with ``section.key`` set to ``value``; ``key=None`` replaces the section."""
    raw = json.loads(json.dumps(base))
    raw[section] = value if key is None else {**raw.get(section, {}), key: value}
    return raw


@pytest.mark.parametrize("base, section, key, value, flags", [
    pytest.param(_SOLVE, "schedules", "m", ["x"], [], id="schedules-m-value0"),
    pytest.param(_SOLVE, "schedules", "m", [1, NAN], [], id="schedules-m-value1"),
    pytest.param(_SOLVE, "schedules", "delta", [0.1, INF], [], id="schedules-delta-value2"),
    pytest.param(_SOLVE, "schedules", "nx", [71.5], [], id="schedules-nx-value3"),
    pytest.param(_SOLVE, "options", "probe_x", "abc", [], id="options-probe_x-abc"),
    pytest.param(_SOLVE, "options", "probe_x", [100.0, None], [], id="options-probe_x-value5"),
    pytest.param(_SOLVE, "instance", "params", {"sigma0": NAN}, [], id="params-sigma0-nan"),
    pytest.param(_MINIMAX, "instance", "params", {"u_points": "abc"}, [],
                 id="params-u_points-abc"),
    pytest.param(_RBSDE, "mc", "seed", -1, [], id="mc-seed-negative"),
    pytest.param(_RBSDE, "output", "directory", 5, [], id="output-directory-number"),
    pytest.param(_ORACLE, "options", "binomial_steps", -3, [], id="binomial_steps-negative"),
    pytest.param(_ORACLE, "schedules", "nx", [2], [], id="schedules-nx-two-points"),
    pytest.param(_RBSDE, "mc", None, [1], ["--seed", "3"], id="seed-flag-on-mc-list"),
    pytest.param(_RBSDE, "output", None, "x", ["--output", "elsewhere"],
                 id="output-flag-on-output-string"),
    pytest.param(_SOLVE, "grid", "box", [[20, NAN]], [], id="grid-box-nan"),
    pytest.param(_SOLVE, "grid", "box", [[20, INF]], [], id="grid-box-inf"),
    pytest.param(_SOLVE, "grid", "nt", 1.5, [], id="grid-nt-fraction"),
    pytest.param(_SOLVE, "grid", "nt", True, [], id="grid-nt-true"),
    pytest.param(_SOLVE, "grid", "nx", [29.7], [], id="grid-nx-fraction"),
    pytest.param(_RBSDE, "mc", "paths", 1.7, [], id="mc-paths-fraction"),
    pytest.param(_RBSDE, "mc", "seed", 1.5, [], id="mc-seed-fraction"),
    pytest.param(_SOLVE, "grid", None, {"box": [[20, 300], [0, 1]], "nx": [29, 5]}, [],
                 id="grid-2d-on-1d-instance"),
    pytest.param(_SOLVE, "options", "probe_x", [100, 200], [], id="probe_x-two-coords-on-1d"),
    pytest.param(_SOLVE, "options", "t_fraction", -1, [], id="t_fraction-negative"),
    pytest.param(_SOLVE, "schedules", "m", [4, 1], [], id="schedules-m-decreasing"),
    pytest.param(_SOLVE, "output", "formats", 5, [], id="output-formats-number"),
])
def test_malformed_number_exits_2_naming_the_key(tmp_path, capsys, base, section, key,
                                                  value, flags):
    raw = _with(base, "output", "directory", str(tmp_path / "out"))
    cfg = write_config(tmp_path, "bad.json", _with(raw, section, key, value))
    assert main(["run", cfg] + flags) == 2
    named = section if key is None else f"{section}.{key}"
    assert f"'{named}" in capsys.readouterr().err


@pytest.mark.parametrize("raw, code", [
    pytest.param({k: v for k, v in _SOLVE.items() if k != "grid"}, 2, id="solve-without-grid"),
    pytest.param({k: v for k, v in _RBSDE.items() if k != "mc"}, 2, id="rbsde-without-mc"),
    pytest.param(_with(_ORACLE, "instance", "name", "lemma45"), 2, id="oracle-on-lemma45"),
    # an explicit nt below the stability bound (3601 steps at nx = 281)
    pytest.param(_with(_SOLVE, "grid", None, {"box": [[20, 300]], "nx": [281], "nt": 10}),
                 3, id="solve-nt-below-stability-bound"),
    # grid.nx passes at nt = 40 (37 needed); the schedule's nx = 281 does not
    pytest.param(_with(_with(_ORACLE, "grid", "nt", 40), "schedules", "nx", [29, 281]),
                 3, id="oracle-schedule-nt-below-stability-bound"),
    # sizing an automatic nt needs a positive finite stability bound
    pytest.param(_with(_SOLVE, "instance", "params", {"sigma0": 1e300}), 3,
                 marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
                 id="solve-overflowing-diffusion"),
    pytest.param(_with(_MINIMAX, "grid", "box", [[-2, 1e300]]), 3,
                 id="solve-overflowing-spacing"),
    pytest.param(_with(_SOLVE, "grid", "nx", [1e300]), 2, id="solve-unindexable-grid"),
    # 2e18 nodes of one coordinate each: indexable, but 1.6e19 bytes
    pytest.param(_with(_SOLVE, "grid", "nx", [2e18]), 2, id="solve-unindexable-grid-bytes"),
    # 1e17 nodes: indexable, but 711 PiB, which numpy refuses without touching memory
    pytest.param(_with(_SOLVE, "grid", "nx", [1e17]), 2, id="solve-unallocatable-grid"),
    # linear extrapolation needs two interior nodes next to each face
    pytest.param(_with(_MINIMAX, "grid", "nx", [3]), 2, id="solve-extrapolation-on-three-nodes"),
    pytest.param(_with(_ORACLE, "schedules", "nx", [29, 1e300]), 2,
                 id="oracle-unindexable-schedule-grid"),
    pytest.param(_with(_RBSDE, "mc", "paths", 1e300), 2, id="rbsde-unindexable-paths"),
    # 2e18 paths of one step: 4e18 entries, but 3.2e19 bytes
    pytest.param(_with(_RBSDE, "mc", None, {"paths": 2e18, "steps": 1, "seed": 7}), 2,
                 id="rbsde-unindexable-path-bytes"),
    # one step (automatic nt on deterministic_stop), and t_index = 1 leaves no delta after it
    pytest.param({"experiment": "dpp", "instance": {"name": "deterministic_stop"},
                  "grid": {"box": [[-1, 1]], "nx": [11]}, "options": {"t_fraction": 0.999}},
                 3, id="dpp-no-delta-inside-the-horizon"),
    # the binomial reference refuses a flat tree
    pytest.param(_with(_ORACLE, "instance", "params", {"sigma0": 0}), 3,
                 id="oracle-degenerate-binomial-tree"),
])
def test_validate_and_run_reject_alike(tmp_path, capsys, raw, code):
    cfg = write_config(tmp_path, "cfg.json",
                       _with(raw, "output", "directory", str(tmp_path / "out")))
    assert main(["validate", cfg]) == code
    rejected = capsys.readouterr().err
    assert main(["run", cfg]) == code
    assert capsys.readouterr().err == rejected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["u_points", "v_points"])
def test_empty_control_grid_exits_2_naming_the_grid(tmp_path, capsys, key):
    # minimax_gap's coefficients reduce |u_points| and |v_points|: an empty grid
    # used to exit 2 with numpy's "zero-size array to reduction operation"
    raw = _with(_MINIMAX, "instance", "params", {key: []})
    cfg = write_config(tmp_path, "empty.json",
                       _with(raw, "output", "directory", str(tmp_path / "out")))
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert "control grid must be nonempty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["u_points", "v_points"])
@pytest.mark.parametrize("points", [[-1.0, 1.0], [[-1.0, 1.0]], [[-1.0], [1.0, 2.0]], 1.0])
def test_control_points_other_than_one_number_lists_exit_2_naming_the_key(tmp_path, capsys,
                                                                           key, points):
    # a flat [-1.0, 1.0] used to pass validate and solve with one control, u = -1
    raw = _with(_MINIMAX, "instance", "params", {key: points})
    cfg = write_config(tmp_path, "flat.json",
                       _with(raw, "output", "directory", str(tmp_path / "out")))
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert f"{key} must be a list of one-number lists" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_builtin_reading_the_first_rows_control_exits_2(tmp_path, capsys, monkeypatch):
    # minimax_gap's cost rate as written for one control point per call
    build, defaults = problems._BUILDERS["minimax_gap"]

    def first_row(p):
        return dataclasses.replace(
            build(p), f=lambda t, x, y, z, u, v: np.full(x.shape[0], u[0] * v[0]))

    monkeypatch.setitem(problems._BUILDERS, "minimax_gap", (first_row, defaults))
    cfg = write_config(tmp_path, "old.json",
                       _with(_MINIMAX, "output", "directory", str(tmp_path / "out")))
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert "the cost rate reads another row's control" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_wu_makes_one_drift_call_per_table_build(tmp_path, monkeypatch):
    calls = {"eval_drift": 0, "eval_cost_rate": 0}
    for name in calls:
        evaluate = getattr(pde, name)

        def counted(*args, name=name, evaluate=evaluate):
            calls[name] += 1
            return evaluate(*args)

        monkeypatch.setattr(pde, name, counted)
    cfg = write_config(tmp_path, "cw.json", {
        "experiment": "compare_wu",
        "instance": {"name": "minimax_gap"},
        "grid": {"box": [[-2, 2]], "nx": [41]},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", cfg]) == 0
    nt = json.loads((tmp_path / "out" / "metrics.json").read_text())["metrics"]["nt"]
    # the stability rule sizes the grid and checks it in each of the two
    # solves, and each solve tabulates the dynamics once; every step of
    # both solves makes one cost-rate call over the four control pairs
    assert calls == {"eval_drift": 5, "eval_cost_rate": 2 * nt}


def test_validate_and_run_refuse_a_mixed_dominance_grid_alike(tmp_path, capsys, monkeypatch):
    # no builtin is two-dimensional, so the parser is handed a correlated 2-D
    # game; on cells five times wider than high no time step is monotone
    monkeypatch.setattr("isaacslab.config.builtin_instance",
                        lambda name, params: mixed_dominance_game())
    raw = _with(_MINIMAX, "grid", None, {"box": [[-1, 1], [-1, 1]], "nx": [9, 41]})
    cfg = write_config(tmp_path, "skewed.json",
                       _with(raw, "output", "directory", str(tmp_path / "out")))
    assert main(["validate", cfg]) == 3
    rejected = capsys.readouterr().err
    assert "not monotone on axis 0" in rejected
    assert main(["run", cfg]) == 3
    assert capsys.readouterr().err == rejected
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, code", [
    pytest.param(_with(_ORACLE, "options", "probe_x", None), 0, id="oracle-probe_x-null"),
    # the binomial tree must refuse a zero volatility without dividing by zero
    pytest.param(_with(_ORACLE, "instance", "params", {"sigma0": 0}), 3,
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
                 id="oracle-degenerate-tree"),
    pytest.param(_with(_RBSDE, "instance", "params", {"C": 0}), 0, id="lemma45-zero-c"),
    pytest.param(_with(_MINIMAX, "grid", None, {"box": [[-2, 2]], "nx": [3],
                                                "boundary": "dirichlet_terminal_extension"}),
                 0, id="frozen-boundary-on-three-nodes"),
    # validate passes 1e17 paths; run cannot allocate their 711 PiB of states
    pytest.param(_with(_RBSDE, "mc", None, {"paths": 1e17, "steps": 1, "seed": 7}), 2,
                 id="rbsde-unallocatable-paths"),
])
def test_edge_parameters_end_in_documented_code(tmp_path, raw, code):
    cfg = write_config(tmp_path, "edge.json",
                       _with(raw, "output", "directory", str(tmp_path / "out")))
    assert main(["run", cfg]) == code
    if code != 0:  # a run that fails writes nothing, not even its directory
        assert not (tmp_path / "out").exists()


def test_emit_convergence_table_ratios():
    record = ResultRecord(
        experiment="penalization", timestamp="", config_digest="x",
        metrics={}, files=(),
        schedule={"parameter": "m", "values": [1.0, 4.0, 16.0],
                  "metric": "sup_gap", "metric_values": [0.1, 0.03, 0.01]})
    table = emit_convergence_table(record)
    lines = table.splitlines()
    assert lines[0].split() == ["m", "sup_gap", "ratio"]
    assert lines[1].split()[-1] == "-"
    assert lines[2].split()[-1] == "0.3"
    assert lines[3].split()[-1] == "0.33"


def test_emit_convergence_table_errors():
    bare = ResultRecord(experiment="solve", timestamp="", config_digest="x",
                        metrics={}, schedule=None, files=())
    with pytest.raises(PreconditionError):
        emit_convergence_table(bare)
    single = ResultRecord(experiment="dpp", timestamp="", config_digest="x",
                          metrics={}, files=(),
                          schedule={"parameter": "delta", "values": [0.1],
                                    "metric": "r", "metric_values": [0.0]})
    with pytest.raises(PreconditionError) as err:
        emit_convergence_table(single)
    assert ">= 2 schedule points" in str(err.value)


def test_io_failure_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cfg = write_config(tmp_path, "io.json", {
        "experiment": "rbsde_oracle",
        "instance": {"name": "lemma45"},
        "mc": {"paths": 1, "steps": 10, "seed": 1},
        "output": {"directory": str(blocker / "run")},
    })
    assert main(["run", cfg]) == 4
