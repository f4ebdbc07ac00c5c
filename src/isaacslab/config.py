"""Experiment configuration: parsing, validation, canonical digests.

Configurations are JSON files with nested sections.  Each experiment
accepts only the keys it reads, listed with their defaults in
``_READS``; any other key or section, ``null`` included, is a hard
error, so typos and knobs that do nothing never pass silently.  The
canonical form holds exactly the keys the experiment reads, every
default filled in (the instance parameters resolved), and is hashed
into a stable digest.  Configurations that differ only in key order,
in output settings or in spelling out a default therefore share a
digest, a run's ``config.json`` echo reproduces it, and identical
digests reproduce the same metrics bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .pde import HAMILTONIANS, SpaceTimeGrid
from .problems import GameInstance, builtin_instance

_REQUIRED = object()  # the default of a key that must be given
_GRID = {"box": _REQUIRED, "nx": _REQUIRED, "nt": None}

# experiment -> section -> every key the experiment reads -> its default.
# A probe_x default is computed from grid.box and the resolved instance
# parameters; grid.nt null (or 0) is sized to the stability bound.
_READS = {experiment: {"instance": {"name": _REQUIRED, "params": {}}, **sections,
                       "output": {"directory": "runs", "formats": ["json"]}}
          for experiment, sections in {
    "solve": {"grid": _GRID, "options": {
        "which": "lower", "probe_x": lambda box, params: [0.5 * (lo + hi) for lo, hi in box]}},
    "penalization": {"grid": _GRID, "schedules": {"m": [1.0, 4.0, 16.0, 64.0, 256.0]}},
    "dpp": {"grid": _GRID, "schedules": {"delta": [0.2, 0.1, 0.05, 0.025]},
            "options": {"which": "lower", "t_fraction": 0.5}},
    "compare_wu": {"grid": _GRID},
    "american_oracle": {"grid": {"box": _REQUIRED, "nt": None},
                        "schedules": {"nx": [71, 141, 281]},
                        "options": {"probe_x": lambda box, params: params["K0"],
                                    "binomial_steps": 2000}},
    "rbsde_oracle": {"mc": {"paths": 1, "steps": 100, "seed": _REQUIRED, "basis_degree": 2}},
}.items()}
EXPERIMENTS = tuple(_READS)


@dataclass(frozen=True)
class McParams:
    paths: int
    steps: int
    seed: int
    basis_degree: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, with its instance built.

    A schedule, ``grid`` or ``mc`` the experiment does not read is None.
    """

    experiment: str
    instance_name: str
    instance_params: dict
    instance: GameInstance = field(repr=False, compare=False)
    grid: Optional[SpaceTimeGrid]
    grid_nt_auto: bool
    mc: Optional[McParams]
    m_schedule: Optional[list]
    delta_fractions: Optional[list]
    nx_schedule: Optional[list]
    options: dict
    output_dir: str
    formats: tuple
    canonical: dict = field(repr=False, default_factory=dict)

    def digest(self):
        # the output location does not affect the computation, so it stays
        # out of the digest
        content = {k: v for k, v in self.canonical.items() if k != "output"}
        blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fail(path, message):
    raise ConfigError(f"config error at '{path}': {message}")


def _check_keys(mapping, allowed, path, experiment):
    if not isinstance(mapping, dict):
        _fail(path, "expected an object")
    for key in mapping:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, f"experiment '{experiment}' does not "
                  f"read this key (it reads: {', '.join(sorted(allowed))})")


def _expect(cond, path, message):
    if not cond:
        _fail(path, message)


def _number(value, path, whole=False):
    """A finite JSON number (a whole one if ``whole``); anything else fails naming ``path``."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    # false for NaN, for infinities and for integers too large for a float
    finite = numeric and abs(value) <= sys.float_info.max
    _expect(finite, path, f"expected a finite number, got {value!r}")
    _expect(not whole or float(value).is_integer(), path,
            f"expected a whole number, got {value!r}")
    return value


def _numbers(values, path, whole=False):
    _expect(isinstance(values, list), path, "expected a list of numbers")
    return [_number(v, f"{path}[{i}]", whole) for i, v in enumerate(values)]


def _number_tree(value, path):
    """A finite number or a (nested) list of them, as instance parameters are."""
    if isinstance(value, list):
        for i, v in enumerate(value):
            _number_tree(v, f"{path}[{i}]")
    else:
        _number(value, path)


def parse_config(raw):
    """Validate a raw configuration dictionary into an ExperimentConfig.

    The one gate for ``run`` and ``validate``: it checks ``experiment``
    first, refuses every key that experiment does not read, requires
    the sections it needs, fills in each default and builds the
    instance.
    """
    experiment = raw.get("experiment")
    _expect(experiment in EXPERIMENTS, "experiment",
            f"must be one of {', '.join(EXPERIMENTS)}")
    reads = _READS[experiment]
    _check_keys(raw, {"experiment", *reads}, "", experiment)
    # section -> key -> the given value or its default
    given = {}
    for section, keys in reads.items():
        part = raw.get(section, {})
        _expect(raw.get(section) is not None or _REQUIRED not in keys.values(), section,
                f"section is required for experiment '{experiment}'")
        _check_keys(part, keys, section, experiment)
        for key, default in keys.items():
            _expect(key in part or default is not _REQUIRED, f"{section}.{key}", "required")
        given[section] = {key: part.get(key, default) for key, default in keys.items()}

    name, params = given["instance"]["name"], given["instance"]["params"]
    _expect(isinstance(name, str) and name, "instance.name", "required string")
    _expect(experiment != "american_oracle" or name == "american_put", "instance.name",
            "american_oracle runs on the 'american_put' instance")
    _expect(isinstance(params, dict), "instance.params", "expected an object")
    for key, value in params.items():
        _number_tree(value, f"instance.params.{key}")
    try:
        instance = builtin_instance(name, params)
    except (TypeError, ValueError) as exc:
        _fail("instance.params", str(exc))
    given["instance"]["params"] = {key: value.tolist() if isinstance(value, np.ndarray)
                                   else value for key, value in instance.params.items()}

    schedules = given.get("schedules", {})
    for key, values in schedules.items():
        schedules[key] = [int(v) if key == "nx" else float(v)
                          for v in _numbers(values, f"schedules.{key}", whole=key == "nx")]
        _expect(schedules[key], f"schedules.{key}", "must not be empty")
    m_schedule = schedules.get("m")
    _expect(not m_schedule or m_schedule[0] >= 0 and all(
        a < b for a, b in zip(m_schedule, m_schedule[1:])),
        "schedules.m", "penalty weights must be >= 0 and strictly increasing")

    grid = None
    grid_nt_auto = True
    if "grid" in given:
        box, nt = given["grid"]["box"], given["grid"]["nt"]
        _expect(isinstance(box, list) and box, "grid.box", "list of [lo, hi] required")
        for i, bounds in enumerate(box):
            bounds = _numbers(bounds, f"grid.box[{i}]")
            _expect(len(bounds) == 2 and bounds[0] < bounds[1], f"grid.box[{i}]",
                    "expected [lo, hi] with lo < hi")
        _expect(len(box) == instance.n, "grid.box", f"{len(box)} dimension(s), but "
                f"instance '{name}' has state dimension {instance.n}")
        if nt is not None:
            _expect(_number(nt, "grid.nt", whole=True) >= 0, "grid.nt", "must be >= 0")
        grid_nt_auto = nt in (None, 0)
        # american_oracle solves on grid.box once per schedules.nx entry
        sizes = [(f"schedules.nx[{i}]", [k]) for i, k in enumerate(schedules.get("nx", []))]
        if "nx" in given["grid"]:
            nx = given["grid"]["nx"]
            _expect(isinstance(nx, list) and nx, "grid.nx", "list of point counts required")
            sizes = [("grid", _numbers(nx, "grid.nx", whole=True))]
        for path, nx in sizes:
            try:
                grid = SpaceTimeGrid(box=tuple(tuple(b) for b in box), nx=tuple(nx),
                                     nt=1 if grid_nt_auto else int(nt))
            except ValueError as exc:
                _fail(path, str(exc))
        read = {"box": [list(b) for b in grid.box], "nx": list(grid.nx),
                "nt": None if grid_nt_auto else grid.nt}
        given["grid"] = {key: read[key] for key in given["grid"]}

    mc = None
    if "mc" in given:
        least = {"paths": 1, "steps": 1, "seed": 0, "basis_degree": 0}
        for key, value in given["mc"].items():
            given["mc"][key] = int(_number(value, f"mc.{key}", whole=True))
            _expect(given["mc"][key] >= least[key], f"mc.{key}", f"must be >= {least[key]}")
        mc = McParams(**given["mc"])
        # a bundle stores steps + 1 states and steps noise increments per path,
        # and numpy refuses an array of more bytes than an index can count
        width = max(instance.n, instance.d)
        _expect(mc.paths * (mc.steps + 1) * width * np.dtype(float).itemsize
                <= np.iinfo(np.intp).max, "mc.paths",
                f"paths * (steps + 1) * {width} float64 entries are more bytes than "
                f"an array can index")

    options = given.get("options", {})
    _expect(options.get("which", "lower") in HAMILTONIANS, "options.which",
            "must be lower or upper")
    if "t_fraction" in options:
        options["t_fraction"] = float(_number(options["t_fraction"], "options.t_fraction"))
        _expect(0 <= options["t_fraction"] < 1, "options.t_fraction", "must lie in [0, 1)")
    if "binomial_steps" in options:
        options["binomial_steps"] = int(_number(options["binomial_steps"],
                                                "options.binomial_steps", whole=True))
        _expect(options["binomial_steps"] >= 1, "options.binomial_steps", "must be >= 1")
    if "probe_x" in options:
        probe = options["probe_x"]
        if probe is None or callable(probe):  # null asks for the default too
            probe = reads["options"]["probe_x"](grid.box, instance.params)
        if isinstance(probe, list) and experiment == "solve":
            probe = [float(c) for c in _numbers(probe, "options.probe_x")]
            _expect(len(probe) == grid.ndim, "options.probe_x",
                    "expected one coordinate per grid dimension")
        else:
            probe = float(_number(probe, "options.probe_x"))
        # the probe is read off the solved field, which np.interp clamps:
        # outside the box that is a face
        coords = np.broadcast_to(probe, (grid.ndim,))
        _expect(all(lo <= c <= hi for c, (lo, hi) in zip(coords, grid.box)),
                "options.probe_x", f"the probe {probe!r} lies outside grid.box "
                f"{[list(b) for b in grid.box]}, where no value is computed")
        options["probe_x"] = probe if experiment != "solve" else coords.tolist()

    output_dir, formats = given["output"]["directory"], given["output"]["formats"]
    _expect(isinstance(output_dir, str) and output_dir, "output.directory",
            "expected a non-empty string")
    _expect(isinstance(formats, list) and all(f in ("csv", "json") for f in formats),
            "output.formats", "expected a list whose entries are csv or json")
    given["output"]["formats"] = list(formats)  # not the table's default list

    return ExperimentConfig(
        experiment=experiment, instance_name=name,
        instance_params=dict(given["instance"]["params"]),
        instance=instance, grid=grid, grid_nt_auto=grid_nt_auto, mc=mc,
        m_schedule=m_schedule, delta_fractions=schedules.get("delta"),
        nx_schedule=schedules.get("nx"), options=options, output_dir=output_dir,
        formats=tuple(formats), canonical={"experiment": experiment, **given},
    )


def read_config(path):
    """The raw JSON object of a configuration file, not yet validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return raw


def load_config(path):
    """Read and validate a JSON configuration file."""
    return parse_config(read_config(path))
