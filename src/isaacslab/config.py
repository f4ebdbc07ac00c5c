"""Experiment configuration: parsing, validation, canonical digests.

Configurations are JSON files with nested sections.  Unknown keys
anywhere are a hard error, so typos never pass silently.  A canonical
form (defaults filled in, keys sorted) is hashed into a stable digest;
identical configurations therefore share a digest and reproduce the
same metrics bit for bit.
"""

from __future__ import annotations

import dataclasses
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

EXPERIMENTS = ("solve", "penalization", "dpp", "compare_wu", "american_oracle",
               "rbsde_oracle")

_DEFAULT_M_SCHEDULE = [1.0, 4.0, 16.0, 64.0, 256.0]
_DEFAULT_DELTA_FRACTIONS = [0.2, 0.1, 0.05, 0.025]
_DEFAULT_NX_SCHEDULE = [71, 141, 281]

_SECTIONS = {
    "experiment": None,
    "instance": {"name", "params"},
    "grid": {"box", "nx", "nt"},
    "mc": {"paths", "steps", "seed", "basis_degree"},
    "schedules": {"m", "delta", "nx"},
    "options": {"which", "t_fraction", "probe_x", "binomial_steps"},
    "output": {"directory", "formats"},
}


@dataclass(frozen=True)
class McParams:
    paths: int
    steps: int
    seed: int
    basis_degree: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, with its instance built."""

    experiment: str
    instance_name: str
    instance_params: dict
    instance: GameInstance = field(repr=False, compare=False)
    grid: Optional[SpaceTimeGrid]
    grid_nt_auto: bool
    mc: Optional[McParams]
    m_schedule: list
    delta_fractions: list
    nx_schedule: list
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


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        _fail(path, "expected an object")
    for key in mapping:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key,
                  f"unknown key (allowed: {', '.join(sorted(allowed))})")


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

    The one gate for ``run`` and ``validate``: it also requires the
    section the experiment needs and builds the instance.
    """
    _check_keys(raw, set(_SECTIONS), "")
    experiment = raw.get("experiment")
    _expect(experiment in EXPERIMENTS, "experiment",
            f"must be one of {', '.join(EXPERIMENTS)}")

    inst = raw.get("instance")
    _expect(isinstance(inst, dict), "instance", "section is required")
    _check_keys(inst, _SECTIONS["instance"], "instance")
    name = inst.get("name")
    _expect(isinstance(name, str) and name, "instance.name", "required string")
    _expect(experiment != "american_oracle" or name == "american_put", "instance.name",
            "american_oracle runs on the 'american_put' instance")
    params = inst.get("params", {})
    _expect(isinstance(params, dict), "instance.params", "expected an object")
    for key, value in params.items():
        _number_tree(value, f"instance.params.{key}")

    needed = "mc" if experiment == "rbsde_oracle" else "grid"
    _expect(raw.get(needed) is not None, needed,
            f"section is required for experiment '{experiment}'")

    grid = None
    grid_nt_auto = True
    grid_raw = raw.get("grid")
    if grid_raw is not None:
        _check_keys(grid_raw, _SECTIONS["grid"], "grid")
        box = grid_raw.get("box")
        nx = grid_raw.get("nx")
        _expect(isinstance(box, list) and box, "grid.box", "list of [lo, hi] required")
        for i, bounds in enumerate(box):
            _expect(len(_numbers(bounds, f"grid.box[{i}]")) == 2, f"grid.box[{i}]",
                    "expected [lo, hi]")
        _expect(isinstance(nx, list) and nx, "grid.nx", "list of point counts required")
        _numbers(nx, "grid.nx", whole=True)
        nt = grid_raw.get("nt")
        if nt is not None:
            _number(nt, "grid.nt", whole=True)
        grid_nt_auto = nt in (None, 0)
        try:
            grid = SpaceTimeGrid(box=tuple(tuple(b) for b in box), nx=tuple(nx),
                                 nt=1 if grid_nt_auto else int(nt))
        except ValueError as exc:
            _fail("grid", str(exc))

    mc = None
    mc_raw = raw.get("mc")
    if mc_raw is not None:
        _check_keys(mc_raw, _SECTIONS["mc"], "mc")
        _expect("seed" in mc_raw, "mc.seed", "seed is required whenever mc is used")
        values = []
        for key, default, least in (("paths", 1, 1), ("steps", 100, 1), ("seed", None, 0),
                                    ("basis_degree", 2, 0)):
            value = int(_number(mc_raw.get(key, default), f"mc.{key}", whole=True))
            _expect(value >= least, f"mc.{key}", f"must be >= {least}")
            values.append(value)
        mc = McParams(*values)

    sched_raw = raw.get("schedules", {})
    _check_keys(sched_raw, _SECTIONS["schedules"], "schedules")
    m_schedule = [float(m) for m in _numbers(sched_raw.get("m", _DEFAULT_M_SCHEDULE),
                                             "schedules.m")]
    delta_fractions = [float(d) for d in _numbers(
        sched_raw.get("delta", _DEFAULT_DELTA_FRACTIONS), "schedules.delta")]
    nx_schedule = [int(k) for k in _numbers(sched_raw.get("nx", _DEFAULT_NX_SCHEDULE),
                                            "schedules.nx", whole=True)]
    for key, values in (("m", m_schedule), ("delta", delta_fractions),
                        ("nx", nx_schedule)):
        _expect(values, f"schedules.{key}", "must not be empty")
    _expect(m_schedule[0] >= 0 and all(a < b for a, b in zip(m_schedule, m_schedule[1:])),
            "schedules.m", "penalty weights must be >= 0 and strictly increasing")

    options = raw.get("options", {})
    _check_keys(options, _SECTIONS["options"], "options")
    options = dict(options)
    which = options.get("which", "lower")
    _expect(which in HAMILTONIANS, "options.which", "must be lower or upper")
    probe = options.get("probe_x")
    if isinstance(probe, list) and experiment != "american_oracle":
        coords = _numbers(probe, "options.probe_x")
        _expect(grid is None or len(coords) == grid.ndim, "options.probe_x",
                "expected one coordinate per grid dimension")
    elif probe is not None:
        _number(probe, "options.probe_x")
    if "t_fraction" in options:
        _expect(0 <= _number(options["t_fraction"], "options.t_fraction") < 1,
                "options.t_fraction", "must lie in [0, 1)")
    if "binomial_steps" in options:
        _expect(_number(options["binomial_steps"], "options.binomial_steps", whole=True)
                >= 1, "options.binomial_steps", "must be >= 1")

    out_raw = raw.get("output", {})
    _check_keys(out_raw, _SECTIONS["output"], "output")
    output_dir = out_raw.get("directory", "runs")
    _expect(isinstance(output_dir, str) and output_dir, "output.directory",
            "expected a non-empty string")
    formats = out_raw.get("formats", ["json"])
    _expect(isinstance(formats, list) and all(f in ("csv", "json") for f in formats),
            "output.formats", "expected a list whose entries are csv or json")
    formats = tuple(formats)

    try:
        instance = builtin_instance(name, params)
    except (TypeError, ValueError) as exc:
        _fail("instance.params", str(exc))
    if mc is not None:
        # a bundle stores steps + 1 states and steps noise increments per path,
        # and numpy refuses an array of more bytes than an index can count
        width = max(instance.n, instance.d)
        _expect(mc.paths * (mc.steps + 1) * width * np.dtype(float).itemsize
                <= np.iinfo(np.intp).max, "mc.paths",
                f"paths * (steps + 1) * {width} float64 entries are more bytes than "
                f"an array can index")
    if grid is not None:
        _expect(grid.ndim == instance.n, "grid.box", f"{grid.ndim} dimension(s), but "
                f"instance '{name}' has state dimension {instance.n}")
    if experiment in ("solve", "american_oracle"):
        # the probe is read off the solved field, which np.interp clamps and a
        # 2-D lookup snaps to its nearest node: outside the box that is a face
        point = probe
        if point is None and experiment == "american_oracle":
            point = instance.params["K0"]
        if point is not None:
            coords = np.broadcast_to(np.asarray(point, dtype=float), (grid.ndim,))
            _expect(all(lo <= c <= hi for c, (lo, hi) in zip(coords, grid.box)),
                    "options.probe_x", f"the probe {point!r} lies outside grid.box "
                    f"{[list(b) for b in grid.box]}, where no value is computed")
    if experiment == "american_oracle":
        for i, k in enumerate(nx_schedule):
            try:
                dataclasses.replace(grid, nx=(k,))
            except ValueError as exc:
                _fail(f"schedules.nx[{i}]", str(exc))

    canonical = {
        "experiment": experiment,
        "instance": {"name": name, "params": dict(sorted(params.items()))},
        "grid": None if grid is None else {
            "box": [list(b) for b in grid.box],
            "nx": list(grid.nx),
            "nt": None if grid_nt_auto else grid.nt,
        },
        "mc": None if mc is None else {
            "paths": mc.paths, "steps": mc.steps, "seed": mc.seed,
            "basis_degree": mc.basis_degree,
        },
        "schedules": {"m": m_schedule, "delta": delta_fractions, "nx": nx_schedule},
        "options": dict(sorted({**{"which": which}, **options}.items())),
        "output": {"directory": output_dir, "formats": list(formats)},
    }
    return ExperimentConfig(
        experiment=experiment, instance_name=name, instance_params=dict(params),
        instance=instance,
        grid=grid, grid_nt_auto=grid_nt_auto, mc=mc, m_schedule=m_schedule,
        delta_fractions=delta_fractions, nx_schedule=nx_schedule,
        options={**{"which": which}, **options}, output_dir=output_dir,
        formats=formats, canonical=canonical,
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
