"""In-memory span recorder and the wrappers that feed it.

Every isaacslab module imports its collaborators by name, so a wrapper
only sees the calls made through the name it replaces.  ``install``
therefore replaces each layer's public functions at the name where the
consuming module bound it, and ``check_bindings`` fails loudly when an
isaacslab module still holds an unwrapped original.

A span is ``[name, start, end, parent, size]``.  Its layer is the part
of the name before the first dot; ``size`` is a count the span carries
(rows evaluated by a coefficient call, time steps of a grid solve).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "analysis", "pde", "problems", "sde", "rbsde")

COEFFICIENT_SPANS = {
    "eval_drift": "problems.drift",
    "eval_diffusion": "problems.diffusion",
    "eval_cost_rate": "problems.cost_rate",
    "eval_obstacle": "problems.obstacle",
    "eval_terminal": "problems.terminal",
}

_COEFFICIENT_NAMES = frozenset(COEFFICIENT_SPANS.values())


class Overlay:
    """Attribute view of a module with some names replaced."""

    def __init__(self, base, **names):
        self.__dict__.update(names)
        self._base = base

    def __getattr__(self, attr):
        return getattr(self._base, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, size=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if size is not None:
            span[4] = size(result)
        return result

    def replace(self, owner, attr, value):
        original = getattr(owner, attr)  # AttributeError once a binding is gone
        setattr(owner, attr, value)
        self._saved.append((owner, attr, original))
        return original

    def wrap(self, owner, attr, name, size=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, size=size, **kwargs)

        self.replace(owner, attr, traced)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def _steps(field):
    return len(field.times) - 1


def install(tracer):
    """Wrap every layer boundary that the workloads cross."""
    import numpy as np
    from isaacslab import analysis, cli, pde, problems, rbsde, sde

    for module, names in (
        (pde, ("eval_drift", "eval_diffusion", "eval_cost_rate", "eval_obstacle",
               "eval_terminal")),
        (sde, ("eval_drift", "eval_diffusion")),
        (rbsde, ("eval_cost_rate", "eval_obstacle", "eval_terminal")),
        (analysis, ("eval_obstacle",)),
        (cli, ("eval_terminal",)),
    ):
        for attr in names:
            tracer.wrap(module, attr, COEFFICIENT_SPANS[attr], size=len)
    # shape normalisation and finiteness check behind every coefficient call
    tracer.wrap(problems, "_as_batch", "problems.as_batch")
    for module, attr in ((analysis, "solve_obstacle_pde"), (analysis, "solve_penalized_pde"),
                         (cli, "solve_obstacle_pde")):
        tracer.wrap(module, attr, "pde.solve", size=_steps)
    tracer.wrap(cli, "cfl_required_nt", "pde.cfl")
    tracer.wrap(pde, "_check_cfl", "pde.cfl")
    for attr in ("penalization_convergence", "lower_value", "upper_value",
                 "value_comparison"):
        tracer.wrap(cli, attr, "analysis." + attr)
    tracer.wrap(rbsde.RegressionBasis, "features", "rbsde.features")
    # rbsde reaches lstsq as ``np.linalg.lstsq``: give it a numpy of its own
    linalg = Overlay(np.linalg)
    tracer.wrap(linalg, "lstsq", "rbsde.lstsq")
    tracer.replace(rbsde, "np", Overlay(np, linalg=linalg))
    check_bindings(tracer)


def check_bindings(tracer):
    """Raise if an isaacslab module still calls a wrapped function unwrapped."""
    wrapped = {id(original) for _, _, original in tracer._saved if callable(original)}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("isaacslab.") or module is None:
            continue
        for attr, value in vars(module).items():
            if id(value) in wrapped and getattr(value, "__module__", None) != modname:
                raise RuntimeError(
                    f"{modname}.{attr} still binds unwrapped {value.__qualname__}; "
                    f"the tracer would read zero for it")


def summarise(spans):
    """Per-layer totals of one traced job: calls, time, self time, sizes."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(int)
    for i, (name, start, end, parent, size) in enumerate(spans):
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        duration, self_time = end - start, end - start - child[i]
        out[layer + ".self_s"] += self_time
        if parent_name.split(".", 1)[0] != layer:
            out[layer + ".s"] += duration
        if name in _COEFFICIENT_NAMES:
            out["problems.calls"] += 1
        out[name + ".calls"] += 1
        out[name + ".s"] += duration
        out[name + ".self_s"] += self_time
        out[name + ".size"] += size
        if name == "problems.drift" and parent_name == "sde.simulate":
            out["sde.path_steps"] += size
    return out


def layer_metrics(s):
    """The per-layer metrics of one traced job from its ``summarise`` totals."""
    steps = s["pde.solve.size"]
    metrics = {
        "problems.calls": s["problems.calls"],
        "problems.s": s["problems.s"],
        "problems.as_batch.s": s["problems.as_batch.s"],
        "pde.solves": s["pde.solve.calls"],
        "pde.steps": steps,
        "pde.s": s["pde.s"],
        "pde.self_s": s["pde.self_s"],
        "pde.self_us_per_step": 1e6 * s["pde.solve.self_s"] / steps if steps else 0.0,
        "pde.cfl_s": s["pde.cfl.s"],
        "analysis.s": s["analysis.s"],
        "analysis.self_s": s["analysis.self_s"],
        "cli.run.s": s["cli.run.s"],
        "cli.write_s": s["cli.run.self_s"],
        "sde.s": s["sde.s"],
        "sde.self_s": s["sde.self_s"],
        "sde.path_steps": s["sde.path_steps"],
        "rbsde.s": s["rbsde.s"],
        "rbsde.self_s": s["rbsde.self_s"],
        "rbsde.lstsq.calls": s["rbsde.lstsq.calls"],
        "rbsde.lstsq.s": s["rbsde.lstsq.s"],
        "rbsde.features.s": s["rbsde.features.s"],
    }
    for kind in ("drift", "diffusion", "cost_rate", "obstacle"):
        metrics[f"problems.{kind}.calls"] = s[f"problems.{kind}.calls"]
        metrics[f"problems.{kind}.s"] = s[f"problems.{kind}.s"]
    return metrics
