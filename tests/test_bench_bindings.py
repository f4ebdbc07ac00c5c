"""The benchmark's tracer still finds every name it wraps."""

import importlib.util
from pathlib import Path

from isaacslab import analysis, cli, pde, problems

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_install_on_live_modules():
    # install raises on a binding that is gone or still unwrapped elsewhere,
    # which would otherwise surface only in a traced benchmark run; the penalty
    # sweep's obstacle span reads pde.eval_obstacle alone, once per sweep
    spans = load_spans()
    originals = {(module, attr): getattr(module, attr) for module, attr in (
        (analysis, "solve_obstacle_pde"), (analysis, "solve_penalized_pde"),
        (cli, "lower_value"), (cli, "upper_value"), (cli, "penalization_convergence"),
        (pde, "eval_drift"), (pde, "eval_cost_rate"), (pde, "eval_obstacle"),
        (problems, "_as_batch"))}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert all(getattr(module, attr) is not fn for (module, attr), fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn for (module, attr), fn in originals.items())
