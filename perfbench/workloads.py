"""The benchmark's workloads: inputs from a seed, one job, its correctness gate.

A job goes through the public API only: ``cli.run`` on a generated
config for the grid workloads, ``simulate_paths`` + ``solve_reflected``
for the path workload.  ``call(name, fn, *args)`` runs ``fn`` directly
when untraced and inside a span when traced.  Gates, reference values and
self-check expectations are computed outside the timed region.
"""

from __future__ import annotations

import numpy as np
from numpy.random import SeedSequence

from isaacslab import cli, crr_put
from isaacslab.problems import builtin_instance, eval_terminal
from isaacslab.rbsde import RegressionBasis, solve_reflected
from isaacslab.sde import ControlPath, TimeMesh, simulate_paths

# Successive penalization gaps must shrink at least this much once the
# penalty is in its first-order regime (m >= 4 on american_put, T = 1).
PENALTY_RATIO_MIN = 3.0
PENALTY_ASYMPTOTIC_M = 4.0
GAP_TOL = 1e-9
# Sanity band for the path estimate around the binomial price.  The
# regression-now estimator sits about 8% above it at N = 50, degree 6.
Y0_BAND = 0.15
SKOROKHOD_TOL = 1e-9


class _GridWorkload:
    """A ``cli.run`` job on one generated config; the seed is not used."""

    min_jobs = 1
    fallbacks = 0
    CALIBRATION = "interpreter"

    def __init__(self, seed, outdir):
        self.raw = dict(self.RAW, output={"directory": str(outdir),
                                          "formats": self.FORMATS})

    def setup(self, parse):
        self.config = parse(self.raw)
        self.instance = builtin_instance(self.config.instance_name,
                                         self.config.instance_params)

    def job(self, index, call):
        return call("cli.run", cli.run, self.config)

    def observe(self, index, record):
        self.record = record


class PenaltySweep(_GridWorkload):
    RAW = {"experiment": "penalization", "instance": {"name": "american_put"},
           "grid": {"box": [[20, 300]], "nx": [281]},
           "schedules": {"m": [1, 4, 16, 64, 256]}}
    FORMATS = ["json"]

    def check(self, record):
        problems = []
        if not record.metrics["monotone_ok"]:
            problems.append("penalized fields not monotone in m")
        ms, gaps = record.schedule["values"], record.schedule["metric_values"]
        for m, prev, cur in zip(ms[1:], gaps, gaps[1:]):
            ratio = prev / cur if cur > 0 else float("inf")
            floor = PENALTY_RATIO_MIN if m > PENALTY_ASYMPTOTIC_M else 1.0
            if ratio <= 1.0 or ratio < floor:
                problems.append(f"sup_gap ratio {ratio:.3g} into m={m:g} below {floor:g}")
        return problems

    def value_err(self):
        return self.record.metrics["final_gap"]

    def expected_counts(self):
        solves = 1 + len(self.config.m_schedule)
        steps = solves * self.record.metrics["nt"]
        return {"pde.solves": solves, "pde.steps": steps,
                "problems.obstacle.calls": steps}

    ACTIVE = ("cli.run", "analysis.penalization_convergence", "pde.solve", "pde.cfl",
              "problems.drift", "problems.diffusion", "problems.cost_rate",
              "problems.obstacle", "problems.terminal")


class MinimaxFields(_GridWorkload):
    RAW = {"experiment": "compare_wu", "instance": {"name": "minimax_gap"},
           "grid": {"box": [[-2, 2]], "nx": [121]}}
    FORMATS = ["json", "csv"]

    def check(self, record):
        problems = []
        if record.metrics["max_violation"] != 0.0:
            problems.append(f"lower exceeds upper by {record.metrics['max_violation']:.3g}")
        err = abs(record.metrics["max_gap"] - 2.0 * self.instance.T)
        if err > GAP_TOL:
            problems.append(f"max_gap off 2T by {err:.3g}")
        return problems

    def value_err(self):
        # the exact gap is 2T and the computed one agrees to round-off, so
        # the error is reported at the gate's resolution
        return max(abs(self.record.metrics["max_gap"] - 2.0 * self.instance.T), GAP_TOL)

    def expected_counts(self):
        pairs = len(self.instance.u_grid) * len(self.instance.v_grid)
        steps = 2 * self.record.metrics["nt"]
        return {"pde.solves": 2, "pde.steps": steps, "problems.drift.calls": pairs * steps}

    ACTIVE = ("cli.run", "analysis.lower_value", "analysis.upper_value",
              "analysis.value_comparison", "pde.solve", "pde.cfl", "problems.drift",
              "problems.diffusion", "problems.cost_rate", "problems.obstacle",
              "problems.terminal")


class PathsReflected:
    """Euler paths of the American put and the reflected BSDE along them.

    Job ``j`` uses Monte Carlo seed ``seed`` for ``j = 0`` and a seed drawn
    from ``SeedSequence([seed, j])`` otherwise, cycling through
    ``BUNDLES`` bundles; ``value_err`` is the error of their mean value.
    """

    X0, STEPS, PATHS, DEGREE, BUNDLES = 100.0, 50, 50_000, 6, 8
    # parsed for its instance and mc sections; the job does not go through cli
    RAW = {"experiment": "rbsde_oracle", "instance": {"name": "american_put"}}
    min_jobs = BUNDLES
    fallbacks = 0
    CALIBRATION = "arrays"

    def __init__(self, seed, outdir):
        self.raw = dict(self.RAW, mc={"paths": self.PATHS, "steps": self.STEPS,
                                      "seed": seed, "basis_degree": self.DEGREE})
        self.mc_seeds = [seed] + [int(SeedSequence([seed, j]).generate_state(1)[0])
                                  for j in range(1, self.BUNDLES)]
        self.values = {}
        self._crr = None

    def setup(self, parse):
        self.config = parse(self.raw)
        self.instance = builtin_instance(self.config.instance_name,
                                         self.config.instance_params)
        self.mesh = TimeMesh(0.0, self.instance.T, self.config.mc.steps)
        self.basis = RegressionBasis(degree=self.config.mc.basis_degree)

    def job(self, index, call):
        inst, mc = self.instance, self.config.mc
        bundle = call("sde.simulate", simulate_paths, inst, np.array([self.X0]), self.mesh,
                      ControlPath.constant(0), ControlPath.constant(0), mc.paths,
                      self.mc_seeds[index % self.BUNDLES])
        terminal = call("problems.terminal", eval_terminal, inst, bundle.states[:, -1])
        return call("rbsde.solve", solve_reflected, inst, bundle, terminal, self.basis)

    def crr(self):
        if self._crr is None:
            p = self.config.instance_params
            self._crr = crr_put(self.X0, p.get("K0", 100.0), p.get("r", 0.05),
                                p.get("sigma0", 0.2), self.instance.T, 2000)
        return self._crr

    def observe(self, index, solution):
        self.values[index % self.BUNDLES] = solution.value()
        self.fallbacks += solution.regression_fallback

    def check(self, sol):
        problems = []
        if not np.all(sol.Y >= sol.obstacle_samples):
            problems.append("Y below the obstacle")
        if not (np.all(sol.K[:, 0] == 0.0) and np.all(np.diff(sol.K, axis=1) >= 0.0)):
            problems.append("K not nondecreasing from 0")
        worst = float(np.abs(sol.skorokhod_sums()).max())
        if worst > SKOROKHOD_TOL:
            problems.append(f"Skorokhod sum {worst:.3g}")
        if sol.regression_fallback:
            problems.append("regression fell back to the mean")
        rel = sol.value() / self.crr() - 1.0
        if abs(rel) > Y0_BAND:
            problems.append(f"y0 off the binomial price by {rel:+.3%}")
        return problems

    def value_err(self):
        y0 = np.mean([self.values[j] for j in range(self.BUNDLES)])
        return abs(y0 / self.crr() - 1.0)

    def expected_counts(self):
        steps = self.config.mc.steps
        return {"rbsde.lstsq.calls": 2 * (steps - 1),
                "sde.path_steps": self.config.mc.paths * steps}

    ACTIVE = ("sde.simulate", "problems.drift", "problems.diffusion", "problems.terminal",
              "problems.cost_rate", "problems.obstacle", "rbsde.solve", "rbsde.features",
              "rbsde.lstsq")


WORKLOADS = {
    "put_penalty_sweep": PenaltySweep,
    "minimax_fields_csv": MinimaxFields,
    "put_paths_reflected": PathsReflected,
}
