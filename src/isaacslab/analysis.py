"""Game-level quantities and structural checks.

Lower and upper value functions are computed through the obstacle
equation with the corresponding Hamiltonian.  The checks in this module
express the structural facts the solvers are expected to reproduce:
the one-step re-solve identity of dynamic programming, monotone
convergence of penalized fields, the lower-vs-upper comparison, and
time-regularity fits.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import FitError, PreconditionError
from .pde import (
    HAMILTONIANS,
    _argopt,
    _field_stacks,
    _solve_field,
    eval_hamiltonian,
    solve_obstacle_pde,
    # not called here: perfbench/spans.py wraps analysis.solve_penalized_pde
    # and refuses to trace when the name is missing
    solve_penalized_pde,
    sweep_penalized,
)
from .problems import eval_obstacle
from .sde import ControlPath

# the bytes of the block of penalized slices that penalization_convergence
# folds at once
FOLD_BYTES = 1 << 17


@dataclass(frozen=True)
class DppReport:
    """Residuals of the one-step dynamic-programming re-solve."""

    t: float
    delta: float
    sample_points: np.ndarray
    residuals: np.ndarray
    max_residual: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Penalized fields against the reflected reference field."""

    m_schedule: tuple
    sup_gaps: tuple
    monotone_ok: bool
    max_monotone_violation: float


@dataclass(frozen=True)
class TimeContinuityFit:
    """Log-log fit of the time modulus of a value field."""

    exponent: float
    constant: float
    deltas: tuple
    moduli: tuple
    obstacle_moduli: tuple


def lower_value(instance, grid):
    """Lower value field (max-min Hamiltonian) on the grid."""
    return solve_obstacle_pde("lower", instance, grid)


def upper_value(instance, grid):
    """Upper value field (min-max Hamiltonian) on the grid."""
    return solve_obstacle_pde("upper", instance, grid)


def isaacs_gap(instance, sample_points):
    """Largest upper-minus-lower Hamiltonian gap over the samples.

    ``sample_points`` is an iterable of ``(t, x, y, q, xmat)`` tuples.
    The gap is nonnegative; a zero gap over representative samples
    certifies that both equations coincide there.
    """
    worst = 0.0
    for t, x, y, q, xmat in sample_points:
        low = eval_hamiltonian("lower", instance, t, x, y, q, xmat)[0]
        up = eval_hamiltonian("upper", instance, t, x, y, q, xmat)[0]
        worst = max(worst, up - low)
    return worst


def dpp_residual(field, instance, t_index, delta_steps):
    """Re-solve the field over ``delta_steps`` and compare at ``t_index``.

    The equation is solved again on ``[t, t + delta]`` only, with
    terminal data taken from the field's slice at ``t + delta``; the
    result is compared with the stored slice at ``t`` on the inner
    sample nodes.  The one-step map composes exactly, so the residual is
    zero up to floating-point noise for any self-consistent field.
    """
    if field.kind not in HAMILTONIANS:
        raise PreconditionError("dynamic-programming residuals need a lower/upper field")
    nt = len(field.times) - 1
    if t_index < 0 or delta_steps < 0 or t_index + delta_steps > nt:
        raise PreconditionError(
            f"index out of range: t_index={t_index}, delta_steps={delta_steps}, nt={nt}"
        )
    grid = field.grid
    mask = grid.inner_mask()
    points = grid.nodes().reshape(grid.shape + (grid.ndim,))[mask]
    sub_times = field.times[t_index : t_index + delta_steps + 1]
    terminal = field.slices[t_index + delta_steps]
    redo = _solve_field(field.kind, instance, grid, sub_times, terminal, None)
    residuals = np.abs(redo.slices[0][mask] - field.slices[t_index][mask])
    delta = float(field.times[t_index + delta_steps] - field.times[t_index])
    return DppReport(t=float(field.times[t_index]), delta=delta,
                     sample_points=points, residuals=residuals,
                     max_residual=float(residuals.max()))


def penalization_convergence(instance, grid, m_schedule):
    """Solve the penalized equation along ``m_schedule`` and compare.

    Checks nodewise monotonicity in the penalty weight on the interior
    nodes, where the scheme solves (an extrapolated face holds the
    ``2 w1 - w2`` fill, which need not be monotone), and reports the sup-norm gaps to
    the reflected reference field over the inner sub-box (all time
    slices).  The whole schedule is stepped in one sweep, so no penalized
    field is ever stored: the slices are copied into a block of at most
    ``FOLD_BYTES``, laid out like the sweep's ring (field axis last) so
    that each copy keeps its order, and each full block is folded, read
    through a moved view, into two running elementwise maxima,
    ``|reference - field|`` over
    :meth:`~isaacslab.pde.SpaceTimeGrid.inner_box` and the step down
    from each weight to the next over
    :meth:`~isaacslab.pde.SpaceTimeGrid.interior`, reduced once at the
    end.  A maximum is exact, so the block size changes no result.
    """
    m_schedule = tuple(float(m) for m in m_schedule)
    if any(b <= a for a, b in zip(m_schedule, m_schedule[1:])):
        raise PreconditionError("m_schedule must be strictly increasing")
    reference = solve_obstacle_pde("lower", instance, grid)
    # (slice, field, *space) for the block, (slice, 1, *space) for the reference
    box = (slice(None), slice(None)) + grid.inner_box()
    # the scheme solves the interior; the faces are a fill
    interior = (slice(None), slice(None)) + grid.interior()
    batch = len(m_schedule)
    depth = max(1, FOLD_BYTES // max(1, batch * reference.slices[0].nbytes))
    block = np.moveaxis(np.empty((depth,) + grid.shape + (batch,)), -1, 1)
    # the fold's differences go to field-major buffers: written back into the
    # strided block they would cost more than the transposing copies saved
    steps, gap = np.empty(block[:, 1:][interior].shape), np.empty(block[box].shape)
    gaps, violations = np.zeros(gap.shape[1:]), np.zeros(steps.shape[1:])
    gaps_k, violations_k = np.empty_like(gaps), np.empty_like(violations)

    def fold(k, n):
        """Fold slices ``k, ..., k + n - 1``, held in ``block[:n]``."""
        fields = block[:n]
        np.subtract(fields[:, :-1][interior], fields[:, 1:][interior], out=steps[:n])
        np.maximum(violations, steps[:n].max(axis=0, out=violations_k), out=violations)
        diff = np.subtract(reference.slices[k:k + n, None][box], fields[box], out=gap[:n])
        np.maximum(gaps, np.abs(diff, out=diff).max(axis=0, out=gaps_k), out=gaps)

    # the sweep yields k = nt, ..., 0: slice k goes to row k % depth, and a
    # block is folded once its row 0 is filled
    for k, fields in sweep_penalized(instance, grid, m_schedule):
        block[k % depth] = fields
        if k % depth == 0:
            fold(k, min(depth, grid.nt + 1 - k))
    sup_gaps = gaps.max(axis=tuple(range(1, gaps.ndim)))
    worst_violation = float(violations.max(initial=0.0))
    return ConvergenceTable(m_schedule=m_schedule, sup_gaps=tuple(map(float, sup_gaps)),
                            monotone_ok=worst_violation <= 1e-12,
                            max_monotone_violation=worst_violation)


def value_comparison(lower, upper):
    """Nodewise comparison of a lower and an upper field.

    Returns ``(max_violation, max_gap)`` where the violation is the
    largest positive part of lower-minus-upper and the gap the largest
    upper-minus-lower, over every node and slice.
    """
    if lower.grid != upper.grid or len(lower.times) != len(upper.times):
        raise PreconditionError("fields must share one grid")
    diff = lower.slices - upper.slices
    return float(max(diff.max(), 0.0)), float(max(-diff.min(), 0.0))


def _distinct(values):
    """The distinct entries of a 1-D array in ascending order, as ``np.unique``
    gives them, without the ``numpy.ma`` import that ``np.unique`` makes."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def time_continuity_profile(field, x_samples, delta_schedule, t_window=None,
                            instance=None):
    """Fit the time modulus ``max_x |w(t, x) - w(t + delta, x)| ~ C delta^e``.

    ``delta_schedule`` entries are snapped to whole numbers of grid
    steps; ``t_window`` restricts the base times ``t``.  When
    ``instance`` is supplied the obstacle's own modulus over the same
    time pairs is reported alongside (relevant for time-dependent
    obstacles, where the clean rate does not apply).
    """
    deltas = tuple(float(d) for d in delta_schedule)
    if len(deltas) < 3:
        raise FitError("need at least three deltas for a modulus fit")
    grid = field.grid
    if grid.ndim != 1:
        raise PreconditionError("time modulus fit is implemented for 1-D grids")
    ax = grid.axes()[0]
    idx = _distinct(np.clip(np.searchsorted(ax, np.asarray(x_samples, dtype=float)),
                            0, len(ax) - 1))
    dt = field.dt
    nt = len(field.times) - 1
    lo_t, hi_t = (0.0, field.horizon) if t_window is None else t_window
    times = field.times
    base = np.flatnonzero((lo_t - 1e-12 <= times) & (times <= hi_t + 1e-12))
    if not len(base):
        raise FitError("empty time window")

    # each delta's pairs (k, k + j), with the time steps j it snaps to
    pairs = [(j, base[base + j <= nt])
             for j in (max(1, int(round(delta / dt))) for delta in deltas)]
    pairs = [(j, ks) for j, ks in pairs if len(ks)]
    if len(pairs) < 3:
        raise FitError("need at least three usable deltas inside the window")
    samples = field.slices[:, idx]
    # the obstacle at the sample nodes, once per slice that some pair reads,
    # or once for every slice of a time-homogeneous instance (zero without one)
    obstacle = np.zeros_like(samples)
    x_pts = ax[idx][:, None]
    if instance is not None and instance.coeffs.time_homogeneous:
        obstacle[:] = eval_obstacle(instance, 0.0, x_pts)
    elif instance is not None:
        for k in _distinct(np.concatenate([ks + s for j, ks in pairs for s in (0, j)])):
            obstacle[k] = eval_obstacle(instance, float(times[k]), x_pts)

    def modulus(values):
        return tuple(float(np.abs(values[ks + j] - values[ks]).max()) for j, ks in pairs)

    used_deltas, moduli = tuple(j * dt for j, _ in pairs), modulus(samples)
    logd = np.log(np.asarray(used_deltas))
    logm = np.log(np.maximum(np.asarray(moduli), 1e-300))
    slope, intercept = np.polyfit(logd, logm, 1)
    return TimeContinuityFit(exponent=float(slope), constant=float(np.exp(intercept)),
                             deltas=used_deltas, moduli=moduli,
                             obstacle_moduli=modulus(obstacle))


def _snapped_stacks(field, instance, what):
    """Generator stacks of a 1-D field at snapped query points.

    Returns ``lookup(t, x_batch) -> vals``, the (nu, nv, batch) generator
    values of every control pair: the query time snaps to the nearest
    time index ``k``, whose time the cost rate and the dynamics read,
    and each state to the nearest interior node, whose difference data
    come from slice ``min(k, nt - 1)``.  One stack is computed per
    snapped time index.
    """
    if field.kind not in HAMILTONIANS:
        raise PreconditionError(f"{what} extraction needs a lower/upper field")
    grid = field.grid
    if grid.ndim != 1:
        raise PreconditionError(f"{what} extraction is implemented for 1-D grids")
    ax = grid.axes()[0]
    lo, dx = ax[0], grid.dx()[0]
    nt = len(field.times) - 1
    dt = field.dt
    stack = _field_stacks(field, instance)
    cache = {}

    def lookup(t, x_batch):
        k = int(np.clip(round(t / dt), 0, nt))
        if k not in cache:
            cache[k] = stack(float(field.times[k]), min(k, nt - 1))[2]
        nodes = np.clip(np.round((x_batch[:, 0] - lo) / dx).astype(int) - 1,
                        0, len(ax) - 3)
        return cache[k][:, :, nodes]

    return lookup


def feedback_from_field(field, instance):
    """Feedback controls read off the field's Hamiltonian optimisers.

    Returns a pair of :class:`ControlPath` feedback controls.  Queries
    snap to the nearest time slice and nearest interior node and report
    the attained maximiser and minimiser indices of the generator stack
    there.  The two controls share one stack per snapped time slice.
    """
    lookup = _snapped_stacks(field, instance, "feedback")
    u_ctrl = ControlPath.from_feedback(lambda t, x: _argopt(field.kind, lookup(t, x))[1])
    v_ctrl = ControlPath.from_feedback(lambda t, x: _argopt(field.kind, lookup(t, x))[2])
    return u_ctrl, v_ctrl


def response_feedback(field, instance, u_index):
    """Second player's best-response feedback to a fixed first-player control.

    For the lower field this is the pointwise minimiser over the second
    grid of the generator value at the given ``u_index``; it realises the
    knowledge advantage of the responding player against any fixed
    control of the other.
    """
    lookup = _snapped_stacks(field, instance, "response")
    return ControlPath.from_feedback(lambda t, x: lookup(t, x)[u_index].argmin(axis=0))
