"""Backward solvers along simulated paths.

Two schemes solve the constrained backward equation on a path bundle:

* ``solve_reflected`` projects onto the obstacle at every step, producing
  the triple (Y, Z, K) with K the cumulative reflection push.  The
  discrete complementarity sum ``(Y_k - h_k) * dK_k`` vanishes step by
  step by construction.
* ``solve_penalized`` replaces the projection by the semi-implicit
  penalty update ``y = yhat + m dt (y - h)^-`` solved in closed form,
  which is stable uniformly in the penalty weight m.

Conditional expectations are least-squares fits on a polynomial basis of
the current states (regression Monte Carlo: Longstaff & Schwartz 2001;
Gobet, Lemor & Warin 2005).  Each regressed step fills the design matrix
``A`` into one buffer per solve, and the two fits below each solve their
normal equations ``G c = A^T target`` with the Gram matrix ``G = A^T A``.
Both targets, ``Y_{k+1}`` and ``Y_{k+1} dB_k / dt``, sit in one ``(1 + d,
M)`` buffer per solve, and one pass of :meth:`RegressionBasis.gram` over
blocks of ``A`` forms ``G`` and both right-hand sides; one product of the
coefficients with ``A`` then forms both rows of fitted values, into one
more buffer per solve.  ``G[i, j]`` is the sample moment of the monomial
``x^(a_i + a_j)``, so ``gram`` computes only the distinct moments, the
constant and the top-degree columns of ``A`` times the others, where
``A.T @ A`` would form every product.  Summed block by block, the right-hand sides and hence Y, Z and
K round differently in their last bits from products over the whole of
``A``.  Where ``G`` is rank deficient or ``cond(G) > GRAM_COND_MAX``, read
off the singular values that solve returns, that fit is redone by least
squares on ``A`` itself, and where ``A`` is rank deficient too it falls
back to the mean and sets ``regression_fallback``.  When all paths share
the same state (single path or degenerate diffusion) the estimator
reduces to the plain mean and the gradient estimate to zero, which makes
the deterministic test cases exact.  Backward induction per step:

    p    = E[Y_{k+1} | X_k]                     (regression)
    Z_k  = E[Y_{k+1} dB_k | X_k] / dt           (regression)
    y0   = p + dt f(t_k, X_k, p,  Z_k, u, v)    (predict)
    yhat = p + dt f(t_k, X_k, y0, Z_k, u, v)    (correct once)
    Y_k  = projection / penalty applied to yhat

Each pass of the predictor and the corrector writes f into one of two
buffers allocated once per solve, multiplies it by dt and adds ``p`` in
place.  A cost rate declared not to read y (``Coefficients.cost_rate_reads``)
skips the corrector: ``yhat = y0``.  One declared linear in y
(``Coefficients.cost_rate_linear``) is called once per step, at y = 1,
and each pass writes that slope times its y.

The solve reads the bundle's step-major storage (see ``sde``) and keeps
Y, Z, K and the obstacle samples step-major too, so every step works on
contiguous rows; ``BackwardSolution`` exposes them path-major as
transposed views.  A reduction over the steps of such a view may round
differently from the same reduction over a C-contiguous copy;
``skorokhod_sums`` sums C-contiguous terms, so its per-path sums do not
depend on the storage layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .problems import eval_cost_rate, eval_obstacle, eval_terminal
from .sde import TimeMesh, simulate_paths, _control_rows

TERMINAL_BARRIER_TOL = 1e-9
# largest condition number of a Gram matrix A^T A whose normal equations are
# solved; a fit on them loses about log10 cond(A^T A) digits, 8 at most
GRAM_COND_MAX = 1e8
# samples times monomials per block of RegressionBasis.gram: 1 MiB of design
# matrix, so each block is read from cache by every product after the first
GRAM_BLOCK = 1 << 17


@lru_cache(maxsize=32)
def _monomials(n, degree):
    """Monomials of total degree <= ``degree`` in ``n`` coordinates.

    Rows follow :meth:`RegressionBasis.features`: the constant, then each
    degree's ``combinations_with_replacement`` of the coordinates.
    Returns ``(products, top, index)``:

    * ``products`` lists ``(parent row, coordinate)`` for each row of
      degree >= 2, from row ``n + 1`` on: the row is its parent (the
      combination minus its last factor) times that coordinate;
    * ``top`` is the first row of degree ``degree``;
    * ``index[i, j]`` points into the moments that
      :meth:`RegressionBasis.gram` computes: the constant row times every
      row (``p`` entries), then every row from 1 on times every top row,
      row-major (``(p - 1) * (p - top)`` entries).  Rows ``i`` and ``j``
      read the moment of the exponent sum ``a_i + a_j``, so ``index`` is
      symmetric.  Sums of degree <= ``degree`` are rows themselves; any
      larger one is a top-degree monomial plus one of degree >= 1.
    """
    combos = [combo for deg in range(1, degree + 1)
              for combo in combinations_with_replacement(range(n), deg)]
    row = {(): 0}
    exponents = np.zeros((1 + len(combos), n), dtype=np.int64)
    for j, combo in enumerate(combos, start=1):
        row[combo] = j
        np.add.at(exponents[j], list(combo), 1)
    products = tuple((row[combo[:-1]], combo[-1]) for combo in combos if len(combo) > 1)
    p = len(exponents)
    top = p - comb(n + degree - 1, degree)
    moment = {tuple(e): j for j, e in enumerate(exponents)}
    for j in range(1, p):
        for a in range(top, p):
            moment.setdefault(tuple(exponents[a] + exponents[j]),
                              p + (j - 1) * (p - top) + a - top)
    sums = exponents[:, None, :] + exponents[None, :, :]
    index = np.array([[moment[tuple(s)] for s in line] for line in sums], dtype=np.intp)
    index.flags.writeable = False  # shared by every caller through the cache
    return products, top, index


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis of bounded total degree."""

    degree: int = 2

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def features(self, x, out=None):
        """Design matrix of all monomials with total degree <= degree.

        States are standardised batchwise before taking powers; this
        spans the same polynomial space but keeps the normal equations
        well conditioned for high degrees on wide state ranges.  Each
        coordinate's ``x - mean`` is formed once, in its degree-1 row, and
        its scale is that row's root mean square (the population standard
        deviation; a zero scale counts as one).  The ``(M, p)`` matrix is
        the transpose of a C-contiguous ``(p, M)`` buffer: ``out`` when
        given (a backward solve reuses one across its steps), a new one
        otherwise.
        """
        m, n = x.shape
        products, _, index = _monomials(n, self.degree)
        # one monomial per row, so every column of the design matrix is a
        # contiguous row of this buffer
        rows = np.empty((len(index), m)) if out is None else out
        rows[0] = 1.0
        if self.degree:
            # the degree-1 rows are the standardised coordinates themselves
            xs = rows[1:n + 1]
            np.subtract(x.T, x.mean(axis=0)[:, None], out=xs)
            scale = np.sqrt(np.square(xs).mean(axis=1))
            xs /= np.where(scale > 0.0, scale, 1.0)[:, None]
            # each higher row is its parent (the combination minus its last
            # factor) times one coordinate, so every row equals the product
            # 1 * x_a * x_b ... bit for bit
            for j, (parent, axis) in enumerate(products, start=n + 1):
                np.multiply(rows[parent], xs[axis], out=rows[j])
        return rows.T

    def gram(self, A, targets):
        """Gram matrix ``A.T @ A`` of a design matrix from :meth:`features`,
        and the right-hand sides ``A.T @ targets.T`` of ``(r, M)`` targets.

        Entry ``(i, j)`` is the sum over the samples of the monomial
        ``x^(a_i + a_j)``, so entries with equal exponent sums are equal
        and only the distinct sums are computed: the constant row times
        every row, and every row from 1 on times the top-degree rows (one
        matrix product).  The right-hand sides are one more product, of
        the rows times the targets.  All of them are summed over blocks of
        samples that stay in cache, so ``A`` is read once.  For one
        coordinate that is two matrix-vector products and one product
        with the targets per block.  The Gram matrix is exactly symmetric,
        and both results agree with the plain products to rounding.
        Returns ``(G, rhs)``, with ``rhs`` of shape ``(p, r)``.
        """
        m, p = A.shape
        _, top, index = _monomials(_coordinates(p, self.degree), self.degree)
        rows = A.T
        # the distinct moments, then the right-hand sides, in one buffer
        gram_end = p + (p - 1) * (p - top)
        moments = np.zeros(gram_end + p * len(targets))
        partial = np.empty_like(moments)
        by_constant = partial[:p]
        by_top = partial[p:gram_end].reshape(p - 1, p - top)
        by_target = partial[gram_end:].reshape(p, len(targets))
        width = max(1, GRAM_BLOCK // p)
        for start in range(0, m, width):
            block = rows[:, start:start + width]
            np.matmul(block, block[0], out=by_constant)
            np.matmul(block[1:], block[top:].T, out=by_top)
            np.matmul(block, targets[:, start:start + width].T, out=by_target)
            moments += partial
        return moments[index], moments[gram_end:].reshape(p, len(targets))


def _coordinates(p, degree):
    """The number of coordinates whose basis of total degree ``degree`` has ``p`` rows."""
    for n in range(1, p + 1):
        if comb(n + degree, degree) >= p:
            break
    if comb(n + degree, degree) != p:
        raise ValueError(f"no basis of degree {degree} has {p} monomials")
    return n


@dataclass(frozen=True)
class BackwardSolution:
    """Discrete (Y, Z, K) triple along a path bundle.

    The arrays are path-major views of step-major storage (see the module
    docstring).
    """

    mesh: TimeMesh
    Y: np.ndarray                # (M, N+1), view of (N+1, M) storage
    Z: np.ndarray                # (M, N, d), view of (N, M, d) storage
    K: np.ndarray                # (M, N+1), cumulative, K[:, 0] = 0; view of (N+1, M)
    scheme: str                  # "reflected" or "penalized"
    penalty: Optional[float]     # m for the penalized scheme
    obstacle_samples: np.ndarray  # (M, N+1), view of (N+1, M) storage
    regression_fallback: bool = False

    def value(self):
        """Value estimate at the initial time (mean over paths)."""
        return float(self.Y[:, 0].mean())

    def skorokhod_sums(self):
        """Per-path complementarity sums ``sum_k (Y_k - h_k) dK_k``."""
        gaps = self.Y[:, :-1] - self.obstacle_samples[:, :-1]
        dK = np.diff(self.K, axis=1)
        # terms laid out C-contiguous, so each path sums in the same order
        # whatever the storage layout
        return np.multiply(gaps, dK, order="C").sum(axis=1)


def _conditional_fits(A, gram, rhs, targets, out=None):
    """Least-squares fitted values of the rows of ``targets`` on the columns of ``A``.

    ``targets`` is ``(1 + d, M)``: row 0 is fitted on its own, rows 1..d
    together.  Each of the two fits solves its own normal equations
    ``gram c = rhs`` with ``gram = A^T A`` and ``rhs = A^T targets^T``
    (both from :meth:`RegressionBasis.gram`), and one product of the
    coefficients with the design then forms every row of fitted values.
    When a fit's solve finds ``gram`` rank deficient or its singular
    values give a condition number above ``GRAM_COND_MAX``, that fit is
    redone by ``lstsq`` on ``A`` itself and its rows are ``A @ coef``; where
    ``A`` is rank deficient too they are the mean.  Returns ``(fitted,
    fell_back_to_mean)``, with ``fitted`` of the shape of ``targets``:
    ``out`` when given (a backward solve reuses one across its steps), a
    new array otherwise.
    """
    p = A.shape[1]
    coef = np.zeros((p, len(targets)))
    redone = []
    fell_back = False
    for fit in (0, slice(1, None)):
        c, _, rank, sv = np.linalg.lstsq(gram, rhs[:, fit], rcond=None)
        if rank == p and sv[0] <= GRAM_COND_MAX * sv[-1]:
            coef[:, fit] = c
            continue
        c, _, rank, _ = np.linalg.lstsq(A, targets[fit].T, rcond=None)
        if rank < p:
            redone.append((fit, targets[fit].mean(axis=-1, keepdims=True)))
            fell_back = True
        else:
            redone.append((fit, (A @ c).T))
    fitted = np.matmul(coef.T, A.T, out=out)
    for fit, values in redone:
        fitted[fit] = values
    return fitted, fell_back


def _solve_backward(instance, bundle, terminal, basis, penalty_m):
    # step-major storage of the bundle: row k holds step k of every path
    states = bundle.states.transpose(1, 0, 2)
    dB = bundle.dB.transpose(1, 0, 2)
    u_path, v_path = bundle.u_path.T, bundle.v_path.T
    N1, M, _ = states.shape
    N = N1 - 1
    d = instance.d
    times = bundle.mesh.times()
    dt = bundle.mesh.dt
    # the predictor and the corrector, written whole at every step; a cost rate
    # that does not read y gives the corrector the predictor's value
    reads_y = "y" in instance.coeffs.cost_rate_reads
    y0 = np.empty(M)
    yhat = np.empty(M) if reads_y else y0
    # the value at which a cost rate linear in y gives its slope (contiguous:
    # a product with a broadcast view of 1.0 takes about 3x as long)
    ones = None
    if instance.coeffs.cost_rate_linear:
        ones = np.ones(M)
        ones.flags.writeable = False

    h_all = np.empty((N + 1, M))
    for k in range(N + 1):
        h_all[k] = eval_obstacle(instance, times[k], states[k])

    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (M,):
        raise PreconditionError(f"terminal data must have shape ({M},)")
    if np.any(terminal < h_all[N] - TERMINAL_BARRIER_TOL):
        i = int(np.argmax(h_all[N] - terminal))
        raise PreconditionError(
            f"terminal value below the obstacle at maturity (path {i}: "
            f"{terminal[i]:.6g} < {h_all[N, i]:.6g})"
        )

    Y = np.empty((N + 1, M))
    Z = np.zeros((N, M, d))
    # K[k + 1] holds step k's increment until the cumulative sum at the end
    K = np.zeros((N + 1, M))
    Y[N] = terminal
    fallback = False
    # the design matrix's (p, M) buffer, allocated by the first regressed step
    rows = None
    # what each regressed step fits, Y_{k+1} and Y_{k+1} dB_k / dt, and the
    # fitted values, written whole at every step
    targets, fitted = np.empty((1 + d, M)), np.empty((1 + d, M))

    for k in range(N - 1, -1, -1):
        t = times[k]
        xk = states[k]
        y_next = Y[k + 1]
        if float(np.ptp(xk, axis=0).max()) == 0.0:
            p = np.full(M, y_next.mean())
            z = np.zeros((M, d))
        else:
            A = basis.features(xk, out=rows)
            rows = A.T
            targets[0] = y_next
            np.multiply(dB[k].T, y_next, out=targets[1:])
            targets[1:] /= dt
            fitted, fell_back = _conditional_fits(A, *basis.gram(A, targets), targets, fitted)
            p, z = fitted[0], fitted[1:].T
            fallback = fallback or fell_back

        up = _control_rows(instance.u_grid, u_path[k], M)
        vp = _control_rows(instance.v_grid, v_path[k], M)
        slope = None if ones is None else eval_cost_rate(instance, t, xk, ones, z, up, vp)
        # p + dt f(y) at y = p, then at y = y0 where f reads y, in place: a fresh
        # array of every path's rows costs more than the product that fills it
        for y, out in ((p, y0), (y0, yhat))[:1 + reads_y]:
            f = eval_cost_rate(instance, t, xk, y, z, up, vp) if slope is None \
                else np.multiply(slope, y, out=out)
            np.multiply(f, dt, out=out)
            np.add(p, out, out=out)

        hk = h_all[k]
        if penalty_m is None:
            np.subtract(np.maximum(yhat, hk, out=Y[k]), yhat, out=K[k + 1])
        else:
            c = penalty_m * dt
            Y[k] = np.where(yhat < hk, (yhat + c * hk) / (1.0 + c), yhat)
            K[k + 1] = c * np.maximum(hk - Y[k], 0.0)
        Z[k] = z

    # a running sum down the steps, row by row: several times faster than
    # np.cumsum along axis 0 of this step-major store, with the same sums
    for k in range(N):
        np.add(K[k], K[k + 1], out=K[k + 1])
    scheme = "reflected" if penalty_m is None else "penalized"
    return BackwardSolution(mesh=bundle.mesh, Y=Y.T, Z=Z.transpose(1, 0, 2), K=K.T,
                            scheme=scheme, penalty=penalty_m, obstacle_samples=h_all.T,
                            regression_fallback=fallback)


def solve_reflected(instance, bundle, terminal, basis):
    """Solve the reflected backward equation along a bundle.

    ``terminal`` holds the per-path terminal values and must dominate the
    obstacle at maturity (a precondition, never clamped silently).  The
    returned solution satisfies ``Y >= obstacle`` at every node, ``K``
    nondecreasing with ``K_0 = 0``, and exact discrete complementarity.
    """
    return _solve_backward(instance, bundle, terminal, basis, penalty_m=None)


def solve_penalized(instance, bundle, terminal, basis, m):
    """Solve the penalized backward equation with penalty weight ``m``.

    Each step solves ``y = yhat + m dt (y - h)^-`` exactly:
    ``y = yhat`` when ``yhat >= h`` and ``y = (yhat + m dt h)/(1 + m dt)``
    otherwise.  ``K`` reports the accumulated penalty
    ``m dt (y - h)^-``.  ``m = 0`` recovers the unconstrained solve.
    """
    if m < 0:
        raise PreconditionError("penalty weight must be nonnegative")
    return _solve_backward(instance, bundle, terminal, basis, penalty_m=float(m))


def backward_semigroup(instance, bundle, eta, basis):
    """Value at the bundle's initial time for terminal data ``eta``.

    This is the reflected solve's initial value, so ``eta`` is checked as
    its terminal data: one value per path, as a function of the terminal
    state, dominating the obstacle there.  A bundle of zero steps solves
    nothing and returns ``eta.mean()``.
    """
    return solve_reflected(instance, bundle, eta, basis).value()


def cost_functional(instance, t, x0, u, v, mesh, paths, basis, seed):
    """Monte Carlo value of the controlled pair ``(u, v)`` started at ``(t, x0)``.

    Simulates a bundle on ``mesh`` (which must span ``[t, T]``), solves
    the reflected backward equation with the terminal payoff, and
    returns the value at ``t``.
    """
    if abs(mesh.t0 - t) > 1e-12 or abs(mesh.t1 - instance.T) > 1e-12:
        raise PreconditionError("mesh must span [t, T]")
    bundle = simulate_paths(instance, x0, mesh, u, v, paths, seed)
    terminal = eval_terminal(instance, bundle.states[:, -1])
    return solve_reflected(instance, bundle, terminal, basis).value()


def snell_oracle(obstacle_values, terminal):
    """Brute-force optimal stopping value on one deterministic path.

    Scans every stopping index: stopping at ``k < N`` pays
    ``obstacle_values[k]``, holding to maturity pays ``terminal``.
    """
    vals = np.asarray(obstacle_values, dtype=float)
    if vals.ndim != 1:
        raise PreconditionError("obstacle_values must be a 1-D sequence")
    if len(vals) <= 1:
        return float(terminal)
    return float(max(vals[:-1].max(), terminal))
