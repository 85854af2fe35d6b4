"""Deterministic, bit-reproducible integration over the unit cube [0,1]^d.

* ``integrate_periodic``: the trapezoid rule on the grid k/n, geometrically
  convergent on smooth Z^d-periodic integrands (Trefethen & Weideman, SIAM
  Review 56, 2014): ln f_Y(t; .), the log-Gaussian of ``verify_chain``.
  Its integrand is given on whole grids, n in, the values at the points
  k/n out. On such a grid a Fourier series has the values of its
  coefficients summed modulo n (the rule's aliasing), so ``theta``
  computes each grid of f with one FFT of its Poisson dual
  (``theta._f_grid``).
* ``integrate_cube``, its rule chosen from d: tensor Gauss-Legendre at
  d <= 2 (psi_Y^2 at g <= 2, split at the half-integers, where the rule is
  exact for diagonal Y) and shifted Sobol QMC at d >= 3 (Dick, Kuo & Sloan,
  Acta Numerica 22, 2013): psi_Y^2 at g >= 3 and the 2g-dimensional
  archimedean invariant at g >= 2. The Sobol points are the package's one
  low-discrepancy sequence, ``lattice._sobol``. The integrand gets the
  shifted copies of a point set together, up to 2^16 rows per call, so
  its per-call set-up (the theta box and bounds) is paid once per set, not
  once per shift.
* ``_tensor_gauss``, the one tensor Gauss-Legendre rule. It hands the
  integrand the nodes of one axis and takes its values on their product
  grid, so an integrand that is cheaper on a whole grid than point by point
  is evaluated that way: the g = 1 invariant (``theta._cube_norm_grid``).
  ``integrate_cube`` feeds it f at the grid's points (``lattice._int_box``
  of the node indices).

One doubling rule, ``_refine``, serves all three: a predicate ``decided(value,
error) -> bool`` caps the budget at every d; without one the whole budget runs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .lattice import EnumerationLimitError, GramMatrix, _count, _int_box, _sobol, psi_sq_batch
from .theta import _f_grid

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "integrate_cube",
    "integrate_periodic",
    "integral_psi_sq",
    "integral_ln_f",
]

_MAX_GAUSS_DIM = 2  # integrate_cube: tensor Gauss-Legendre up to here, QMC above
_MAX_GAUSS_NODES = 256
_FIRST_GAUSS_NODES = 32  # _tensor_gauss: nodes per axis before the first doubling
_DEFAULT_QMC_POINTS = 1 << 16
_FIRST_QMC_POINTS = 1 << 5  # points per shift before the first doubling
_N_SHIFTS = 8
_LOG2_MAX_GRID = 19  # periodic grids hold <= 2^19 points, one default QMC integral


class QuadratureError(ValueError):
    """Bad arguments or a non-finite integrand value."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_points: int
    scheme: str  # the rule that ran: "tensor-gauss", "qmc-shifted" or "periodic"
    n_clipped: int = 0


def _checked(vals, size: int) -> np.ndarray:
    vals = np.asarray(vals, dtype=float).ravel()
    if vals.shape != (size,):
        raise QuadratureError("integrand returned a wrong number of values")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand produced a non-finite value (singularity?)")
    return vals


@lru_cache(maxsize=None)
def _gauss_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _tensor_weights(w: np.ndarray, d: int) -> np.ndarray:
    """The weights of w^d, in C order (the last coordinate runs fastest)."""
    return reduce(np.multiply.outer, d * [w]).ravel()


def _refine(rule, first: int, cap: int, stop=None) -> QuadratureResult:
    """The one doubling policy: ``rule(n)`` is the QuadratureResult at size n.
    Without a predicate it runs ``rule(cap)``. With a predicate ``stop(value,
    error) -> bool``, n starts at min(first, cap) and doubles, clamped to
    ``cap``, until the predicate holds or n is the cap. It is asked after each
    rule and never at the cap, so a predicate that never holds returns what
    none returns, bit for bit (``n_points`` may count every size run)."""
    n = cap if stop is None else min(first, cap)
    while True:
        r = rule(n)
        if n == cap or stop(r.value, r.error_estimate):
            return r
        n = min(2 * n, cap)


def _tensor_gauss(f_grid, d: int, budget: int | None, decided=None) -> QuadratureResult:
    """Tensor Gauss-Legendre on [0,1]^d, d <= 2, for an integrand given on the
    rule's axes: ``f_grid(x)`` gets the n nodes of one axis (every axis has
    the same) and returns the n^d values on their product grid in C order,
    as an array of shape (n,) * d whose axis k runs over coordinate k (or
    flat). The error of the rule on n nodes is its distance to the rule on
    n // 2 nodes.

    ``budget`` caps n at min(max(budget, 4), 256) (default 256); it is None
    or a count (``lattice._count``; else QuadratureError). ``_refine`` sizes n
    from 32 under ``decided(value, error) -> bool``, each doubling's coarse
    rule the previous fine one. ``n_points`` counts every grid evaluated.
    """
    budget = _MAX_GAUSS_NODES if budget is None else _count(budget, QuadratureError)
    rules = {}  # nodes -> the rule's value

    def rule(n):
        for k in (n, n // 2):  # n // 2 >= 2 and < n: two distinct rules
            if k not in rules:
                x, w = _gauss_rule(k)
                rules[k] = float(_tensor_weights(w, d) @ _checked(f_grid(x), k**d))
        err = abs(rules[n] - rules[n // 2])
        return QuadratureResult(rules[n], err, sum(k**d for k in rules), "tensor-gauss")

    return _refine(rule, _FIRST_GAUSS_NODES, min(max(budget, 4), _MAX_GAUSS_NODES), decided)


def _seed(seed) -> int:
    """``seed`` as an integer >= 0 (``operator.index``, no bool), else QuadratureError."""
    try:
        if not isinstance(seed, bool) and operator.index(seed) >= 0:
            return operator.index(seed)
    except TypeError:
        pass
    raise QuadratureError(f"seed must be an integer >= 0, got {seed!r}")


def integrate_cube(f, d: int, budget: int | None = None, seed: int = 0, *,
                   decided=None) -> QuadratureResult:
    """Integrate a vectorized f: (N, d) -> (N,) over [0,1]^d by a rule chosen from d.

    d <= 2: ``_tensor_gauss`` on f at the points of its grids, ``budget``
    nodes per axis (clamped to [4, 256], default 256), error the distance to
    the rule on half the nodes. d >= 3: an unscrambled Sobol set of
    ``budget`` points (rounded down to a power of two, default 2^16) under 8
    shifts drawn from ``seed``, error 3x the standard deviation of the
    per-shift means. ``budget`` is None or a count (``lattice._count``),
    ``seed`` an integer >= 0 (no bool); else QuadratureError. At every d
    ``_refine`` sizes the rule under ``decided(value, error) -> bool``, at
    d >= 3 from 2^5 points per shift: the first m points of the 2m-point set
    are the m-point set, so each doubling evaluates only the new points.

    f gets the new points of several shifts in one call, shift-major (the
    rows of shift k, then those of shift k + 1), as many shifts as keep a
    call at <= 2^16 rows (at least one), so a set's per-call set-up is paid
    once rather than once per shift while a large set stays in bounded
    memory.
    """
    if d < 1:
        raise QuadratureError("dimension must be >= 1")
    seed = _seed(seed)
    if d <= _MAX_GAUSS_DIM:
        return _tensor_gauss(lambda x: f(x[_int_box([0] * d, [len(x) - 1] * d)]), d, budget,
                             decided)
    budget = _DEFAULT_QMC_POINTS if budget is None else _count(budget, QuadratureError)
    shifts = np.random.default_rng(seed).random((_N_SHIFTS, d))
    vals = np.empty((_N_SHIFTS, 0))  # row k: shift k's values, in point order

    def rule(m):
        nonlocal vals
        done = vals.shape[1]
        new = _sobol(d, m)[done:]
        vals, old = np.empty((_N_SHIFTS, m)), vals
        vals[:, :done] = old
        per_call = max(1, _DEFAULT_QMC_POINTS // new.shape[0])
        for k in range(0, _N_SHIFTS, per_call):
            P = ((new + shifts[k:k + per_call, None, :]) % 1.0).reshape(-1, d)  # shift-major
            vals[k:k + per_call, done:] = _checked(f(P), P.shape[0]).reshape(-1, new.shape[0])
        est = [float(np.mean(v)) for v in vals]
        return QuadratureResult(float(np.mean(est)), 3.0 * float(np.std(est, ddof=1)),
                                _N_SHIFTS * m, "qmc-shifted")

    return _refine(rule, _FIRST_QMC_POINTS, 1 << (budget.bit_length() - 1), decided)


def integrate_periodic(f_grid, d: int, tol: float, decided=None) -> QuadratureResult:
    """Integrate a Z^d-periodic f over [0,1]^d by the trapezoid rule on the grid k/n.

    ``f_grid(n)`` returns the n^d values of f at the points k/n,
    k in {0, ..., n-1}^d, in C order (the last coordinate runs fastest), as
    an array of shape (n,) * d whose axis k runs over coordinate k, or flat.
    An integrand that is a Fourier series sum_j c_j exp(-2 pi i j . x) has
    on that grid the values of the n-periodic sum of its coefficients, the
    c_j added over each class j mod n: one discrete Fourier transform per
    call (the aliasing identity of the trapezoid rule, Trefethen & Weideman,
    SIAM Review 56, 2014). ``theta._f_grid`` evaluates f_Y(t; .) that way.

    The value is the mean of f on the grid k/n. The error estimate is its
    distance to the mean on the even-index subgrid, plus eps times the mean of
    |f| (the two means can agree to the last bit). ``_refine`` sizes n, one
    call per grid, from 8 (coarser grids can agree by accident) up to the
    largest power of two whose grid holds at most 2^19 points, stopping once
    the estimate meets ``tol`` or, where it does not, ``decided(value,
    error) -> bool`` holds, so a value is only as precise as the caller's
    decision needs. ``n_points`` is n^d for the final n.
    """
    if d < 1:
        raise QuadratureError("dimension must be >= 1")
    n_max = 2 ** (_LOG2_MAX_GRID // d)  # the largest power of two n with n^d <= 2^19
    if n_max < 2:
        raise EnumerationLimitError(f"periodic grid of 2^{d} points exceeds cap 2^19")
    even = (slice(None, None, 2),) * d

    def rule(n):
        vals = _checked(f_grid(n), n**d).reshape((n,) * d)
        value = float(np.mean(vals))
        coarse = float(np.mean(vals[even]))
        err = abs(value - coarse) + float(np.finfo(float).eps * np.mean(np.abs(vals)))
        return QuadratureResult(value, err, vals.size, "periodic")

    return _refine(rule, 8, n_max,
                   lambda value, err: err <= tol or (decided is not None and decided(value, err)))


def integral_psi_sq(Y: GramMatrix, budget: int | None = None, seed: int = 0) -> QuadratureResult:
    """integral over [0,1]^g of psi_Y(x)^2 dx.

    The integrand has gradient kinks on the Voronoi walls; at g <= 2 (tensor
    Gauss-Legendre) the cube is split at the half-integer hyperplanes (the
    exact wall locations for diagonal Y, where the second-moment bound is
    tight), which makes the rule exact there instead of merely convergent:
    the integrand at u sums the 2^g parts at corner + u/2.
    """
    d = Y.g
    if d > _MAX_GAUSS_DIM:
        return integrate_cube(lambda P: psi_sq_batch(Y, P), d, budget, seed)
    corners = _int_box([0] * d, [1] * d) / 2.0

    def split(P):
        vals = psi_sq_batch(Y, (corners[:, None, :] + 0.5 * P).reshape(-1, d))
        return 0.5**d * vals.reshape(len(corners), -1).sum(axis=0)

    return integrate_cube(split, d, budget, seed)


def _integral_ln(f_grid, d: int, tol: float, decided=None) -> QuadratureResult:
    """``integrate_periodic`` of ln f to ``tol``, or until ``decided(value,
    error)`` holds, f given as the grid integrand ``f_grid(n)`` of f > 0
    (see ``integrate_periodic``)."""

    def ln_f(n):
        with np.errstate(divide="ignore"):  # f underflowed to 0: _checked rejects -inf
            return np.log(f_grid(n))

    return integrate_periodic(ln_f, d, tol, decided)


def integral_ln_f(Y: GramMatrix, t: float, tol: float = 1e-10) -> QuadratureResult:
    """integral over [0,1]^g of ln f_Y(t; x) dx (f evaluated to 1e-12 relative)
    by ``integrate_periodic`` to ``tol``: f_Y is smooth, positive and periodic.
    f comes on each grid k/n, the whole grid in one call, from
    ``theta._f_grid``: one FFT of its Poisson dual, or ``f_series_batch``
    where the dual's rounding is not certified small.
    """
    if t <= 0.0:
        raise QuadratureError("t must be positive")
    return _integral_ln(_f_grid(Y, t), Y.g, tol)
