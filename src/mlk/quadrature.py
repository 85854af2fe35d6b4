"""Deterministic integration over the unit cube [0,1]^d.

Two schemes: a tensor Gauss-Legendre rule (d <= 2, up to 256 nodes per
axis) and randomized quasi-Monte Carlo (an unscrambled Sobol point set with
8 independent uniform shifts mod 1, error reported as 3x the standard
deviation of the per-shift estimates). Both are bit-reproducible for a
fixed seed, and both feed the lattice integrals the height bound needs:
the second moment of the distance function psi_Y and the average of
ln f_Y(t; .).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .lattice import GramMatrix, psi_sq_batch
from .theta import f_series_batch

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "SCHEME_TENSOR_GAUSS",
    "SCHEME_QMC_SHIFTED",
    "integrate_cube",
    "integral_psi_sq",
    "integral_ln_f",
]

SCHEME_TENSOR_GAUSS = "tensor-gauss"
SCHEME_QMC_SHIFTED = "qmc-shifted"

_MAX_GAUSS_NODES = 256
_DEFAULT_QMC_POINTS = 1 << 16
_N_SHIFTS = 8


class QuadratureError(ValueError):
    """Bad scheme/arguments or a non-finite integrand value."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_points: int
    scheme: str
    n_clipped: int = 0


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(points), dtype=float)
    if vals.ndim != 2 or vals.shape[1] != points.shape[0]:
        raise QuadratureError("integrand returned a wrong number of values")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand produced a non-finite value (singularity?)")
    return vals


@lru_cache(maxsize=None)
def _gauss_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _tensor_rule(n: int, d: int):
    x, w = _gauss_rule(n)
    pts = np.array(list(product(x, repeat=d)))
    wts = np.array([math.prod(c) for c in product(w, repeat=d)])
    return pts, wts


def _gauss_values(f, d: int, n: int) -> list[float]:
    pts, wts = _tensor_rule(n, d)
    return [float(wts @ row) for row in _evaluate(f, pts)]


def _integrate_rows(f, d: int, scheme: str, budget: int | None,
                    seed: int) -> list[QuadratureResult]:
    """Integrate a vectorized f: (N, d) -> (k, N) over [0,1]^d, one result per
    row. Every row is sampled at the same points and reduced on its own, so
    each result equals ``integrate_cube`` of that row alone.
    """
    if d < 1:
        raise QuadratureError("dimension must be >= 1")
    if scheme == SCHEME_TENSOR_GAUSS:
        if d > 2:
            raise QuadratureError("tensor-gauss is available for d <= 2 only")
        n = min(max(int(budget or _MAX_GAUSS_NODES), 2), _MAX_GAUSS_NODES)
        coarse = max(n // 2, 2)
        fine = _gauss_values(f, d, n)
        return [QuadratureResult(v, abs(v - c), n**d + coarse**d, scheme)
                for v, c in zip(fine, _gauss_values(f, d, coarse))]
    if scheme == SCHEME_QMC_SHIFTED:
        from scipy.stats import qmc  # deferred: scipy.stats dominates `import mlk`

        m = 1 << max(1, int(math.log2(budget or _DEFAULT_QMC_POINTS)))
        base = qmc.Sobol(d=d, scramble=False).random(m)
        shifts = np.random.default_rng(seed).random((_N_SHIFTS, d))
        per_shift = [[float(np.mean(row)) for row in _evaluate(f, (base + s) % 1.0)]
                     for s in shifts]
        return [
            QuadratureResult(float(np.mean(est)), 3.0 * float(np.std(est, ddof=1)),
                             _N_SHIFTS * m, scheme)
            for est in np.array(per_shift).T
        ]
    raise QuadratureError(f"unknown scheme {scheme!r}")


def integrate_cube(f, d: int, scheme: str = SCHEME_QMC_SHIFTED, budget: int | None = None,
                   seed: int = 0) -> QuadratureResult:
    """Integrate a vectorized f: (N, d) -> (N,) over [0,1]^d.

    ``budget`` is nodes per axis for tensor-gauss (clamped to 256) and points
    per shift for qmc-shifted (rounded down to a power of two).
    """
    return _integrate_rows(lambda P: np.reshape(f(P), (1, -1)), d, scheme, budget, seed)[0]


def integral_psi_sq(Y: GramMatrix, scheme: str = SCHEME_QMC_SHIFTED,
                    budget: int | None = None, seed: int = 0) -> QuadratureResult:
    """integral over [0,1]^g of psi_Y(x)^2 dx.

    The integrand has gradient kinks on the Voronoi walls; for tensor-gauss
    the cube is split at the half-integer hyperplanes (the exact wall
    locations for diagonal Y, where the second-moment bound is tight), which
    makes the rule exact there instead of merely convergent.
    """
    d = Y.g
    if scheme == SCHEME_TENSOR_GAUSS:
        if d > 2:
            raise QuadratureError("tensor-gauss is available for g <= 2 only")
        n = min(max(int(budget or _MAX_GAUSS_NODES), 2), _MAX_GAUSS_NODES)

        def split_value(nodes: int) -> float:
            pts, wts = _tensor_rule(nodes, d)
            total = 0.0
            for corner in product((0.0, 0.5), repeat=d):
                shifted = np.asarray(corner) + 0.5 * pts
                total += 0.5**d * float(wts @ psi_sq_batch(Y, shifted))
            return total

        coarse = max(n // 2, 2)
        value = split_value(n)
        err = abs(value - split_value(coarse))
        return QuadratureResult(value, err, (2 * n) ** d + (2 * coarse) ** d, scheme)
    return integrate_cube(lambda P: psi_sq_batch(Y, P), d, scheme, budget, seed)


def integral_ln_f(Y: GramMatrix, t: float, scheme: str = SCHEME_QMC_SHIFTED,
                  budget: int | None = None, seed: int = 0) -> QuadratureResult:
    """integral over [0,1]^g of ln f_Y(t; x) dx (f evaluated to 1e-12 relative).

    f_Y is smooth and strictly positive, so no singularity handling is needed.
    """
    if t <= 0.0:
        raise QuadratureError("t must be positive")
    return integrate_cube(
        lambda P: np.log(f_series_batch(Y, t, P, 1e-12)[0]), Y.g, scheme, budget, seed
    )
