"""Lattice geometry under a positive-definite quadratic form.

A ``GramMatrix`` Y equips R^g with the norm ||x||_Y = sqrt(x^T Y x); the
integer lattice Z^g is studied through four quantities:

* the first minimum  lambda_1(Y) = min_{m != 0} ||m||_Y,
* the distance-to-lattice function  psi_Y(x) = min_m ||x - m||_Y,
* the inhomogeneous minimum (covering radius)  mu(Y) = max_x psi_Y(x),
* the Bezout deep point: an explicit x = m/2 with the certified bound
  psi_Y(x) >= 1 / (2 lambda_1(Y^{-1})).

Minima are found by exhaustive enumeration of a box that provably contains
the search ellipsoid of an LLL-reduced basis, so the returned vectors are
exact minimizers (up to floating-point evaluation of the norm itself).
mu(Y) is NP-hard to compute exactly and is returned only as a certified
two-sided enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.stats import qmc

__all__ = [
    "LatticeError",
    "EnumerationLimitError",
    "GramMatrix",
    "IntervalEstimate",
    "ShortestVector",
    "ClosestVector",
    "DeepPoint",
    "norm",
    "shortest_vector",
    "closest_vector",
    "bezout_deep_point",
    "mu_interval",
    "psi_sq_batch",
    "lll_reduce",
    "is_lll_reduced",
]

_COND_LIMIT = 1e12
_LLL_DELTA = 0.99
_BOX_CAP = 1 << 21          # hard cap on enumerated candidates
_RADIUS_SAFETY = 1 + 1e-12  # inflation so fp rounding cannot lose the minimizer


class LatticeError(ValueError):
    """Invalid Gram matrix, or an enumeration that cannot be certified."""


class EnumerationLimitError(LatticeError):
    """A certified enumeration box holds more candidates than the cap allows."""


class GramMatrix:
    """Immutable symmetric positive-definite matrix with cached factorizations.

    The input must be exactly symmetric (symmetrize upstream if needed) and
    have condition number at most 1e12; beyond that double precision cannot
    certify the inequalities this package verifies.
    """

    __slots__ = ("g", "entries", "chol", "_cache")

    def __init__(self, entries):
        Y = np.array(entries, dtype=float)
        if Y.ndim != 2 or Y.shape[0] != Y.shape[1] or Y.shape[0] == 0:
            raise LatticeError("Gram matrix must be square and non-empty")
        if not np.all(np.isfinite(Y)):
            raise LatticeError("Gram matrix entries must be finite")
        if not np.array_equal(Y, Y.T):
            raise LatticeError("Gram matrix must be exactly symmetric")
        eig = np.linalg.eigvalsh(Y)
        if eig[0] <= 0.0:
            raise LatticeError("Gram matrix must be positive definite")
        if eig[-1] > _COND_LIMIT * eig[0]:
            raise LatticeError(
                f"Gram matrix condition number {eig[-1] / eig[0]:.3e} exceeds {_COND_LIMIT:.0e}"
            )
        try:
            L = np.linalg.cholesky(Y)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - caught by eigvalsh
            raise LatticeError("Cholesky factorization failed") from exc
        if np.max(np.abs(L @ L.T - Y)) > 1e-12 * max(1.0, np.max(np.abs(Y))):
            raise LatticeError("Cholesky factor does not reproduce Y to 1e-12")
        Y.setflags(write=False)
        L.setflags(write=False)
        object.__setattr__(self, "g", Y.shape[0])
        object.__setattr__(self, "entries", Y)
        object.__setattr__(self, "chol", L)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("GramMatrix is immutable")

    def __repr__(self):
        return f"GramMatrix(g={self.g})"

    @property
    def det_sqrt(self) -> float:
        """sqrt(det Y), from the Cholesky diagonal."""
        return float(np.prod(np.diag(self.chol)))

    def inverse(self) -> "GramMatrix":
        """Y^{-1} as a GramMatrix (exactly symmetrized)."""
        if "inverse" not in self._cache:
            Yi = cho_solve((self.chol, True), np.eye(self.g))
            self._cache["inverse"] = GramMatrix((Yi + Yi.T) / 2.0)
        return self._cache["inverse"]

    def lambda1(self) -> float:
        """First minimum lambda_1(Y)."""
        if "lambda1" not in self._cache:
            self._cache["lambda1"] = shortest_vector(self).value
        return self._cache["lambda1"]

    def covering_upper(self) -> float:
        """Certified upper bound on mu(Y): half the Gram-Schmidt diagonal norm
        of an LLL-reduced basis (nearest-plane rounding bound)."""
        red = self._reduced()
        return 0.5 * math.sqrt(float(np.sum(np.diag(red["R"]) ** 2))) * _RADIUS_SAFETY

    def _reduced(self) -> dict:
        """LLL-reduced data: transform U, Cholesky R of U^T Y U, box widths."""
        if "reduced" not in self._cache:
            _, U = lll_reduce(self.chol.T)
            G = U.T.astype(float) @ self.entries @ U.astype(float)
            G = (G + G.T) / 2.0
            R = np.linalg.cholesky(G).T  # upper triangular, positive diagonal
            Rinv = solve_triangular(R, np.eye(self.g))
            Uinv = np.rint(np.linalg.inv(U)).astype(np.int64)
            if not np.array_equal(U @ Uinv, np.eye(self.g, dtype=np.int64)):
                raise LatticeError("unimodular transform could not be inverted exactly")
            self._cache["reduced"] = {
                "U": U,
                "Uinv": Uinv,
                "R": R,
                "rinv_rows": np.sqrt((Rinv * Rinv).sum(axis=1)),
                "col_sq": (R * R).sum(axis=0),  # squared lengths of reduced basis vectors
            }
        return self._cache["reduced"]


@dataclass(frozen=True)
class IntervalEstimate:
    """Certified enclosure lo <= quantity <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise LatticeError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise LatticeError(f"empty interval [{self.lo}, {self.hi}]")


class ShortestVector(NamedTuple):
    m: np.ndarray
    value: float


class ClosestVector(NamedTuple):
    m: np.ndarray
    value: float


class DeepPoint(NamedTuple):
    x: np.ndarray
    certified_lo: float


def norm(Y: GramMatrix, x) -> float:
    """||x||_Y = sqrt(x^T Y x)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != Y.g:
        raise LatticeError(f"vector of length {x.shape[0]} incompatible with g={Y.g}")
    if not np.all(np.isfinite(x)):
        raise LatticeError("vector entries must be finite")
    q = float(x @ Y.entries @ x)
    return math.sqrt(q) if q > 0.0 else 0.0


def _gso(B):
    """Gram-Schmidt data of the columns of B: coefficients mu and ||b*_i||^2."""
    n = B.shape[1]
    mu = np.zeros((n, n))
    norms2 = np.zeros(n)
    Bstar = np.zeros_like(B, dtype=float)
    for i in range(n):
        v = B[:, i].astype(float).copy()
        for j in range(i):
            mu[i, j] = float(B[:, i] @ Bstar[:, j]) / norms2[j]
            v -= mu[i, j] * Bstar[:, j]
        Bstar[:, i] = v
        norms2[i] = float(v @ v)
        if norms2[i] <= 0.0:
            raise LatticeError("basis is numerically degenerate")
    return mu, norms2


def lll_reduce(basis, delta: float = _LLL_DELTA):
    """LLL-reduce the columns of ``basis``.

    Returns ``(reduced, U)`` with ``reduced = basis @ U`` and U unimodular
    (int64). Certified quantities downstream are rebuilt from U and the exact
    Gram matrix, so float drift in ``reduced`` is harmless.
    """
    B = np.array(basis, dtype=float)
    n = B.shape[1]
    U = np.eye(n, dtype=np.int64)
    mu, norms2 = _gso(B)
    k, steps = 1, 0
    while k < n:
        steps += 1
        if steps > 100_000:
            raise LatticeError("LLL failed to converge")
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                B[:, k] -= q * B[:, j]
                U[:, k] -= q * U[:, j]
                mu, norms2 = _gso(B)
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            U[:, [k - 1, k]] = U[:, [k, k - 1]]
            mu, norms2 = _gso(B)
            k = max(k - 1, 1)
    return B, U


def is_lll_reduced(Y: GramMatrix, delta: float = _LLL_DELTA, tol: float = 1e-9) -> bool:
    """True iff the Cholesky basis of Y already satisfies size reduction and
    the Lovasz condition at the given delta."""
    mu, norms2 = _gso(Y.chol.T)
    g = Y.g
    for i in range(g):
        for j in range(i):
            if abs(mu[i, j]) > 0.5 + tol:
                return False
    for k in range(1, g):
        if norms2[k] < (delta - mu[k, k - 1] ** 2) * norms2[k - 1] * (1 - tol):
            return False
    return True


def _int_box(lows, highs):
    """All integer points of the axis-aligned box [lows, highs], as (M, g) int64."""
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    sizes = highs - lows + 1
    if np.any(sizes <= 0):
        raise LatticeError("empty enumeration box")
    total = int(np.prod(sizes.astype(object)))
    if total > _BOX_CAP:
        raise EnumerationLimitError(f"enumeration box of {total} points exceeds cap {_BOX_CAP}")
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def shortest_vector(Y: GramMatrix) -> ShortestVector:
    """Exact first minimum: a nonzero m in Z^g minimizing ||m||_Y.

    The search box provably contains the ellipsoid of squared radius
    min_j ||b_j||^2 over the LLL-reduced basis, so no minimizer is missed.
    Ties are broken arbitrarily.
    """
    red = Y._reduced()
    R = red["R"]
    C = float(red["col_sq"].min()) * _RADIUS_SAFETY
    w = np.sqrt(C) * red["rinv_rows"]
    cand = _int_box(-np.floor(w), np.floor(w))
    cand = cand[np.any(cand != 0, axis=1)]
    V = cand.astype(float) @ R.T
    d2 = np.einsum("ij,ij->i", V, V)
    u = cand[int(np.argmin(d2))]
    m = red["U"] @ u
    return ShortestVector(m=np.asarray(m, dtype=np.int64), value=norm(Y, m.astype(float)))


def _babai(R, t):
    """Nearest-plane rounding of target coefficients t against upper-triangular R."""
    g = t.shape[0]
    u = np.zeros(g, dtype=np.int64)
    for k in range(g - 1, -1, -1):
        s = float(R[k, k + 1 :] @ (u[k + 1 :] - t[k + 1 :]))
        u[k] = round(t[k] - s / R[k, k])
    return u


def closest_vector(Y: GramMatrix, x) -> ClosestVector:
    """Exact closest lattice vector: m in Z^g minimizing ||x - m||_Y.

    Seeds the radius with a nearest-plane candidate, then exhausts the
    certified covering box of the resulting ellipsoid. psi_Y(x) = the
    returned value is Z^g-periodic in x.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != Y.g:
        raise LatticeError(f"vector of length {x.shape[0]} incompatible with g={Y.g}")
    if not np.all(np.isfinite(x)):
        raise LatticeError("vector entries must be finite")
    red = Y._reduced()
    R = red["R"]
    t = red["Uinv"].astype(float) @ x
    u0 = _babai(R, t)
    r = R @ (u0 - t)
    C = float(r @ r) * _RADIUS_SAFETY + 1e-300
    w = np.sqrt(C) * red["rinv_rows"]
    cand = _int_box(np.ceil(t - w), np.floor(t + w))
    V = (cand - t) @ R.T
    d2 = np.einsum("ij,ij->i", V, V)
    u = cand[int(np.argmin(d2))]
    m = red["U"] @ u
    return ClosestVector(m=np.asarray(m, dtype=np.int64), value=norm(Y, x - m))


def _xgcd(a: int, b: int):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _bezout_coefficients(gamma):
    """Integer m with gamma . m = 1, by folding extended gcds across coordinates."""
    d = 0
    coeffs = [0] * len(gamma)
    for k, a in enumerate(gamma):
        d2, s, t = _xgcd(d, int(a))
        coeffs = [s * c for c in coeffs]
        coeffs[k] = t
        d = d2
    if d != 1:
        raise LatticeError("coordinates are not coprime; no Bezout solution")
    return coeffs


def bezout_deep_point(Y: GramMatrix) -> DeepPoint:
    """Half of a Bezout solution against the shortest dual vector.

    With gamma the shortest vector of Y^{-1} (its coordinates are coprime by
    minimality) and m solving gamma . m = 1, the point x = m/2 satisfies
    psi_Y(x) >= 1 / (2 lambda_1(Y^{-1})): for every n in Z^g the integer
    1 - 2 gamma . n is odd, so 1 <= 2 |gamma . (x - n)| <= 2 lambda_1(Y^{-1})
    ||x - n||_Y by Cauchy-Schwarz in the dual norm pair.
    """
    Yi = Y.inverse()
    gamma, lam_dual = shortest_vector(Yi)
    gam = [int(v) for v in gamma]
    d = 0
    for a in gam:
        d = math.gcd(d, a)
    if d > 1:  # cannot happen for a true minimizer; keep the certificate honest
        gam = [a // d for a in gam]
        lam_dual = norm(Yi, np.array(gam, dtype=float))
    m = _bezout_coefficients(gam)
    x = np.array(m, dtype=float) / 2.0
    return DeepPoint(x=x, certified_lo=1.0 / (2.0 * lam_dual))


def _candidate_box(Y: GramMatrix, radius: float, lo=0.0, hi=1.0) -> np.ndarray:
    """Integer points (float, (M, g)) of the box that covers the ellipsoid
    ||. - p||_Y <= radius around every point p of the box [lo, hi]."""
    w = radius * np.sqrt(np.diag(Y.inverse().entries))
    return _int_box(np.ceil(lo - w - 1e-12), np.floor(hi + w + 1e-12)).astype(float)


def _sq_dist_blocks(Y: GramMatrix, P: np.ndarray, cand: np.ndarray):
    """Yield ``(rows, D)`` with D[i, j] = ||P[rows][i] - cand[j]||_Y^2, in row
    blocks of at most 2^22 entries. D is not clipped at 0, so rounding can
    leave tiny negative entries; callers clip or reduce as they need."""
    qm = np.einsum("ij,ij->i", cand, cand @ Y.entries)
    chunk = max(1, (1 << 22) // max(1, cand.shape[0]))
    for k in range(0, P.shape[0], chunk):
        S = P[k : k + chunk]
        G1 = S @ Y.entries
        qx = np.einsum("ij,ij->i", S, G1)
        yield slice(k, k + chunk), qx[:, None] - 2.0 * (G1 @ cand.T) + qm[None, :]


def psi_sq_batch(Y: GramMatrix, points) -> np.ndarray:
    """psi_Y(x)^2 for many points at once (exact, vectorized).

    Points are reduced mod Z^g; candidates are every lattice point whose
    ellipsoid of radius mu_hi around any x in [0,1)^g can reach, so the
    minimum over candidates is the true distance.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P.reshape(1, -1)
    if P.shape[1] != Y.g:
        raise LatticeError(f"points of dimension {P.shape[1]} incompatible with g={Y.g}")
    P = P - np.floor(P)
    cand = _candidate_box(Y, Y.covering_upper())
    out = np.empty(P.shape[0])
    for rows, D in _sq_dist_blocks(Y, P, cand):
        out[rows] = D.min(axis=1)
    np.maximum(out, 0.0, out=out)
    return out


def mu_interval(Y: GramMatrix, budget: int = 512) -> IntervalEstimate:
    """Certified enclosure of the inhomogeneous minimum mu(Y).

    lo: the best psi_Y value over the Bezout deep point, every half-integer
    corner (g <= 4), and ``budget`` Halton points; always a true lower bound.
    hi: the nearest-plane covering bound on an LLL-reduced basis.
    """
    if budget < 1:
        raise LatticeError("budget must be >= 1")
    g = Y.g
    pts = [bezout_deep_point(Y).x.reshape(1, -1)]
    if g <= 4:
        corners = _int_box(np.zeros(g), np.ones(g)).astype(float) / 2.0
        pts.append(corners)
    pts.append(qmc.Halton(d=g, scramble=False).random(budget))
    psi2 = psi_sq_batch(Y, np.vstack(pts))
    lo = math.sqrt(float(psi2.max())) * (1 - 1e-12)
    return IntervalEstimate(lo=lo, hi=Y.covering_upper())
