"""Lattice geometry under a positive-definite quadratic form.

A ``GramMatrix`` Y equips R^g with the norm ||x||_Y = sqrt(x^T Y x); the
integer lattice Z^g is studied through four quantities:

* the first minimum  lambda_1(Y) = min_{m != 0} ||m||_Y,
* the distance-to-lattice function  psi_Y(x) = min_m ||x - m||_Y,
* the inhomogeneous minimum (covering radius)  mu(Y) = max_x psi_Y(x),
* the Bezout deep point: an explicit x = m/2 with the certified bound
  psi_Y(x) >= 1 / (2 lambda_1(Y^{-1})).

Minima are found by Fincke-Pohst ellipsoid enumeration on the Cholesky
factor R of an LLL-reduced basis. The squared radius is min_j ||b_j||^2 for
the first minimum and the nearest-plane distance for closest vectors, each
inflated against rounding, so the returned vectors are exact minimizers (up
to floating-point evaluation of the norm itself); a search tree that
outgrows its cap raises EnumerationLimitError. The search, and the
nearest-plane point before it, run on one of two paths with the same
arithmetic and so the same bits, and each caller picks its path once, by
what it holds. ``psi_sq_batch`` takes the batch path: level by level in
numpy for all its points at once (the frontier). ``closest_vector``,
``shortest_vector`` and ``mu_interval`` take the one-target path: depth
first on Python floats, which hands a tree of more than 2^12 nodes by the
Gaussian heuristic to the frontier as a one-row batch. LLL runs
on the Cholesky factor that Y already holds, updating the Gram-Schmidt
data incrementally, and carries the exact inverse of its transform.
mu(Y) is NP-hard to compute exactly and is returned only as a certified
two-sided enclosure. Its lower end needs only the largest psi over a point
set, so ``mu_interval`` searches one target at a time, largest upper bound
first, and stops once no bound can raise the max (an early exit in the
style of Schnorr-Euchner, Math. Programming 66, 1994).

The package's point sets have one builder each, here: ``_int_box`` (a box's
integer points in C order, also a product rule's index grid),
``_torus_points`` (points from outside) and ``_sobol``, the package's one
low-discrepancy sequence (``mu_interval``'s points, ``quadrature``'s QMC).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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
_LLL_TOL = 1e-9  # is_lll_reduced's rounding slack
_BOX_CAP = 1 << 21          # hard cap on a search tree's nodes (and on a box's points)
_RADIUS_SAFETY = 1 + 1e-12  # inflation so fp rounding cannot lose the minimizer
_ONE_TARGET_NODES = 1 << 12  # largest estimated tree that one target searches on Python floats
_LOG_ONE_TARGET_NODES = math.log(_ONE_TARGET_NODES)
_LOG_PI = math.log(math.pi)
_SOBOL_BITS = 30  # points are multiples of 2^-30, so a set holds <= 2^30 of them


class LatticeError(ValueError):
    """Invalid Gram matrix, or an enumeration that cannot be certified."""


class EnumerationLimitError(LatticeError):
    """A certified enumeration (search tree or box) is larger than the cap allows."""


class ConditionLimitError(LatticeError):
    """A Gram matrix past the condition number that double precision can certify."""


class GramMatrix:
    """Immutable symmetric positive-definite matrix with cached factorizations.

    The input must be exactly symmetric (symmetrize upstream if needed) and
    have condition number at most 1e12; beyond that double precision cannot
    certify the inequalities this package verifies.
    """

    __slots__ = ("g", "entries", "chol", "_cache")

    def __init__(self, entries, *, _derived: bool = False):
        Y = np.array(entries, dtype=float)
        if Y.ndim != 2 or Y.shape[0] != Y.shape[1] or Y.shape[0] == 0:
            raise LatticeError("Gram matrix must be square and non-empty")
        if not np.all(np.isfinite(Y)):
            raise LatticeError("Gram matrix entries must be finite")
        if not np.array_equal(Y, Y.T):
            raise LatticeError("Gram matrix must be exactly symmetric")
        # Forms derived from an accepted Y skip the eigenvalue test: Y^{-1} has
        # kappa(Y), but its estimate can land just past the limit, and t U^T Y U
        # is the LLL-reduced form that the enumerators already factor unchecked.
        if not _derived:
            eig = np.linalg.eigvalsh(Y)
            if eig[0] <= 0.0:
                raise LatticeError("Gram matrix must be positive definite")
            if eig[-1] > _COND_LIMIT * eig[0]:
                raise ConditionLimitError(
                    f"Gram matrix condition number {eig[-1] / eig[0]:.3e} exceeds {_COND_LIMIT:.0e}"
                )
        try:
            L = np.linalg.cholesky(Y)
        except np.linalg.LinAlgError as exc:
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
        """sqrt(det Y), from the Cholesky diagonal (cached)."""
        if "det_sqrt" not in self._cache:
            self._cache["det_sqrt"] = float(np.prod(np.diag(self.chol)))
        return self._cache["det_sqrt"]

    def inverse(self) -> "GramMatrix":
        """Y^{-1} = L^{-T} L^{-1} from the Cholesky factor L, as a GramMatrix
        (exactly symmetrized)."""
        if "inverse" not in self._cache:
            Li = np.linalg.inv(self.chol)
            Yi = Li.T @ Li
            self._cache["inverse"] = GramMatrix((Yi + Yi.T) / 2.0, _derived=True)
        return self._cache["inverse"]

    def _scaled_reduced(self, t: float) -> "GramMatrix":
        """t G for t > 0 and the LLL-reduced form G of ``_reduced``, cached per t."""
        if ("scaled", t) not in self._cache:
            self._cache[("scaled", t)] = GramMatrix(t * self._reduced()["G"], _derived=True)
        return self._cache[("scaled", t)]

    def lambda1(self) -> float:
        """First minimum lambda_1(Y)."""
        return shortest_vector(self).value

    def covering_upper(self) -> float:
        """Certified upper bound on mu(Y): half the Gram-Schmidt diagonal norm
        of an LLL-reduced basis (nearest-plane rounding bound)."""
        red = self._reduced()
        return 0.5 * math.sqrt(float(np.sum(np.diag(red["R"]) ** 2))) * _RADIUS_SAFETY

    def _reduced(self) -> dict:
        """LLL data: transform U, its exact inverse, the form G = U^T Y U, Cholesky R of G."""
        if "reduced" not in self._cache:
            U, Uinv = lll_reduce(self)
            G = U.T.astype(float) @ self.entries @ U.astype(float)
            G = (G + G.T) / 2.0
            R = np.linalg.cholesky(G).T  # upper triangular, positive diagonal
            self._cache["reduced"] = {
                "U": U,
                "Uinv": Uinv,
                "G": G,
                "R": R,
                "cols": R.T.tolist(),  # cols[k][i] = R_ik, for the one-target path
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


def _vector(Y: GramMatrix, x) -> np.ndarray:
    """x as a finite float vector of length g, else LatticeError."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != Y.g:
        raise LatticeError(f"vector of length {x.shape[0]} incompatible with g={Y.g}")
    if not np.all(np.isfinite(x)):
        raise LatticeError("vector entries must be finite")
    return x


def norm(Y: GramMatrix, x) -> float:
    """||x||_Y = sqrt(x^T Y x)."""
    x = _vector(Y, x)
    q = float(x @ Y.entries @ x)
    return math.sqrt(q) if q > 0.0 else 0.0


def _chol_gso(L):
    """Gram-Schmidt data of a basis from the lower Cholesky factor L of its
    Gram matrix: mu[i, j] = L_ij / L_jj (unit diagonal) and ||b*_i||^2 = L_ii^2."""
    d = np.diag(L)
    return L / d, d * d


def lll_reduce(Y: GramMatrix):
    """LLL-reduce the Cholesky basis of Y (the columns of ``Y.chol.T``).

    Returns ``(U, Uinv)``: U unimodular (int64) with U^T Y U reduced, and its
    exact inverse. The Gram-Schmidt data come from Y's own Cholesky factor;
    size reductions of b_k against b_{k-1}, ..., b_0 and swaps at a failed
    Lovasz test update them in place (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.3), and each column operation on U
    (column k -= q column j, or a swap) is mirrored on U^{-1} as the inverse
    row operation (row j += q row k, or the same swap). The loop runs on
    Python floats and ints: at these sizes that is faster than numpy, with
    the same IEEE double arithmetic.
    """
    mu, norms2 = (a.tolist() for a in _chol_gso(Y.chol))
    n = Y.g
    U = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of U
    V = [row[:] for row in U]                                # rows of U^{-1}
    k, steps = 1, 0
    while k < n:
        steps += 1
        if steps > 100_000:
            raise LatticeError("LLL failed to converge")
        mk, uk, vk = mu[k], U[k], V[k]
        for j in range(k - 1, -1, -1):
            q = round(mk[j])
            if q:
                mj, uj, vj = mu[j], U[j], V[j]
                for i in range(j + 1):
                    mk[i] -= q * mj[i]
                for i in range(n):
                    uk[i] -= q * uj[i]
                    vj[i] += q * vk[i]
        m = mk[k - 1]
        if norms2[k] >= (_LLL_DELTA - m * m) * norms2[k - 1]:
            k += 1
            continue
        # swap b_{k-1} and b_k
        U[k - 1], U[k] = U[k], U[k - 1]
        V[k - 1], V[k] = V[k], V[k - 1]
        mu[k - 1][: k - 1], mu[k][: k - 1] = mu[k][: k - 1], mu[k - 1][: k - 1]
        b = norms2[k] + m * m * norms2[k - 1]
        mu[k][k - 1] = m * norms2[k - 1] / b
        norms2[k] = norms2[k - 1] * norms2[k] / b
        norms2[k - 1] = b
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return np.array(U, dtype=np.int64).T, np.array(V, dtype=np.int64)


def is_lll_reduced(Y: GramMatrix) -> bool:
    """True iff the Cholesky basis of Y already satisfies size reduction and
    the Lovasz condition at delta = _LLL_DELTA, each up to _LLL_TOL."""
    mu, norms2 = _chol_gso(Y.chol)
    sub = np.diag(mu, -1)
    return bool(np.all(np.abs(np.tril(mu, -1)) <= 0.5 + _LLL_TOL)
                and np.all(norms2[1:] >= (_LLL_DELTA - sub * sub) * norms2[:-1] * (1 - _LLL_TOL)))


def _int_box(lows, highs):
    """All integer points of the axis-aligned box [lows, highs], as (M, g)
    C-contiguous int64 rows in C order (the last coordinate runs fastest)."""
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    sizes = (highs - lows + 1).tolist()  # Python ints: their product cannot overflow
    if min(sizes) <= 0:
        raise LatticeError("empty enumeration box")
    total = math.prod(sizes)
    if total > _BOX_CAP:
        raise EnumerationLimitError(f"enumeration box of {total} points exceeds cap {_BOX_CAP}")
    rows = np.indices(sizes, dtype=np.int64).reshape(len(sizes), -1).T + lows
    return np.ascontiguousarray(rows)


def _nearest_plane(R, T):
    """Babai's nearest-plane point for every row t of T against upper-
    triangular R, on the batch path. Returns ``(u, s, gap)``: u (float,
    integral), its squared distance s = ||R (u - t)||^2, formed level by
    level exactly as ``_closest`` forms the partial sums of the same path,
    and gap = min_{k >= 1} R_kk^2 (1 - |u_k - c_k|)^2. Every lattice point
    that leaves the path at a level k >= 1 is at squared distance >= gap, so
    u is a closest point where s < gap. ``_nearest_plane_one`` is the
    one-target path, with the same arithmetic and so the same bits."""
    N, g = T.shape
    diag = np.diag(R)
    u = np.empty((N, g))
    s = np.zeros(N)
    gap = np.full(N, np.inf)
    acc = np.zeros((N, g))
    for k in range(g - 1, -1, -1):
        c = T[:, k] - acc[:, k] / diag[k]
        u[:, k] = np.rint(c)
        y = diag[k] * (u[:, k] - c)
        s = s + y * y
        if k > 0:
            gap = np.minimum(gap, (diag[k] - np.abs(y)) ** 2)
            acc[:, :k] += (u[:, k] - T[:, k])[:, None] * R[:k, k]
    return u, s, gap


def _rint(x: float) -> float:
    """np.rint on a Python float: nearest integer, ties to even, sign kept."""
    return math.copysign(round(x), x)


def _nearest_plane_one(cols, t):
    """``_nearest_plane`` for one target t (a list), with cols[k][i] = R_ik."""
    g = len(t)
    u = [0.0] * g
    s, gap = 0.0, math.inf
    acc = [0.0] * g
    for k in range(g - 1, -1, -1):
        col = cols[k]
        c = t[k] - acc[k] / col[k]
        u[k] = uk = _rint(c)
        y = col[k] * (uk - c)
        s = s + y * y
        if k > 0:
            d = col[k] - abs(y)
            gap = min(gap, d * d)
            a = uk - t[k]
            for i in range(k):
                acc[i] += a * col[i]
    return u, s, gap


def _small_tree(diag, bound: float) -> bool:
    """Whether the Gaussian-heuristic size of one target's search tree,
    sum_j V_j(sqrt(bound)) / prod_{i >= g - j} R_ii with V_j(r) the volume
    of the j-ball of radius r, is at most _ONE_TARGET_NODES."""
    if bound <= 0.0:
        return True
    log_r = 0.5 * math.log(bound)
    total = log_det = 0.0
    for j, r in enumerate(reversed(diag), 1):
        log_det += math.log(r)
        e = j * (0.5 * _LOG_PI + log_r) - math.lgamma(0.5 * j + 1.0) - log_det
        if e > _LOG_ONE_TARGET_NODES:
            return False
        total += math.exp(e)
    return total <= _ONE_TARGET_NODES


def _closest(R, T, bound, nonzero: bool = False) -> np.ndarray:
    """For every row t of T, an integer u (float, (N, g)) minimizing
    ||R (u - t)||^2 over the u whose squared distance is at most that row's
    ``bound``; with ``nonzero`` (for T = 0 only), over the u != 0.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985), level by level for all
    rows at once: coordinate k runs from g - 1 down to 1, and the children
    of a node are the integers u_k whose partial sum
    sum_{j >= k} R_jj^2 (u_j - c_j)^2 stays within its row's bound; at
    level 0 the nearest integer to c_0 is the best completion of each node.
    A node's row Z holds the offsets sum_{j > i} R_ij (u_j - t_j) of the
    levels i <= k still to come and the chosen u_j of the levels above. A
    frontier of n nodes with at most w children each is expanded in halves,
    depth first, while n w > 2^22 / g^2, so the frontiers pending at all
    levels hold at most 2^22 entries. A row whose search tree grows past
    _BOX_CAP nodes raises EnumerationLimitError, however many rows there
    are. A row with no lattice point within its bound keeps u = 0. This is
    the batch path (``psi_sq_batch``); ``_closest_one`` hands it only a large
    tree, as a one-row batch.

    Ties: among points at exactly the same squared distance, the last in the
    search order wins; the order is ascending in u_{g-1}, then in u_{g-2},
    and so on. The frontier follows that rule within each frontier it
    expands whole; across the halves of a split frontier the first wins.
    """
    N, g = T.shape
    Tt = np.ascontiguousarray(T.T)
    diag = np.diag(R)
    block = max(1, (1 << 22) // (g * g))
    best = np.full(N, np.inf)
    best_u = np.zeros((N, g))
    nodes = np.zeros(N)
    stack = [(g - 1, np.arange(N), np.zeros(N), np.zeros((N, g)))]
    while stack:
        k, own, s, Z = stack.pop()
        c = Tt[k].take(own) - Z[:, k] / diag[k]
        if k == 0:
            u0 = np.rint(c)
            if nonzero:  # at t = 0, s = 0 only on the path u_j = 0 for all j >= 1
                zero = (u0 == 0.0) & (s == 0.0)
                u0[zero] = np.where(c[zero] < 0.0, -1.0, 1.0)
            y = diag[0] * (u0 - c)
            s = s + y * y
            Z[:, 0] = u0
            prev = best.take(own)
            np.minimum.at(best, own, s)
            win = np.flatnonzero((s < prev) & (s == best.take(own)))
            best_u[own.take(win)] = Z.take(win, axis=0)
            continue
        w = np.sqrt(np.maximum(bound.take(own) - s, 0.0)) / diag[k]
        lo = np.ceil(c - w)
        cnt = np.floor(c + w) - lo + 1.0  # >= 0, as w >= 0
        width = int(cnt.max())
        if own.shape[0] * width > block and own.shape[0] > 1:
            h = own.shape[0] // 2
            stack.append((k, own[h:], s[h:], Z[h:]))
            stack.append((k, own[:h], s[:h], Z[:h]))
            continue
        nodes += np.bincount(own, weights=cnt, minlength=N)
        if nodes.max() > _BOX_CAP:
            raise EnumerationLimitError(
                f"enumeration tree of {int(nodes.max())} nodes exceeds cap {_BOX_CAP}")
        # children u_k = lo, lo + 1, ..., grouped by parent
        par, j = np.nonzero(np.arange(width) < cnt[:, None])
        uk = lo.take(par) + j
        y = diag[k] * (uk - c.take(par))
        own2, Z2 = own.take(par), Z.take(par, axis=0)
        Z2[:, k] = uk
        Z2[:, :k] += (uk - Tt[k].take(own2))[:, None] * R[:k, k]
        if par.shape[0]:
            stack.append((k - 1, own2, s.take(par) + y * y, Z2))
    return best_u


def _closest_one(red, t, bound: float, nonzero: bool = False, floor: float = -math.inf):
    """``_closest`` for one target t (a list) on the LLL data ``red``, as a
    list. A tree small by the Gaussian heuristic (``_small_tree``) runs depth
    first on Python floats, children ascending: its leaves come in the
    frontier's order (the last of equal ones wins) and it trips the cap where
    the frontier would, but returns at its first leaf below ``floor``. A
    larger tree goes to the frontier as a one-row batch, which ignores it."""
    cols, g = red["cols"], len(t)
    diag = [cols[k][k] for k in range(g)]
    if not _small_tree(diag, bound):
        return _closest(red["R"], np.array([t]), np.array([bound]), nonzero)[0].tolist()
    u = [0.0] * g
    best, best_u, nodes = math.inf, [0.0] * g, 0

    def visit(k, s, Z):  # True once a leaf below floor is found
        nonlocal best, best_u, nodes
        c = t[k] - Z[k] / diag[k]
        if k == 0:
            u0 = _rint(c)
            if nonzero and u0 == 0.0 and s == 0.0:  # the all-zero path, at t = 0 only
                u0 = -1.0 if c < 0.0 else 1.0
            y = diag[0] * (u0 - c)
            s = s + y * y
            if s <= best:
                best, best_u = s, [u0] + u[1:]
            return best < floor
        w = math.sqrt(max(bound - s, 0.0)) / diag[k]
        lo, hi = math.ceil(c - w), math.floor(c + w)
        nodes += hi - lo + 1  # >= 0, as w >= 0
        if nodes > _BOX_CAP:
            raise EnumerationLimitError(
                f"enumeration tree of {nodes} nodes exceeds cap {_BOX_CAP}")
        col, tk, dk = cols[k], t[k], diag[k]
        for uk in range(lo, hi + 1):
            uk = float(uk)
            y = dk * (uk - c)
            a = uk - tk
            u[k] = uk
            if visit(k - 1, s + y * y, [Z[i] + a * col[i] for i in range(k)]):
                return True
        return False

    visit(g - 1, 0.0, [0.0] * g)
    return best_u


def _closest_row(red, t, ub: float = math.inf, L: float = 0.0):
    """A u (a list) closest to one target t (a list) on the LLL data ``red``,
    or any u below L where the least is: the nearest-plane point where it is
    certified (s < gap) or below L, else ``_closest_one`` within min(ub, s)
    and with floor L, both scaled by _RADIUS_SAFETY against rounding."""
    u, s, gap = _nearest_plane_one(red["cols"], t)
    if s * _RADIUS_SAFETY + 1e-300 < gap or s * _RADIUS_SAFETY < L:
        return u
    return _closest_one(red, t, min(ub, s) * _RADIUS_SAFETY + 1e-300, False, L / _RADIUS_SAFETY)


def shortest_vector(Y: GramMatrix) -> ShortestVector:
    """Exact first minimum: a nonzero m in Z^g minimizing ||m||_Y.

    Ellipsoid enumeration (``_closest_one`` at t = 0, u != 0) over the
    LLL-reduced basis, with squared radius min_j ||b_j||^2 (inflated by
    _RADIUS_SAFETY against rounding), so no minimizer is missed. Of equal
    minimizers (m and -m among them), the last in ``_closest``'s search
    order wins. The result is cached on Y, with m read-only.
    """
    if "shortest" not in Y._cache:
        red = Y._reduced()
        bound = float(red["col_sq"].min()) * _RADIUS_SAFETY
        u = _closest_one(red, [0.0] * Y.g, bound, True)
        m = red["U"] @ np.array(u, dtype=np.int64)
        m.setflags(write=False)
        Y._cache["shortest"] = ShortestVector(m=m, value=norm(Y, m.astype(float)))
    return Y._cache["shortest"]


def closest_vector(Y: GramMatrix, x) -> ClosestVector:
    """Exact closest lattice vector: m in Z^g minimizing ||x - m||_Y.

    Ellipsoid enumeration on the LLL-reduced basis within the nearest-plane
    distance of x (``_closest_row``); psi_Y(x) = the value is Z^g-periodic.
    """
    x = _vector(Y, x)
    red = Y._reduced()
    t = x.reshape(1, -1) @ red["Uinv"].T.astype(float)
    m = red["U"] @ np.array(_closest_row(red, t[0].tolist()), dtype=np.int64)
    return ClosestVector(m=m, value=norm(Y, x - m))


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
    d = math.gcd(*gam)
    if d > 1:  # cannot happen for a true minimizer; keep the certificate honest
        gam = [a // d for a in gam]
        lam_dual = norm(Yi, np.array(gam, dtype=float))
    m = _bezout_coefficients(gam)
    x = np.array(m, dtype=float) / 2.0
    return DeepPoint(x=x, certified_lo=1.0 / (2.0 * lam_dual))


def _torus_points(points, dim: int, label: str, error) -> np.ndarray:
    """Finite points of dimension ``dim``, reduced mod 1, as the N >= 0 rows of
    a 2-D array (or one point as a 1-D array); anything else raises ``error``."""
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P.reshape(1, -1)
    if P.ndim != 2:
        raise error(f"points must be one point or rows of points, got shape {P.shape}")
    if P.shape[1] != dim:
        raise error(f"points of dimension {P.shape[1]} incompatible with {label}")
    if not np.all(np.isfinite(P)):
        raise error("points must be finite")
    return P - np.floor(P)


def psi_sq_batch(Y: GramMatrix, points) -> np.ndarray:
    """psi_Y(x)^2 for many points (``_torus_points``) at once, exact, on the
    batch path: ``closest_vector``'s search, but with the nearest plane and
    the frontier (``_closest``) run on all uncertified points together.
    ||x - m||_Y^2 is formed from x - m."""
    P = _torus_points(points, Y.g, f"g={Y.g}", LatticeError)
    red = Y._reduced()
    R = red["R"]
    T = P @ red["Uinv"].T.astype(float)
    u, s, gap = _nearest_plane(R, T)
    bound = s * _RADIUS_SAFETY + 1e-300
    rows = np.flatnonzero(bound >= gap)
    if rows.shape[0]:
        u[rows] = _closest(R, T[rows], bound[rows])
    D = P - u @ red["U"].T.astype(float)
    return np.maximum(np.einsum("ij,ij->i", D, D @ Y.entries), 0.0)


@lru_cache(maxsize=16)  # keyed by g
def _short_steps(g: int) -> np.ndarray:
    """0, then the 2g^2 short differences +-e_i and +-e_i +- e_j (i < j),
    as the rows of a read-only float array."""
    E = np.eye(g)
    i, j = np.triu_indices(g, 1)
    pairs = [a * E[i] + b * E[j] for a in (1, -1) for b in (1, -1)]
    V = np.vstack([np.zeros((1, g)), E, -E, *pairs])
    V.setflags(write=False)
    return V


def _psi_sq_max(Y: GramMatrix, P: np.ndarray) -> float:
    """max psi_Y(x)^2 over the rows x of P (in [0, 1)^g), with the bits of
    ``psi_sq_batch(Y, P).max()`` but an exact search of only the rows that
    can hold the max.

    In LLL coordinates t, each row's round-off point rint(t), moved by the
    best of the short steps (``_short_steps``, all rows and steps in one
    GEMM), is a lattice point at squared distance ub, recomputed directly
    at the chosen point. Rows are taken in descending ub until
    ub * _RADIUS_SAFETY falls below L, the largest exact psi^2 so far, each
    on the one-target path (``_closest_row`` within ub, below L): its tree
    is no larger than ``psi_sq_batch``'s, and it stops at its first leaf
    below L / _RADIUS_SAFETY, as such a row cannot hold the max. psi^2 is
    then formed for every row by ``psi_sq_batch``'s expression from the
    row's best known point; the max falls on a row whose point is exact.
    """
    red = Y._reduced()
    R = red["R"]
    T = P @ red["Uinv"].T.astype(float)
    V = _short_steps(Y.g)
    VR = V @ R.T
    u = np.rint(T)
    d = ((u - T) @ R.T) @ (2.0 * VR.T)  # ||R (u + v - t)||^2 - ||R (u - t)||^2 per step v
    d += (VR * VR).sum(axis=1)          # in place: one more (N, 2g^2) array costs more
    u += V[d.argmin(axis=1)]
    Z = (u - T) @ R.T
    ub = np.einsum("ij,ij->i", Z, Z)
    ubs = ub.tolist()
    L = 0.0
    for i in np.argsort(-ub, kind="stable").tolist():
        if ubs[i] * _RADIUS_SAFETY < L:
            break
        u[i] = _closest_row(red, T[i].tolist(), ubs[i], L)
        z = (u[i] - T[i]) @ R.T
        L = max(L, float(z @ z))
    D = P - u @ red["U"].T.astype(float)
    return float(np.maximum(np.einsum("ij,ij->i", D, D @ Y.entries), 0.0).max())


def _count(budget, error) -> int:
    """A budget as an integer >= 1 (``operator.index``, no bool), else ``error``."""
    if isinstance(budget, bool):
        raise error(f"budget must be an integer, got {budget!r}")
    try:
        budget = operator.index(budget)
    except TypeError:
        raise error(f"budget must be an integer, got {budget!r}") from None
    if budget < 1:
        raise error("budget must be >= 1")
    return budget


# Sobol dimensions 2-64 of Joe & Kuo's table new-joe-kuo-6.21201 (the first 63
# rows after the first of scipy's stats/_sobol_direction_numbers.npz): the
# primitive polynomial as an integer whose binary digits are its coefficients,
# and its initial direction numbers m_1 .. m_s, s the degree. Dimension 1 is
# the van der Corput sequence (every m_j = 1).
_SOBOL_POLY = (
    3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109, 115, 131, 137,
    143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213, 229, 239, 241, 247, 253, 285,
    299, 301, 333, 351, 355, 357, 361, 369, 391, 397, 425, 451, 463, 487, 501, 529, 539,
    545, 557, 563, 601, 607, 617, 623, 631, 637,
)
_SOBOL_MINIT = (
    (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53),
    (1, 3, 1, 13, 9, 35, 107), (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61),
    (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59),
    (1, 1, 3, 9, 25, 29, 41), (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17),
    (1, 3, 1, 3, 5, 53, 69), (1, 1, 5, 5, 23, 33, 13), (1, 1, 7, 7, 1, 61, 123),
    (1, 1, 7, 9, 13, 61, 49), (1, 3, 3, 5, 3, 55, 33), (1, 3, 1, 15, 31, 13, 49, 245),
    (1, 3, 5, 15, 31, 59, 63, 97), (1, 3, 1, 11, 11, 11, 77, 249), (1, 3, 1, 11, 27, 43, 71, 9),
    (1, 1, 7, 15, 21, 11, 81, 45), (1, 3, 7, 3, 25, 31, 65, 79), (1, 3, 1, 1, 19, 11, 3, 205),
    (1, 1, 5, 9, 19, 21, 29, 157), (1, 3, 7, 11, 1, 33, 89, 185), (1, 3, 3, 3, 15, 9, 79, 71),
    (1, 3, 7, 11, 15, 39, 119, 27), (1, 1, 3, 1, 11, 31, 97, 225), (1, 1, 1, 3, 23, 43, 57, 177),
    (1, 3, 7, 7, 17, 17, 37, 71), (1, 3, 1, 5, 27, 63, 123, 213), (1, 1, 3, 5, 11, 43, 53, 133),
    (1, 3, 5, 5, 29, 17, 47, 173, 479), (1, 3, 3, 11, 3, 1, 109, 9, 69),
    (1, 1, 1, 5, 17, 39, 23, 5, 343), (1, 3, 1, 5, 25, 15, 31, 103, 499),
    (1, 1, 1, 11, 11, 17, 63, 105, 183), (1, 1, 5, 11, 9, 29, 97, 231, 363),
    (1, 1, 5, 15, 19, 45, 41, 7, 383), (1, 3, 7, 7, 31, 19, 83, 137, 221),
    (1, 1, 1, 3, 23, 15, 111, 223, 83), (1, 1, 5, 13, 31, 15, 55, 25, 161),
    (1, 1, 3, 13, 25, 47, 39, 87, 257),
)
_SOBOL_MAX_DIM = 1 + len(_SOBOL_POLY)


@lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """Direction numbers V (d, 30), uint32: V[i, k] = m_{k+1} 2^(29 - k) in
    dimension i + 1, the m_j beyond the initial ones from the polynomial's
    recurrence (Bratley & Fox 1988, eq. 2)."""
    rows = [[1] * _SOBOL_BITS]
    for p, minit in zip(_SOBOL_POLY[:d - 1], _SOBOL_MINIT):
        s, m = len(minit), list(minit)
        for j in range(s, _SOBOL_BITS):
            new = m[j - s]
            for k in range(s):
                if p >> (s - 1 - k) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        rows.append(m)
    return np.array(rows, dtype=np.uint32) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


def _sobol(d: int, m: int) -> np.ndarray:
    """The first m points (0 included) of the unscrambled d-dimensional Sobol
    sequence in Gray-code order (Bratley & Fox, ACM TOMS 14, 1988) on the
    Joe-Kuo direction numbers (SIAM J. Sci. Comput. 30, 2008): scipy's
    ``qmc.Sobol(d, scramble=False)``, bit for bit. By reflection, points
    2^k .. 2^(k+1) - 1 are points 2^k - 1 .. 0 XOR the k-th direction numbers."""
    if d > _SOBOL_MAX_DIM:
        raise EnumerationLimitError(
            f"Sobol dimension {d} exceeds the {_SOBOL_MAX_DIM} of the direction-number table")
    if m > 1 << _SOBOL_BITS:
        raise EnumerationLimitError(f"Sobol set of {m} points exceeds cap 2^{_SOBOL_BITS}")
    V = _sobol_directions(d)
    x = np.zeros((m, d), dtype=np.uint32)
    n, k = 1, 0
    while n < m:
        step = min(n, m - n)
        x[n:n + step] = x[n - 1::-1][:step] ^ V[:, k]
        n, k = 2 * n, k + 1
    return x * 2.0 ** -_SOBOL_BITS


@lru_cache(maxsize=16)  # keyed by (g, budget); the CLI uses one budget
def _sobol_cached(d: int, m: int) -> np.ndarray:
    """``_sobol(d, m)``, read-only, for ``mu_interval``; the QMC's sets are not kept."""
    x = _sobol(d, m)
    x.setflags(write=False)
    return x


def mu_interval(Y: GramMatrix, budget: int = 512) -> IntervalEstimate:
    """Certified enclosure of the inhomogeneous minimum mu(Y).

    lo: the best psi_Y value over the Bezout deep point, every half-integer
    corner (g <= 4) and the first ``budget`` Sobol points (``_sobol``, cached
    per (g, budget)); always a true lower bound. It has the bits of the max of
    ``psi_sq_batch`` over those points, but ``_psi_sq_max`` searches only the
    few that can hold the max, one at a time.
    hi: the nearest-plane covering bound on an LLL-reduced basis.

    ``budget`` is a count (``_count``; else LatticeError) up to _BOX_CAP; a
    larger one raises EnumerationLimitError before any point is made.
    """
    budget = _count(budget, LatticeError)
    if budget > _BOX_CAP:
        raise EnumerationLimitError(f"budget {budget} exceeds cap {_BOX_CAP}")
    g = Y.g
    pts = [bezout_deep_point(Y).x.reshape(1, -1)]
    if g <= 4:
        pts.append(_int_box([0] * g, [1] * g) / 2.0)
    pts.append(_sobol_cached(g, budget))
    P = np.vstack(pts)
    lo = math.sqrt(_psi_sq_max(Y, P - np.floor(P))) * (1 - 1e-12)
    return IntervalEstimate(lo=lo, hi=Y.covering_upper())
