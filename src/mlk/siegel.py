"""Period matrices in the Siegel upper half space.

A period matrix Omega = X + iY (X, Y symmetric, Y positive definite)
presents the complex torus C^g / (Z^g + Omega Z^g) with its principal
polarization. This module validates such matrices, applies a partial
reduction (exact for g = 1), evaluates the Riemann form of the
polarization, and computes the injectivity diameter rho = the shortest
period length, by a single 2g-dimensional shortest-vector call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import ConditionLimitError, GramMatrix, LatticeError, shortest_vector

__all__ = [
    "SiegelError",
    "ReducedFlags",
    "PeriodMatrix",
    "LambdaInfo",
    "validate_period_matrix",
    "reduce",
    "riemann_form_norm",
    "injectivity_diameter",
    "lambda_clamped",
]

_SQRT3_HALF = math.sqrt(3.0) / 2.0
_SYM_TOL = 1e-10
_RE_TOL = 1e-12
_LAM_TOL = 1e-10
_TAU_ABS_MIN = 1.0 - 1e-15  # |tau| where the g = 1 reduction stops


class SiegelError(ValueError):
    """Invalid period matrix or an operation requiring a reduced one."""


@dataclass(frozen=True)
class ReducedFlags:
    """What ``is_reduced`` requires of Omega = X + iY. At g = 1 the two
    flags together are the standard fundamental domain: |Re tau| <= 1/2,
    and |tau| >= 1 (-1e-15, where ``reduce`` stops) on top of
    Im tau >= sqrt(3)/2, so rho = lambda_1(Y^{-1}) there."""

    re_normalized: bool   # all |X_ij| <= 1/2 (+1e-12)
    lambda1_ok: bool      # lambda_1(Y)^2 >= sqrt(3)/2 (-1e-10); g = 1: also |tau| >= 1 (-1e-15)


class PeriodMatrix:
    """Validated element of the Siegel space, with reduction flags."""

    __slots__ = ("g", "X", "Y", "flags")

    def __init__(self, X, Y):
        raise SiegelError("use validate_period_matrix() to construct a PeriodMatrix")

    @classmethod
    def _make(cls, X: np.ndarray, Y: GramMatrix) -> "PeriodMatrix":
        self = object.__new__(cls)
        X = np.array(X, dtype=float)
        X.setflags(write=False)
        object.__setattr__(self, "g", Y.g)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        lam1 = shortest_vector(Y).value
        tau_ok = Y.g > 1 or abs(complex(X[0, 0], Y.entries[0, 0])) >= _TAU_ABS_MIN
        object.__setattr__(
            self,
            "flags",
            ReducedFlags(
                re_normalized=bool(np.max(np.abs(X)) <= 0.5 + _RE_TOL),
                lambda1_ok=lam1 * lam1 >= _SQRT3_HALF - _LAM_TOL and tau_ok,
            ),
        )
        return self

    def __setattr__(self, name, value):
        raise AttributeError("PeriodMatrix is immutable")

    def __repr__(self):
        return f"PeriodMatrix(g={self.g}, flags={self.flags})"

    @property
    def is_reduced(self) -> bool:
        return self.flags.re_normalized and self.flags.lambda1_ok


def _symmetrize(A: np.ndarray, label: str) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(A))))
    if np.max(np.abs(A - A.T)) > _SYM_TOL * scale:
        raise SiegelError(f"{label} part is not symmetric within 1e-10 relative")
    return (A + A.T) / 2.0


def validate_period_matrix(X, Y) -> PeriodMatrix:
    """Construct a PeriodMatrix from real and imaginary parts.

    Inputs slightly asymmetric (up to 1e-10 relative, as produced by other
    numerical pipelines) are symmetrized; worse asymmetry and non-positive-
    definite imaginary parts are rejected. Inputs are never mutated.
    """
    X = np.array(X, dtype=float)
    Y = np.array(Y, dtype=float)
    if X.ndim != 2 or X.shape != Y.shape or X.shape[0] != X.shape[1] or X.shape[0] == 0:
        raise SiegelError("real and imaginary parts must be square matrices of equal size")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise SiegelError("period matrix entries must be finite")
    Xs = _symmetrize(X, "real")
    Ys = _symmetrize(Y, "imaginary")
    try:
        gram = GramMatrix(Ys)
    except LatticeError as exc:
        raise SiegelError(f"imaginary part rejected: {exc}") from exc
    return PeriodMatrix._make(Xs, gram)


def _reduce_g1(om: PeriodMatrix) -> PeriodMatrix:
    """Classical translation/inversion loop onto |Re tau| <= 1/2, |tau| >= 1."""
    tau = complex(om.X[0, 0], om.Y.entries[0, 0])
    for _ in range(10_000):
        tau = complex(tau.real - np.round(tau.real), tau.imag)
        if abs(tau) >= _TAU_ABS_MIN:
            break
        tau = -1.0 / tau
    else:  # pragma: no cover
        raise SiegelError("fundamental-domain reduction did not terminate")
    return validate_period_matrix([[tau.real]], [[tau.imag]])


def reduce(om: PeriodMatrix) -> PeriodMatrix:
    """Reduce a period matrix without changing the torus it presents.

    g = 1: exact reduction to the standard fundamental domain. g >= 2:
    partial reduction only -- an LLL unimodular congruence on Y (applied
    simultaneously to X) followed by integer symmetric translations taking
    the entries of X into [-1/2, 1/2]. Both steps are isomorphisms, so the
    injectivity diameter is unchanged; the result may still have
    lambda1_ok = False (the caller decides), never an error.
    """
    if om.g == 1:
        return _reduce_g1(om)
    red = om.Y._reduced()  # cached: PeriodMatrix._make found lambda_1 through it
    Uf = red["U"].astype(float)
    Xnew = Uf.T @ om.X @ Uf
    Xnew = (Xnew + Xnew.T) / 2.0
    Xnew = Xnew - np.rint(Xnew)
    return validate_period_matrix(Xnew, red["G"])


def riemann_form_norm(om: PeriodMatrix, m, n) -> float:
    """H(gamma; gamma) for the period gamma = m + Omega n, m, n in Z^g.

    Evaluated through the real decomposition
    (m + Xn)^T Y^{-1} (m + Xn) + n^T Y n, which is positive definite on
    Z^{2g}: it vanishes only at (m, n) = (0, 0). m + Xn is summed exactly
    in integers over a common power-of-two denominator and rounded once,
    as it cancels where H is far below |X||n| (at the shortest periods of
    a small det Y).
    """
    m = np.asarray(m, dtype=float).reshape(-1)
    n = np.asarray(n, dtype=float).reshape(-1)
    if m.shape[0] != om.g or n.shape[0] != om.g:
        raise SiegelError(f"integer vectors must have length g={om.g}")
    if not all(np.all(np.isfinite(v) & (v == np.rint(v))) for v in (m, n)):
        raise SiegelError("m and n must be integer vectors")
    nk = [int(k) for k in n.tolist()]
    v = []
    for mi, row in zip(m.tolist(), om.X.tolist()):
        pq = [x.as_integer_ratio() for x in row]  # x = p / q, q a power of two
        q = max(d for _, d in pq)
        v.append((int(mi) * q + sum(p * (q // d) * k for (p, d), k in zip(pq, nk))) / q)
    v = np.array(v)
    h = float(v @ (om.Y.inverse().entries @ v)) + float(n @ om.Y.entries @ n)
    return max(h, 0.0)


def _period_gram(om: PeriodMatrix) -> GramMatrix:
    """2g x 2g Gram matrix of the Riemann form on (m, n) coordinates."""
    Yi = om.Y.inverse().entries
    B = Yi @ om.X
    D = om.X @ Yi @ om.X + om.Y.entries
    G = np.block([[Yi, B], [B.T, D]])
    G = (G + G.T) / 2.0
    try:
        return GramMatrix(G)
    except ConditionLimitError as exc:  # valid input that cannot be certified (y^2 at tau = i y)
        raise ConditionLimitError(f"period Gram matrix rejected: {exc}") from exc
    except LatticeError as exc:
        raise SiegelError(f"period Gram matrix rejected: {exc}") from exc


def injectivity_diameter(om: PeriodMatrix) -> float:
    """rho = min over nonzero periods gamma of sqrt(H(gamma; gamma)).

    An exact 2g-dimensional shortest-vector computation; invariant under
    reduce() since both reduction steps are isomorphisms of the torus. The
    search finds the minimizing (m, n); its length is then taken through
    ``riemann_form_norm``, since m^T G m on the period Gram G cancels
    where G's entries are far larger than H (small det Y).
    """
    m = shortest_vector(_period_gram(om)).m
    return math.sqrt(riemann_form_norm(om, m[:om.g], m[om.g:]))


class LambdaInfo(NamedTuple):
    lam: float          # min(lambda_1(Y^{-1}), sqrt(pi / 3g))
    rho_clamped: float  # min(rho, sqrt(pi / 3g))
    agrees: bool        # |lam - rho_clamped| <= 1e-9
    rho: float          # the unclamped injectivity diameter


def lambda_clamped(om: PeriodMatrix) -> LambdaInfo:
    """Clamped dual first minimum vs clamped injectivity diameter.

    For a reduced period matrix the two clamped quantities coincide: periods
    with n != 0 have squared length >= lambda_1(Y)^2 >= sqrt(3)/2 > pi/(3g)
    when g >= 2, and for g = 1 the fundamental domain (which ``is_reduced``
    checks, |tau| >= 1 included) gives rho = lambda_1(Y^{-1}) outright; so
    both minima clamp identically, and ``bounds.verify_chain`` takes lam
    for the clamped rho. ``agrees`` checks it on the input at hand, which
    need not be reduced.
    """
    clamp = math.sqrt(math.pi / (3.0 * om.g))
    lam = min(om.Y.inverse().lambda1(), clamp)
    rho = injectivity_diameter(om)
    rho_c = min(rho, clamp)
    return LambdaInfo(lam=lam, rho_clamped=rho_c, agrees=abs(lam - rho_c) <= 1e-9, rho=rho)
