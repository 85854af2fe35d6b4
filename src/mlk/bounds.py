"""Effective Faltings-height lower bounds and the full verification chain.

The central bound: for a principally polarized abelian variety over a
number field of degree d, with per-embedding injectivity diameters rho_s
clamped at sqrt(pi/(3g)),

    h_Fa >= (1/d) * sum_s [ pi / (6 rho_s^2) + g ln(kappa rho_s sqrt(g)) ],

with kappa = sqrt(3 / (2 pi^3 e)). The bound follows from the archimedean
theta invariant I = -int ln||s|| + (1/2) ln int ||s||^2: each link of that
derivation (Parseval identity, Jensen step against the log-Gaussian
integral bound, the 2I lower bound, and the final comparison) is exposed
here as a numeric check with explicit slack. The Parseval link is checked
in closed form: the direct Gaussian sum of f_Y(2; y) over Y, which is the
x-integral of ||s||^2 whatever X is, against f_Y's Poisson dual over Y^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeError
from .quadrature import (QuadratureError, QuadratureResult, _integral_ln, _tensor_gauss,
                         integrate_cube)
from .siegel import PeriodMatrix, SiegelError, injectivity_diameter
from .theta import ThetaError, _cube_norm_grid, _f_grid, _slice_norm_sq, cube_norm_batch

__all__ = [
    "BoundsError",
    "EmbeddingSet",
    "EmbeddingTerm",
    "BoundReport",
    "CheckEntry",
    "ChainReport",
    "kappa",
    "rho_clamp",
    "height_term",
    "height_lower_bound",
    "weakened_height_bound",
    "log_gaussian_bound",
    "archimedean_invariant",
    "height_from_theta_invariants",
    "verify_chain",
]

# ||s|| is clipped up to the smallest normal double (ln ~ -708), only where it
# underflows; the clip biases I downward.
_CLIP_FLOOR = float(np.finfo(float).tiny)


class BoundsError(ValueError):
    """Invalid embedding data or a bound evaluated outside its domain."""


def _per_embedding(periods, f) -> list:
    """[f(i, om) for the embeddings i, om]; an error from embedding i is
    re-raised as its own class with the message prefixed "embedding i: ",
    so the CLI names the embedding and keeps the error's exit code."""
    out = []
    for i, om in enumerate(periods):
        try:
            out.append(f(i, om))
        except (BoundsError, LatticeError, QuadratureError, SiegelError, ThetaError) as exc:
            raise type(exc)(f"embedding {i}: {exc}") from exc
    return out


@dataclass(frozen=True)
class EmbeddingSet:
    """Dimension g, field degree d, and one period matrix for each of the d
    embeddings: every bound averages over all of them, so partial data is
    rejected here."""

    g: int
    degree: int
    periods: tuple[PeriodMatrix, ...]

    def __init__(self, g: int, degree: int, periods):
        periods = tuple(periods)
        if g < 1 or degree < 1:
            raise BoundsError("dimension and degree must be >= 1")
        if len(periods) != degree:
            kind = "incomplete embedding data" if len(periods) < degree else "too many embeddings"
            raise BoundsError(f"{kind}: {len(periods)} period matrices for degree {degree}")
        for i, om in enumerate(periods):
            if om.g != g:
                raise BoundsError(f"embedding {i} has dimension {om.g}, expected {g}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "periods", periods)


@dataclass(frozen=True)
class EmbeddingTerm:
    rho: float
    rho_clamped: float
    term: float


@dataclass(frozen=True)
class BoundReport:
    per_embedding: tuple[EmbeddingTerm, ...]
    total: float            # averaged height lower bound
    weak_total: float       # simplified (epsilon) form of the bound
    epsilon: float
    kappa: float
    clamp_count: int


@dataclass(frozen=True)
class CheckEntry:
    """One numeric check. Build it with ``at_least``, ``at_most`` or
    ``equal``: each passes exactly when slack >= -tolerance, with the slack
    reported before any error allowance."""

    name: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool
    error_estimate: float = 0.0

    @classmethod
    def _judged(cls, name, lhs, rhs, slack, tolerance, error_estimate) -> "CheckEntry":
        return cls(name, lhs, rhs, slack, tolerance, bool(slack >= -tolerance), error_estimate)

    @classmethod
    def at_least(cls, name: str, lhs: float, rhs: float, tolerance: float,
                 error_estimate: float = 0.0) -> "CheckEntry":
        """lhs >= rhs, with slack lhs - rhs."""
        return cls._judged(name, lhs, rhs, lhs - rhs, tolerance, error_estimate)

    @classmethod
    def at_most(cls, name: str, lhs: float, rhs: float, tolerance: float,
                error_estimate: float = 0.0) -> "CheckEntry":
        """lhs <= rhs, with slack rhs - lhs."""
        return cls._judged(name, lhs, rhs, rhs - lhs, tolerance, error_estimate)

    @classmethod
    def equal(cls, name: str, lhs: float, rhs: float, tolerance: float,
              error_estimate: float = 0.0) -> "CheckEntry":
        """lhs == rhs, with slack -|lhs - rhs|."""
        return cls._judged(name, lhs, rhs, -abs(lhs - rhs), tolerance, error_estimate)


@dataclass(frozen=True)
class ChainReport:
    entries: tuple[CheckEntry, ...]
    all_passed: bool


def kappa() -> float:
    """kappa = sqrt(3 / (2 pi^3 e)), the sharp constant of the bound."""
    return math.sqrt(3.0 / (2.0 * math.pi**3 * math.e))


def rho_clamp(g: int) -> float:
    """Clamp value sqrt(pi / (3g)) applied to every injectivity diameter."""
    if g < 1:
        raise BoundsError("dimension must be >= 1")
    return math.sqrt(math.pi / (3.0 * g))


def height_term(rho: float, g: int) -> float:
    """Per-embedding term pi/(6 rho_c^2) + g ln(kappa rho_c sqrt(g)),
    rho_c = min(rho, sqrt(pi/(3g)))."""
    if not rho > 0.0:
        raise BoundsError("rho must be positive")
    rc = min(rho, rho_clamp(g))
    return math.pi / (6.0 * rc * rc) + g * math.log(kappa() * rc * math.sqrt(g))


def height_lower_bound(E: EmbeddingSet, epsilon: float = 0.5) -> BoundReport:
    """Averaged height lower bound over all embeddings."""
    rhos = _per_embedding(E.periods, lambda _, om: injectivity_diameter(om))
    clamp = rho_clamp(E.g)
    per = tuple(
        EmbeddingTerm(rho=r, rho_clamped=min(r, clamp), term=height_term(r, E.g)) for r in rhos
    )
    if not 0.0 < epsilon < 1.0:
        raise BoundsError("epsilon must lie in (0, 1)")
    s = sum(1.0 / (r * r) for r in rhos)
    return BoundReport(
        per_embedding=per,
        total=sum(t.term for t in per) / E.degree,
        weak_total=-(E.g / 2.0) * math.log(2.0 * math.pi**2 / epsilon)
        + (1.0 - epsilon) * math.pi * s / (6.0 * E.degree),
        epsilon=epsilon,
        kappa=kappa(),
        clamp_count=sum(1 for t in per if t.rho > clamp),
    )


def weakened_height_bound(E: EmbeddingSet, epsilon: float) -> float:
    """Simplified lower bound
    -(g/2) ln(2 pi^2 / eps) + (1-eps) pi / (6d) * sum 1/rho_s^2,
    with the raw (unclamped) injectivity diameters: ``height_lower_bound``'s
    ``weak_total``."""
    return height_lower_bound(E, epsilon).weak_total


def log_gaussian_bound(lam: float, g: int) -> float:
    """Upper bound -pi/(6 lam^2) - g ln(lam) - (g/2) ln(6g/(pi e)) for the
    average of ln f_Y(2; .), valid for the clamped lam <= sqrt(pi/(3g))."""
    if not 0.0 < lam <= rho_clamp(g) * (1.0 + 1e-12):
        raise BoundsError(f"lam must lie in (0, sqrt(pi/(3g))], got {lam}")
    return -math.pi / (6.0 * lam * lam) - g * math.log(lam) - (g / 2.0) * math.log(
        6.0 * g / (math.pi * math.e)
    )


def archimedean_invariant(om: PeriodMatrix, budget: int | None = None,
                          seed: int = 0, *, decided=None) -> QuadratureResult:
    """I = -int ln||s|| dnu + (1/2) ln int ||s||^2 dnu over the torus.

    The Haar measure is realized through (x, y) in [0,1]^{2g}, z = x + Omega y
    (constant Jacobian, so normalization is exact). int ||s||^2 dnu = 2^{-g/2}
    for every Omega (Parseval in x, then the sum over n unfolds the y-integral
    to a Gaussian over R^g), so only -int ln||s|| dnu - (g/4) ln 2 is computed.
    ||s|| is clipped up to the smallest normal double (ln ~ -708), so only
    values that underflow change (near the theta divisor, or in the band
    where the Gaussian factor of ||s|| leaves the range of doubles at large
    Y); the clip raises the log integral, so the returned I is biased
    *downward* and every one-sided ">= rhs" use stays valid. Requires a
    reduced period matrix.

    g = 1: tensor Gauss-Legendre on [0,1]^2 (``quadrature._tensor_gauss``,
    ``budget`` nodes per axis, clamped to [4, 256]), with ||s|| on each
    rule's whole grid from one matrix product (``theta._cube_norm_grid``)
    over the box of terms that theta caches per Y; ``seed`` is not used.
    g >= 2: ``integrate_cube``'s QMC for d = 2g (``budget`` points per
    shift, ``seed``) on ``cube_norm_batch``, which gets the points of
    several shifts per call. A predicate ``decided(I, error) -> bool`` on
    the invariant and its estimate sizes the rule by ``quadrature._refine``,
    from 32 nodes per axis at g = 1 and from 2^5 points per shift at g >= 2.
    """
    if not om.is_reduced:
        raise BoundsError("period matrix must be reduced first (see siegel.reduce)")
    clipped = 0

    def clipped_log(vals):
        nonlocal clipped
        clipped += int(np.count_nonzero(vals < _CLIP_FLOOR))
        return np.log(np.maximum(vals, _CLIP_FLOOR))

    half_log_norm_sq = 0.25 * om.g * math.log(2.0)
    on_log = None if decided is None else (lambda v, err: decided(-v - half_log_norm_sq, err))
    if om.g == 1:
        r = _tensor_gauss(lambda x: clipped_log(_cube_norm_grid(om, x)), 2, budget, on_log)
    else:
        r = integrate_cube(lambda P: clipped_log(cube_norm_batch(om, P)[0]), 2 * om.g, budget,
                           seed, decided=on_log)
    return replace(r, value=-r.value - half_log_norm_sq, n_clipped=clipped)


def height_from_theta_invariants(I_values, g: int, degree: int) -> float:
    """-(g/2) ln(2 pi^2) + (2/d) * sum of archimedean invariants."""
    I_values = list(I_values)
    if len(I_values) != degree:
        raise BoundsError(f"need {degree} invariant values, got {len(I_values)}")
    return -(g / 2.0) * math.log(2.0 * math.pi**2) + 2.0 * sum(I_values) / degree


def _parseval_samples(g: int) -> np.ndarray:
    """The y of the Parseval checks, one per row, on the grid k/8."""
    return np.array([np.zeros(g), np.full(g, 0.25), (np.arange(1, g + 1) % 8) / 8.0])


def verify_chain(E: EmbeddingSet, budget: int | None = None, seed: int = 0,
                 tolerance: float = 1e-6) -> ChainReport:
    """Check every link of the height-bound derivation numerically.

    Per embedding: (a) the Parseval identity int_F ||s||^2(x + Omega y) dx =
    f_Y(2; y) at three samples y; (b) the average of ln f_Y(2; .) against the
    log-Gaussian bound at the clamped lam; (c) 2I >= pi/(6 lam^2) + g ln lam
    + (g/2) ln(3g/(pi e)). Finally (d): the invariant-based height bound
    dominates the clamped-diameter bound, with (2/d) times the sum of the
    invariants' error estimates. (a) is a ``CheckEntry.equal`` check to
    ``tolerance`` times its rhs, (b) ``at_most``, (c) and (d) ``at_least``.

    (a) runs no quadrature: its lhs, sum_m |c_m(y)|^2 over the coefficients
    of ||s|| in x, is the direct Gaussian sum of f_Y(2; y) over Y in closed
    form (``theta._slice_norm_sq``, with a certified truncation and rounding
    estimate), and its rhs f_Y(2; y) comes from the grid integrand of (b),
    ``theta._f_grid``: the Poisson dual over Y^{-1}, or the contraction of
    ``f_series_batch`` where the dual's rounding is not certified small. So
    (a) compares two independent sums of one function; it is blind to X and
    does not run ``cube_norm_batch``, the invariant's integrand at g >= 2,
    which the oracle tests and the check of (c) against exact invariants
    cover. The samples y lie on the grid k/8, the first grid of (b), read
    once for both. (b) runs on ``integrate_periodic`` and stops at
    ``tolerance`` or on the first grid where its check is decided at either
    end of its value +- estimate (slack - err >= -tol or slack + err < -tol),
    so the reported log-Gaussian is only as precise as that decision needs.

    ``budget`` and ``seed`` size the invariant of (c) only: ``budget`` caps
    the Gauss nodes per axis at g = 1 (clamped to [4, 256]), from 32, and the
    QMC points per shift at g >= 2, from 2^5 (``quadrature._refine``), until
    (c) is decided by the rule of (b), err the check's estimate (twice the
    invariant's), so the reported I too is only as precise as that decision
    needs. The slack of (d) is the mean of the (c) slacks.

    lam = min(lambda_1(Y^{-1}), sqrt(pi/(3g))) serves (b), (c) and (d),
    whose clamped rho it is on a reduced Omega (``siegel.lambda_clamped``):
    a period with n != 0 has squared length >= n^T Y n >= lambda_1(Y)^2 >=
    sqrt(3)/2 > pi/(3g) at g >= 2, and at g = 1 the fundamental domain
    gives rho = lambda_1(Y^{-1}). So the chain runs no 2g-dimensional
    shortest-vector search.
    """
    for i, om in enumerate(E.periods):
        if not om.is_reduced:
            raise BoundsError(f"embedding {i}: period matrix must be reduced first")
    g = E.g

    def decided(slack, err):  # the verdict is the same at both ends of slack +- err
        return slack - err >= -tolerance or slack + err < -tolerance

    def run_embedding(idx, om):
        out: list[CheckEntry] = []
        lam = min(om.Y.inverse().lambda1(), rho_clamp(g))

        samples = _parseval_samples(g)
        lhs_a, err_a = _slice_norm_sq(om, samples)
        f_grid = _f_grid(om.Y, 2.0)
        first = f_grid(8)  # f_Y(2; k/8), flat in C order
        rhs_a = first[np.ravel_multi_index(tuple((8 * samples).astype(np.int64).T), (8,) * g)]
        for k, (lhs, err, rhs) in enumerate(zip(lhs_a.tolist(), err_a.tolist(), rhs_a.tolist())):
            out.append(CheckEntry.equal(f"parseval[{idx},{k}]", lhs, rhs, tolerance * rhs, err))

        rhs_b = log_gaussian_bound(lam, g)
        r_ln = _integral_ln(lambda n: first if n == 8 else f_grid(n), g, tolerance,
                            lambda value, err: decided(rhs_b - value, err))
        out.append(CheckEntry.at_most(f"log_gaussian_bound[{idx}]", r_ln.value, rhs_b, tolerance,
                                      r_ln.error_estimate))

        rhs_c = (
            math.pi / (6.0 * lam * lam)
            + g * math.log(lam)
            + (g / 2.0) * math.log(3.0 * g / (math.pi * math.e))
        )

        inv = archimedean_invariant(om, budget, seed,
                                    decided=lambda I, err: decided(2.0 * I - rhs_c, 2.0 * err))
        out.append(CheckEntry.at_least(f"theta_invariant_lower[{idx}]", 2.0 * inv.value, rhs_c,
                                       tolerance, 2.0 * inv.error_estimate))
        return out, inv, lam

    results = _per_embedding(E.periods, run_embedding)
    entries = [e for out, _, _ in results for e in out]
    invariants = [inv for _, inv, _ in results]
    entries.append(
        CheckEntry.at_least(
            "height_chain",
            height_from_theta_invariants([inv.value for inv in invariants], g, E.degree),
            sum(height_term(lam, g) for _, _, lam in results) / E.degree,
            tolerance,
            2.0 * sum(inv.error_estimate for inv in invariants) / E.degree,
        )
    )
    return ChainReport(entries=tuple(entries), all_passed=all(e.passed for e in entries))
