"""Independent references for the benchmark's output checks.

Nothing here uses mlk's lattice, theta, quadrature, siegel or bounds code:
minima come from exhaustive scans of boxes derived without LLL, the
injectivity diameter of a product comes from its factors, and the height
term is the closed form from the README. The exact archimedean invariant of
a product uses ``mlk.oracle.log_abs_delta``, which the caller passes in.
The checks run after the timed region, so none of this is measured.
"""

from __future__ import annotations

import math

import numpy as np

_SCAN_ROWS = 1 << 18  # box points per vectorized block


def _scan_min_sq(G: np.ndarray, lows, highs, center, skip_zero: bool) -> float:
    """min over integer m in the box [lows, highs] of (m - center)^T G (m - center)."""
    g = G.shape[0]
    axes = [np.arange(lo, hi + 1, dtype=float) for lo, hi in zip(lows, highs)]
    tail = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, g - 1) \
        if g > 1 else np.zeros((1, 0))
    best = math.inf
    for first in axes[0]:
        for k in range(0, tail.shape[0], _SCAN_ROWS):
            rest = tail[k : k + _SCAN_ROWS]
            M = np.column_stack([np.full(rest.shape[0], first), rest])
            if skip_zero:
                M = M[np.any(M != 0.0, axis=1)]
                if M.shape[0] == 0:
                    continue
            D = M - center
            q = np.einsum("ij,jk,ik->i", D, G, D)
            best = min(best, float(q.min()))
    return best


def brute_shortest(G: np.ndarray) -> float:
    """lambda_1 of the Gram matrix G by exhaustive scan.

    Some unit vector has squared length r2 = min_i G_ii, and every m with
    m^T G m <= r2 has |m_i| <= sqrt(r2 (G^-1)_ii); the scanned box is one
    wider than that on each side.
    """
    r2 = float(np.min(np.diag(G)))
    half = np.floor(np.sqrt(r2 * np.diag(np.linalg.inv(G)))).astype(int) + 1
    return math.sqrt(_scan_min_sq(G, -half, half, np.zeros(G.shape[0]), skip_zero=True))


def brute_closest(G: np.ndarray, x) -> float:
    """min_m ||x - m||_G by exhaustive scan around x.

    round(x) is at squared distance r2, so every closer m has
    |x_i - m_i| <= sqrt(r2 (G^-1)_ii); the box is one wider on each side.
    """
    x = np.asarray(x, dtype=float)
    d = x - np.round(x)
    r2 = float(d @ G @ d)
    w = np.sqrt(r2 * np.diag(np.linalg.inv(G)))
    lows = np.ceil(x - w).astype(int) - 1
    highs = np.floor(x + w).astype(int) + 1
    return math.sqrt(max(_scan_min_sq(G, lows, highs, x, skip_zero=False), 0.0))


def invariant_exact(taus, log_abs_delta) -> float:
    """Archimedean invariant I of diag(taus): the sum over the factors of
    -(1/24) ln(|Delta(tau)| (Im tau)^6) - (1/4) ln 2."""
    return sum(
        -(log_abs_delta(t) + 6.0 * math.log(t.imag)) / 24.0 - 0.25 * math.log(2.0) for t in taus
    )


def rho_product(taus) -> float:
    """Injectivity diameter of diag(taus) for factors in the standard
    fundamental domain: the shortest period of factor i has length
    1 / sqrt(Im tau_i)."""
    return min(1.0 / math.sqrt(t.imag) for t in taus)


def height_term(rho: float, g: int) -> float:
    """pi / (6 rho_c^2) + g ln(kappa rho_c sqrt(g)), rho_c = min(rho, sqrt(pi / 3g))."""
    kappa = math.sqrt(3.0 / (2.0 * math.pi**3 * math.e))
    rc = min(rho, math.sqrt(math.pi / (3.0 * g)))
    return math.pi / (6.0 * rc * rc) + g * math.log(kappa * rc * math.sqrt(g))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))
