"""Gaussian lattice sums and theta functions with certified truncation.

Three closely related series are evaluated:

* f_Y(t; x) = sqrt(det Y) * sum_m exp(-pi t ||x - m||_Y^2),
* theta_Omega(z) = sum_n exp(i pi n^T Omega n + 2 i pi n^T z),
* the cube-metric section norm
  ||s||(z) = det(Y)^{1/4} exp(-pi y^T Y^{-1} y) |theta_Omega(z)|,  y = Im z.

f_Y is an exp-sum over ``lattice._sq_dist_blocks``: the squared distances
||p - m||_Y^2 from a point p to the lattice points m of a box covering the
truncation ellipsoid around p. Theta sums use m = -n, so with Im z = Y c the
terms are exp(pi c^T Y c) exp(-pi ||c - m||_Y^2 + i pi (m^T X m - 2 m . Re z)):
the Gaussian peak sits at p = c, and term counts stay small for large
imaginary parts. ||s|| at z = x + Omega y is the same sum at p = y with
Re z -> x + X y, where exp(-pi y^T Y^{-1} y) cancels.

Theta sums do not form the N x T matrix of terms. Around a centre h, with
m = h + d and p = h + delta, a term factors into a coefficient
C[d] = exp(-pi d^T Y d + i pi m^T X m) that does not depend on p, per-axis
powers exp(d_k a_k) with a = 2 pi Y delta - 2 pi i Re z, and one factor per
point (the separable form behind the algorithms of Deconinck, Heil, Bobenko,
van Hoeij & Schmies, "Computing Riemann theta functions", Math. Comp. 73,
2004). The box sum is then a tensor contraction: one GEMM over the last
axis, then one batched contraction per remaining axis. Where Y is so large
that the powers would grow past exp(_SPLIT_EXP) (and toward the end of the
range of doubles), the points' box is split into cells, each with its own
centre and coefficients; the cells are chosen from Y and the radius.

The omitted mass is bounded rigorously: balls of radius lambda_1(Y)/2 around
lattice points are disjoint, so the tail sum is dominated by a continuous
Gaussian integral outside the ellipsoid, an incomplete-gamma expression.
Theta results also carry a certified bound on the contraction's rounding
error (a gamma_n bound relative to sum_m exp(-pi m^T Y m)), added to the
reported tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import gammaincc

from .lattice import GramMatrix, _candidate_box, _candidate_range, _int_box, _sq_dist_blocks
from .siegel import PeriodMatrix

__all__ = [
    "ThetaError",
    "ThetaValue",
    "f_series",
    "f_series_batch",
    "theta_siegel",
    "cube_norm_s",
    "cube_norm_batch",
]

_EXP_CAP = 700.0    # |log| cap before exp() under/overflows
_DENORMAL = 5e-324
_SPLIT_EXP = 64.0   # cap on the summed real exponents of one cell's per-axis powers
_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW = 746.0   # exp(-746) rounds to 0 in double precision


class ThetaError(ValueError):
    """Invalid series argument, or a truncation that cannot be certified."""


@dataclass(frozen=True)
class ThetaValue:
    """A truncated series value with a certified absolute error bound: the
    truncation tail, plus the rounding of the contraction for theta."""

    value: complex
    tail_bound: float
    terms_used: int


def _tail_bound(Y: GramMatrix, det_sqrt: float, t: float, radius: float) -> float:
    """Upper bound on det_sqrt * sum over ||x - m||_Y > radius of
    exp(-pi t ||x - m||_Y^2), uniform in x.

    Disjoint dual balls of radius lam1/2 turn the lattice tail into a
    continuous radial integral; the binomial expansion of (rho + lam1/2)^(g-1)
    reduces it to upper incomplete gamma functions.
    """
    g, lam1 = Y.g, Y.lambda1()
    a = radius - lam1
    if a <= 0.0:
        return math.inf
    c = math.pi * t
    total = 0.0
    for j in range(g):
        s = (j + 1) / 2.0
        part = 0.5 * c ** (-s) * math.gamma(s) * float(gammaincc(s, c * a * a))
        total += math.comb(g - 1, j) * (lam1 / 2.0) ** (g - 1 - j) * part
    return det_sqrt * g * (2.0 / lam1) ** g * total


def _radius_for(Y: GramMatrix, det_sqrt: float, t: float, target: float) -> float:
    """Smallest tried radius whose certified tail is at most ``target``."""
    r = max(Y.covering_upper() * 1.01, 1.5 * Y.lambda1())
    for _ in range(500):
        if _tail_bound(Y, det_sqrt, t, r) <= max(target, _DENORMAL):
            return r
        r *= 1.15
    raise ThetaError("tolerance unreachable before the enumeration cap (pathological Y)")


def _torus_points(points, dim: int, label: str) -> np.ndarray:
    """Finite points of dimension ``dim`` as an (N, dim) array, reduced mod 1."""
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P.reshape(1, -1)
    if P.shape[1] != dim:
        raise ThetaError(f"points of dimension {P.shape[1]} incompatible with {label}")
    if not np.all(np.isfinite(P)):
        raise ThetaError("points must be finite")
    return P - np.floor(P)


def f_series_batch(Y: GramMatrix, t: float, points, tol: float = 1e-12):
    """f_Y(t; x) at many x simultaneously.

    Returns ``(values, tail_bound, terms)``: values includes every lattice
    point of a box covering the truncation ellipsoid of each x (a superset,
    so accuracy only improves), and tail_bound is a certified absolute bound
    on the omitted mass, uniform over the batch and at most tol * min value.
    """
    if t <= 0.0:
        raise ThetaError("t must be positive")
    if tol <= 0.0:
        raise ThetaError("tol must be positive")
    P = _torus_points(points, Y.g, f"g={Y.g}")  # the series is Z^g-periodic
    det_sqrt = Y.det_sqrt
    mu_hi = Y.covering_upper()
    # f >= det_sqrt * exp(-pi t mu^2) everywhere; certify the tail against it.
    target = tol * det_sqrt * math.exp(-min(math.pi * t * mu_hi * mu_hi, _EXP_CAP))
    R = _radius_for(Y, det_sqrt, t, target)
    cand = _candidate_box(Y, R)
    values = np.empty(P.shape[0])
    for rows, D in _sq_dist_blocks(Y, P, cand):
        np.maximum(D, 0.0, out=D)
        values[rows] = np.exp(-math.pi * t * D).sum(axis=1)
    values *= det_sqrt
    return values, _tail_bound(Y, det_sqrt, t, R), cand.shape[0]


def f_series(Y: GramMatrix, t: float, x, tol: float = 1e-12) -> ThetaValue:
    """Gaussian lattice sum f_Y(t; x) with relative truncation error <= tol."""
    values, tail, terms = f_series_batch(Y, t, np.asarray(x, dtype=float).reshape(1, -1), tol)
    return ThetaValue(value=float(values[0]), tail_bound=tail, terms_used=terms)


def _cell_counts(Y: GramMatrix, half: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Per-axis numbers of cells (powers of 2) splitting a box of half-widths
    ``half`` so that 2 pi sum_k |d_k| |(Y delta)_k| <= _SPLIT_EXP for every
    point of a cell and every lattice point that ``_theta_sums`` keeps for it.

    With delta within eps = half / s of the cell centre, those have
    |d_k| <= min(span_k, _cell_reach(Y, eps)_k).
    """
    absY = np.abs(Y.entries)
    s = np.ones(Y.g, dtype=np.int64)
    while True:
        eps = half / s
        load = 2.0 * math.pi * eps * (absY @ np.minimum(span, _cell_reach(Y, eps)))
        if load.sum() <= _SPLIT_EXP:
            return s
        s[np.argmax(load)] *= 2


def _cell_reach(Y: GramMatrix, eps: np.ndarray) -> np.ndarray:
    """Per-axis bound on |d_k| = |m_k - h_k| beyond which the term of m is
    below exp(-_UNDERFLOW) at every p with |p_j - h_j| <= eps_j: such m have
    ||m - h||_Y > sqrt(eps^T |Y| eps) + sqrt(_UNDERFLOW / pi)."""
    rho = math.sqrt(float(eps @ np.abs(Y.entries) @ eps)) + math.sqrt(_UNDERFLOW / math.pi)
    return rho * np.sqrt(np.diag(Y.inverse().entries))


def _powers(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """exp(d_j a_i) as an (len(d), len(a)) array, for d = d_0 + 0, 1, 2, ...:
    exp(d_0 a) times successive powers of exp(a) (formed only when d spans
    at least 1, which bounds |Re a| through ``_cell_counts``)."""
    W = np.empty((d.shape[0], a.shape[0]), dtype=complex)
    W[0] = np.exp(d[0] * a)
    if d.shape[0] > 1:
        W[1:] = np.exp(a)
        np.cumprod(W, axis=0, out=W)
    return W


def _contract(Y: np.ndarray, C: np.ndarray, dk: list, delta: np.ndarray, u: np.ndarray,
              h: np.ndarray) -> np.ndarray:
    """sum_d C[d] prod_k exp(d_k a_k) * P per point, for the points
    p = h + delta with phase vectors u, where a = 2 pi Y delta - 2 pi i u and
    P = exp(-pi delta^T Y delta - 2 pi i h . u). C has shape (T / n_g, n_g)
    over the C-order grid of the offsets ``dk``: one GEMM over the last axis,
    then one batched contraction per remaining axis."""
    a = 2.0 * math.pi * (delta @ Y) - 2j * math.pi * u
    acc = C @ _powers(a[:, -1], dk[-1])
    for k in range(len(dk) - 2, -1, -1):
        acc = np.einsum("akn,kn->an", acc.reshape(-1, dk[k].shape[0], delta.shape[0]),
                        _powers(a[:, k], dk[k]))
    return acc[0] * np.exp(-math.pi * np.einsum("ij,ij->i", delta, delta @ Y)
                           - 2j * math.pi * (u @ h))


def _theta_sums(om: PeriodMatrix, p: np.ndarray, u: np.ndarray, radius: float, lo, hi):
    """Per row i, for p_i in the box [lo, hi]: the sum over the lattice points
    m of ``_candidate_box(Y, radius, lo, hi)`` of
    exp(-pi ||p_i - m||_Y^2 + i pi (m^T X m - 2 m . u_i)).

    Returns ``(sums, terms, rounding)``: the box size and an absolute bound on
    the floating-point error of every sum. [lo, hi] is split into cells
    (``_cell_counts``, usually one). With m = h + d around a cell centre h
    and p = h + delta, each term is C[d] * prod_k exp(d_k a_k) * P, with the
    coefficients C[d] = exp(-pi d^T Y d + i pi m^T X m) computed once per
    cell and contracted by ``_contract``. A cell skips the box points whose
    terms are below exp(-_UNDERFLOW) at all its points.
    """
    Y, g = om.Y.entries, om.g
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (g,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (g,))
    u = u - np.floor(u)  # every term is Z^g-periodic in u
    box_lo, box_hi = _candidate_range(om.Y, radius, lo, hi)
    n = (box_hi - box_lo).astype(np.int64) + 1
    T = int(np.prod(n))
    half = (hi - lo) / 2.0
    span = np.maximum(hi - box_lo, box_hi - lo)  # |d_k| <= span_k in every cell
    s = _cell_counts(om.Y, half, span)
    eps = half / s
    reach = np.minimum(span, _cell_reach(om.Y, eps))
    idx = np.clip(np.floor((p - lo) / np.where(eps > 0.0, 2.0 * eps, 1.0)), 0, s - 1)
    key = np.ravel_multi_index(idx.astype(np.int64).T, s)
    order = np.argsort(key, kind="stable")
    cells, starts = np.unique(key[order], return_index=True)
    edges = np.append(starts, order.shape[0])

    # Every intermediate (W_k: rows x n_k, partial sums: T / n_g x rows) has
    # at most 2^22 entries.
    chunk = max(1, (1 << 22) // max(T // n[-1], int(n.max())))
    out = np.zeros(p.shape[0], dtype=complex)
    for cell, b0, b1 in zip(cells, edges[:-1], edges[1:]):
        h = lo + (2.0 * np.array(np.unravel_index(cell, s)) + 1.0) * eps
        m_lo = np.maximum(box_lo, np.ceil(h - reach))
        m_hi = np.minimum(box_hi, np.floor(h + reach))
        if np.any(m_lo > m_hi):
            continue  # every term of the cell is below exp(-_UNDERFLOW)
        m = _int_box(m_lo, m_hi).astype(float)  # C-order grid, last axis fastest
        d = m - h
        dk = [d0 + np.arange(nk) for d0, nk in zip(m_lo - h, (m_hi - m_lo + 1).astype(int))]
        C = np.exp(-math.pi * np.einsum("ij,ij->i", d, d @ Y)
                   + 1j * math.pi * np.einsum("ij,ij->i", m, m @ om.X))
        C = C.reshape(-1, dk[-1].shape[0])
        for k0 in range(b0, b1, chunk):
            rows = order[k0 : min(k0 + chunk, b1)]
            out[rows] = _contract(Y, C, dk, p[rows] - h, u[rows], h)
    # Moduli of the exps' arguments: C, W_k with its powers (|a_k| <= steps_k), P.
    absY = np.abs(Y)
    m_max, h_max = np.maximum(abs(box_lo), abs(box_hi)), np.maximum(abs(lo), abs(hi))
    steps = 2.0 * math.pi * (absY @ eps + 1.0)
    args = (math.pi * float(reach @ absY @ reach + m_max @ np.abs(om.X) @ m_max)
            + float((reach + np.minimum(n - 1, 2.0 * reach)) @ steps)
            + math.pi * float(eps @ absY @ eps + 2.0 * h_max.sum()))
    return out, T, _rounding_bound(om, radius, int(n.sum()), args)


def _rounding_bound(om: PeriodMatrix, radius: float, n_sum: int, args: float) -> float:
    """gamma_N * S0 (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3.1) for the contraction of ``_theta_sums``.

    Every computed sum is a nested sum over the box of products of exp
    factors, so its error is at most gamma_N times the sum of the moduli of
    its terms, sum_m exp(-pi ||p - m||_Y^2). By Poisson summation that is at
    most S0 = sum_m exp(-pi m^T Y m) for every p; S0 is bounded from above
    by its box around 0, with lowered exponents, plus the tail outside the
    radius. Along any path N counts, with n_sum = sum_k n_k:
    n_sum additions; g + 1 complex products (3 u each) in the contraction and
    n_sum - g more in the powers; C, P and two exps per axis (5 u each), the
    power exp(a)^j counting j times; the rounding of the exps' arguments,
    whose moduli (powers included) sum to at most ``args``, at (2g + 4) u
    relative each; and 1 for the terms that underflow or that a cell skips,
    each below 2^-900 since no product of powers exceeds exp(_SPLIT_EXP),
    while S0 >= 1.
    """
    g, Y = om.g, om.Y.entries
    N = n_sum + 3 * (n_sum + 1) + 5 * (n_sum + 2) + 1 + (2 * g + 4) * args
    gamma = N * _UNIT_ROUNDOFF / (1.0 - N * _UNIT_ROUNDOFF)
    m = _candidate_box(om.Y, radius, 0.0, 0.0)
    q = np.einsum("ij,ij->i", m, m @ Y)
    qa = np.einsum("ij,ij->i", np.abs(m), np.abs(m) @ np.abs(Y))
    lower = np.maximum(q - (2 * g + 2) * _UNIT_ROUNDOFF * qa, 0.0)
    s0 = (1.0 + 8.0 * _UNIT_ROUNDOFF) * float(np.exp(-math.pi * lower).sum())
    return gamma * (s0 + _tail_bound(om.Y, 1.0, 1.0, radius))


def _as_z(om: PeriodMatrix, z, tol: float) -> np.ndarray:
    if tol <= 0.0:
        raise ThetaError("tol must be positive")
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != om.g:
        raise ThetaError(f"z of dimension {z.shape[0]} incompatible with g={om.g}")
    if not np.all(np.isfinite(z)):
        raise ThetaError("z must be finite")
    return z


def theta_siegel(om: PeriodMatrix, z, tol: float = 1e-12) -> ThetaValue:
    """theta_Omega(z), truncated over a shifted ellipsoid around the Gaussian
    center c = Y^{-1} Im z, with the contraction centred at c.

    ``tail_bound`` is the certified truncation bound, at most
    tol * (|value| + tol), plus the certified rounding bound of the
    contraction.
    """
    z = _as_z(om, z, tol)
    a, b = z.real, z.imag
    c = cho_solve((om.Y.chol, True), b)
    q = float(b @ c)  # b^T Y^{-1} b
    if math.pi * q > _EXP_CAP:
        raise ThetaError("imaginary part of z too large for a stable evaluation")
    R = _radius_for(om.Y, 1.0, 1.0, tol * tol * math.exp(-min(math.pi * q, _EXP_CAP)))
    s, terms, rounding = _theta_sums(om, c.reshape(1, -1), a.reshape(1, -1), R, c, c)
    scale = math.exp(math.pi * q)
    err = _tail_bound(om.Y, 1.0, 1.0, R) + rounding
    return ThetaValue(value=scale * complex(s[0]), tail_bound=scale * err, terms_used=terms)


def cube_norm_s(om: PeriodMatrix, z, tol: float = 1e-12) -> float:
    """Cube-metric section norm ||s||(z) >= 0.

    Evaluated as ``cube_norm_batch`` at the torus coordinates y = Y^{-1} Im z,
    x = Re z - X y, with its tolerance tol^2; absolute truncation error
    <= det(Y)^{1/4} * tol^2, plus the contraction's rounding error.
    """
    z = _as_z(om, z, tol)
    y = cho_solve((om.Y.chol, True), z.imag)
    xy = np.concatenate([z.real - om.X @ y, y]).reshape(1, -1)
    values, _ = cube_norm_batch(om, xy, max(tol * tol, _DENORMAL))  # tol^2 may underflow
    return float(values[0])


def cube_norm_batch(om: PeriodMatrix, xy, tol: float = 1e-12):
    """||s||(x + Omega y) over many torus coordinates (x, y) in [0,1)^{2g}.

    ``xy`` has shape (N, 2g): the first g columns are x, the last g are y.
    The theta sums are contracted around the centre of the box (or of each
    cell, for large Y). Returns ``(values, err)``: err is a certified absolute
    bound, uniform over the batch, on the truncation error (at most
    det(Y)^{1/4} * tol) plus the rounding error of the contraction.
    """
    if tol <= 0.0:
        raise ThetaError("tol must be positive")
    g = om.g
    XY = _torus_points(xy, 2 * g, f"2g={2 * g}")
    xs, ys = XY[:, :g], XY[:, g:]
    R = _radius_for(om.Y, 1.0, 1.0, tol)
    sums, _, rounding = _theta_sums(om, ys, xs + ys @ om.X, R, 0.0, 1.0)
    det4 = om.Y.det_sqrt ** 0.5
    return det4 * np.abs(sums), det4 * (_tail_bound(om.Y, 1.0, 1.0, R) + rounding)
