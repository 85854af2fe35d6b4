"""Gaussian lattice sums and theta functions with certified truncation.

Three closely related series are evaluated:

* f_Y(t; x) = sqrt(det Y) * sum_m exp(-pi t ||x - m||_Y^2),
* theta_Omega(z) = sum_n exp(i pi n^T Omega n + 2 i pi n^T z),
* the cube-metric section norm
  ||s||(z) = det(Y)^{1/4} exp(-pi y^T Y^{-1} y) |theta_Omega(z)|,  y = Im z.

All three are one Gaussian lattice sum. With Im z = Y c and m = -n, theta
terms are exp(pi c^T Y c) exp(-pi ||c - m||_Y^2 + i pi (m^T X m - 2 m . Re z)):
the Gaussian peak sits at p = c, and term counts stay small for large
imaginary parts. ||s|| at z = x + Omega y is the same sum at p = y with
Re z -> x + X y, where exp(-pi y^T Y^{-1} y) cancels. f_Y(t; x) is the sum
on t Y with X = 0 and no phases, at p = x.

All three are summed in LLL-reduced coordinates (``_lll_sums``): the sum at
(p, u) on (Y, X) is the sum at (U^{-1} p, U^T u) on (G = U^T Y U, U^T X U),
whose box hugs the truncation ellipsoid.

The sums do not form the N x T matrix of terms. Around a centre h, with
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

On a slice y, ||s||(x + Omega y) = |sum_m c_m(y) exp(-2 pi i m . x)| over a
box taken in the LLL coordinates of Y and cached with its radius R
(``_cube_norm_box``), which ``_cube_norm_grid`` evaluates on the g = 1
invariant's grids, the rule's nodes by themselves: one matrix product with
the phases exp(-2 pi i m x_i), every exp with a real part <= 0. By
Parseval, int ||s||^2 dx on a slice is sum_m |c_m(y)|^2 = det(Y)^{1/2}
sum_m exp(-2 pi ||y - m||_Y^2), the direct Gaussian sum of f_Y(2; y)
whatever X is, which ``_slice_norm_sq`` sums over the same box to R.

``_f_grid`` gives f_Y(t; .) on the grids k/n of
``quadrature.integrate_periodic`` as t^{-g/2} fftn(B) by Poisson summation,
b_j = exp(-pi j^T Y^{-1} j / t) over a box of Y^{-1}, B the b_j summed over
each class j mod n: one ``numpy.fft.fftn`` per grid (numpy.fft is loaded on
the first call, not on import). These dual values cancel where f is small
against sum_j b_j (large Y), so they are taken only where a componentwise
FFT rounding bound (Higham, ch. 24) keeps them within 1e-12 relative of f,
and ``f_series_batch`` gives the grid elsewhere. The chain reads the right
sides f_Y(2; y) of its Parseval check, at y on the grid k/8, off the first
grid of its log-Gaussian.

The omitted mass is bounded rigorously: balls of radius lambda_1(Y)/2 around
lattice points are disjoint, so the tail sum is dominated by a continuous
Gaussian integral outside the ellipsoid, an incomplete-gamma expression
(``_gamma_q``, in closed form at the half-integer orders it needs).
Every result also carries a certified bound on the contraction's rounding
error (a gamma_n bound relative to sum_m exp(-pi m^T Y m)), added to the
reported tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import GramMatrix, _int_box, _torus_points
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
_F_RTOL = 1e-12  # _f_grid: f's truncation and the dual's certified rounding, relative
_Q_INFLATION = 1e-12  # covers _gamma_q's rounding: <= 1.2e-13 relative against 40 digits


class ThetaError(ValueError):
    """Invalid series argument, or a truncation that cannot be certified."""


@dataclass(frozen=True)
class ThetaValue:
    """A truncated series value with a certified absolute error bound: the
    truncation tail plus the rounding of the contraction."""

    value: complex
    tail_bound: float
    terms_used: int


def _gamma_q(s: float, x: float) -> float:
    """The regularized upper incomplete gamma function Q(s, x) for s = k/2
    (k >= 1) and x > 0, inflated by 1 + _Q_INFLATION: an upper bound within
    1e-12 relative wherever Q is a normal double. Below that the terms round
    to multiples of the smallest denormal, the resolution at which
    ``_radius_for`` stops anyway.

    DLMF 8.4.6, 8.4.8 and 8.8.2: Q(s, x) sums x^a e^-x / Gamma(a + 1) over
    a = s - 1, s - 2, ... > -1, plus erfc(sqrt x) at half-integer s. Each
    term is one exp, so it underflows only when the term itself leaves the
    range of doubles, not when e^-x does.
    """
    a = s % 1.0
    q = math.erfc(math.sqrt(x)) if a else 0.0
    ln_x = math.log(x)
    while a < s:
        q += math.exp(a * ln_x - x - math.lgamma(a + 1.0))
        a += 1.0
    return q * (1.0 + _Q_INFLATION)


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
        part = 0.5 * c ** (-s) * math.gamma(s) * _gamma_q(s, c * a * a)
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


def _candidate_range(Y: GramMatrix, radius: float, lo=0.0, hi=1.0):
    """Lowest and highest corner (float (g,) arrays) of the integer box that
    covers the ellipsoid ||. - p||_Y <= radius around every point p of the
    box [lo, hi]."""
    w = radius * np.sqrt(np.diag(Y.inverse().entries))
    return np.ceil(lo - w - 1e-12), np.floor(hi + w + 1e-12)


def _candidate_box(Y: GramMatrix, radius: float, lo=0.0, hi=1.0) -> np.ndarray:
    """Integer points (float, (M, g)) of the box of ``_candidate_range``."""
    return _int_box(*_candidate_range(Y, radius, lo, hi)).astype(float)


def _lll_sums(Y: GramMatrix, t: float, X, p, u, tol: float, target: float, det_sqrt: float,
              periodic: bool):
    """Per row i, the sum over m of exp(-pi t ||p_i - m||_Y^2 + i pi (m^T X m
    - 2 m . u_i)) to the radius whose tail, times det_sqrt, is at most
    ``target``, by ``_theta_sums`` on t G = t U^T Y U and U^T X U at U^{-1} p
    with phases U^T u. ``periodic`` points are moved into the box [0, 1]^g by
    an integer k, with u -= U^T X U k: a unit factor on each sum (none when
    X = 0). Otherwise the box is the points' hull. Returns ``(sums, err,
    terms)``, err = det_sqrt * (tail + rounding).
    """
    if not tol > 0.0:
        raise ThetaError("tol must be positive")
    R = _radius_for(Y, det_sqrt, t, target)
    red = Y._reduced()
    U = red["U"].astype(float)
    X = U.T @ X @ U
    p = p @ red["Uinv"].T.astype(float)
    u = u @ U
    if periodic:
        u -= np.floor(p) @ X
        p -= np.floor(p)
        lo, hi = 0.0, 1.0
    else:
        lo, hi = p.min(axis=0), p.max(axis=0)
    # _tail_bound is invariant under (Y, R, t) -> (t G, sqrt(t) R, 1).
    sums, terms, rounding = _theta_sums(Y._scaled_reduced(t), X, p, u, math.sqrt(t) * R, lo, hi)
    return sums, _tail_bound(Y, det_sqrt, t, R) + det_sqrt * rounding, terms


def _f_target(Y: GramMatrix, t: float, rtol: float) -> float:
    """f_Y(t; .)'s truncation target at relative tolerance rtol: f >= det_sqrt exp(-pi t mu^2)."""
    if not 0.0 < t < math.inf:
        raise ThetaError("t must be positive and finite")
    mu_hi = Y.covering_upper()
    return rtol * Y.det_sqrt * math.exp(-min(math.pi * t * mu_hi * mu_hi, _EXP_CAP))


def f_series_batch(Y: GramMatrix, t: float, points, tol: float = 1e-12):
    """f_Y(t; x) at many x simultaneously, by the theta contraction on the
    form t Y with X = 0 and no phases.

    Returns ``(values, tail_bound, terms)``: values includes every lattice
    point of a box covering the truncation ellipsoid of each x (a superset,
    so accuracy only improves), and tail_bound is a certified absolute bound,
    uniform over the batch, on the omitted mass (at most tol * min value)
    plus the rounding error of the contraction.
    """
    target = _f_target(Y, t, tol)
    P = _torus_points(points, Y.g, f"g={Y.g}", ThetaError)  # the series is Z^g-periodic
    sums, err, terms = _lll_sums(Y, t, np.zeros((Y.g, Y.g)), P, np.zeros_like(P), tol, target,
                                 Y.det_sqrt, True)
    return Y.det_sqrt * sums.real, err, terms


def f_series(Y: GramMatrix, t: float, x, tol: float = 1e-12) -> ThetaValue:
    """Gaussian lattice sum f_Y(t; x) by ``f_series_batch``: ``tail_bound`` is
    the truncation tail (at most tol * value) plus the rounding bound."""
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


def _theta_sums(gram: GramMatrix, X, p, u, radius: float, lo, hi):
    """Per row i, for p_i in the box [lo, hi]: the sum over the lattice points
    m of ``_candidate_box(Y, radius, lo, hi)``, Y = ``gram``, of
    exp(-pi ||p_i - m||_Y^2 + i pi (m^T X m - 2 m . u_i)).

    Returns ``(sums, terms, rounding)``: the box size and an absolute bound on
    the floating-point error of every sum. [lo, hi] is split into cells
    (``_cell_counts``, usually one). With m = h + d around a cell centre h
    and p = h + delta, each term is C[d] * prod_k exp(d_k a_k) * P, with the
    coefficients C[d] = exp(-pi d^T Y d + i pi m^T X m) computed once per
    cell and contracted by ``_contract``. A cell skips the box points whose
    terms are below exp(-_UNDERFLOW) at all its points.
    """
    Y, g = gram.entries, gram.g
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (g,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (g,))
    u = u - np.floor(u)  # every term is Z^g-periodic in u
    box_lo, box_hi = _candidate_range(gram, radius, lo, hi)
    n = (box_hi - box_lo).astype(np.int64) + 1
    T = int(np.prod(n))
    half = (hi - lo) / 2.0
    span = np.maximum(hi - box_lo, box_hi - lo)  # |d_k| <= span_k in every cell
    s = _cell_counts(gram, half, span)
    eps = half / s
    reach = np.minimum(span, _cell_reach(gram, eps))
    idx = np.clip(np.floor((p - lo) / np.where(eps > 0.0, 2.0 * eps, 1.0)), 0, s - 1)
    # Rows grouped by cell, without a flat cell number: prod(s) can pass 2^63.
    order = np.lexsort(idx.T[::-1])
    idx = idx[order]
    # The first row starts a cell, if there is one.
    starts = np.flatnonzero(np.r_[idx.shape[0] > 0, np.any(idx[1:] != idx[:-1], axis=1)])
    edges = np.append(starts, order.shape[0])

    # Every intermediate (W_k: rows x n_k, partial sums: T / n_g x rows) has
    # at most 2^22 entries.
    chunk = max(1, (1 << 22) // max(T // n[-1], int(n.max())))
    out = np.zeros(p.shape[0], dtype=complex)
    for b0, b1 in zip(edges[:-1], edges[1:]):
        h = lo + (2.0 * idx[b0] + 1.0) * eps
        m_lo = np.maximum(box_lo, np.ceil(h - reach))
        m_hi = np.minimum(box_hi, np.floor(h + reach))
        if np.any(m_lo > m_hi):
            continue  # every term of the cell is below exp(-_UNDERFLOW)
        m = _int_box(m_lo, m_hi).astype(float)  # C-order grid, last axis fastest
        d = m - h
        dk = [d0 + np.arange(nk) for d0, nk in zip(m_lo - h, (m_hi - m_lo + 1).astype(int))]
        C = np.exp(-math.pi * np.einsum("ij,ij->i", d, d @ Y)
                   + 1j * math.pi * np.einsum("ij,ij->i", m, m @ X))
        C = C.reshape(-1, dk[-1].shape[0])
        for k0 in range(b0, b1, chunk):
            rows = order[k0 : min(k0 + chunk, b1)]
            out[rows] = _contract(Y, C, dk, p[rows] - h, u[rows], h)
    # Moduli of the exps' arguments: C, W_k with its powers (|a_k| <= steps_k), P.
    absY = np.abs(Y)
    m_max, h_max = np.maximum(abs(box_lo), abs(box_hi)), np.maximum(abs(lo), abs(hi))
    steps = 2.0 * math.pi * (absY @ eps + 1.0)
    args = (math.pi * float(reach @ absY @ reach + m_max @ np.abs(X) @ m_max)
            + float((reach + np.minimum(n - 1, 2.0 * reach)) @ steps)
            + math.pi * float(eps @ absY @ eps + 2.0 * h_max.sum()))
    return out, T, _rounding_bound(gram, radius, int(n.sum()), args)


def _gamma(k: float) -> float:
    """Higham's gamma_k = k u / (1 - k u), inf where k u >= 1."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku) if ku < 1.0 else math.inf


def _rounding_bound(gram: GramMatrix, radius: float, n_sum: int, args: float) -> float:
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
    g, Y, u = gram.g, gram.entries, _UNIT_ROUNDOFF
    gamma = _gamma(n_sum + 3 * (n_sum + 1) + 5 * (n_sum + 2) + 1 + (2 * g + 4) * args)
    m = _candidate_box(gram, radius, 0.0, 0.0)
    q = np.einsum("ij,ij->i", m, m @ Y)
    qa = np.einsum("ij,ij->i", np.abs(m), np.abs(m) @ np.abs(Y))
    lower = np.maximum(q - (2 * g + 2) * u * qa, 0.0)
    s0 = (1.0 + 8.0 * u) * float(np.exp(-math.pi * lower).sum())
    return gamma * (s0 + _tail_bound(gram, 1.0, 1.0, radius))


def _as_z(om: PeriodMatrix, z) -> np.ndarray:
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
    z = _as_z(om, z)
    a, b = z.real, z.imag
    c = om.Y.inverse().entries @ b
    q = float(b @ c)  # b^T Y^{-1} b
    if math.pi * q > _EXP_CAP:
        raise ThetaError("imaginary part of z too large for a stable evaluation")
    target = tol * tol * math.exp(-math.pi * q)
    s, err, terms = _lll_sums(om.Y, 1.0, om.X, c.reshape(1, -1), a.reshape(1, -1), tol, target,
                              1.0, False)
    scale = math.exp(math.pi * q)
    return ThetaValue(value=scale * complex(s[0]), tail_bound=scale * err, terms_used=terms)


def cube_norm_s(om: PeriodMatrix, z, tol: float = 1e-12) -> float:
    """Cube-metric section norm ||s||(z) >= 0.

    Evaluated as ``cube_norm_batch`` at the torus coordinates y = Y^{-1} Im z,
    x = Re z - X y, with its tolerance tol^2; absolute truncation error
    <= det(Y)^{1/4} * tol^2, plus the contraction's rounding error.
    """
    if not tol > 0.0:  # the square below would hide the sign from cube_norm_batch
        raise ThetaError("tol must be positive")
    z = _as_z(om, z)
    y = om.Y.inverse().entries @ z.imag
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
    g = om.g
    XY = _torus_points(xy, 2 * g, f"2g={2 * g}", ThetaError)
    xs, ys = XY[:, :g], XY[:, g:]
    sums, err, _ = _lll_sums(om.Y, 1.0, om.X, ys, xs + ys @ om.X, tol, tol, 1.0, True)
    det4 = om.Y.det_sqrt ** 0.5
    return det4 * np.abs(sums), det4 * err


def _reduced_box(Y: GramMatrix, radius: float, lo, hi):
    """The box of ``_candidate_range`` around the points [lo, hi] of the LLL
    coordinates k of Y, where it hugs the ellipsoid: its points as rows U k
    (float, (M, g)) in the coordinates of Y, and its widths in k."""
    lo, hi = _candidate_range(Y._scaled_reduced(1.0), radius, lo, hi)
    return _int_box(lo, hi) @ Y._reduced()["U"].T.astype(float), hi - lo + 1.0


def _cube_norm_box(om: PeriodMatrix):
    """``(m, R)``: the terms m (float, (M, g)) of ``cube_norm_batch`` at its
    default tol, radius R, in the coordinates of Omega, for every y in [0, 1]^g:
    the box of ``_reduced_box`` around the hull of U^{-1} [0, 1]^g. Built once
    per Y (it depends on Y only) and cached there, m read-only."""
    Y = om.Y
    if "cube_norm_box" not in Y._cache:
        Uinv = Y._reduced()["Uinv"]
        R = _radius_for(Y, 1.0, 1.0, 1e-12)
        m = _reduced_box(Y, R, np.minimum(Uinv, 0).sum(1), np.maximum(Uinv, 0).sum(1))[0]
        m.setflags(write=False)
        Y._cache["cube_norm_box"] = (m, R)
    return Y._cache["cube_norm_box"]


def _cube_norm_grid(om: PeriodMatrix, x: np.ndarray) -> np.ndarray:
    """||s||(x_i + tau x_j) at g = 1 on the grid of the nodes x in [0, 1) by
    themselves, a (len(x), len(x)) array over the terms m of
    ``_cube_norm_box(om)``: |B @ C| with B[i, m] = exp(-2 pi i m x_i) and
    C[m, j] = c_m(x_j), the Fourier coefficients in x, c_m(y) = Im(tau)^{1/4}
    exp(-pi Im(tau) (y - m)^2 + i pi Re(tau) (m^2 - 2 m y)): no exponent has
    a positive real part."""
    m = _cube_norm_box(om)[0]
    t1, t2 = om.X[0, 0], om.Y.entries[0, 0]
    d = x - m  # (M, len(x))
    phase = m * (m * t1) - 2.0 * (m * (t1 * x))
    C = om.Y.det_sqrt ** 0.5 * np.exp(-math.pi * (d * (d * t2)) + 1j * math.pi * phase)
    return np.abs(np.exp(-2j * math.pi * np.outer(x, m)) @ C)


def _slice_norm_sq(om: PeriodMatrix, y: np.ndarray):
    """int ||s||^2(x + Omega y_k) dx over [0, 1]^g at the rows y_k of y
    (entries k/8 in [0, 1]) in closed form: by Parseval, sum_m |c_m(y)|^2
    over the coefficients of ``_cube_norm_grid``, the direct Gaussian sum
    det(Y)^{1/2} sum_m exp(-2 pi ||y - m||_Y^2) of f_Y(2; y), whatever X is.
    One ``math.fsum`` per row over the box m of ``_cube_norm_box(om)``,
    which covers the ellipsoid of its radius R around every y in [0, 1]^g.

    Returns ``(values, err)``, err the tail beyond R (``_tail_bound`` at
    t = 2) plus the rounding. With y - m exact, the exponent is within
    2 pi gamma_{2g+2} qa_m, qa_m = |y - m|^T |Y| |y - m| (two inner products,
    2 pi and its product), and the exp within 5 u, so the exact term is
    within N_m u / (1 - 2 N_m u) of the computed one, N_m = 2 pi (2g + 2) qa_m
    + 5. The fsum and the factor det(Y)^{1/2} round once each, and a term
    that underflows loses at most one denormal.
    """
    Y, g, det_sqrt = om.Y, om.g, om.Y.det_sqrt
    m, R = _cube_norm_box(om)
    d = y[:, None, :] - m  # (K, M, g)
    terms = np.exp(-2.0 * math.pi * np.einsum("kmi,kmi->km", d, d @ Y.entries))
    qa = np.einsum("kmi,kmi->km", np.abs(d), np.abs(d) @ np.abs(Y.entries))
    Nu = _UNIT_ROUNDOFF * (2.0 * math.pi * (2 * g + 2) * qa + 5.0)
    values = det_sqrt * np.array([math.fsum(t) for t in terms.tolist()])
    rounding = (terms * (Nu / (1.0 - 2.0 * Nu))).sum(axis=1) + m.shape[0] * _DENORMAL
    return values, _tail_bound(Y, det_sqrt, 2.0, R) + det_sqrt * rounding + _gamma(2) * values


def _f_grid(Y: GramMatrix, t: float):
    """The grid integrand (see ``quadrature.integrate_periodic``) of
    f_Y(t; .): ``values(n)`` is f_Y(t; x) at the points x = k/n, flat in C
    order, by one FFT of the Poisson dual where its rounding is certified
    small and from ``f_series_batch`` elsewhere.

    The dual: f_Y(t; x) = t^{-g/2} sum_j b_j exp(-2 pi i j . x) with
    b_j = exp(-pi j^T Y^{-1} j / t) over the box that ``_radius_for`` gives
    at scale 1/t for ``_f_target(Y, t, _F_RTOL)``, the target of
    ``f_series_batch`` at tol = _F_RTOL (``_tail_bound`` is uniform in x, so
    it bounds the omitted b_j at x = 0). The box is taken in the LLL-reduced
    coordinates of Y^{-1}, j = U k, where it hugs the truncation ellipsoid
    (in the raw coordinates of a skewed Y^{-1} it can pass the enumeration
    cap). It is built once, on the first grid that may use it.

    The guard. Every grid value is within
        beta = t^{-g/2} (gamma_{8 L + p + 6} S + gamma_{2g+3} S_x)
    of the exact sum over the box, with S = sum_j b_j,
    S_x = sum_j b_j pi |j|^T |Y^{-1}| |j| / t, L = log2(n^g) and p the most
    terms folded into one class j mod n, at most prod_k ceil(w_k / n) for
    the box widths w in k (k -> U k is a bijection mod n). A power-of-two
    FFT is L levels of butterflies, and each output is reached from each
    input along one path of unit-modulus weights; with twiddle factors
    within u, every level multiplies the paths' errors by at most 1 + 7u
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 24, the eta of Theorem 24.2), so the transform of the folded B is within
    gamma_{7L} sum|B| <= gamma_{7L} S componentwise; 8L leaves a unit per
    level for pocketfft's radix-4 and radix-8 passes. The fold adds p - 1,
    the exp of b_j 4 and the scaling by t^{-g/2} 3 units, 6 + p in all
    beyond the 8L; gamma_{2g+3} S_x covers the rounding of the exponents
    (Y^{-1} is the form as ``GramMatrix.inverse`` computes it).

    Where f is small the dual values cancel, so a grid takes them only when
    beta <= 1e-12 (min value - beta), which keeps every value within 1e-12
    relative of the box sum (and ln f within 1e-12). Otherwise that grid and
    every later one take ``f_series_batch``. The minimum of f is at most its
    mean t^{-g/2}, and S is t^{g/2} f(0) up to the tail, with
    f(0) >= det_sqrt (the term m = 0 of the direct sum), so where
    gamma_{8L} t^{g/2} det_sqrt > 1e-12 the guard cannot hold and the grid
    builds no dual box.
    """
    target = _f_target(Y, t, _F_RTOL)
    g, det_sqrt = Y.g, Y.det_sqrt
    scale = t ** (-g / 2.0)
    built = None  # (m, b, S, S_x, widths) once built
    grid_dual = True  # False once a grid has taken f_series_batch

    def dual():
        nonlocal built
        if built is None:
            Yi = Y.inverse()
            R = _radius_for(Yi, 1.0, 1.0 / t, target / scale)
            m, widths = _reduced_box(Yi, R, 0.0, 0.0)
            q = np.einsum("ij,ij->i", m, m @ Yi.entries)
            qa = np.einsum("ij,ij->i", np.abs(m), np.abs(m) @ np.abs(Yi.entries))
            b = np.exp(-math.pi / t * q)
            built = (m, b, float(b.sum()), math.pi / t * float(b @ qa), widths)
        return built

    def values(n):
        nonlocal grid_dual
        levels = g * round(math.log2(n))
        if grid_dual and _gamma(8 * levels) * det_sqrt / scale <= _F_RTOL:
            m, b, S, S_x, widths = dual()
            # on the grid k/n, exp(-2 pi i j . k / n) depends on j mod n only
            r = np.ravel_multi_index(tuple((m.astype(np.int64) % n).T), (n,) * g)
            v = scale * np.fft.fftn(np.bincount(r, b, n**g).reshape((n,) * g)).real.ravel()
            p = float(np.prod(np.ceil(widths / n)))
            beta = scale * (_gamma(8 * levels + p + 6) * S + _gamma(2 * g + 3) * S_x)
            if beta <= _F_RTOL * (float(v.min()) - beta):
                return v
        grid_dual = False
        return f_series_batch(Y, t, _int_box(np.zeros(g), np.full(g, n - 1)) / n, _F_RTOL)[0]

    return values
