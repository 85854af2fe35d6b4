"""Gaussian lattice sums and theta functions with certified truncation.

Three closely related series are evaluated:

* f_Y(t; x) = sqrt(det Y) * sum_m exp(-pi t ||x - m||_Y^2),
* theta_Omega(z) = sum_n exp(i pi n^T Omega n + 2 i pi n^T z),
* the cube-metric section norm
  ||s||(z) = det(Y)^{1/4} exp(-pi y^T Y^{-1} y) |theta_Omega(z)|,  y = Im z.

All three are exp-sums over one kernel, ``lattice._sq_dist_blocks``: the
squared distances ||p - m||_Y^2 from a point p to the lattice points m of a
box covering the truncation ellipsoid around p. Theta sums use m = -n, so
with Im z = Y c the terms are exp(pi c^T Y c) exp(-pi ||c - m||_Y^2
+ i pi (m^T X m - 2 m . Re z)): the Gaussian peak sits at p = c, and term
counts stay small for large imaginary parts. ||s|| at z = x + Omega y is the
same sum at p = y with Re z -> x + X y, where exp(-pi y^T Y^{-1} y) cancels.
The omitted mass is bounded rigorously: balls of radius lambda_1(Y)/2 around
lattice points are disjoint, so the tail sum is dominated by a continuous
Gaussian integral outside the ellipsoid, an incomplete-gamma expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import gammaincc

from .lattice import GramMatrix, _candidate_box, _sq_dist_blocks
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


class ThetaError(ValueError):
    """Invalid series argument, or a truncation that cannot be certified."""


@dataclass(frozen=True)
class ThetaValue:
    """A truncated series value with a certified absolute tail bound."""

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


def _theta_sums(om: PeriodMatrix, p: np.ndarray, u: np.ndarray, cand: np.ndarray):
    """Per row i: sum over the rows m of ``cand`` of
    exp(-pi ||p_i - m||_Y^2 + i pi (m^T X m - 2 m . u_i))."""
    pm = np.einsum("ij,ij->i", cand, cand @ om.X)
    out = np.empty(p.shape[0], dtype=complex)
    for rows, D in _sq_dist_blocks(om.Y, p, cand):
        np.maximum(D, 0.0, out=D)
        phase = pm[None, :] - 2.0 * (u[rows] @ cand.T)
        out[rows] = np.exp(-math.pi * D + 1j * math.pi * phase).sum(axis=1)
    return out


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
    center c = Y^{-1} Im z; certified |omitted| <= tol * (|value| + tol)."""
    z = _as_z(om, z, tol)
    a, b = z.real, z.imag
    c = cho_solve((om.Y.chol, True), b)
    q = float(b @ c)  # b^T Y^{-1} b
    if math.pi * q > _EXP_CAP:
        raise ThetaError("imaginary part of z too large for a stable evaluation")
    R = _radius_for(om.Y, 1.0, 1.0, tol * tol * math.exp(-min(math.pi * q, _EXP_CAP)))
    cand = _candidate_box(om.Y, R, c, c)
    s = complex(_theta_sums(om, c.reshape(1, -1), a.reshape(1, -1), cand)[0])
    scale = math.exp(math.pi * q)
    tail = _tail_bound(om.Y, 1.0, 1.0, R)
    return ThetaValue(value=scale * s, tail_bound=scale * tail, terms_used=cand.shape[0])


def cube_norm_s(om: PeriodMatrix, z, tol: float = 1e-12) -> float:
    """Cube-metric section norm ||s||(z) >= 0.

    Evaluated as ``cube_norm_batch`` at the torus coordinates y = Y^{-1} Im z,
    x = Re z - X y, with its tolerance tol^2; absolute truncation error
    <= det(Y)^{1/4} * tol^2.
    """
    z = _as_z(om, z, tol)
    y = cho_solve((om.Y.chol, True), z.imag)
    xy = np.concatenate([z.real - om.X @ y, y]).reshape(1, -1)
    values, _ = cube_norm_batch(om, xy, max(tol * tol, _DENORMAL))  # tol^2 may underflow
    return float(values[0])


def cube_norm_batch(om: PeriodMatrix, xy, tol: float = 1e-12):
    """||s||(x + Omega y) over many torus coordinates (x, y) in [0,1)^{2g}.

    ``xy`` has shape (N, 2g): the first g columns are x, the last g are y.
    Returns ``(values, err)`` with err a certified absolute truncation bound
    det(Y)^{1/4} * tol, uniform over the batch.
    """
    if tol <= 0.0:
        raise ThetaError("tol must be positive")
    g = om.g
    XY = _torus_points(xy, 2 * g, f"2g={2 * g}")
    xs, ys = XY[:, :g], XY[:, g:]
    R = _radius_for(om.Y, 1.0, 1.0, tol)
    cand = _candidate_box(om.Y, R)
    det4 = om.Y.det_sqrt ** 0.5
    values = det4 * np.abs(_theta_sums(om, ys, xs + ys @ om.X, cand))
    return values, det4 * _tail_bound(om.Y, 1.0, 1.0, R)
