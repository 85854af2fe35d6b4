import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.linalg import cho_solve

from mlk.lattice import GramMatrix, _candidate_box
from mlk.theta import _radius_for

settings.register_profile(
    "mlk",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mlk")


def make_spd(rng: np.random.Generator, g: int, cond_max: float = 1e3,
             scale: float = 1.0) -> GramMatrix:
    """Random SPD Gram matrix with condition number <= cond_max."""
    half = 0.5 * np.log(cond_max)
    lam = scale * np.exp(rng.uniform(-half, half, g))
    Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
    Y = (Q * lam) @ Q.T
    return GramMatrix((Y + Y.T) / 2.0)


def make_reduced_period(rng: np.random.Generator, g: int):
    """Random period matrix whose flags are guaranteed satisfied.

    Eigenvalues of Y at least 1 force lambda_1(Y)^2 >= 1 > sqrt(3)/2; for
    g = 1 the imaginary part >= 1 puts tau in the fundamental domain.
    """
    from mlk.siegel import reduce as siegel_reduce, validate_period_matrix

    lam = rng.uniform(1.0, 3.0, g)
    Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
    Y = (Q * lam) @ Q.T
    Y = (Y + Y.T) / 2.0
    X = rng.uniform(-0.5, 0.5, (g, g))
    X = (X + X.T) / 2.0
    return siegel_reduce(validate_period_matrix(X, Y))


def make_lll_gram(rng: np.random.Generator, g: int, lo: float = 0.5,
                  hi: float = 3.0) -> GramMatrix:
    """Random SPD matrix replaced by its LLL-reduced congruent representative."""
    from mlk.lattice import lll_reduce

    lam = rng.uniform(lo, hi, g)
    Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
    Y = (Q * lam) @ Q.T
    Y = GramMatrix((Y + Y.T) / 2.0)
    _, U = lll_reduce(Y.chol.T)
    Uf = U.astype(float)
    Yr = Uf.T @ Y.entries @ Uf
    return GramMatrix((Yr + Yr.T) / 2.0)


def brute_shortest(Y: GramMatrix, box: int = 10) -> float:
    """Independent SVP oracle: exhaustive scan over the sup-norm box."""
    rng_axis = np.arange(-box, box + 1)
    best = np.inf
    for m in itertools.product(rng_axis, repeat=Y.g):
        if any(m):
            v = np.asarray(m, dtype=float)
            best = min(best, float(v @ Y.entries @ v))
    return float(np.sqrt(best))


def brute_closest(Y: GramMatrix, x, box: int = 5) -> float:
    """Independent CVP oracle: exhaustive scan around round(x)."""
    x = np.asarray(x, dtype=float)
    center = np.round(x).astype(int)
    best = np.inf
    for off in itertools.product(range(-box, box + 1), repeat=Y.g):
        v = x - (center + np.asarray(off))
        best = min(best, float(v @ Y.entries @ v))
    return float(np.sqrt(best))


def theta_box_sum(om, p, u, radius, lo=0.0, hi=1.0) -> np.ndarray:
    """Theta-sum oracle: for each row i, the direct sum over every lattice
    point m of ``_candidate_box(Y, radius, lo, hi)`` of
    exp(-pi ||p_i - m||_Y^2 + i pi (m^T X m - 2 m . u_i)), one complex exp
    per (point, term) pair, with ||p - m||_Y^2 formed from p - m (accurate
    also for large Y)."""
    cand = _candidate_box(om.Y, radius, lo, hi)
    diff = np.asarray(p, dtype=float)[:, None, :] - cand[None, :, :]
    D = ((diff @ om.Y.entries) * diff).sum(axis=-1)
    phase = np.einsum("ij,ij->i", cand, cand @ om.X)[None, :] - 2.0 * (u @ cand.T)
    return np.exp(-math.pi * D + 1j * math.pi * phase).sum(axis=1)


def oracle_cube_norm(om, xy, tol: float = 1e-12) -> np.ndarray:
    """||s|| at torus coordinates (x, y) by ``theta_box_sum``, over the box
    of the library's truncation radius for ``tol``."""
    g = om.g
    xy = np.asarray(xy, dtype=float)
    xy = xy - np.floor(xy)
    xs, ys = xy[:, :g], xy[:, g:]
    R = _radius_for(om.Y, 1.0, 1.0, tol)
    return om.Y.det_sqrt ** 0.5 * np.abs(theta_box_sum(om, ys, xs + ys @ om.X, R))


def oracle_theta(om, z, tol: float = 1e-12):
    """(theta_Omega(z), exp(pi q)) by ``theta_box_sum`` around c = Y^{-1} Im z,
    q = Im z . c, over the box of the library's truncation radius. c and q
    are formed as the library forms them: near q = _EXP_CAP / pi, a last-bit
    change of q moves exp(pi q) by ~1e-13 relative, which would hide the sum."""
    z = np.asarray(z, dtype=complex)
    c = cho_solve((om.Y.chol, True), z.imag)
    q = float(z.imag @ c)
    R = _radius_for(om.Y, 1.0, 1.0, tol * tol * math.exp(-math.pi * q))
    scale = math.exp(math.pi * q)
    return scale * complex(theta_box_sum(om, c[None, :], z.real[None, :], R, c, c)[0]), scale


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
