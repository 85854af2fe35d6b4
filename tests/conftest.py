import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mlk.lattice import GramMatrix
from mlk.theta import _candidate_box, _radius_for

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
    U, _ = lll_reduce(Y)
    Uf = U.astype(float)
    Yr = Uf.T @ Y.entries @ Uf
    return GramMatrix((Yr + Yr.T) / 2.0)


def reference_lll(basis, delta: float = 0.99):
    """LLL reference: the textbook loop with the Gram-Schmidt data of the
    float basis rebuilt from scratch after every size reduction and swap.
    Returns ``(reduced, U)`` like ``lattice.lll_reduce``."""
    def gso(B):
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
        return mu, norms2

    B = np.array(basis, dtype=float)
    n = B.shape[1]
    U = np.eye(n, dtype=np.int64)
    mu, norms2 = gso(B)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                B[:, k] -= q * B[:, j]
                U[:, k] -= q * U[:, j]
                mu, norms2 = gso(B)
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            U[:, [k - 1, k]] = U[:, [k, k - 1]]
            mu, norms2 = gso(B)
            k = max(k - 1, 1)
    return B, U


def brute_psi_sq(Y: GramMatrix, x) -> float:
    """psi_Y(x)^2 in extended precision (``np.longdouble``): the minimum of
    ||x - m||_Y^2, formed from x - m, over every m of the integer box around
    x that holds the ellipsoid of radius ``Y.covering_upper()``."""
    x = np.asarray(x, dtype=np.longdouble)
    w = Y.covering_upper() * np.sqrt(np.diag(Y.inverse().entries)) + 1e-9
    axes = [np.arange(math.ceil(float(xk) - wk), math.floor(float(xk) + wk) + 1)
            for xk, wk in zip(x, w)]
    m = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))
    D = x[None, :] - m.astype(np.longdouble)
    return float(np.min(((D @ Y.entries.astype(np.longdouble)) * D).sum(axis=1)))


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


def invariant_exact(taus) -> float:
    """Archimedean invariant I of the product diag(taus), from the g = 1
    closed form: the sum over the factors of
    -(1/24) ln(|Delta(tau)| (Im tau)^6) - (1/4) ln 2."""
    from mlk.oracle import log_abs_delta

    return sum(-(log_abs_delta(t) + 6.0 * math.log(t.imag)) / 24.0 - 0.25 * math.log(2.0)
               for t in taus)


def ln_f_exact(y, t: float) -> float:
    """The integral over [0, 1]^g of ln f_Y(t; x) for Y = U^T diag(y) U, U
    unimodular, in closed form. x -> U x preserves the torus, so f_Y(t; .)
    is a product of g one-dimensional sums; by Poisson summation each is
    t^{-1/2} theta_3(pi x_k, q_k), q_k = exp(-pi / (t y_k)), and by the Jacobi
    triple product its log averages to -(1/2) ln t + sum_{n >= 1}
    ln(1 - q_k^{2n}), summed until q_k^{2n} < e^{-40}."""
    total = -0.5 * len(y) * math.log(t)
    for yk in y:
        a = 2.0 * math.pi / (t * yk)
        n = np.arange(1, math.ceil(40.0 / a) + 2)
        total += float(np.log1p(-np.exp(-a * n)).sum())
    return total


def grid_points(n: int, d: int) -> np.ndarray:
    """The points k/n, k in {0, ..., n-1}^d, of a grid integrand's call
    (``quadrature.integrate_periodic``), as (n^d, d) rows in C order."""
    axes = d * [np.arange(n) / n]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


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


def oracle_f(Y, t: float, P, tol: float = 1e-12) -> np.ndarray:
    """f_Y(t; x) at the rows x of P by ``theta_box_sum`` on the form t Y with
    X = 0 and no phases, over the box of ``f_series_batch``'s truncation
    radius for ``tol`` (its target tol * det_sqrt * exp(-pi t mu_hi^2)) around
    [0, 1]^g."""
    P = np.asarray(P, dtype=float)
    P = P - np.floor(P)
    mu = Y.covering_upper()
    R = _radius_for(Y, Y.det_sqrt, t, tol * Y.det_sqrt * math.exp(-math.pi * t * mu * mu))
    form = SimpleNamespace(Y=GramMatrix(t * Y.entries), X=np.zeros((Y.g, Y.g)))
    return Y.det_sqrt * theta_box_sum(form, P, np.zeros_like(P), math.sqrt(t) * R).real


def oracle_theta(om, z, tol: float = 1e-12):
    """(theta_Omega(z), exp(pi q)) by ``theta_box_sum`` around c = Y^{-1} Im z,
    q = Im z . c, over the box of the library's truncation radius. c and q
    are formed as the library forms them: near q = _EXP_CAP / pi, a last-bit
    change of q moves exp(pi q) by ~1e-13 relative, which would hide the sum."""
    z = np.asarray(z, dtype=complex)
    c = om.Y.inverse().entries @ z.imag
    q = float(z.imag @ c)
    R = _radius_for(om.Y, 1.0, 1.0, tol * tol * math.exp(-math.pi * q))
    scale = math.exp(math.pi * q)
    return scale * complex(theta_box_sum(om, c[None, :], z.real[None, :], R, c, c)[0]), scale


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
