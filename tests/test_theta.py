import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlk.lattice import GramMatrix, closest_vector
from mlk.quadrature import integrate_cube
from mlk.siegel import validate_period_matrix
from mlk.theta import (
    _EXP_CAP,
    ThetaError,
    _radius_for,
    _tail_bound,
    cube_norm_batch,
    cube_norm_s,
    f_series,
    theta_siegel,
)

from conftest import make_reduced_period, make_spd, oracle_cube_norm, oracle_theta

spd = st.integers(0, 10**9).map(lambda s: np.random.default_rng(s))

# Independent high-precision values (mpmath, 40 digits):
F1_T2_X0 = 1.0037348854877390910476795950669538662    # sum exp(-2 pi m^2)
F1_T2_XHALF = 0.4157606025960270323145071362847439246  # sum exp(-2 pi (m-1/2)^2)
THETA3 = 1.0864348112133080145753161215102234570      # sum exp(-pi n^2)


def om_of(tau: complex):
    return validate_period_matrix([[tau.real]], [[tau.imag]])


class TestFSeries:
    def test_frozen_values(self):
        Y = GramMatrix([[1.0]])
        assert f_series(Y, 2.0, [0.0]).value == pytest.approx(F1_T2_X0, rel=1e-12)
        assert f_series(Y, 2.0, [0.5]).value == pytest.approx(F1_T2_XHALF, rel=1e-12)

    def test_matches_mpmath_generic(self, rng):
        Y = make_spd(rng, 2)
        x = rng.uniform(0, 1, 2)
        got = f_series(Y, 0.7, x).value
        A = mp.matrix(Y.entries.tolist())
        want = mp.sqrt(mp.det(A)) * mp.nsum(
            lambda m0, m1: mp.exp(
                -mp.pi * 0.7 * ((mp.matrix([x[0] - m0, x[1] - m1]).T * A
                                 * mp.matrix([x[0] - m0, x[1] - m1]))[0])
            ),
            [-mp.inf, mp.inf],
            [-mp.inf, mp.inf],
        )
        assert got == pytest.approx(float(want), rel=1e-11)

    def test_large_t_limit(self, rng):
        Y = make_spd(rng, 3)
        assert f_series(Y, 1e6, np.zeros(3)).value == pytest.approx(Y.det_sqrt, rel=1e-13)

    def test_tail_certification(self, rng):
        Y = make_spd(rng, 2)
        x = rng.uniform(0, 1, 2)
        for t in (0.3, 1.0, 4.0):
            v = f_series(Y, t, x, tol=1e-10)
            assert 0.0 <= v.tail_bound <= 1e-10 * v.value * 1.01
            # halving the tolerance moves the value at most by the old tail
            v2 = f_series(Y, t, x, tol=5e-11)
            assert abs(v2.value - v.value) <= v.tail_bound

    def test_positive(self, rng):
        Y = make_spd(rng, 2)
        assert f_series(Y, 2.0, rng.uniform(-3, 3, 2)).value > 0.0

    def test_tail_bound_is_honest(self, rng):
        # a coarse evaluation must sit within its own certified tail of a
        # much tighter one
        for _ in range(5):
            Y = make_spd(rng, 2)
            x = rng.uniform(0, 1, 2)
            ref = f_series(Y, 0.5, x, tol=1e-14).value
            coarse = f_series(Y, 0.5, x, tol=1e-4)
            assert abs(coarse.value - ref) <= coarse.tail_bound

    @given(spd, st.integers(1, 3), st.floats(0.2, 8.0))
    def test_symmetry_and_periodicity(self, r, g, t):
        Y = make_spd(r, g)
        x = r.uniform(0, 1, g)
        m = r.integers(-2, 3, g).astype(float)
        base = f_series(Y, t, x).value
        assert f_series(Y, t, -x).value == pytest.approx(base, rel=1e-12)
        assert f_series(Y, t, x + m).value == pytest.approx(base, rel=1e-12)

    def test_rejects_bad_arguments(self):
        Y = GramMatrix([[1.0]])
        with pytest.raises(ThetaError):
            f_series(Y, -1.0, [0.0])
        with pytest.raises(ThetaError):
            f_series(Y, 1.0, [0.0], tol=0.0)
        with pytest.raises(ThetaError):
            f_series(Y, 1.0, [0.0, 0.0])

    def test_gaussian_weighted_monotone_in_t(self, rng):
        # each term exp(-pi t (||x-m||^2 - psi^2)) is non-increasing in t
        for _ in range(5):
            g = int(rng.integers(1, 4))
            Y = make_spd(rng, g)
            x = rng.uniform(0, 1, g)
            psi2 = closest_vector(Y, x).value ** 2
            ts = 0.1 * 2.0 ** np.arange(0, 9)
            vals = [f_series(Y, t, x).value * math.exp(math.pi * t * psi2) for t in ts]
            for a, b in zip(vals, vals[1:]):
                assert b <= a * (1 + 1e-9)


class TestThetaSiegel:
    def test_frozen_g1(self):
        v = theta_siegel(om_of(1j), [0.0])
        assert v.value.real == pytest.approx(THETA3, rel=1e-12)
        assert abs(v.value.imag) < 1e-15

    def test_integer_shift_invariance(self, rng):
        om = om_of(0.3 + 1.2j)
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        a = theta_siegel(om, [z]).value
        b = theta_siegel(om, [z + 3.0]).value
        assert b == pytest.approx(a, rel=1e-11)

    def test_diagonal_product_structure(self):
        om = validate_period_matrix(np.zeros((2, 2)), np.eye(2))
        v = theta_siegel(om, [0.0, 0.0]).value
        assert v.real == pytest.approx(THETA3**2, rel=1e-12)

    def test_matches_mpmath_jtheta(self, rng):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.6))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        got = theta_siegel(om_of(tau), [z]).value
        want = complex(mp.jtheta(3, mp.pi * z, mp.exp(1j * mp.pi * tau)))
        assert got == pytest.approx(want, rel=1e-11)

    def test_tail_bound_contract(self, rng):
        om = om_of(0.1 + 0.9j)
        z = complex(rng.uniform(0, 1), rng.uniform(0, 1))
        tol = 1e-10
        v = theta_siegel(om, [z], tol=tol)
        assert v.tail_bound <= tol * (abs(v.value) + tol)


class TestCubeNorm:
    def test_value_at_origin(self):
        assert cube_norm_s(om_of(1j), [0.0]) == pytest.approx(THETA3, rel=1e-12)

    def test_odd_characteristic_zero(self):
        assert cube_norm_s(om_of(1j), [0.5 + 0.5j]) < 1e-10

    def test_matches_definition_via_mpmath(self, rng):
        # det(Y)^{1/4} exp(-pi y^T Y^{-1} y) |theta(z)| against jtheta
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.5))
        z = complex(rng.uniform(0, 1), rng.uniform(0, 1))
        got = cube_norm_s(om_of(tau), [z])
        want = (
            tau.imag**0.25
            * mp.exp(-mp.pi * z.imag**2 / tau.imag)
            * abs(mp.jtheta(3, mp.pi * z, mp.exp(1j * mp.pi * tau)))
        )
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_integer_shift_invariance(self, rng):
        om = om_of(-0.2 + 1.4j)
        z = complex(rng.uniform(0, 1), rng.uniform(0, 1))
        assert cube_norm_s(om, [z + 2.0]) == pytest.approx(cube_norm_s(om, [z]), rel=1e-11)

    def test_full_lattice_invariance(self):
        # ||s|| lives on the torus: also invariant under z -> z + Omega n
        tau = 0.25 + 1.3j
        om = om_of(tau)
        z = 0.31 + 0.17j
        assert cube_norm_s(om, [z + tau]) == pytest.approx(cube_norm_s(om, [z]), rel=1e-10)

    def test_batch_matches_single(self, rng):
        om = om_of(0.5 + 2.0j)
        xy = rng.uniform(0, 1, (30, 2))
        batch, err = cube_norm_batch(om, xy)
        tau = complex(om.X[0, 0], om.Y.entries[0, 0])
        singles = np.array([cube_norm_s(om, [x + tau * y]) for x, y in xy])
        np.testing.assert_allclose(batch, singles, rtol=1e-10, atol=1e-12)
        assert err >= 0.0

    @pytest.mark.parametrize("taus, U", [
        ((0.3 + 1.1j, -0.2 + 1.4j), [[1, 1], [0, 1]]),
        ((0.3 + 1.1j, -0.2 + 1.4j, 0.45 + 0.95j), [[1, 1, 0], [0, 1, -1], [0, 0, 1]]),
    ])
    def test_batch_factors_over_diagonal_omega(self, rng, taus, U):
        # ||s|| of diag(tau_1, ..., tau_g) is the product of the g = 1 norms;
        # U^T Omega U at (U^T x, U^{-1} y) is the same point of the same torus
        g = len(taus)
        xy = rng.uniform(0, 1, (200, 2 * g))
        want = np.ones(len(xy))
        for k, tau in enumerate(taus):
            want *= cube_norm_batch(om_of(tau), xy[:, [k, g + k]])[0]
        X, Y = np.diag([t.real for t in taus]), np.diag([t.imag for t in taus])
        for V in (np.eye(g), np.array(U, dtype=float)):
            om = validate_period_matrix(V.T @ X @ V, V.T @ Y @ V)
            pts = np.hstack([xy[:, :g] @ V, xy[:, g:] @ np.linalg.inv(V).T])
            got, _ = cube_norm_batch(om, pts)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_batch_tail_bound_is_honest(self, rng):
        om = om_of(0.3 + 1.1j)
        xy = rng.uniform(0, 1, (20, 2))
        ref, _ = cube_norm_batch(om, xy, tol=1e-14)
        coarse, err = cube_norm_batch(om, xy, tol=1e-4)
        assert np.all(np.abs(coarse - ref) <= err + 1e-15)


class TestParsevalSlice:
    @pytest.mark.parametrize("tau", [1j, 2j, 0.5 + 1j])
    @pytest.mark.parametrize("y", [0.0, 0.25, 0.5])
    def test_x_average_of_norm_sq_equals_gaussian_sum(self, tau, y):
        om = om_of(tau)
        Y = om.Y

        def f(P):
            pts = np.hstack([P, np.full((P.shape[0], 1), y)])
            vals, _ = cube_norm_batch(om, pts)
            return vals * vals

        lhs = integrate_cube(f, 1, "tensor-gauss", 256).value
        rhs = f_series(Y, 2.0, [y]).value
        assert lhs == pytest.approx(rhs, abs=1e-8)


UNIMODULAR = {
    1: [[1]],
    2: [[1, 1], [0, 1]],
    3: [[1, 1, 0], [0, 1, -1], [0, 0, 1]],
}


def _period_matrices(rng, g):
    """A random reduced period matrix and its conjugate U^T Omega U (for g = 1,
    the same tau with Re tau moved by 2), which is not reduced."""
    om = make_reduced_period(rng, g)
    U = np.array(UNIMODULAR[g], dtype=float)
    X = U.T @ om.X @ U + (2.0 if g == 1 else 0.0)
    Y = U.T @ om.Y.entries @ U
    return om, validate_period_matrix((X + X.T) / 2.0, (Y + Y.T) / 2.0)


def _assert_agrees(got, ref, floor=1e-15):
    """|got - ref| <= 1e-13 |ref| + floor, elementwise."""
    got, ref = np.asarray(got), np.asarray(ref)
    excess = np.abs(got - ref) - (1e-13 * np.abs(ref) + floor)
    assert np.all(excess <= 0.0), f"worst excess {excess.max():.3g}"


class TestContractionOracle:
    """The separable contraction against the direct box-exp sum of conftest."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_cube_norm_batch(self, rng, g):
        for om in _period_matrices(rng, g):
            xy = rng.uniform(0, 1, (200, 2 * g))
            got, err = cube_norm_batch(om, xy)
            _assert_agrees(got, oracle_cube_norm(om, xy))
            assert 0.0 < err < 1e-10

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_cube_norm_s(self, rng, g):
        # against det(Y)^{1/4} exp(-pi b^T Y^{-1} b) |theta(z)|, evaluated
        # around Y^{-1} Im z rather than on the torus
        for om in _period_matrices(rng, g):
            det4 = om.Y.det_sqrt ** 0.5
            for _ in range(5):
                z = rng.uniform(-1, 1, g) + 1j * (om.Y.entries @ rng.uniform(-1.5, 1.5, g))
                theta, scale = oracle_theta(om, z)
                _assert_agrees(cube_norm_s(om, z), det4 * abs(theta) / scale)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_theta_siegel(self, rng, g):
        # the floor scales with the Gaussian envelope exp(pi Im z^T Y^{-1} Im z)
        for om in _period_matrices(rng, g):
            for _ in range(5):
                z = rng.uniform(-1, 1, g) + 1j * (om.Y.entries @ rng.uniform(-1.5, 1.5, g))
                got = theta_siegel(om, z)
                theta, scale = oracle_theta(om, z)
                _assert_agrees(got.value, theta, 1e-15 * scale)
                assert got.tail_bound > 0.0

    @pytest.mark.parametrize("X, Y", [
        ([[0.1]], [[300.0]]),
        ([[0.1]], [[1000.0]]),
        ([[0.2, -0.1], [-0.1, 0.4]], [[1.3, 0.4], [0.4, 500.0]]),
    ])
    def test_large_imaginary_part(self, rng, X, Y):
        # the powers of one centre would overflow here; the points' box is
        # split into cells. Rows at y = 0 and y -> 1 sit on the Gaussian peak.
        om = validate_period_matrix(X, Y)
        assert om.is_reduced
        g = om.g
        xy = rng.uniform(0, 1, (300, 2 * g))
        xy[:10, g:] = 0.0
        xy[10:20, g:] = 1.0 - 1e-9
        got, err = cube_norm_batch(om, xy)
        ref = oracle_cube_norm(om, xy)
        _assert_agrees(got, ref)
        assert ref.max() > 1.0 and np.all(np.isfinite(got)) and math.isfinite(err)

    @pytest.mark.parametrize("X, Y, direction", [
        ([[0.3]], [[1.1]], [1.0]),
        ([[0.2, 0.1], [0.1, -0.3]], [[1.3, 0.4], [0.4, 1.1]], [1.0, -0.7]),
    ])
    def test_theta_siegel_near_exp_cap(self, X, Y, direction):
        om = validate_period_matrix(X, Y)
        c = np.array(direction)
        c *= math.sqrt(0.99 * _EXP_CAP / math.pi / float(c @ om.Y.entries @ c))
        z = np.linspace(0.1, 0.4, om.g) + 1j * (om.Y.entries @ c)
        got = theta_siegel(om, z)
        theta, scale = oracle_theta(om, z)
        assert scale > 1e298
        _assert_agrees(got.value, theta, 1e-15 * scale)
        assert math.isfinite(got.tail_bound)


class TestRoundingBound:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_err_covers_mpmath(self, rng, tol):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.6))
        om = om_of(tau)
        xy = rng.uniform(0, 1, (12, 2))
        got, err = cube_norm_batch(om, xy, tol=tol)
        mp.mp.dps = 30
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        for (x, y), v in zip(xy, got):
            z = mp.mpf(x) + mp.mpc(tau) * mp.mpf(y)
            want = (mp.mpf(tau.imag) ** 0.25 * mp.exp(-mp.pi * mp.mpf(y) ** 2 * tau.imag)
                    * abs(mp.jtheta(3, mp.pi * z, q)))
            assert abs(v - float(want)) <= err

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_err_adds_rounding_to_truncation(self, rng, g):
        # err = det(Y)^{1/4} (tail + rounding): never below the truncation bound
        om = make_reduced_period(rng, g)
        det4 = om.Y.det_sqrt ** 0.5
        for tol in (1e-4, 1e-12):
            _, err = cube_norm_batch(om, rng.uniform(0, 1, (4, 2 * g)), tol=tol)
            tail = _tail_bound(om.Y, 1.0, 1.0, _radius_for(om.Y, 1.0, 1.0, tol))
            assert det4 * tail < err <= det4 * (tail + 1e-10)
