import math
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlk import theta
from mlk.bounds import EmbeddingSet, verify_chain
from mlk.lattice import GramMatrix, LatticeError, closest_vector, psi_sq_batch
from mlk.quadrature import _gauss_rule, integrate_cube
from mlk.siegel import validate_period_matrix
from mlk.theta import (
    _DENORMAL,
    _EXP_CAP,
    _Q_INFLATION,
    ThetaError,
    _cube_norm_box,
    _cube_norm_grid,
    _f_grid,
    _gamma_q,
    _radius_for,
    _tail_bound,
    cube_norm_batch,
    cube_norm_s,
    f_series,
    f_series_batch,
    theta_siegel,
)

from conftest import (grid_points, make_reduced_period, make_spd, oracle_cube_norm, oracle_f,
                      oracle_theta)

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
        # skew = 3: a form far from LLL-reduced, which f evaluates in reduced coordinates
        for skew in (0, 3):
            U = np.array([[1.0, skew], [0.0, 1.0]])
            A = U.T @ make_spd(rng, 2).entries @ U
            Y = GramMatrix((A + A.T) / 2.0)
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

    def test_huge_t_splits_into_more_cells_than_int64_counts(self, rng):
        # at t Y ~ 1e10 the box is split into ~2^33 cells per axis: rows are
        # grouped without a flat cell number. Only the nearest term survives.
        Y = make_spd(rng, 4)
        t = 1e10
        xs = np.vstack([np.zeros(4), np.full(4, 1e-6), rng.uniform(0.1, 0.9, (5, 4))])
        vals, tail, _ = f_series_batch(Y, t, xs)
        near = Y.det_sqrt * math.exp(-math.pi * t * float(xs[1] @ Y.entries @ xs[1]))
        assert vals[:2] == pytest.approx([Y.det_sqrt, near], rel=1e-13)
        assert np.all(vals[2:] == 0.0) and tail < 1e-10

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

    @pytest.mark.parametrize("Y, t", [
        ([[300.0]], 1.0),
        ([[1.0]], 1e4),
        ([[1.0, 0.0], [0.0, 500.0]], 2.0),
    ])
    def test_large_tY_matches_40_digit_sum(self, rng, Y, t):
        # at large t Y, ||x - m||^2 formed as q(x) - 2 x^T Y m + q(m) cancels;
        # against a 40-digit sum over m within 6 of round(x) (the rest is
        # below exp(-200) relative), on values above 1e-280
        Y = GramMatrix(Y)
        g = Y.g
        xs = rng.uniform(0, 1, (100, g))
        vals, tail, _ = f_series_batch(Y, t, xs)
        with mp.workdps(40):
            A = [[mp.mpf(float(a)) for a in row] for row in Y.entries]
            scale = mp.sqrt(mp.mpf(float(np.prod(np.diag(Y.entries)))))  # Y is diagonal
            for x, v in zip(xs, vals):
                ref = mp.mpf(0)
                for off in np.ndindex(*(13,) * g):
                    d = [mp.mpf(float(x[k])) - (round(x[k]) + off[k] - 6) for k in range(g)]
                    q = sum(d[i] * A[i][j] * d[j] for i in range(g) for j in range(g))
                    ref += mp.exp(-mp.pi * t * q)
                ref *= scale
                if ref < 1e-280:
                    continue
                err = abs(mp.mpf(float(v)) - ref)
                assert err <= 1e-13 * ref and err <= tail

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
        for t in (-1.0, math.inf, math.nan):
            with pytest.raises(ThetaError):
                f_series(Y, t, [0.0])
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

    def test_rejects_z_it_cannot_evaluate(self):
        om = om_of(1j)
        with pytest.raises(ThetaError, match="too large"):
            theta_siegel(om, [20j])  # pi (Im z)^2 / Im tau = 400 pi, past the exp cap
        with pytest.raises(ThetaError, match="dimension 2 incompatible"):
            theta_siegel(om, [0.1, 0.2])
        with pytest.raises(ThetaError, match="finite"):
            theta_siegel(om, [complex(0.1, math.nan)])

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

        lhs = integrate_cube(f, 1, 256).value
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

    @pytest.mark.parametrize("tau", [1j, 0.5 + 1j, 0.3897 + 1.279j, 2j, 50j, 0.25 + 1000j,
                                     0.25 + 1500j])
    def test_cube_norm_grid(self, tau):
        # the g = 1 product-grid form on the 32-node Gauss rule's grid, also
        # in the band of large Im tau where ||s|| nears the end of the
        # normal doubles
        om = om_of(tau)
        x, _ = _gauss_rule(32)
        got = _cube_norm_grid(om, x)
        ref = oracle_cube_norm(om, np.array(list(product(x, repeat=2)))).reshape(32, 32)
        normal = ref >= np.finfo(float).tiny
        assert got.shape == (32, 32) and normal.any()
        assert np.all(np.abs(np.log(got[normal]) - np.log(ref[normal])) <= 1e-12)

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


class TestFourierGrids:
    """The FFT grid form of f_Y, the chain's x-integrand, against direct sums."""

    @staticmethod
    def grids(g):
        """The n of a first grid and of a doubling, n = 16 only at g <= 2."""
        return (8, 16) if g <= 2 else (8,)

    @staticmethod
    def dual_only(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dual guard fell back to f_series_batch")

        monkeypatch.setattr(theta, "f_series_batch", refuse)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_dual_f_grid(self, rng, g, monkeypatch):
        # t = 1 on random reduced Y, and t = 2 at Y = I, where the chain's
        # inputs sit: the guard keeps the dual, within 1e-13 relative of
        # f_series_batch and of the direct box sum
        cases = [(make_reduced_period(rng, g).Y, 1.0) for _ in range(3)]
        cases.append((GramMatrix(np.eye(g)), 2.0))
        for Y, t in cases:
            refs = []
            for n in self.grids(g):
                P = grid_points(n, g)
                refs.append((n, f_series_batch(Y, t, P)[0], oracle_f(Y, t, P)))
            with monkeypatch.context() as mp:
                self.dual_only(mp)
                f_grid = _f_grid(Y, t)
                for n, direct, box_sum in refs:
                    got = np.asarray(f_grid(n)).ravel()
                    _assert_agrees(got, direct, 0.0)
                    _assert_agrees(got, box_sum, 0.0)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_dual_points(self, g, monkeypatch):
        # the chain at Omega = i I_g reads its Parseval right sides off the
        # dual grid of its log-Gaussian: no f_series_batch call
        self.dual_only(monkeypatch)
        om = validate_period_matrix(np.zeros((g, g)), np.eye(g))
        assert verify_chain(EmbeddingSet(g, 1, [om])).all_passed


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


class TestGammaQ:
    """The closed-form Q(k/2, x) behind every truncation radius, against a
    40-digit incomplete gamma and, for the radii, against scipy's."""

    XS = [*np.geomspace(1e-3, 800.0, 41), 0.5, 1.0, 7.5, 700.0, 727.5, 745.0, 760.0]

    @pytest.mark.parametrize("k", range(1, 33))
    def test_upper_bound_within_1e12_of_mpmath(self, k):
        s = k / 2.0
        for x in self.XS:
            with mp.workdps(40):
                want = mp.gammainc(mp.mpf(s), mp.mpf(x), mp.inf, regularized=True)
            got = _gamma_q(s, x)
            if want >= np.finfo(float).tiny:
                assert got >= want, (s, x)
                # the value before the stated inflation is within 1e-12 relative
                assert abs(got / (1.0 + _Q_INFLATION) / want - 1) <= 1e-12, (s, x)
            else:  # denormal or below: each term and sum rounds by <= half a step
                assert got >= want - (s + 1.0) * _DENORMAL, (s, x)

    def test_no_early_underflow(self):
        # e^-x times the sum underflows at x = 800; the terms themselves do not
        assert _gamma_q(16.0, 800.0) >= 1.0e-316

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_chain_radii_match_scipy_tail(self, rng, g, monkeypatch):
        from scipy.special import gammaincc  # oracle only: mlk itself does not import scipy

        calls = []

        def logged(Y, det_sqrt, t, target):
            r = _radius_for(Y, det_sqrt, t, target)
            calls.append((Y, det_sqrt, t, target, r))
            return r

        monkeypatch.setattr(theta, "_radius_for", logged)
        om = make_reduced_period(rng, g)
        verify_chain(EmbeddingSet(g, 1, [om]), budget=64)
        monkeypatch.setattr(theta, "_gamma_q", lambda s, x: float(gammaincc(s, x)))
        assert calls
        for Y, det_sqrt, t, target, r in calls:
            assert _radius_for(Y, det_sqrt, t, target) == r


SKEWED = {
    # Z^3 in a skewed basis: Y = U^T U, whose LLL-reduced form is I
    3: (np.array([[1, 2, 0], [0, 1, 2], [0, 0, 1]]), np.eye(3)),
    2: (np.array([[1, 3], [0, 1]]), np.array([[1.3, 0.4], [0.4, 1.1]])),
}


def _skewed_pair(g):
    """(Omega, V, Omega') for Y = U^T Y0 U with a seeded X: V = U^{-1} and
    Omega' = V^T Omega V, the same torus written in its LLL basis."""
    U, Y0 = SKEWED[g]
    X = np.random.default_rng(g).uniform(-0.5, 0.5, (g, g))
    Y = U.T @ Y0 @ U
    om = validate_period_matrix((X + X.T) / 2.0, (Y + Y.T) / 2.0)
    V = np.rint(np.linalg.inv(U)).astype(float)
    Xr, Yr = V.T @ om.X @ V, V.T @ om.Y.entries @ V
    return om, V, validate_period_matrix((Xr + Xr.T) / 2.0, (Yr + Yr.T) / 2.0)


class TestSkewedBasis:
    """Omega with a Y far from LLL-reduced against the same Omega in its LLL
    basis, at the mapped arguments, and against the direct box-exp sum."""

    @pytest.mark.parametrize("g", [2, 3])
    def test_cube_norm_batch(self, rng, g):
        om, V, om_r = _skewed_pair(g)
        xy = rng.uniform(0, 1, (60, 2 * g))
        got, err = cube_norm_batch(om, xy)
        pts = np.hstack([xy[:, :g] @ V, xy[:, g:] @ np.linalg.inv(V).T])  # (V^T x, V^{-1} y)
        mapped, _ = cube_norm_batch(om_r, pts)
        _assert_agrees(got, mapped)
        _assert_agrees(got, oracle_cube_norm(om, xy))
        assert 0.0 < err < 1e-10

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("reach", [0.5, 1.5])
    def test_cube_norm_s_and_theta(self, rng, g, reach):
        # theta_Omega(z) = theta_Omega'(V^T z); ||s|| is a function on the
        # torus. theta in the two bases is compared only at reach 0.5: its
        # envelope exp(pi q), q = Im z^T Y^{-1} Im z, turns the last-bit
        # difference between q formed from Y and from V^T Y V into ~1e-13
        # relative at q ~ 30. The oracle forms q from Y as the library does.
        om, V, om_r = _skewed_pair(g)
        det4 = om.Y.det_sqrt ** 0.5
        for _ in range(5):
            z = rng.uniform(-1, 1, g) + 1j * (om.Y.entries @ rng.uniform(-reach, reach, g))
            theta, scale = oracle_theta(om, z)
            got = theta_siegel(om, z)
            _assert_agrees(got.value, theta, 1e-15 * scale)
            if reach < 1.0:
                _assert_agrees(got.value, theta_siegel(om_r, V.T @ z).value, 1e-15 * scale)
            _assert_agrees(cube_norm_s(om, z), cube_norm_s(om_r, V.T @ z))
            _assert_agrees(cube_norm_s(om, z), det4 * abs(theta) / scale)

    @pytest.mark.parametrize("g", [2, 3])
    def test_theta_terms_match_the_reduced_basis(self, g):
        # the box is taken in LLL coordinates: at g = 3 the raw box of Y would
        # hold 18,144 points against 1,728
        om, V, om_r = _skewed_pair(g)
        z = np.linspace(0.1, 0.3, g) + 1j * (om.Y.entries @ np.linspace(-0.4, 0.4, g))
        assert theta_siegel(om, z).terms_used == theta_siegel(om_r, V.T @ z).terms_used
        if g == 3:
            assert om_r.Y.entries.tolist() == np.eye(3).tolist()
            assert theta_siegel(om, z).terms_used == 1728


class TestRejectsTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_non_positive_tol(self, tol):
        om = om_of(0.1 + 1.2j)
        with pytest.raises(ThetaError, match="tol"):
            theta_siegel(om, [0.3 + 0.1j], tol=tol)
        with pytest.raises(ThetaError, match="tol"):
            cube_norm_s(om, [0.3 + 0.1j], tol=tol)
        with pytest.raises(ThetaError, match="tol"):
            cube_norm_batch(om, [[0.3, 0.1]], tol=tol)


class TestPointShapes:
    """One shape rule for the point sets of ``psi_sq_batch``,
    ``f_series_batch`` and ``cube_norm_batch``: a 1-D array is one point, a
    2-D array of the right width one point per row, zero rows give an empty
    result, and anything else raises the module's own error."""

    @staticmethod
    def batch(name, g):
        """The batch function under test, taking (N, d) points, and its error."""
        Y = GramMatrix(np.eye(g))
        if name == "psi":
            return g, (lambda P: psi_sq_batch(Y, P)), LatticeError
        if name == "f":
            return g, (lambda P: f_series_batch(Y, 1.0, P)[0]), ThetaError
        om = validate_period_matrix(np.zeros((g, g)), np.eye(g))
        return 2 * g, (lambda P: cube_norm_batch(om, P)[0]), ThetaError

    @pytest.mark.parametrize("name", ["psi", "f", "s"])
    @pytest.mark.parametrize("shape", ["3-D", "scalar", "wrong width"])
    def test_other_shapes_raise_the_module_error(self, name, shape):
        g = 1 if shape == "scalar" else 2
        d, f, error = self.batch(name, g)
        bad = {"3-D": np.zeros((2, d, d)), "scalar": np.float64(0.3),
               "wrong width": np.zeros((2, d + 1))}[shape]
        with pytest.raises(error, match="points"):
            f(bad)

    @pytest.mark.parametrize("name", ["psi", "f", "s"])
    def test_zero_rows_give_an_empty_result(self, name):
        d, f, _ = self.batch(name, 2)
        got = f(np.zeros((0, d)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("name", ["psi", "f", "s"])
    def test_one_point_is_a_one_row_batch(self, name):
        d, f, _ = self.batch(name, 2)
        x = np.linspace(0.1, 0.7, d)
        assert f(x).tobytes() == f(x.reshape(1, -1)).tobytes()
