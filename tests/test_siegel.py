import itertools
import math

import mpmath as mp
import numpy as np
import pytest

import mlk.siegel
from mlk.lattice import is_lll_reduced, shortest_vector
from mlk.oracle import log_abs_delta
from mlk.siegel import (
    SiegelError,
    injectivity_diameter,
    lambda_clamped,
    reduce,
    riemann_form_norm,
    validate_period_matrix,
)

from conftest import make_reduced_period


def om_of(tau: complex):
    return validate_period_matrix([[tau.real]], [[tau.imag]])


def brute_rho(om, box=5):
    """Independent oracle: scan H(m + Omega n) over a sup-norm box."""
    g = om.g
    best = math.inf
    for mn in itertools.product(range(-box, box + 1), repeat=2 * g):
        if any(mn):
            best = min(best, riemann_form_norm(om, mn[:g], mn[g:]))
    return math.sqrt(best)


class TestValidation:
    def test_identity_all_flags(self):
        om = validate_period_matrix(np.zeros((2, 2)), np.eye(2))
        assert om.flags.re_normalized and is_lll_reduced(om.Y) and om.flags.lambda1_ok

    def test_re_normalization_flag(self):
        assert not om_of(0.7 + 2j).flags.re_normalized
        assert om_of(0.5 + 2j).flags.re_normalized

    def test_g1_reduced_is_the_fundamental_domain(self, rng):
        # |Re tau| <= 1/2 and Im tau >= sqrt(3)/2 but |tau| < 1: not reduced,
        # and there rho < lambda_1(Y^{-1}); reduce() lands on |tau| >= 1
        om = om_of(0.1 + 0.9j)
        assert om.flags.re_normalized and not om.flags.lambda1_ok and not om.is_reduced
        assert not lambda_clamped(om).agrees
        assert reduce(om).is_reduced
        for _ in range(50):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.0))
            out = reduce(om_of(tau))
            assert out.is_reduced and abs(complex(out.X[0, 0], out.Y.entries[0, 0])) >= 1 - 1e-15

    def test_short_imaginary_vector_flag(self):
        om = validate_period_matrix(np.zeros((2, 2)), np.diag([0.5, 2.0]))
        assert not om.flags.lambda1_ok  # lambda_1(Y)^2 = 0.5 < sqrt(3)/2

    def test_symmetrization_tolerance(self):
        Y = np.array([[2.0, 0.3 + 1e-12], [0.3, 2.0]])
        om = validate_period_matrix(np.zeros((2, 2)), Y)
        assert np.array_equal(om.Y.entries, om.Y.entries.T)
        with pytest.raises(SiegelError, match="symmetric"):
            validate_period_matrix(np.zeros((2, 2)), np.array([[2.0, 0.5], [0.1, 2.0]]))

    def test_rejects_indefinite_imaginary(self):
        with pytest.raises(SiegelError, match="rejected"):
            validate_period_matrix([[0.0]], [[-1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SiegelError):
            validate_period_matrix(np.zeros((2, 2)), np.eye(3))

    def test_direct_construction_refused(self):
        with pytest.raises(SiegelError, match="validate_period_matrix"):
            mlk.siegel.PeriodMatrix(np.zeros((1, 1)), np.eye(1))

    def test_inputs_not_mutated(self):
        X = np.zeros((2, 2))
        Y = np.eye(2)
        validate_period_matrix(X, Y)
        assert np.array_equal(X, np.zeros((2, 2))) and np.array_equal(Y, np.eye(2))


class TestReduce:
    def test_inversion_orbit(self):
        out = reduce(om_of(0.3 + 0.4j))
        tau = complex(out.X[0, 0], out.Y.entries[0, 0])
        assert abs(tau) >= 1.0 - 1e-12
        assert abs(tau.real) <= 0.5 + 1e-12
        assert tau == pytest.approx(-0.2 + 1.6j, abs=1e-12)
        # weight-12 invariant |Delta| (Im)^6 is preserved along the orbit
        lhs = log_abs_delta(0.3 + 0.4j) + 6 * math.log(0.4)
        rhs = log_abs_delta(tau) + 6 * math.log(tau.imag)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_translation_only(self):
        out = reduce(om_of(5.3 + 2j))
        assert complex(out.X[0, 0], out.Y.entries[0, 0]) == pytest.approx(0.3 + 2j, abs=1e-12)

    def test_already_reduced_diagonal_unchanged(self):
        om = validate_period_matrix(np.zeros((2, 2)), np.diag([3.0, 5.0]))
        out = reduce(om)
        assert np.allclose(out.X, 0.0) and np.allclose(out.Y.entries, np.diag([3.0, 5.0]))

    def test_idempotent(self, rng):
        for _ in range(10):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
            once = reduce(om_of(tau))
            twice = reduce(once)
            assert abs(once.X[0, 0] - twice.X[0, 0]) <= 1e-12
            assert abs(once.Y.entries[0, 0] - twice.Y.entries[0, 0]) <= 1e-12

    def test_g2_partial_reduction_flags(self):
        X = np.array([[0.9, 1.3], [1.3, -0.6]])
        Y = np.array([[3.0, 2.9], [2.9, 5.0]])
        out = reduce(validate_period_matrix(X, Y))
        assert out.flags.re_normalized and is_lll_reduced(out.Y)

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_g_ge_2_reuses_the_cached_lll_form(self, rng, g):
        # reduce() takes U and U^T Y U from Y's cached LLL data, which
        # validation computed to find lambda_1
        A = rng.normal(size=(g, g)) + np.triu(rng.integers(-3, 4, (g, g)), 1)
        Y = A.T @ A + 0.3 * np.eye(g)
        X = rng.uniform(-2.0, 2.0, (g, g))
        om = validate_period_matrix((X + X.T) / 2.0, (Y + Y.T) / 2.0)
        red = om.Y._reduced()
        out = reduce(om)
        Uf = red["U"].astype(float)
        Xr = Uf.T @ om.X @ Uf
        assert np.array_equal(out.Y.entries, red["G"])
        assert np.array_equal(out.X, (Xr + Xr.T) / 2.0 - np.rint((Xr + Xr.T) / 2.0))
        assert out.flags.re_normalized and is_lll_reduced(out.Y)

    def test_diameter_invariant_under_reduce(self, rng):
        for g in (1, 2, 3):
            for _ in range(4):
                if g == 1:
                    om = om_of(complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0)))
                else:
                    lam = rng.uniform(0.5, 3.0, g)
                    Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
                    Y = (Q * lam) @ Q.T
                    X = rng.uniform(-2, 2, (g, g))
                    om = validate_period_matrix((X + X.T) / 2, (Y + Y.T) / 2)
                a = injectivity_diameter(om)
                b = injectivity_diameter(reduce(om))
                assert b == pytest.approx(a, rel=1e-9)


class TestRiemannForm:
    def test_scalar_formulas(self):
        om = om_of(3j)
        assert riemann_form_norm(om, [1], [0]) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert riemann_form_norm(om, [0], [1]) == pytest.approx(3.0, rel=1e-14)

    def test_mixed_term(self):
        om = om_of(0.5 + 2j)
        assert riemann_form_norm(om, [1], [-1]) == pytest.approx(2.125, rel=1e-14)

    def test_positive_definite_on_periods(self, rng):
        om = make_reduced_period(rng, 2)
        assert riemann_form_norm(om, [0, 0], [0, 0]) == 0.0
        for _ in range(20):
            m = rng.integers(-4, 5, 2)
            n = rng.integers(-4, 5, 2)
            if m.any() or n.any():
                assert riemann_form_norm(om, m, n) > 0.0

    def test_pure_m_is_dual_norm(self, rng):
        om = make_reduced_period(rng, 2)
        m = np.array([2, -1])
        want = float(m @ om.Y.inverse().entries @ m)
        assert riemann_form_norm(om, m, [0, 0]) == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(SiegelError):
            riemann_form_norm(om_of(1j), [1, 0], [0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    def test_rejects_non_integral_vectors(self, bad):
        # H is defined on Z^g: non-finite and fractional entries of m or n
        om = make_reduced_period(np.random.default_rng(0), 2)
        with pytest.raises(SiegelError, match="integer"):
            riemann_form_norm(om, [bad, 0], [0, 1])
        with pytest.raises(SiegelError, match="integer"):
            riemann_form_norm(om, [0, 1], [0, bad])


class TestInjectivityDiameter:
    def test_tau_2i(self):
        assert injectivity_diameter(om_of(2j)) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_self_dual_point(self):
        assert injectivity_diameter(om_of(1j)) == pytest.approx(1.0, rel=1e-12)

    def test_g2_identity(self):
        om = validate_period_matrix(np.zeros((2, 2)), np.eye(2))
        assert injectivity_diameter(om) == pytest.approx(1.0, rel=1e-12)

    def test_matches_brute_force(self, rng):
        for g in (1, 2):
            for _ in range(5):
                om = make_reduced_period(rng, g)
                assert injectivity_diameter(om) == pytest.approx(brute_rho(om), rel=1e-10)

    @pytest.mark.parametrize("g,c", [(2, 1e-5), (3, 1e-4)])
    def test_value_at_small_det_y(self, g, c):
        # Omega = X + i c I_g with seeded X: the period Gram's entries reach
        # 1/c, far above H at its minimizer, and m + Xn cancels there. rho is
        # sqrt(H) at the search's minimizer within 1e-12 of 50 digits
        for seed in range(4):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-0.5, 0.5, (g, g))
            om = validate_period_matrix((X + X.T) / 2.0, c * np.eye(g))
            mn = shortest_vector(mlk.siegel._period_gram(om)).m
            with mp.workdps(50):
                Xm, Ym = mp.matrix(om.X.tolist()), mp.matrix(om.Y.entries.tolist())
                n = mp.matrix([int(k) for k in mn[g:]])
                u = mp.matrix([int(k) for k in mn[:g]]) + Xm * n
                want = mp.sqrt((u.T * Ym**-1 * u)[0] + (n.T * Ym * n)[0])
                assert abs(injectivity_diameter(om) - want) <= 1e-12 * want


class TestLambdaClamped:
    def test_tau_2i(self):
        lam, rho_c, ok, rho = lambda_clamped(om_of(2j))
        assert rho == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert lam == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert rho_c == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert ok

    def test_short_tau_after_reduction(self):
        om = reduce(om_of(0.9j))
        assert om.Y.entries[0, 0] >= math.sqrt(3) / 2 - 1e-12
        assert lambda_clamped(om).agrees

    @pytest.mark.parametrize("x", [-0.5, -0.3, 0.0, 0.1, 0.45, 0.5])
    @pytest.mark.parametrize("r", [1.0, 1.0 + 1e-9, 1.01])
    def test_agrees_near_the_unit_circle(self, x, r):
        # reduced tau at |tau| = r, where the period tau (n = 1) is as short
        # as, or barely longer than, the period 1 (n = 0)
        om = om_of(complex(x, math.sqrt(r * r - x * x)))
        assert om.is_reduced and lambda_clamped(om).agrees

    def test_g2_identity_both_clamped(self):
        om = validate_period_matrix(np.zeros((2, 2)), np.eye(2))
        lam, rho_c, ok, rho = lambda_clamped(om)
        clamp = math.sqrt(math.pi / 6.0)
        assert rho == pytest.approx(1.0, rel=1e-12)  # the unclamped diameter
        assert lam == pytest.approx(clamp, rel=1e-14)
        assert rho_c == pytest.approx(clamp, rel=1e-14)
        assert ok

    def test_agreement_on_random_reduced(self, rng):
        for g in (1, 2, 3):
            for _ in range(8):
                om = make_reduced_period(rng, g)
                lam, rho_c, ok, rho = lambda_clamped(om)
                assert rho == injectivity_diameter(om)
                assert ok, (g, lam, rho_c)
                assert abs(lam - rho_c) <= 1e-9
