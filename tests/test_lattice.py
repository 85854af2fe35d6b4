import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlk.lattice import (
    GramMatrix,
    IntervalEstimate,
    LatticeError,
    bezout_deep_point,
    closest_vector,
    is_lll_reduced,
    lll_reduce,
    mu_interval,
    norm,
    psi_sq_batch,
    shortest_vector,
)

from conftest import brute_closest, brute_shortest, make_spd

spd = st.integers(0, 10**9).map(lambda s: np.random.default_rng(s))


class TestGramMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(LatticeError, match="symmetric"):
            GramMatrix([[1.0, 0.1], [0.1 + 1e-13, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(LatticeError, match="positive definite"):
            GramMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_ill_conditioned(self):
        with pytest.raises(LatticeError, match="condition"):
            GramMatrix(np.diag([1e13, 1.0]))

    def test_rejects_non_square_and_nan(self):
        with pytest.raises(LatticeError):
            GramMatrix(np.ones((2, 3)))
        with pytest.raises(LatticeError):
            GramMatrix([[np.nan]])

    def test_cholesky_reproduces(self, rng):
        Y = make_spd(rng, 4)
        resid = np.max(np.abs(Y.chol @ Y.chol.T - Y.entries))
        assert resid <= 1e-12 * max(1.0, np.max(np.abs(Y.entries)))

    def test_immutable(self):
        Y = GramMatrix(np.eye(2))
        with pytest.raises(AttributeError):
            Y.g = 3
        assert not Y.entries.flags.writeable


class TestNorm:
    def test_euclidean(self):
        assert norm(GramMatrix(np.eye(2)), [3.0, 4.0]) == pytest.approx(5.0, abs=0)

    def test_diagonal_scaling(self):
        assert norm(GramMatrix(2 * np.eye(2)), [1.0, 0.0]) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_off_diagonal(self):
        # x^T Y x = 2 for this pair
        assert norm(GramMatrix([[2.0, 1.0], [1.0, 2.0]]), [1.0, -1.0]) == pytest.approx(
            math.sqrt(2), rel=1e-15
        )

    def test_zero_iff_zero_vector(self):
        Y = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert norm(Y, [0.0, 0.0]) == 0.0
        assert norm(Y, [1e-8, 0.0]) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(LatticeError, match="length"):
            norm(GramMatrix(np.eye(2)), [1.0, 2.0, 3.0])


class TestShortestVector:
    def test_identity(self):
        m, lam = shortest_vector(GramMatrix(np.eye(3)))
        assert lam == pytest.approx(1.0, rel=1e-14)
        assert sorted(np.abs(m)) == [0, 0, 1]

    def test_hexagonal_ties(self):
        m, lam = shortest_vector(GramMatrix([[1.0, 0.5], [0.5, 1.0]]))
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert tuple(np.abs(m)) in {(1, 0), (0, 1), (1, 1)}

    def test_one_dimensional(self):
        m, lam = shortest_vector(GramMatrix([[0.01]]))
        assert lam == pytest.approx(0.1, rel=1e-15)
        assert abs(m[0]) == 1

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_brute_force(self, g, rng):
        for _ in range(6):
            Y = make_spd(rng, g)
            assert shortest_vector(Y).value == pytest.approx(brute_shortest(Y), rel=1e-10)

    @given(spd, st.integers(1, 4), st.floats(0.25, 16.0))
    def test_scaling_covariance(self, r, g, c):
        Y = make_spd(r, g)
        assert shortest_vector(GramMatrix(c * Y.entries)).value == pytest.approx(
            math.sqrt(c) * shortest_vector(Y).value, rel=1e-12
        )


class TestClosestVector:
    def test_deep_hole_of_z2(self):
        m, psi = closest_vector(GramMatrix(np.eye(2)), [0.5, 0.5])
        assert psi == pytest.approx(math.sqrt(2) / 2, rel=1e-14)

    def test_integer_points_have_zero_distance(self, rng):
        Y = make_spd(rng, 3)
        x = np.array([2.0, -5.0, 7.0])
        m, psi = closest_vector(Y, x)
        assert psi == 0.0
        assert np.array_equal(m, x.astype(int))

    def test_one_dimensional(self):
        m, psi = closest_vector(GramMatrix([[4.0]]), [0.3])
        assert psi == pytest.approx(0.6, rel=1e-14)
        assert m[0] == 0

    @pytest.mark.parametrize("g", [2, 3])
    def test_matches_brute_force(self, g, rng):
        for _ in range(6):
            Y = make_spd(rng, g)
            x = rng.uniform(-1.0, 2.0, g)
            assert closest_vector(Y, x).value == pytest.approx(
                brute_closest(Y, x), rel=1e-10, abs=1e-12
            )

    @given(spd, st.integers(1, 4))
    def test_periodicity(self, r, g):
        Y = make_spd(r, g)
        x = r.uniform(0.0, 1.0, g)
        n = r.integers(-3, 4, g).astype(float)
        a = closest_vector(Y, x).value
        b = closest_vector(Y, x + n).value
        assert b == pytest.approx(a, rel=1e-12, abs=1e-15)

    @given(spd, st.integers(1, 3), st.floats(0.25, 16.0))
    def test_scaling_covariance(self, r, g, c):
        Y = make_spd(r, g)
        x = r.uniform(0.0, 1.0, g)
        a = closest_vector(GramMatrix(c * Y.entries), x).value
        assert a == pytest.approx(math.sqrt(c) * closest_vector(Y, x).value, rel=1e-12, abs=1e-15)


class TestBezoutDeepPoint:
    def test_identity_is_tight(self):
        x, lo = bezout_deep_point(GramMatrix(np.eye(2)))
        assert lo == pytest.approx(0.5, rel=1e-14)
        assert closest_vector(GramMatrix(np.eye(2)), x).value == pytest.approx(0.5, rel=1e-14)

    def test_one_dimensional_equality(self):
        Y = GramMatrix([[1.0]])
        x, lo = bezout_deep_point(Y)
        psi = closest_vector(Y, x).value
        lam_dual = shortest_vector(Y.inverse()).value
        assert 2.0 * psi * lam_dual == pytest.approx(1.0, rel=1e-14)

    def test_certificate_value(self):
        Y = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        x, lo = bezout_deep_point(Y)
        assert lo == pytest.approx(0.5 * math.sqrt(1.5), rel=1e-12)
        # distance certified via the independent exhaustive oracle
        assert brute_closest(Y, x, box=3) >= lo - 1e-12

    @given(spd, st.integers(1, 5))
    def test_constructive_certificate(self, r, g):
        Y = make_spd(r, g)
        x, lo = bezout_deep_point(Y)
        psi = closest_vector(Y, x).value
        lam_dual = shortest_vector(Y.inverse()).value
        assert 2.0 * psi * lam_dual >= 1.0 - 1e-10
        assert psi >= lo - 1e-12


class TestMuInterval:
    def test_identity_collapses(self):
        iv = mu_interval(GramMatrix(np.eye(2)))
        assert iv.lo == pytest.approx(math.sqrt(2) / 2, rel=1e-10)
        assert iv.hi == pytest.approx(math.sqrt(2) / 2, rel=1e-10)

    def test_one_dimensional_exact(self):
        iv = mu_interval(GramMatrix([[9.0]]))
        assert iv.lo == pytest.approx(1.5, rel=1e-10)
        assert iv.hi == pytest.approx(1.5, rel=1e-10)

    def test_contains_grid_maximum(self):
        Y = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        grid = np.stack(
            np.meshgrid(np.arange(0, 1, 1e-3), np.arange(0, 1, 1e-3), indexing="ij"), -1
        ).reshape(-1, 2)
        mu_grid = math.sqrt(float(psi_sq_batch(Y, grid).max()))
        iv = mu_interval(Y)
        assert iv.lo <= mu_grid + 1e-9  # grid max is itself a lower bound for mu
        assert mu_grid <= iv.hi + 1e-9

    @given(spd, st.integers(1, 4))
    def test_enclosure_and_dual_product(self, r, g):
        Y = make_spd(r, g)
        iv = mu_interval(Y, budget=64)
        assert iv.lo <= iv.hi
        lam_dual = shortest_vector(Y.inverse()).value
        assert 2.0 * iv.lo * lam_dual >= 1.0 - 1e-10

    def test_budget_validation(self):
        with pytest.raises(LatticeError):
            mu_interval(GramMatrix(np.eye(2)), budget=0)

    def test_interval_type_validation(self):
        with pytest.raises(LatticeError):
            IntervalEstimate(2.0, 1.0)
        with pytest.raises(LatticeError):
            IntervalEstimate(0.0, math.inf)


class TestReduction:
    def test_lll_transform_is_unimodular(self, rng):
        Y = make_spd(rng, 5)
        _, U = lll_reduce(Y.chol.T)
        assert abs(round(np.linalg.det(U.astype(float)))) == 1

    def test_reduced_basis_flag(self):
        assert is_lll_reduced(GramMatrix(np.eye(3)))
        skew = GramMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert is_lll_reduced(skew)
        bad = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert not is_lll_reduced(GramMatrix(bad))

    def test_psi_batch_matches_single(self, rng):
        Y = make_spd(rng, 3)
        pts = rng.uniform(0, 1, (40, 3))
        batch = psi_sq_batch(Y, pts)
        singles = np.array([closest_vector(Y, p).value ** 2 for p in pts])
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("bad", [
        [[np.nan, 0.0]], [[np.inf, 0.2]], [[0.1, 0.2], [0.3, -np.inf]],
    ])
    def test_psi_batch_rejects_non_finite_points(self, bad):
        with pytest.raises(LatticeError, match="points must be finite"):
            psi_sq_batch(GramMatrix(np.eye(2)), bad)
