import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import cho_solve

from mlk import lattice
from mlk.cli import _random_spd
from mlk.lattice import (
    EnumerationLimitError,
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
from mlk.siegel import riemann_form_norm, validate_period_matrix
from mlk.theta import f_series

from conftest import (
    brute_closest,
    brute_psi_sq,
    brute_shortest,
    make_spd,
    reference_lll,
)

spd = st.integers(0, 10**9).map(lambda s: np.random.default_rng(s))


def disguised_identity(rng, g: int):
    """(U^T U, U) for a seeded unimodular U: Z^g in a skewed basis."""
    U = np.eye(g, dtype=np.int64)
    for _ in range(3 * g):
        i, j = rng.choice(g, 2, replace=False)
        U[:, i] += int(rng.integers(-2, 3)) * U[:, j]
    return GramMatrix((U.T @ U).astype(float)), U


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

    def test_inverse_and_riemann_form_match_cho_solve_and_mpmath(self):
        # Y^{-1} from the Cholesky factor, and m^T Y^{-1} m through
        # riemann_form_norm (n = 0), on seeded SPD matrices at g = 1..8 with
        # condition numbers 1 to 0.99e12 (just inside the limit), against
        # scipy's cho_solve and a 40-digit mpmath inverse. Errors are in units
        # of kappa(Y) eps: the inverse's max entry error relative to
        # max |Y^{-1}|, the quadratic form's relative error. The bounds are
        # cho_solve's own worst case on these matrices (1.320 and 1.292),
        # rounded up; entrywise, cho_solve and the library agree to
        # 0.01 kappa eps.
        inv_bound, quad_bound, agree_bound = 1.33, 1.3, 0.01
        eps = np.finfo(float).eps
        rng = np.random.default_rng(7)
        worst = {"inv": [0.0, 0.0], "quad": [0.0, 0.0]}
        with mp.workdps(40):
            for g in range(1, 9):
                for kappa in (1.0, 1e3, 1e6, 1e9, 0.99e12):
                    lam = np.exp(np.linspace(0.0, math.log(kappa), g) + rng.uniform(-2.0, 2.0))
                    Q = np.linalg.qr(rng.normal(size=(g, g)))[0]
                    A = (Q * lam) @ Q.T
                    Y = GramMatrix((A + A.T) / 2.0)
                    unit = np.linalg.cond(Y.entries) * eps
                    exact = mp.matrix(Y.entries.tolist()) ** -1
                    exact_f = np.array(exact.tolist(), dtype=float)
                    scale = float(np.max(np.abs(exact_f)))
                    ref = cho_solve((Y.chol, True), np.eye(g))
                    ref = (ref + ref.T) / 2.0
                    Yi = Y.inverse().entries
                    for k, inv in enumerate((ref, Yi)):
                        err = float(np.max(np.abs(inv - exact_f))) / scale / unit
                        worst["inv"][k] = max(worst["inv"][k], err)
                    assert np.max(np.abs(Yi - ref)) <= agree_bound * unit * scale
                    om = validate_period_matrix(np.zeros((g, g)), Y.entries)
                    for _ in range(4):
                        m = rng.integers(-3, 4, g)
                        m[0] = m[0] or 1
                        mm = mp.matrix(m.tolist())
                        h = (mm.T * exact * mm)[0]
                        mf = m.astype(float)
                        for k, val in enumerate((float(mf @ cho_solve((Y.chol, True), mf)),
                                                 riemann_form_norm(om, m, np.zeros(g)))):
                            err = float(abs(val - h) / h) / unit
                            worst["quad"][k] = max(worst["quad"][k], err)
        assert max(worst["inv"]) <= inv_bound and max(worst["quad"]) <= quad_bound, worst

    @pytest.mark.parametrize("entries", [
        [[33181.32068963705, 21501942.35941785], [21501942.35941785, 13933553871.982214]],
        [[214356.3488317381, 213995296.54685012], [213995296.54685012, 213635065318.98288]],
    ])
    def test_derived_matrices_keep_the_accepted_condition(self, entries):
        # kappa(Y) within 5e-9 below the limit, where the eigenvalue estimate
        # of the computed Y^{-1} (and of 0.7 Y) lands just above it. Y^{-1} has
        # kappa(Y) exactly, so neither it nor f and H, which use it, may raise.
        Y = GramMatrix(entries)
        Yi = Y.inverse().entries
        assert np.max(np.abs(Y.entries @ Yi - np.eye(2))) < 1e-3
        f = f_series(Y, 0.7, [0.0, 0.0])  # the other terms are below exp(-1e4)
        assert abs(f.value - Y.det_sqrt) <= f.tail_bound + 1e-13 * Y.det_sqrt
        om = validate_period_matrix(np.zeros((2, 2)), entries)
        h = riemann_form_norm(om, [1, 0], [0, 1])
        assert h == pytest.approx(Yi[0, 0] + Y.entries[1, 1], rel=1e-12)


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

    def test_identity_in_disguise_g14(self, rng):
        Y, _ = disguised_identity(rng, 14)
        m, lam = shortest_vector(Y)
        assert lam == 1.0
        assert np.any(m != 0)


class TestShortestVectorCache:
    @staticmethod
    def certificate(Y):
        deep = bezout_deep_point(Y)
        lam_dual = Y.inverse().lambda1()
        psi = closest_vector(Y, deep.x).value
        iv = mu_interval(Y, budget=128)
        return deep.x, deep.certified_lo, lam_dual, psi, iv.lo, iv.hi

    @pytest.mark.parametrize("g", [2, 4, 6])
    def test_one_dual_svp_per_certificate(self, g, monkeypatch):
        rng = np.random.default_rng(g)
        entries = [_random_spd(rng, g).entries for _ in range(5)]
        # every quantity from its own GramMatrix, so none reads a cached SVP
        fresh = []
        for E in entries:
            x = bezout_deep_point(GramMatrix(E)).x
            fresh.append((x, bezout_deep_point(GramMatrix(E)).certified_lo,
                          GramMatrix(E).inverse().lambda1(),
                          closest_vector(GramMatrix(E), x).value,
                          mu_interval(GramMatrix(E), budget=128).lo,
                          mu_interval(GramMatrix(E), budget=128).hi))
        calls = []
        enumerate_ = lattice._closest_one

        def counting(red, t, bound, nonzero=False, *args):
            calls.append(nonzero)
            return enumerate_(red, t, bound, nonzero, *args)

        monkeypatch.setattr(lattice, "_closest_one", counting)
        for E, want in zip(entries, fresh):
            before = sum(calls)
            got = self.certificate(GramMatrix(E))
            assert sum(calls) - before == 1
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    def test_cached_vector_is_shared_and_read_only(self):
        Y = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        sv = shortest_vector(Y)
        assert shortest_vector(Y) is sv
        assert Y.lambda1() == sv.value
        with pytest.raises(ValueError):
            sv.m[0] = 7


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

    def test_deep_hole_in_disguise_g14(self, rng):
        # U x = (1/2, ..., 1/2): 2^14 closest points, all at distance sqrt(14)/2
        Y, U = disguised_identity(rng, 14)
        x = np.rint(np.linalg.inv(U)) @ np.full(14, 0.5)
        m, psi = closest_vector(Y, x)
        assert psi == pytest.approx(math.sqrt(14) / 2, rel=1e-15)
        assert np.array_equal(np.abs(2 * (U @ (x - m))), np.ones(14))

    def test_enumeration_cap(self):
        # (1/2, ..., 1/2) has 2^22 closest points in Z^22: the tree outgrows the cap
        with pytest.raises(EnumerationLimitError, match="exceeds cap"):
            closest_vector(GramMatrix(np.eye(22)), np.full(22, 0.5))

    def test_cap_counts_each_point_alone(self, monkeypatch):
        # each deep hole of Z^6 has a 2^6-leaf tree; many of them pass a cap
        # of 100 nodes per point, one deep hole of Z^8 does not
        monkeypatch.setattr(lattice, "_BOX_CAP", 100)
        P = np.full((500, 6), 0.5)
        np.testing.assert_allclose(psi_sq_batch(GramMatrix(np.eye(6)), P), 1.5, rtol=1e-15)
        with pytest.raises(EnumerationLimitError, match="exceeds cap"):
            psi_sq_batch(GramMatrix(np.eye(8)), np.full((1, 8), 0.5))

    @given(spd, st.integers(1, 3), st.floats(0.25, 16.0))
    def test_scaling_covariance(self, r, g, c):
        Y = make_spd(r, g)
        x = r.uniform(0.0, 1.0, g)
        a = closest_vector(GramMatrix(c * Y.entries), x).value
        assert a == pytest.approx(math.sqrt(c) * closest_vector(Y, x).value, rel=1e-12, abs=1e-15)


_A3 = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
_D4 = [[2.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, -1.0], [0.0, -1.0, 2.0, 0.0],
       [0.0, -1.0, 0.0, 2.0]]


class TestOneTarget:
    """One target runs ``_closest_one`` depth first on Python floats; it must
    give the bits of the frontier (``_closest``) on the same target."""

    @staticmethod
    def both(red, t, bound, nonzero=False):
        R = red["R"]
        assert lattice._small_tree(np.diag(R).tolist(), bound)
        one = np.array(lattice._closest_one(red, np.asarray(t).tolist(), bound, nonzero))
        frontier = lattice._closest(R, np.reshape(t, (1, -1)), np.array([bound]), nonzero)[0]
        assert one.tobytes() == frontier.tobytes()
        return one

    @staticmethod
    def svp_bound(Y):
        return float(Y._reduced()["col_sq"].min()) * lattice._RADIUS_SAFETY

    @pytest.mark.parametrize("g", range(1, 11))
    def test_svp_and_cvp_match_the_frontier(self, g):
        rng = np.random.default_rng(100 + g)
        for cond in (1e0, 1e3, 1e6):
            for _ in range(4):
                A = make_spd(rng, g, cond_max=cond)
                for Y in (A, A.inverse()):
                    red = Y._reduced()
                    u = self.both(red, np.zeros(g), self.svp_bound(Y), nonzero=True)
                    assert np.any(u != 0)
                    for t in rng.uniform(-2.0, 2.0, (3, g)):
                        s = lattice._nearest_plane(red["R"], t.reshape(1, -1))[1][0]
                        self.both(red, t, s * lattice._RADIUS_SAFETY + 1e-300)

    @pytest.mark.parametrize("entries", [
        *[np.eye(g) for g in range(1, 9)], [[1.0, 0.5], [0.5, 1.0]], _A3, _D4,
    ], ids=[*(f"I{g}" for g in range(1, 9)), "hexagonal", "A3", "D4"])
    def test_ties_keep_the_frontiers_choice(self, entries):
        Y = GramMatrix(entries)
        red, g = Y._reduced(), Y.g
        self.both(red, np.zeros(g), self.svp_bound(Y), nonzero=True)
        rng = np.random.default_rng(g)
        for t in [np.full(g, 0.5), *rng.integers(0, 3, (4, g)) / 2.0]:
            s = lattice._nearest_plane(red["R"], t.reshape(1, -1))[1][0]
            self.both(red, t, s * lattice._RADIUS_SAFETY + 1e-300)

    @pytest.mark.parametrize("g", [2, 5, 8])
    def test_bound_below_the_minimum_keeps_zero(self, g):
        # at t = (1/2, ..., 1/2) no integer lies within the top level's window
        rng = np.random.default_rng(g)
        for Y in (GramMatrix(np.eye(g)), make_spd(rng, g), make_spd(rng, g, cond_max=1e6)):
            red = Y._reduced()
            bound = 0.99 * (red["R"][-1, -1] / 2.0) ** 2
            assert bound < closest_vector(Y, np.full(g, 0.5)).value ** 2
            u = self.both(red, np.full(g, 0.5), bound)
            assert not np.any(u)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_nearest_plane_matches_the_batch(self, g):
        rng = np.random.default_rng(200 + g)
        for cond in (1e0, 1e3, 1e6):
            R = make_spd(rng, g, cond_max=cond)._reduced()["R"]
            for t in [*rng.uniform(-2.0, 2.0, (6, g)), np.full(g, 0.5), np.zeros(g)]:
                batch = lattice._nearest_plane(R, np.vstack([t, t]))
                one = lattice._nearest_plane_one(R.T.tolist(), t.tolist())
                for a, b in zip(one, batch):
                    assert np.array(a).tobytes() == b[0].tobytes()

    def test_cap_raises_on_the_one_target_path(self, monkeypatch):
        # the tree of one deep hole of Z^8 counts 2 + 4 + ... + 2^7 = 254 nodes
        calls = []
        one = lattice._closest_one

        def spy(*args):
            calls.append(args)
            return one(*args)

        monkeypatch.setattr(lattice, "_BOX_CAP", 100)
        monkeypatch.setattr(lattice, "_closest_one", spy)
        with pytest.raises(EnumerationLimitError, match="exceeds cap"):
            closest_vector(GramMatrix(np.eye(8)), np.full(8, 0.5))
        assert len(calls) == 1

    def test_large_tree_stays_on_the_frontier(self, monkeypatch):
        rows = []
        frontier = lattice._closest

        def spy(R, T, *args):
            rows.append(T.shape[0])
            return frontier(R, T, *args)

        monkeypatch.setattr(lattice, "_closest", spy)
        with pytest.raises(EnumerationLimitError, match="exceeds cap"):
            closest_vector(GramMatrix(np.eye(22)), np.full(22, 0.5))
        assert rows == [1]  # a 22-dimensional deep hole reaches the frontier alone

    @pytest.mark.parametrize("g", [2, 5, 8])
    def test_floor_returns_early_only_below_it(self, g, monkeypatch):
        rng = np.random.default_rng(300 + g)
        for Y in (GramMatrix(np.eye(g)), make_spd(rng, g), make_spd(rng, g, cond_max=1e6)):
            red = Y._reduced()
            R = red["R"]
            for t in [np.full(g, 0.5), *rng.uniform(-2.0, 2.0, (4, g))]:
                s = lattice._nearest_plane(R, t.reshape(1, -1))[1][0]
                bound = s * lattice._RADIUS_SAFETY + 1e-300
                full = lattice._closest_one(red, t.tolist(), bound, False)
                z = (np.array(full) - t) @ R.T
                least = float(z @ z)
                # no leaf lies below the least one: the whole search runs
                assert lattice._closest_one(red, t.tolist(), bound, False, least) == full
                for floor in (least * 1.5 + 1e-300, math.inf):
                    u = lattice._closest_one(red, t.tolist(), bound, False, floor)
                    z = (np.array(u) - t) @ R.T
                    assert float(z @ z) < floor
        # the 254-node tree of a deep hole of Z^8 stops at its first leaf
        monkeypatch.setattr(lattice, "_BOX_CAP", 100)
        red, t, bound = GramMatrix(np.eye(8))._reduced(), [0.5] * 8, 2.0 * lattice._RADIUS_SAFETY
        with pytest.raises(EnumerationLimitError, match="exceeds cap"):
            lattice._closest_one(red, t, bound, False)
        assert lattice._closest_one(red, t, bound, False, math.inf) == [0.0] * 8


class TestBatchAgreesWithOneTarget:
    """``psi_sq_batch`` (the frontier) and ``closest_vector`` (Python floats)
    find the same closest points, so psi^2 formed from closest_vector's m by
    psi_sq_batch's expression, over the whole batch at once, has its bits."""

    @staticmethod
    def forms():
        rng = np.random.default_rng(30)
        named = [np.eye(g) for g in range(1, 9)] + [[[1.0, 0.5], [0.5, 1.0]], _A3, _D4]
        yield from (GramMatrix(E) for E in named)
        for g in range(2, 10):
            yield _random_spd(rng, g)
            yield make_spd(rng, g, cond_max=1e3)
            yield disguised_identity(rng, g)[0]

    def test_psi_sq_batch_is_closest_vector_bit_for_bit(self):
        rng = np.random.default_rng(31)
        n = 0
        for Y in self.forms():
            g = Y.g
            X = np.vstack([rng.uniform(0.0, 1.0, (24, g)), rng.integers(0, 2, (8, g)) / 2.0])
            M = np.array([closest_vector(Y, x).m for x in X])
            D = X - M
            want = np.maximum(np.einsum("ij,ij->i", D, D @ Y.entries), 0.0)
            assert psi_sq_batch(Y, X).tobytes() == want.tobytes(), g
            n += 1
        assert n == 35


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

    def test_random_g10_matrices_certify(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            Y = _random_spd(rng, 10)
            iv = mu_interval(Y)
            assert iv.lo <= iv.hi
            assert 2.0 * iv.lo * shortest_vector(Y.inverse()).value >= 1.0 - 1e-10

    def test_budget_validation(self):
        with pytest.raises(LatticeError):
            mu_interval(GramMatrix(np.eye(2)), budget=0)

    @pytest.mark.parametrize("budget, error", [
        (2.5, LatticeError), (math.nan, LatticeError), ("8", LatticeError), (None, LatticeError),
        (-3, LatticeError), (np.int64(0), LatticeError), (True, LatticeError),
        (lattice._BOX_CAP + 1, EnumerationLimitError), (10**7, EnumerationLimitError),
    ])
    def test_budget_must_be_a_count_within_the_cap(self, budget, error, monkeypatch):
        def no_points(*args):
            raise AssertionError("points made for a rejected budget")

        monkeypatch.setattr(lattice, "_halton", no_points)
        with pytest.raises(LatticeError) as info:
            mu_interval(GramMatrix(np.eye(3)), budget=budget)
        assert type(info.value) is error

    def test_numpy_integer_budget(self):
        Y = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert mu_interval(Y, budget=np.int64(5)) == mu_interval(Y, budget=5)

    @staticmethod
    def points(Y, budget):
        """mu_interval's points, reduced mod Z^g: the deep point, the
        half-integer corners (g <= 4) and the Halton points."""
        g = Y.g
        pts = [bezout_deep_point(Y).x.reshape(1, -1)]
        if g <= 4:
            pts.append(np.array(np.meshgrid(*[[0.0, 0.5]] * g, indexing="ij")).reshape(g, -1).T)
        pts.append(lattice._halton(g, budget))
        P = np.vstack(pts)
        return P - np.floor(P)

    def test_lo_is_the_batch_maximum_bit_for_bit(self):
        rng = np.random.default_rng(29)
        forms = []
        for g in range(1, 10):
            forms += [GramMatrix(np.eye(g)), *(_random_spd(rng, g) for _ in range(3)),
                      *(make_spd(rng, g, cond_max=c) for c in (1e3, 1e6, 1e9))]
            if g > 1:
                forms += [disguised_identity(rng, g)[0] for _ in range(2)]
                U = disguised_identity(rng, g)[1].astype(float)
                for c in (1e2, 1e4, 1e6):  # skewed bases of random forms
                    Y = U.T @ make_spd(rng, g, cond_max=c).entries @ U
                    forms.append(GramMatrix((Y + Y.T) / 2.0))
        assert len(forms) >= 100
        for k, Y in enumerate(forms):
            budget = (64, 128, 512)[k % 3]
            want = math.sqrt(float(psi_sq_batch(Y, self.points(Y, budget)).max())) * (1 - 1e-12)
            assert mu_interval(Y, budget=budget).lo == want, (Y.g, k)

    def test_cap_still_fires(self, monkeypatch):
        # a point of Z^8's first 32 has a tree past 32 nodes, in the batch too
        Y = GramMatrix(np.eye(8))
        P = self.points(Y, 32)
        monkeypatch.setattr(lattice, "_BOX_CAP", 32)
        with pytest.raises(EnumerationLimitError, match="enumeration tree"):
            psi_sq_batch(Y, P)
        with pytest.raises(EnumerationLimitError, match="enumeration tree"):
            mu_interval(Y, budget=32)

    def test_searches_one_target_at_a_time(self, monkeypatch):
        searches, rows = [], []
        closest, closest_one = lattice._closest, lattice._closest_one

        def spy(R, T, *args):
            rows.append(T.shape[0])
            return closest(R, T, *args)

        def spy_one(*args):
            searches.append(args)
            return closest_one(*args)

        monkeypatch.setattr(lattice, "_closest", spy)
        monkeypatch.setattr(lattice, "_closest_one", spy_one)
        rng = np.random.default_rng(7)
        for g in range(2, 10):
            for Y in (GramMatrix(np.eye(g)), _random_spd(rng, g), make_spd(rng, g, cond_max=1e6)):
                mu_interval(Y, budget=128)
        assert len(searches) > 24  # 24 dual SVPs, and the searches
        assert set(rows) <= {1}    # a large tree reaches the frontier alone

    def test_interval_type_validation(self):
        with pytest.raises(LatticeError):
            IntervalEstimate(2.0, 1.0)
        with pytest.raises(LatticeError):
            IntervalEstimate(0.0, math.inf)


class TestIntBox:
    @pytest.mark.parametrize("lows, highs", [
        ([0.0] * 4, [1.0] * 4),        # mu_interval's corners
        ([-4.0] * 3, [5.0] * 3),       # a theta box
        ([-3.0, 0.0, -1.0, 2.0], [4.0, 0.0, 5.0, 3.0]),
        ([-2.0], [7.0]),
    ])
    def test_matches_meshgrid(self, lows, highs):
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(lows, highs)]
        ref = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        got = lattice._int_box(np.array(lows), np.array(highs))
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_cap_and_empty_box(self):
        with pytest.raises(EnumerationLimitError, match="exceeds cap"):
            lattice._int_box(np.zeros(2), np.full(2, 2047.0))  # 2^22 points
        with pytest.raises(LatticeError, match="empty"):
            lattice._int_box(np.zeros(2), np.array([1.0, -1.0]))


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_matches_scipy_bit_for_bit(self, d):
        from scipy.stats import qmc  # oracle only: mlk itself does not import scipy

        for n in (1, 2, 128, 1000, 4096):
            want = qmc.Halton(d=d, scramble=False).random(n)
            assert lattice._halton(d, n).tobytes() == want.tobytes()

    def test_cached_read_only(self):
        pts = lattice._halton(3, 64)
        assert lattice._halton(3, 64) is pts
        assert not pts.flags.writeable


class TestReduction:
    def test_lll_transform_is_unimodular(self, rng):
        Y = make_spd(rng, 5)
        U, Uinv = lll_reduce(Y)
        assert abs(round(np.linalg.det(U.astype(float)))) == 1
        assert np.array_equal(U @ Uinv, np.eye(5, dtype=np.int64))

    def test_reduction_factors_only_the_reduced_form(self, monkeypatch, rng):
        # LLL reuses Y.chol, so the only factorization is that of G = U^T Y U
        Y = make_spd(rng, 6)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda A: calls.append(A) or cholesky(A))
        red = Y._reduced()
        assert len(calls) == 1 and calls[0] is red["G"]

    def test_reduced_basis_flag(self):
        assert is_lll_reduced(GramMatrix(np.eye(3)))
        skew = GramMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert is_lll_reduced(skew)
        bad = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert not is_lll_reduced(GramMatrix(bad))

    @pytest.mark.parametrize("g", range(2, 9))
    def test_lll_matches_reference(self, g, rng):
        for cond in (1e1, 1e3, 1e6, 1e9):
            for _ in range(4):
                Y = make_spd(rng, g, cond_max=cond)
                U, Uinv = lll_reduce(Y)
                assert np.array_equal(U, reference_lll(Y.chol.T)[1])
                assert np.array_equal(U @ Uinv, np.eye(g, dtype=np.int64))
                Yr = U.T.astype(float) @ Y.entries @ U.astype(float)
                assert is_lll_reduced(GramMatrix((Yr + Yr.T) / 2.0))

    @pytest.mark.parametrize("g", range(1, 9))
    def test_psi_batch_matches_extended_precision(self, g, rng):
        Y = make_spd(rng, g)
        lattice_pts = rng.integers(-4, 5, (8, g)).astype(float)
        P = np.vstack([
            rng.uniform(0.0, 1.0, (8, g)),
            rng.uniform(-3.0, 4.0, (8, g)),
            lattice_pts,
            lattice_pts + rng.uniform(-1e-9, 1e-9, (8, g)),
            lattice_pts + rng.uniform(-1e-3, 1e-3, (8, g)),
        ])
        got = psi_sq_batch(Y, P)
        ref = np.array([brute_psi_sq(Y, p) for p in P])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + 1e-15)

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
