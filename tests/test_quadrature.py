import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from mlk import theta
from mlk.bounds import _parseval_samples
from mlk.lattice import EnumerationLimitError, GramMatrix, mu_interval, psi_sq_batch
from mlk.quadrature import (
    _FIRST_QMC_POINTS,
    QuadratureError,
    QuadratureResult,
    _gauss_rule,
    _integral_ln,
    _refine,
    _sobol,
    _tensor_gauss,
    _tensor_points,
    _tensor_weights,
    integral_ln_f,
    integral_psi_sq,
    integrate_cube,
    integrate_periodic,
)
from mlk.cli import _random_spd
from mlk.siegel import validate_period_matrix
from mlk.theta import _f_grid, _slice_norm_sq, cube_norm_batch, f_series, f_series_batch

from conftest import grid_points, ln_f_exact, make_reduced_period, make_spd

# mpmath (40 digits): int_0^1 ln sum_m exp(-pi t (x-m)^2) dx
INT_LNF_T1 = -0.0018726824497685461156385794799613989
INT_LNF_T2 = -0.3927025690593227554163774326634235654


class TestIntegrateCube:
    def test_constant(self):
        for d in (2, 3):  # tensor-gauss, qmc-shifted
            r = integrate_cube(lambda P: np.ones(P.shape[0]), d, 64)
            assert r.value == pytest.approx(1.0, abs=1e-13)
            assert r.error_estimate <= 1e-12

    def test_polynomial_exactness(self):
        r = integrate_cube(lambda P: P[:, 0] ** 2, 1)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_distance_squared(self):
        f = lambda P: np.minimum(P[:, 0], 1.0 - P[:, 0]) ** 2
        r = integrate_cube(f, 3, 65536)
        assert r.scheme == "qmc-shifted"
        assert r.value == pytest.approx(1.0 / 12.0, abs=1e-10)
        # the kink at 1/2 limits plain tensor-gauss to ~1e-5 here
        r = integrate_cube(f, 1, 256)
        assert r.scheme == "tensor-gauss"
        assert r.value == pytest.approx(1.0 / 12.0, abs=1e-4)

    def test_rejects_singular_integrand(self):
        def f(P):
            out = np.zeros(P.shape[0])
            out[P[:, 0] > 0.5] = np.inf
            return out

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_cube(f, 1, 16)

    def test_rule_chosen_by_dimension(self):
        for d, rule in [(1, "tensor-gauss"), (2, "tensor-gauss"),
                        (3, "qmc-shifted"), (4, "qmc-shifted")]:
            assert integrate_cube(lambda P: np.ones(len(P)), d, 16).scheme == rule
        with pytest.raises(QuadratureError):
            integrate_cube(lambda P: np.ones(len(P)), 0)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_tiny_budget_still_compares_two_rules(self, budget):
        # a budget below 4 once gave n = coarse = 2 and an error estimate of 0
        r = integrate_cube(lambda P: np.cos(7.0 * P[:, 0]), 1, budget)
        assert r.n_points == 4 + 2
        assert r.error_estimate > 0.0

    @pytest.mark.parametrize("budget,per_shift", [(1, 1), (2, 2), (3, 2), (4, 4), (1023, 512)])
    def test_qmc_budget_rounds_down_to_a_power_of_two(self, budget, per_shift):
        # a budget of 1 is 2^0 points per shift under the 8 shifts, with or
        # without a predicate
        f = lambda P: np.cos(P[:, 0] + P[:, 1] * P[:, 2])
        assert integrate_cube(f, 3, budget).n_points == 8 * per_shift
        never = lambda value, err: False
        assert integrate_cube(f, 3, budget, decided=never).n_points == 8 * per_shift

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("budget", [0, -5, np.int64(0), 2.5, True, False, "8"], ids=repr)
    def test_budget_must_be_none_or_a_count(self, d, budget):
        def no_values(P):
            raise AssertionError("integrand evaluated for a rejected budget")

        with pytest.raises(QuadratureError, match="budget must be"):
            integrate_cube(no_values, d, budget)
        if d <= 2:
            with pytest.raises(QuadratureError, match="budget must be"):
                _tensor_gauss(no_values, d, budget)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("seed", [None, -1, 1.5, True, np.int64(-2), "3"], ids=repr)
    def test_seed_must_be_an_integer_at_least_zero(self, d, seed):
        # None would draw OS entropy, and two identical calls would differ
        def no_values(P):
            raise AssertionError("integrand evaluated for a rejected seed")

        with pytest.raises(QuadratureError, match="seed must be"):
            integrate_cube(no_values, d, 64, seed)

    def test_seed_zero_and_numpy_integers_accepted(self):
        f = lambda P: np.cos(P[:, 0] + P[:, 1] * P[:, 2])
        assert integrate_cube(f, 3, 64, np.int64(5)) == integrate_cube(f, 3, 64, 5)
        assert integrate_cube(f, 3, 64, 0) == integrate_cube(f, 3, 64)

    def test_budget_zero_is_not_the_default(self):
        Y = GramMatrix(np.eye(2))
        assert integral_psi_sq(Y, np.int64(8)) == integral_psi_sq(Y, 8)
        with pytest.raises(QuadratureError):
            integral_psi_sq(Y, 0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_tensor_grid_matches_product_form(self, d):
        x, w = _gauss_rule(256)
        pts, wts = _tensor_points(x, d), _tensor_weights(w, d)
        assert np.array_equal(pts, np.array(list(product(x, repeat=d))))
        assert np.array_equal(wts, np.array([math.prod(c) for c in product(w, repeat=d)]))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("budget", [None, 3, 32])
    def test_grid_integrand_matches_point_integrand(self, d, budget):
        # axis k of a grid integrand's values runs over coordinate k, and the
        # two forms of one integrand give the same bits
        def f(P):
            return np.cos(3.0 * P[:, 0]) * np.exp(P[:, -1] - P[:, 0] ** 2)

        def f_grid(x):
            x0 = x.reshape((-1,) + (1,) * (d - 1))  # coordinate 0 along axis 0
            return np.cos(3.0 * x0) * np.exp(x - x0 ** 2)

        assert _tensor_gauss(f_grid, d, budget) == integrate_cube(f, d, budget)

    def test_grid_integrand_of_wrong_shape_or_value_rejected(self):
        with pytest.raises(QuadratureError, match="wrong number"):
            _tensor_gauss(lambda x: np.ones((x.shape[0] + 1, x.shape[0])), 2, 8)
        with pytest.raises(QuadratureError, match="non-finite"):
            _tensor_gauss(lambda x: np.full((x.shape[0],) * 2, np.nan), 2, 8)

    def test_reproducible_bit_identical(self, rng):
        Y = make_spd(rng, 3)
        a = integral_psi_sq(Y, 4096, seed=11)
        b = integral_psi_sq(Y, 4096, seed=11)
        assert a.scheme == "qmc-shifted"
        assert a == b
        c = integral_psi_sq(Y, 4096, seed=12)
        assert c.value != a.value


class TestSobol:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 16, 40, 64])
    def test_matches_scipy_bit_for_bit(self, d):
        from scipy.stats import qmc  # oracle only: mlk itself does not import scipy

        for m in (2, 4, 1024, 65536):
            want = qmc.Sobol(d=d, scramble=False).random(m)
            assert _sobol(d, m).tobytes() == want.tobytes()

    def test_dimension_above_the_table_exits_as_a_limit(self):
        def never(P):
            raise AssertionError("integrand evaluated")

        with pytest.raises(EnumerationLimitError, match="direction-number table"):
            integrate_cube(never, 65, 4)

    def test_too_many_points_raise_before_allocating(self):
        def never(P):
            raise AssertionError("integrand evaluated")

        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="exceeds cap"):
                integrate_cube(never, 3, 1 << 31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # 2^31 points of dimension 3 would be 48 GiB


class TestRefine:
    @staticmethod
    def counting(sizes):
        def rule(n):
            sizes.append(n)
            return QuadratureResult(float(n), 1.0 / n, n, "counting")

        return rule

    def test_without_a_predicate_one_rule_at_the_cap(self):
        sizes = []
        assert _refine(self.counting(sizes), 32, 100).n_points == 100
        assert sizes == [100]

    def test_doubles_clamped_to_the_cap_and_never_asks_there(self):
        sizes, asked = [], []

        def never(value, err):
            asked.append((sizes[-1], value, err))
            return False

        assert _refine(self.counting(sizes), 32, 100, never).n_points == 100
        assert sizes == [32, 64, 100]
        assert asked == [(32, 32.0, 1 / 32), (64, 64.0, 1 / 64)]  # after each rule

    def test_stops_where_the_predicate_holds(self):
        sizes = []
        r = _refine(self.counting(sizes), 32, 100, lambda value, err: value >= 64.0)
        assert sizes == [32, 64] and r.n_points == 64

    def test_first_above_the_cap_starts_at_the_cap(self):
        def ask(value, err):
            raise AssertionError("predicate asked at the cap")

        sizes = []
        assert _refine(self.counting(sizes), 32, 8, ask).n_points == 8
        assert sizes == [8]


class TestDecidedDoubling:
    @staticmethod
    def smooth(P):
        return np.cos(2.0 * P.sum(axis=1)) + P[:, 0] ** 2

    def test_doublings_evaluate_each_sobol_point_once(self):
        d, seed, first = 4, 5, _FIRST_QMC_POINTS
        batches, asked = [], []

        def counted(P):
            batches.append(P.copy())
            return self.smooth(P)

        def decided(value, err):
            asked.append((value, err))
            return len(asked) == 2

        r = integrate_cube(counted, d, 4096, seed, decided=decided)
        # one call per doubling, every shift's new points in it, shift-major
        assert [len(P) for P in batches] == [8 * first, 8 * first]
        assert r.n_points == 8 * 2 * first and len(asked) == 2
        shifts = np.random.default_rng(seed).random((8, d))
        old, new = (P.reshape(8, first, d) for P in batches)
        for k, s in enumerate(shifts):
            got = np.concatenate([old[k], new[k]])
            assert np.array_equal(got, (_sobol(d, 2 * first) + s) % 1.0)
        assert (r.value, r.error_estimate) == asked[-1]
        assert r == integrate_cube(self.smooth, d, 2 * first, seed)

    def test_calls_hold_at_most_two_to_the_16_rows(self):
        d, cap = 4, 1 << 16
        calls = []

        def counted(P):
            calls.append(len(P))
            return self.smooth(P)

        r = integrate_cube(counted, d, cap, 3, decided=lambda value, err: False)
        assert max(calls) <= cap and sum(calls) == 8 * cap
        # the doublings from _FIRST_QMC_POINTS points per shift: all 8 shifts
        # per call up to 2^13 new points, then 4 and 2 shifts (2^14, 2^15 new
        # points)
        new = [_FIRST_QMC_POINTS] + [_FIRST_QMC_POINTS << k
                                     for k in range(int(math.log2(cap // _FIRST_QMC_POINTS)))]
        assert calls == [8 * n for n in new if n < 1 << 13] + 7 * [cap]
        assert r == integrate_cube(self.smooth, d, cap, 3)

    @pytest.mark.parametrize("d, budget", [(3, 4096), (5, 1 << 16), (4, 300), (3, 64)])
    def test_predicate_that_never_holds_changes_no_bit(self, d, budget):
        asked = []

        def never(value, err):
            asked.append(value)
            return False

        r = integrate_cube(self.smooth, d, budget, 7, decided=never)
        assert r == integrate_cube(self.smooth, d, budget, 7)
        m_cap = 1 << int(math.log2(budget))
        assert r.n_points == 8 * m_cap
        assert len(asked) == max(0, int(math.log2(m_cap / _FIRST_QMC_POINTS)))  # none at the cap

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
    def test_kernels_agree_on_grouped_rows(self, g, scale):
        # integrate_cube hands the integrand several shifts' points at once:
        # each row's value must not depend on the rows beside it (the sums'
        # GEMMs may block differently, so last bits only; psi_sq exactly)
        rng = np.random.default_rng(17)
        Y = GramMatrix(scale * _random_spd(rng, g).entries)
        X = rng.uniform(-0.5, 0.5, (g, g))
        om = validate_period_matrix((X + X.T) / 2.0, Y.entries)
        P = rng.random((8 * 256, 2 * g))
        kernels = [lambda Q: cube_norm_batch(om, Q)[0],
                   lambda Q: f_series_batch(Y, 2.0, Q[:, :g])[0]]
        for kernel in kernels:
            whole = kernel(P)
            parts = np.concatenate([kernel(Q) for Q in np.split(P, 8)])
            assert np.all(np.abs(whole - parts) <= 2e-15 * np.abs(whole))
        parts = np.concatenate([psi_sq_batch(Y, Q[:, :g]) for Q in np.split(P, 8)])
        assert np.array_equal(psi_sq_batch(Y, P[:, :g]), parts)

    @pytest.mark.parametrize("d", [1, 2])
    def test_tensor_rule_stops_when_decided(self, d):
        # decided caps the Gauss nodes at d <= 2 as it caps the QMC points:
        # a predicate that holds at once stops at 32 nodes per axis, and one
        # that never holds (asked at 32, not at the cap) gives the value and
        # estimate of the call without one
        at_once = integrate_cube(self.smooth, d, 64, decided=lambda value, err: True)
        assert at_once == integrate_cube(self.smooth, d, 32)
        assert at_once.n_points == 32**d + 16**d
        asked = []

        def never(value, err):
            asked.append((value, err))
            return False

        r = integrate_cube(self.smooth, d, 64, decided=never)
        whole = integrate_cube(self.smooth, d, 64)
        assert (r.value, r.error_estimate) == (whole.value, whole.error_estimate)
        assert asked == [(at_once.value, at_once.error_estimate)]
        assert r.n_points == 64**d + 32**d + 16**d


def on_points(f, d):
    """The grid integrand of a point integrand f: (N, d) -> (N,)."""
    return lambda n: f(grid_points(n, d))


def slice_integral(om, y):
    """int ||s||^2(x + Omega y) dx by the periodic rule on cube_norm_batch^2
    at the grid's points, to 1e-10, and a bound on the error of the
    integrand on the last grid."""
    bound = []

    def slice_norm_sq(P):
        vals, err = cube_norm_batch(om, np.hstack([P, np.broadcast_to(y, P.shape)]))
        bound.append(err * (2.0 * vals.max() + err))
        return vals * vals

    return integrate_periodic(on_points(slice_norm_sq, om.g), om.g, 1e-10), bound[-1]


class TestIntegratePeriodic:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trig_polynomials_exact(self, rng, d):
        # every frequency |k_i| <= 3 < 8/2 is integrated exactly by the grid
        # k/8 and by its subgrid k/4, so the rule stops at n = 8
        K = rng.integers(-3, 4, (6, d))
        c = rng.normal(size=6)
        phase = rng.uniform(0.0, 2.0 * math.pi, 6)
        exact = float(np.sum(c * np.cos(phase) * np.all(K == 0, axis=1))) + 0.75

        def f(P):
            return 0.75 + np.cos(2.0 * math.pi * P @ K.T + phase) @ c

        r = integrate_periodic(on_points(f, d), d, 1e-12)
        assert r.value == pytest.approx(exact, abs=1e-14)
        assert r.error_estimate <= 1e-14
        assert (r.n_points, r.scheme) == (8**d, "periodic")

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_parseval_slice_matches_f_series(self, rng, g):
        # the Parseval slice by cube_norm_batch at the grid's points, against
        # f_Y(2; y)
        om = make_reduced_period(rng, g)
        y = rng.uniform(0.0, 1.0, g)
        r, _ = slice_integral(om, y)
        assert r.error_estimate <= 1e-10
        assert r.value == pytest.approx(f_series(om.Y, 2.0, y).value, abs=1e-10)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_closed_form_parseval_is_the_slice_integral(self, rng, g):
        # the chain's Parseval lhs in closed form against the same slice
        # integral (on the contraction the g >= 2 invariant runs) at each of
        # the three samples: within the rule's estimate plus the integrand's
        # certified error
        om = make_reduced_period(rng, g)
        samples = _parseval_samples(g)
        for y, value, err in zip(samples, *_slice_norm_sq(om, samples)):
            r, integrand_err = slice_integral(om, y)
            assert abs(r.value - value) <= r.error_estimate + integrand_err + err

    def test_one_call_per_grid(self):
        # frequencies 12 and 24 alias onto the subgrids of n = 8 and 16, so the
        # rule doubles twice and stops at n = 32 with the exact mean 0.5; each
        # grid is one call, and tol < 0 doubles on to n = 64
        calls = []

        def f_grid(n):
            calls.append(n)
            P = grid_points(n, 3)
            return 0.5 + np.cos(24.0 * math.pi * P[:, 0]) + np.cos(48.0 * math.pi * P[:, 1])

        r = integrate_periodic(f_grid, 3, 1e-12)
        assert calls == [8, 16, 32]
        assert r.n_points == 32**3 and r.value == pytest.approx(0.5, abs=1e-14)
        calls.clear()
        r = integrate_periodic(f_grid, 3, -1.0)
        assert calls == [8, 16, 32, 64]
        assert r.n_points == 64**3 and r.value == pytest.approx(0.5, abs=1e-14)

    @staticmethod
    def aliased(n):  # frequencies 12 and 24 reach the subgrids of n = 8 and 16
        P = grid_points(n, 3)
        return 0.5 + np.cos(24.0 * math.pi * P[:, 0]) + np.cos(48.0 * math.pi * P[:, 1])

    @pytest.mark.parametrize("tol, grids, asked_on", [(1e-12, [8, 16, 32], [8, 16]),
                                                      (-1.0, [8, 16, 32, 64], [8, 16, 32])],
                             ids=["tol", "cap"])
    def test_predicate_that_never_holds_changes_no_bit(self, tol, grids, asked_on):
        # the predicate is asked once per grid the rule would refine, after
        # that grid and with its value and estimate: not where tol is met,
        # nor at the last grid that fits (n = 64 at d = 3)
        calls, asked = [], []

        def f_grid(n):
            calls.append(n)
            return self.aliased(n)

        def never(value, err):
            asked.append((calls[-1], value, err))
            return False

        r = integrate_periodic(f_grid, 3, tol, never)
        assert r == integrate_periodic(self.aliased, 3, tol)
        assert calls == grids and [n for n, _, _ in asked] == asked_on
        for k, (n, value, err) in enumerate(asked):  # what stopping at that ask returns
            holds_at_ask = iter(k * [False] + [True])
            stopped = integrate_periodic(self.aliased, 3, tol, lambda v, e: next(holds_at_ask))
            assert (stopped.value, stopped.error_estimate, stopped.n_points) == (value, err, n**3)

    def test_predicate_that_holds_stops_at_the_first_grid(self):
        # where the predicate holds at once the rule returns the n = 8 grid's
        # result, as a tolerance met at once would, asked once
        calls, asked = [], []

        def f_grid(n):
            calls.append(n)
            return self.aliased(n)

        def at_once(value, err):
            asked.append((value, err))
            return True

        r = integrate_periodic(f_grid, 3, 1e-12, at_once)
        assert calls == [8] and r.n_points == 8**3
        assert r == integrate_periodic(self.aliased, 3, math.inf)
        assert asked == [(r.value, r.error_estimate)]

    def test_rejects_non_finite(self):
        def f(P):
            out = np.ones(P.shape[0])
            out[np.all(P == 0.5, axis=1)] = np.nan
            return out

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_periodic(on_points(f, 2), 2, 1e-12)

    def test_grid_never_exceeds_two_to_the_19(self):
        # tol < 0 is never met: n doubles until the next grid would pass 2^19
        sizes = []

        def cos_x0(P):
            sizes.append(P.shape)
            return np.cos(2.0 * math.pi * P[:, 0])

        r = integrate_periodic(on_points(cos_x0, 14), 14, -1.0)
        assert sizes == [(2**14, 14)] and r.n_points == 2**14
        sizes.clear()
        r = integrate_periodic(on_points(cos_x0, 3), 3, -1.0)
        assert sizes == [(n**3, 3) for n in (8, 16, 32, 64)] and r.n_points == 64**3
        sizes.clear()
        with pytest.raises(EnumerationLimitError, match="exceeds cap"):
            integrate_periodic(on_points(cos_x0, 20), 20, 1.0)
        assert sizes == []


class TestIntegralPsiSq:
    @pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
    def test_one_dimensional_equality_case(self, c):
        r = integral_psi_sq(GramMatrix([[c]]))
        assert r.value == pytest.approx(c / 12.0, abs=1e-12)
        iv = mu_interval(GramMatrix([[c]]))
        assert r.value == pytest.approx(iv.lo**2 / 3.0, abs=1e-10)

    def test_identity_g2_separates(self):
        r = integral_psi_sq(GramMatrix(np.eye(2)))
        assert r.value == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_hexagonal_dense_grid_oracle(self):
        Y = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        grid = np.stack(
            np.meshgrid(*(2 * [np.arange(5e-4, 1, 1e-3)]), indexing="ij"), -1
        ).reshape(-1, 2)
        oracle = float(psi_sq_batch(Y, grid).mean())
        r = integral_psi_sq(Y)
        assert r.value == pytest.approx(oracle, abs=5e-6)
        lo = mu_interval(Y).lo
        assert r.value + r.error_estimate >= lo * lo / 3.0

    def test_second_moment_bound_both_schemes(self, rng):
        for g, rule in [(1, "tensor-gauss"), (2, "tensor-gauss"), (3, "qmc-shifted"), (4, "qmc-shifted")]:
            Y = make_spd(rng, g)
            r = integral_psi_sq(Y, 2048 if rule == "qmc-shifted" else 128)
            assert r.scheme == rule
            lo = mu_interval(Y, budget=128).lo
            assert r.value + r.error_estimate >= lo * lo / 3.0 - 1e-9


class TestIntegralLnF:
    def test_frozen_one_dimensional_values(self):
        Y = GramMatrix([[1.0]])
        assert integral_ln_f(Y, 1.0).value == pytest.approx(INT_LNF_T1, abs=1e-10)
        assert integral_ln_f(Y, 2.0).value == pytest.approx(INT_LNF_T2, abs=1e-10)

    def test_upper_bounds(self):
        Y = GramMatrix([[1.0]])
        assert integral_ln_f(Y, 1.0).value <= 0.0
        assert integral_ln_f(Y, 2.0).value <= -0.5 * math.log(2.0)

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_log_mean_bound_random(self, t, rng):
        for g in (1, 2):
            Y = make_spd(rng, g, cond_max=20.0)
            r = integral_ln_f(Y, t)
            assert r.value - r.error_estimate <= -(g / 2.0) * math.log(t) + 1e-9

    def test_scaling_identity(self, rng):
        # integral for cY at t equals integral for Y at ct, plus (g/2) ln c
        for g in (1, 2):
            Y = make_spd(rng, g, cond_max=10.0)
            c = 1.7
            a = integral_ln_f(GramMatrix(c * Y.entries), 1.3)
            b = integral_ln_f(Y, c * 1.3)
            lhs = a.value
            rhs = b.value + (g / 2.0) * math.log(c)
            assert lhs == pytest.approx(rhs, abs=max(1e-8, a.error_estimate + b.error_estimate))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(QuadratureError):
            integral_ln_f(GramMatrix([[1.0]]), 0.0)

    # Y = U^T diag(y) U with U unimodular, against the closed form: the
    # value is within its error estimate, which covers the rule, plus
    # 1e-12, ln f's own accuracy (f to 1e-12 relative). The last two forms
    # are so skewed that a dual box taken in the raw coordinates of Y^{-1}
    # would pass the enumeration cap (7.0M and 8.9M terms at t = 2).
    @pytest.mark.parametrize("U, y", [
        ([[1]], [3.7]),
        ([[1]], [0.6]),
        ([[1, 1], [0, 1]], [1.3, 2.1]),
        ([[2, 1], [1, 1]], [0.8, 5.0]),
        ([[1, 0, 1], [0, 1, 0], [1, 1, 2]], [1.2, 0.9, 2.5]),
        ([[1, 0, 0], [2, 5, 2], [0, 2, 1]], [1.488, 18.887, 4.853]),
        ([[3, -1, 0], [-2, 1, 0], [-2, 1, 1]], [28.33, 1.595, 35.937]),
    ], ids=["g1-3.7", "g1-0.6", "g2-shear", "g2-skew", "g3-shear", "g3-skew-a", "g3-skew-b"])
    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_matches_the_exact_value(self, U, y, t):
        U = np.array(U, dtype=float)
        r = integral_ln_f(GramMatrix(U.T @ np.diag(y) @ U), t)
        assert abs(r.value - ln_f_exact(y, t)) <= r.error_estimate + 1e-12

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_estimate_covers_the_error_at_the_first_grid(self, g):
        # verify_chain may stop the log-Gaussian at its first grid, n = 8, so
        # its estimate must be honest there: forms U^T diag(y) U with y
        # log-uniform in [1, 50] and U a product of elementary operations,
        # at t = 2: 40 of 40 at each g, the largest |value - exact| / estimate
        # 0.31 at every g
        rng = np.random.default_rng([2025, g])
        for k in range(40):
            y = np.exp(rng.uniform(0.0, math.log(50.0), g))
            U = np.eye(g)
            for _ in range(2 * g if g > 1 else 0):
                i, j = rng.choice(g, size=2, replace=False)
                U[:, j] += rng.choice((-1.0, 1.0)) * U[:, i]
            Y = U.T @ np.diag(y) @ U
            r = _integral_ln(_f_grid(GramMatrix((Y + Y.T) / 2.0), 2.0), g, 1e-6,
                             lambda value, err: True)
            assert r.n_points == 8**g
            assert abs(r.value - ln_f_exact(y, 2.0)) <= r.error_estimate, k

    # Where f is small against its dual's sum (large Y), the dual's rounding
    # is not certified and every value comes from f_series_batch: the result
    # is bit for bit the point rule's on f_series_batch (frozen from it, at
    # the chain's tol 1e-6). The g = 1 cases are tau = 60i, 80i and 470i.
    @pytest.mark.parametrize("g, c, value, error, n_points", [
        (1, 16.0, "-0x1.beeb307804200p+2", "0x1.d4102ced5933fp-25", 256),
        (2, 4.0, "-0x1.5e5785f1c64e8p+1", "0x1.d4102bcbe8a43p-22", 4096),
        (3, 2.0, "-0x1.e7d04fec6aaf1p+0", "0x1.40f7e89be63b6p-39", 262144),
        (1, 60.0, "-0x1.d5dd7b3937f79p+4", "0x1.950b0dc4d4798p-28", 1024),
        (1, 80.0, "-0x1.3d8fe088d6340p+5", "0x1.6925f740a5e74p-23", 1024),
        (1, 470.0, "-0x1.e607b5bd19922p+7", "0x1.8d5213cd1e8e4p-22", 65536),
    ], ids=["16I", "4I", "2I", "tau=60i", "tau=80i", "tau=470i"])
    def test_direct_where_the_dual_is_not_certified(self, g, c, value, error, n_points,
                                                     monkeypatch):
        direct = []
        f_series_batch = theta.f_series_batch

        def spy(Y, t, P, tol):
            direct.append(len(P))
            return f_series_batch(Y, t, P, tol)

        monkeypatch.setattr(theta, "f_series_batch", spy)
        r = integral_ln_f(GramMatrix(c * np.eye(g)), 2.0, 1e-6)
        assert (r.value, r.error_estimate, r.n_points) == (
            float.fromhex(value), float.fromhex(error), n_points)
        assert direct == [(8 << k) ** g for k in range(round(math.log2(n_points)) // g - 2)]

    @pytest.mark.parametrize("g, calls", [(1, [8, 16]), (2, [8, 16, 32]), (3, [8, 16, 32]),
                                          (4, [8, 16])])
    def test_one_fft_per_grid(self, g, calls, monkeypatch):
        # the chain's log-Gaussian at Y = I: each grid k/n is one FFT of the
        # whole grid, none for the offset grids of earlier doublings
        sizes = []
        fftn = np.fft.fftn

        def spy(B):
            sizes.append(B.shape[0])
            return fftn(B)

        monkeypatch.setattr(np.fft, "fftn", spy)
        r = integral_ln_f(GramMatrix(np.eye(g)), 2.0, 1e-6)
        assert sizes == calls and r.n_points == calls[-1] ** g
