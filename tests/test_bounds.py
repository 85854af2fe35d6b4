import math

import numpy as np
import pytest

import mlk.bounds
import mlk.quadrature
import mlk.siegel
from mlk.bounds import (
    BoundsError,
    CheckEntry,
    EmbeddingSet,
    _parseval_samples,
    archimedean_invariant,
    height_from_theta_invariants,
    height_lower_bound,
    height_term,
    kappa,
    log_gaussian_bound,
    rho_clamp,
    verify_chain,
    weakened_height_bound,
)
from mlk.quadrature import _FIRST_QMC_POINTS, integrate_cube
from mlk.siegel import reduce as siegel_reduce, validate_period_matrix
import mlk.theta
from mlk.theta import _cube_norm_box, _cube_norm_grid, _f_grid, cube_norm_batch, f_series

from conftest import invariant_exact, make_reduced_period, oracle_f

# Frozen via 40-digit direct evaluation of the defining formulas:
KAPPA = 0.1334054522735500372073062501673757404
TERM_TAU_2I = -1.3137383138033929787805360689333341552
TERM_CLAMP_G1 = -1.4913034761293728288520434120821469957   # == -(1/2) ln(2 pi^2)
TERM_IDENTITY_G2 = -2.9826069522587456577040868241642939914  # == -ln(2 pi^2)
WEAK_TAU_2I_HALF = -1.3142782908110466104835522422646514657
LOG_GAUSS_1_1 = -0.3471135672876262864116322340604055946


def om_of(tau: complex):
    return validate_period_matrix([[tau.real]], [[tau.imag]])


def conjugated_product(rng, g):
    """(Omega, taus): a reduced representative of the product diag(taus),
    whose invariant ``conftest.invariant_exact`` gives exactly."""
    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.5)) for _ in range(g)]
    if g == 1:  # tau -> -1/(tau + k), an element of SL_2(Z)
        tau = -1.0 / (taus[0] + int(rng.integers(-2, 3)))
        X, Y = np.array([[tau.real]]), np.array([[tau.imag]])
    else:  # U^T diag(taus) U for a product U of elementary operations
        U = np.eye(g)
        for _ in range(2 * g):
            i, j = rng.choice(g, size=2, replace=False)
            U[:, j] += rng.choice((-1.0, 1.0)) * U[:, i]
        X = U.T @ np.diag([t.real for t in taus]) @ U
        Y = U.T @ np.diag([t.imag for t in taus]) @ U
    return siegel_reduce(validate_period_matrix((X + X.T) / 2.0, (Y + Y.T) / 2.0)), taus


class TestConstants:
    def test_kappa_value_and_identity(self):
        k = kappa()
        assert k == pytest.approx(KAPPA, rel=1e-15)
        assert k**2 * 2.0 * math.pi**3 * math.e == pytest.approx(3.0, abs=1e-14)
        assert k < 1.0

    def test_clamp_values(self):
        assert rho_clamp(1) == pytest.approx(math.sqrt(math.pi / 3.0), rel=1e-15)
        assert rho_clamp(2) == pytest.approx(0.7236012545582676, rel=1e-14)


class TestHeightTerm:
    def test_clamp_point_is_half_log_two_pi_sq(self):
        assert height_term(rho_clamp(1), 1) == pytest.approx(TERM_CLAMP_G1, abs=1e-13)
        assert height_term(rho_clamp(1), 1) == pytest.approx(-0.5 * math.log(2 * math.pi**2), abs=1e-13)

    def test_tau_2i_value(self):
        assert height_term(1 / math.sqrt(2), 1) == pytest.approx(TERM_TAU_2I, abs=1e-13)

    def test_clamp_saturation(self):
        assert height_term(10.0, 1) == pytest.approx(height_term(rho_clamp(1), 1), abs=0)

    def test_g2_identity_matrix(self):
        assert height_term(1.0, 2) == pytest.approx(TERM_IDENTITY_G2, abs=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(BoundsError):
            height_term(0.0, 1)


class TestEmbeddingSet:
    def test_validates_counts_and_dims(self):
        om = om_of(2j)
        with pytest.raises(BoundsError):
            EmbeddingSet(1, 1, [om, om])
        with pytest.raises(BoundsError):
            EmbeddingSet(2, 1, [om])
        with pytest.raises(BoundsError):
            EmbeddingSet(1, 1, [])

    def test_bound_requires_all_embeddings(self):
        with pytest.raises(BoundsError, match="incomplete embedding data"):
            height_lower_bound(EmbeddingSet(1, 2, [om_of(2j)]))


class TestHeightLowerBound:
    def test_tau_2i(self):
        rep = height_lower_bound(EmbeddingSet(1, 1, [om_of(2j)]))
        assert rep.total == pytest.approx(TERM_TAU_2I, abs=1e-12)
        assert rep.per_embedding[0].rho == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert rep.clamp_count == 0

    def test_mean_of_equal_terms(self):
        rep = height_lower_bound(EmbeddingSet(1, 2, [om_of(2j), om_of(2j)]))
        assert rep.total == pytest.approx(TERM_TAU_2I, abs=1e-12)

    def test_g2_identity(self):
        om = validate_period_matrix(np.zeros((2, 2)), np.eye(2))
        rep = height_lower_bound(EmbeddingSet(2, 1, [om]))
        assert rep.total == pytest.approx(TERM_IDENTITY_G2, abs=1e-12)
        assert rep.clamp_count == 1  # rho = 1 sits above sqrt(pi/6)


class TestWeakenedBound:
    def test_tau_2i_half(self):
        E = EmbeddingSet(1, 1, [om_of(2j)])
        assert weakened_height_bound(E, 0.5) == pytest.approx(WEAK_TAU_2I_HALF, abs=1e-12)

    def test_epsilon_limit(self):
        E = EmbeddingSet(1, 1, [om_of(2j)])
        eps = 1 - 1e-9
        want = -(0.5) * math.log(2 * math.pi**2 / eps) + (1 - eps) * math.pi / 6.0 * 2.0
        assert weakened_height_bound(E, eps) == pytest.approx(want, abs=1e-12)
        assert weakened_height_bound(E, eps) == height_lower_bound(E, eps).weak_total

    def test_rejects_bad_epsilon(self):
        E = EmbeddingSet(1, 1, [om_of(2j)])
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(BoundsError):
                weakened_height_bound(E, eps)

    def test_dominated_by_main_bound(self, rng):
        for _ in range(10):
            g = int(rng.integers(1, 3))
            d = int(rng.integers(1, 4))
            periods = [make_reduced_period(rng, g) for _ in range(d)]
            E = EmbeddingSet(g, d, periods)
            eps = float(rng.uniform(0.05, 0.95))
            assert height_lower_bound(E).total >= weakened_height_bound(E, eps) - 1e-10

    def test_per_term_derivation_identity(self):
        # pi/(6 rc^2) + g ln(kappa rc sqrt g) + (g/2) ln(2 pi^2/eps)
        #   >= (1 - eps) pi/(6 rc^2),  i.e. (g/2)(u - ln u - 1) >= 0
        rhos = np.logspace(-2, 2, 25)
        epss = np.linspace(0.05, 0.95, 20)
        for g in range(1, 11):
            clamp = rho_clamp(g)
            for rho in rhos:
                rc = min(rho, clamp)
                for eps in epss:
                    lhs = (
                        math.pi / (6 * rc * rc)
                        + g * math.log(kappa() * rc * math.sqrt(g))
                        + (g / 2.0) * math.log(2 * math.pi**2 / eps)
                    )
                    assert lhs >= (1 - eps) * math.pi / (6 * rc * rc) - 1e-10


class TestLogGaussianBound:
    def test_frozen_value(self):
        assert log_gaussian_bound(1.0, 1) == pytest.approx(LOG_GAUSS_1_1, abs=1e-13)

    def test_clamp_point_equals_half_log_two(self):
        assert log_gaussian_bound(rho_clamp(1), 1) == pytest.approx(-math.log(2) / 2, abs=1e-13)
        assert log_gaussian_bound(rho_clamp(2), 2) == pytest.approx(-math.log(2), abs=1e-13)

    def test_bounds_log_integral_random_reduced(self, rng):
        from mlk.quadrature import integral_ln_f
        from mlk.lattice import shortest_vector
        from conftest import make_lll_gram

        for g in (1, 2, 3):
            Y = make_lll_gram(rng, g, lo=0.8, hi=3.0)
            lam = min(shortest_vector(Y.inverse()).value, rho_clamp(g))
            r = integral_ln_f(Y, 2.0)
            assert r.value - r.error_estimate <= log_gaussian_bound(lam, g)

    def test_t_optimization_consistency(self):
        # with t* = 6 g lam^2 / pi, the pre-optimized bound
        # -(g/2) ln t - pi (2 - t) / (12 lam^2) collapses to log_gaussian_bound
        for g in (1, 2, 3, 5):
            for lam in np.linspace(0.05, rho_clamp(g), 7):
                t_star = 6.0 * g * lam * lam / math.pi
                pre = -(g / 2.0) * math.log(t_star) - math.pi * (2.0 - t_star) / (12.0 * lam * lam)
                assert pre == pytest.approx(log_gaussian_bound(lam, g), abs=1e-12)

    def test_domain(self):
        with pytest.raises(BoundsError):
            log_gaussian_bound(0.0, 1)
        with pytest.raises(BoundsError):
            log_gaussian_bound(rho_clamp(1) * 1.01, 1)


class TestArchimedeanInvariant:
    def test_norm_sq_normalization_tau_i(self):
        om = om_of(1j)

        def f_sq(P):
            vals, _ = cube_norm_batch(om, P)
            return vals * vals

        r = integrate_cube(f_sq, 2)
        assert 0.5 * math.log(r.value) == pytest.approx(-0.25 * math.log(2), abs=1e-6)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_norm_sq_identity_random_reduced(self, rng, g):
        # int ||s||^2 dnu = 2^{-g/2} for every Omega, the identity the
        # invariant uses in place of a second integral
        for _ in range(2):
            om = make_reduced_period(rng, g)

            def f_sq(P):
                vals, _ = cube_norm_batch(om, P)
                return vals * vals

            r = integrate_cube(f_sq, 2 * g, 4096)
            assert abs(r.value - 2.0 ** (-g / 2.0)) <= r.error_estimate

    @pytest.mark.parametrize("g", [1, 2])
    def test_matches_exact_invariant_of_conjugated_products(self, rng, g):
        for _ in range(2):
            om, taus = conjugated_product(rng, g)
            inv = archimedean_invariant(om, budget=16384)
            assert abs(inv.value - invariant_exact(taus)) <= inv.error_estimate

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_estimate_covers_the_error_at_the_first_doubling(self, g):
        # verify_chain may stop the invariant at its first size, 32 nodes per
        # axis at g = 1 (tau in the fundamental domain, Im tau log-uniform in
        # [1, 50]) and _FIRST_QMC_POINTS = 2^5 points per shift at g >= 2, so
        # its estimate must be honest there, and at 2^8 points per shift:
        # 100 of 100 cases at each g and size, the largest
        # |I - I_exact| / estimate 0.35 at g = 1, 0.59 (2^5) and 0.68 (2^8) at
        # g = 2, and 0.51 (2^5) and 0.42 (2^8) at g = 3
        rng = np.random.default_rng([2024, g])
        for k in range(100):
            if g == 1:
                re, im = rng.uniform(-0.5, 0.5), math.exp(rng.uniform(0.0, math.log(50.0)))
                taus = [complex(re, im)]
                om, budgets = om_of(taus[0]), [32]
            else:
                (om, taus), budgets = conjugated_product(rng, g), [_FIRST_QMC_POINTS, 256]
            for budget in budgets:
                inv = archimedean_invariant(om, budget=budget, seed=k)
                assert abs(inv.value - invariant_exact(taus)) <= inv.error_estimate, (k, budget)

    @pytest.mark.parametrize("tau", [60j, 80j])
    def test_large_imaginary_part_needs_no_clip(self, tau):
        # ||s|| falls below e^-40 on a whole band of y at Im tau >= 60; only
        # values that underflow are clipped, and none do here
        inv = archimedean_invariant(om_of(tau))
        assert inv.n_clipped == 0
        assert abs(inv.value - invariant_exact([tau])) <= inv.error_estimate

    def test_clipped_count_in_the_underflow_band(self):
        # at Im tau = 1000 ||s|| underflows on a band of y; the grid form
        # clips exactly the values the point form clipped
        assert archimedean_invariant(om_of(0.25 + 1000j)).n_clipped == 2560

    def test_requires_reduced(self):
        with pytest.raises(BoundsError, match="reduced"):
            archimedean_invariant(om_of(0.7 + 2j))

    @pytest.mark.parametrize("g, rule, budget", [(1, "tensor-gauss", 32),
                                                 (2, "qmc-shifted", 256)])
    def test_one_evaluation_per_point_set(self, monkeypatch, rng, g, rule, budget):
        om = om_of(0.2 + 1.3j) if g == 1 else make_reduced_period(rng, g)
        clipped = 0

        def f_log(P):
            nonlocal clipped
            vals, _ = cube_norm_batch(om, P)
            clipped += int(np.count_nonzero(vals < mlk.bounds._CLIP_FLOOR))
            return np.log(np.maximum(vals, mlk.bounds._CLIP_FLOOR))

        # the invariant is the log integral plus the exact (1/2) ln 2^{-g/2}
        r_log = integrate_cube(f_log, 2 * g, budget, 3)
        value = -r_log.value - 0.25 * g * math.log(2.0)

        calls, grids, boxes = [], [], []

        def counted(om_, P):
            calls.append(P.shape[0])
            return cube_norm_batch(om_, P)

        def counted_grid(om_, x):
            grids.append((x.shape[0], x.shape[0]))
            return _cube_norm_grid(om_, x)

        def counted_box(om_):
            box = _cube_norm_box(om_)
            boxes.append(box[0])
            return box

        monkeypatch.setattr(mlk.bounds, "cube_norm_batch", counted)
        monkeypatch.setattr(mlk.bounds, "_cube_norm_grid", counted_grid)
        monkeypatch.setattr(mlk.theta, "_cube_norm_box", counted_box)
        inv = archimedean_invariant(om, budget, 3)
        assert inv.scheme == rule
        assert inv.n_clipped == clipped
        if g == 1:
            # without a predicate n = budget: one grid per rule (n and n // 2
            # nodes per axis) over one box, read by each grid, none point by
            # point; the matrix-product sum differs from the points' in the
            # last bits only
            assert calls == [] and grids == [(32, 32), (16, 16)]
            assert len(boxes) == 2 and boxes[0] is boxes[1]
            assert inv.n_points == 32**2 + 16**2 == r_log.n_points
            assert abs(inv.value - value) <= 1e-13 * max(1.0, abs(value))
            return
        assert grids == [] and boxes == [] and calls == [8 * 256]  # every shift in one call
        assert inv.n_points == sum(calls) == r_log.n_points
        assert (inv.value, inv.error_estimate) == (value, r_log.error_estimate)

    @pytest.mark.parametrize("budget, nodes, n_asked", [(32, [32, 16], 0),
                                                        (100, [32, 16, 64, 100, 50], 2),
                                                        (256, [32, 16, 64, 128, 256], 3)],
                             ids=["32", "100", "256"])
    def test_g1_rule_doubles_to_the_clamp(self, monkeypatch, budget, nodes, n_asked):
        # with a predicate that never holds, n doubles from 32 nodes per axis
        # to the clamp, each coarse rule the previous fine rule (only the
        # clamped last size, 100, needs its own n // 2), and the result is the
        # one without a predicate, bit for bit
        om = om_of(0.2 + 1.3j)
        full = archimedean_invariant(om, budget)
        grids, asked = [], []

        def counted_grid(om_, x):
            grids.append((x.shape[0], x.shape[0]))
            return _cube_norm_grid(om_, x)

        def never(I, err):
            asked.append((I, err))
            return False

        monkeypatch.setattr(mlk.bounds, "_cube_norm_grid", counted_grid)
        r = archimedean_invariant(om, budget, decided=never)
        assert grids == [(n, n) for n in nodes]
        assert (r.value, r.error_estimate, r.n_clipped) == (
            full.value, full.error_estimate, full.n_clipped)
        assert r.n_points == sum(n * n for n in nodes)
        assert len(asked) == n_asked  # once per size below the cap

    def test_g1_rule_stops_once_decided(self, monkeypatch):
        # a predicate that holds at once stops at the first size: the rules
        # on 32 and 16 nodes, the value and estimate of budget 32, asked in
        # terms of I
        om = om_of(0.2 + 1.3j)
        grids, asked = [], []

        def counted_grid(om_, x):
            grids.append((x.shape[0], x.shape[0]))
            return _cube_norm_grid(om_, x)

        def at_once(I, err):
            asked.append((I, err))
            return True

        monkeypatch.setattr(mlk.bounds, "_cube_norm_grid", counted_grid)
        r = archimedean_invariant(om, decided=at_once)
        assert grids == [(32, 32), (16, 16)] and r.n_points == 32**2 + 16**2
        assert asked == [(r.value, r.error_estimate)]
        monkeypatch.undo()
        assert r == archimedean_invariant(om, 32)

    def test_orbit_invariance(self):
        tau0 = 0.2 + 1.3j
        a = archimedean_invariant(om_of(tau0), budget=16384)
        om1 = siegel_reduce(om_of(-1.0 / tau0))
        b = archimedean_invariant(om1, budget=16384)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-6

    def test_lower_bound_tau_i(self):
        inv = archimedean_invariant(om_of(1j), budget=16384)
        lam = 1.0
        rhs = math.pi / 6.0 + math.log(lam) + 0.5 * math.log(3.0 / (math.pi * math.e))
        assert 2.0 * inv.value >= rhs - 1e-6


class TestHeightFromInvariants:
    def test_zero_invariant(self):
        assert height_from_theta_invariants([0.0], 1, 1) == pytest.approx(TERM_CLAMP_G1, abs=1e-13)

    def test_averaging(self):
        got = height_from_theta_invariants([0.5, 0.5], 1, 2)
        assert got == pytest.approx(TERM_CLAMP_G1 + 1.0, abs=1e-13)

    def test_g2(self):
        got = height_from_theta_invariants([1.0], 2, 1)
        assert got == pytest.approx(-math.log(2 * math.pi**2) + 2.0, abs=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(BoundsError):
            height_from_theta_invariants([0.0], 1, 2)


class TestVerifyChain:
    def test_tau_i_all_links_hold(self):
        E = EmbeddingSet(1, 1, [om_of(1j)])
        rep = verify_chain(E)
        names = [e.name for e in rep.entries]
        assert sum(n.startswith("parseval") for n in names) == 3
        assert any(n.startswith("log_gaussian_bound") for n in names)
        assert any(n.startswith("theta_invariant_lower") for n in names)
        assert names[-1] == "height_chain"
        for e in rep.entries:
            assert e.slack >= -1e-6, e
        assert rep.all_passed

    def test_invariant_slack_stays_positive_along_imaginary_axis(self):
        # the slack settles near 0.1765 as Im tau grows; it never thins out
        for tau in (1j, 2j, 3j):
            E = EmbeddingSet(1, 1, [om_of(tau)])
            rep = verify_chain(E, budget=16384)
            (entry,) = [e for e in rep.entries if e.name.startswith("theta_invariant")]
            assert entry.slack >= 0.17

    def test_height_chain_carries_the_invariants_error(self):
        # lhs = -(g/2) ln(2 pi^2) + (2/d) sum I, so its estimate is (2/d) sum err(I),
        # the mean of the theta_invariant_lower estimates (each 2 err(I))
        rep = verify_chain(EmbeddingSet(1, 2, [om_of(1j), om_of(2j)]), budget=4096)
        lower = [e.error_estimate for e in rep.entries if e.name.startswith("theta_invariant")]
        (chain,) = [e for e in rep.entries if e.name == "height_chain"]
        assert len(lower) == 2 and min(lower) > 0.0
        assert chain.error_estimate == pytest.approx(sum(lower) / 2, rel=1e-15)

    @pytest.mark.parametrize("om, n_points", [
        (om_of(1j), 32**2 + 16**2), (om_of(0.5 + 1j), 32**2 + 16**2), (om_of(2j), 32**2 + 16**2),
        (om_of(60j), 32**2 + 16**2 + 64**2), (om_of(80j), 32**2 + 16**2 + 64**2),
        (om_of(470j), 32**2 + 16**2 + 64**2 + 128**2),
        (validate_period_matrix(np.zeros((2, 2)), np.eye(2)), 8 * 2 * _FIRST_QMC_POINTS),
        (validate_period_matrix(np.zeros((3, 3)), np.eye(3)), 8 * _FIRST_QMC_POINTS)],
        ids=["i", "half+i", "2i", "60i", "80i", "470i", "iI2", "iI3"])
    def test_stopping_the_invariant_early_keeps_every_verdict(self, monkeypatch, om, n_points):
        # the acceptance suite's chain cases, large Im tau and Omega = i I_3,
        # at default budget: the invariant stops at its first size or soon
        # after at every g
        E = EmbeddingSet(om.g, 1, [om])
        invariant = mlk.bounds.archimedean_invariant
        sizes = []

        def spied(*args, **kwargs):
            r = invariant(*args, **kwargs)
            sizes.append(r.n_points)
            return r

        monkeypatch.setattr(mlk.bounds, "archimedean_invariant", spied)
        early = verify_chain(E)
        monkeypatch.setattr(mlk.bounds, "archimedean_invariant",
                            lambda om_, budget, seed, decided: invariant(om_, budget, seed))
        full = verify_chain(E)
        assert sizes == [n_points]
        assert [e.passed for e in early.entries] == [e.passed for e in full.entries]
        for a, b in zip(early.entries, full.entries):
            if not (a.name.startswith("theta_invariant_lower") or a.name == "height_chain"):
                assert a == b

    @pytest.mark.parametrize("om, n", [
        (om_of(1j), 8), (om_of(470j), 128),
        (validate_period_matrix(np.zeros((2, 2)), 100.0 * np.eye(2)), 8),
        (validate_period_matrix(np.zeros((3, 3)), 20.0 * np.eye(3)), 8)],
        ids=["i", "470i", "100I2", "20I3"])
    def test_stopping_the_log_gaussian_early_keeps_every_verdict(self, monkeypatch, om, n):
        # the log-Gaussian stops on the first grid k/n where its check is
        # decided at either end of value +- estimate; run to tolerance it
        # needs n = 16 at tau = i and goes on to the 2^19 grid cap at large
        # Y. Every verdict and every other entry is the same, and the early
        # value is within its estimate of the full one
        E = EmbeddingSet(om.g, 1, [om])
        integral_ln = mlk.bounds._integral_ln
        sizes = []

        def spied(*args):
            r = integral_ln(*args)
            sizes.append(r.n_points)
            return r

        monkeypatch.setattr(mlk.bounds, "_integral_ln", spied)
        early = verify_chain(E)
        monkeypatch.setattr(mlk.bounds, "_integral_ln",
                            lambda f_grid, d, tol, decided: spied(f_grid, d, tol))
        full = verify_chain(E)
        assert sizes[0] == n**om.g < sizes[1]
        assert [e.passed for e in early.entries] == [e.passed for e in full.entries]
        for a, b in zip(early.entries, full.entries):
            if a.name.startswith("log_gaussian_bound"):
                assert abs(a.lhs - b.lhs) <= a.error_estimate
            else:
                assert a == b

    def test_one_norm_box_per_g1_embedding(self, monkeypatch):
        # the closed-form Parseval sums and the invariant's grids share one
        # box of ||s|| per Y, built once and read-only
        E = EmbeddingSet(1, 2, [om_of(1j), om_of(0.2 + 1.3j)])
        builds = []
        reduced_box = mlk.theta._reduced_box

        def counted(Y, radius, lo, hi):
            builds.append(Y)
            return reduced_box(Y, radius, lo, hi)

        monkeypatch.setattr(mlk.theta, "_reduced_box", counted)
        verify_chain(E)
        forms = [om.Y for om in E.periods]  # the other builds are f_Y's dual boxes, over Y^{-1}
        assert [Y for Y in builds if any(Y is y for y in forms)] == forms
        box = _cube_norm_box(E.periods[0])
        assert box is _cube_norm_box(E.periods[0]) and not box[0].flags.writeable

    def test_one_box_radius_per_g1_embedding(self, monkeypatch):
        # the radius of the ||s|| box is found once per Y, when the box is
        # built: the Parseval tail reads it from theta's cache
        E = EmbeddingSet(1, 2, [om_of(1j), om_of(0.2 + 1.3j)])
        calls = []
        radius_for = mlk.theta._radius_for

        def counted(Y, det_sqrt, t, target):
            if (det_sqrt, t, target) == (1.0, 1.0, 1e-12):
                calls.append(Y)
            return radius_for(Y, det_sqrt, t, target)

        monkeypatch.setattr(mlk.theta, "_radius_for", counted)
        verify_chain(E)
        assert len(calls) == 2 and all(Y is om.Y for Y, om in zip(calls, E.periods))

    @pytest.mark.parametrize("U", [[[1, 0, 0], [16, 1, 0], [50, 13, 1]],
                                   [[1, 0, 0], [15, 1, 0], [40, 12, 1]]], ids=["16", "15"])
    def test_skewed_basis_of_a_reduced_form(self, U):
        # Omega = i U^T U is reduced and presents the torus of i I_3. In the
        # raw basis of Y the ||s|| box holds 2,154,880 and 1,780,200 terms
        # (the first past the enumeration cap); taken in LLL coordinates it
        # holds under 20,000, and the verdicts are those of reduce(Omega)
        U = np.array(U, dtype=float)
        om = validate_period_matrix(np.zeros((3, 3)), U.T @ U)
        assert om.is_reduced and len(_cube_norm_box(om)[0]) < 20_000
        rep = verify_chain(EmbeddingSet(3, 1, [om]))
        ref = verify_chain(EmbeddingSet(3, 1, [siegel_reduce(om)]))
        assert rep.all_passed
        assert [(e.name, e.passed) for e in rep.entries] == [(e.name, e.passed) for e in ref.entries]

    def test_no_period_gram_search(self, monkeypatch):
        # on a reduced Omega the clamped rho of (d) is the lam of (b) and (c),
        # so the chain builds no 2g x 2g period Gram matrix (and runs no
        # 2g-dimensional SVP), and (d)'s rhs is still the height lower bound
        E = EmbeddingSet(1, 2, [om_of(1j), om_of(0.2 + 1.3j)])
        rhs = height_lower_bound(E).total
        calls = []
        period_gram = mlk.siegel._period_gram

        def counted(om):
            calls.append(om)
            return period_gram(om)

        monkeypatch.setattr(mlk.siegel, "_period_gram", counted)
        rep = verify_chain(E, budget=16)
        assert calls == []
        assert rep.entries[-1].name == "height_chain" and rep.entries[-1].rhs == rhs

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_parseval_right_sides_in_one_batch(self, monkeypatch, rng, g):
        # f_Y(2; y_k) of the three Parseval checks are entries of the n = 8
        # grid of one f_Y(2; .) plan per embedding, asked for once and shared
        # with the log-Gaussian, whose dual is built once: within 1e-14
        # relative of one-point f_series. The log-Gaussian is the chain's
        # only periodic-rule integral
        periods = [make_reduced_period(rng, g) for _ in range(2)]
        plans, grids, builds, periodic = [], [], [], []
        radius_for = mlk.theta._radius_for
        integrate_periodic = mlk.quadrature.integrate_periodic

        def counted_periodic(*args):
            periodic.append(args[1])
            return integrate_periodic(*args)

        def counted_plan(Y, t):
            plans.append((Y, t))
            values, asked = _f_grid(Y, t), []
            grids.append(asked)

            def counted(n):
                asked.append(n)
                return values(n)

            return counted

        def counted_radius(Y, det_sqrt, t, target):
            if t == 0.5:  # the dual's box, at scale 1/t
                builds.append(Y)
            return radius_for(Y, det_sqrt, t, target)

        monkeypatch.setattr(mlk.bounds, "_f_grid", counted_plan)
        monkeypatch.setattr(mlk.theta, "_radius_for", counted_radius)
        monkeypatch.setattr(mlk.quadrature, "integrate_periodic", counted_periodic)
        rep = verify_chain(EmbeddingSet(g, 2, periods), budget=256)
        assert periodic == [g, g]
        assert plans == [(om.Y, 2.0) for om in periods]
        assert builds == [om.Y.inverse() for om in periods]
        assert [asked.count(8) for asked in grids] == [1, 1]
        for i, om in enumerate(periods):
            for k, y in enumerate(_parseval_samples(g)):
                entry = next(e for e in rep.entries if e.name == f"parseval[{i},{k}]")
                ref = f_series(om.Y, 2.0, y).value
                assert abs(entry.rhs - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("om", [
        om_of(1j), om_of(470j), validate_period_matrix(np.zeros((2, 2)), np.eye(2)),
        validate_period_matrix(np.zeros((3, 3)), 20.0 * np.eye(3))],
        ids=["i", "470i", "iI2", "20I3"])
    def test_parseval_fails_on_a_faulty_dual(self, monkeypatch, om):
        # f_Y(2; .)'s n = 8 grid off by 1e-5 relative: every Parseval check
        # fails, as its lhs is the direct sum over Y, not read off that grid.
        # Every other verdict holds and every other entry is unchanged, but
        # for a log-Gaussian that stops on that grid (at i): it moves by
        # ln(1 + 1e-5)
        E = EmbeddingSet(om.g, 1, [om])
        good = verify_chain(E)
        f_grid = mlk.bounds._f_grid

        def faulty(Y, t):
            values = f_grid(Y, t)
            return lambda n: values(n) * (1.0 + 1e-5) if n == 8 else values(n)

        monkeypatch.setattr(mlk.bounds, "_f_grid", faulty)
        bad = verify_chain(E)
        assert [a.name for a in good.entries] == [b.name for b in bad.entries]
        for a, b in zip(good.entries, bad.entries):
            if a.name.startswith("parseval"):
                assert a.passed and not b.passed and b.lhs == a.lhs
            elif a.name.startswith("log_gaussian_bound"):
                assert b.passed == a.passed and abs(b.lhs - a.lhs) <= 1e-5
            else:
                assert b == a

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_parseval_estimate_is_honest(self, rng, g):
        # the closed-form lhs is within its estimate of the box-sum oracle
        # of f_Y(2; y), and the estimate is within 1e-13 of the rhs: on
        # random reduced forms, and at 470i and 20i I_3, where f_Y(2; y) is
        # as small as 1.6e-79 and 1.0e-10
        periods = [make_reduced_period(rng, g) for _ in range(3)]
        large = {1: om_of(470j), 3: validate_period_matrix(np.zeros((3, 3)), 20.0 * np.eye(3))}
        periods += [large[g]] if g in large else []
        rep = verify_chain(EmbeddingSet(g, len(periods), periods), budget=16)
        for i, om in enumerate(periods):
            ref = oracle_f(om.Y, 2.0, _parseval_samples(g))
            for k in range(3):
                e = next(e for e in rep.entries if e.name == f"parseval[{i},{k}]")
                assert abs(e.lhs - ref[k]) <= e.error_estimate <= 1e-13 * e.rhs

    @pytest.mark.parametrize("c", [20.0, 35.0])
    def test_large_y_builds_no_dual_box(self, monkeypatch, c):
        # Omega = c i I_3: the pre-check of the first grid refuses the dual,
        # so its box is never built (614,125 terms at c = 20, past the
        # enumeration cap at c = 35), and every link holds with the right
        # sides and the log-Gaussian on f_series_batch
        builds = []
        radius_for = mlk.theta._radius_for

        def counted_radius(Y, det_sqrt, t, target):
            if t == 0.5:  # the dual's box, at scale 1/t
                builds.append(Y)
            return radius_for(Y, det_sqrt, t, target)

        monkeypatch.setattr(mlk.theta, "_radius_for", counted_radius)
        om = validate_period_matrix(np.zeros((3, 3)), c * np.eye(3))
        rep = verify_chain(EmbeddingSet(3, 1, [om]), budget=16)
        assert builds == [] and rep.all_passed

    def test_requires_reduced_and_complete(self):
        with pytest.raises(BoundsError):
            verify_chain(EmbeddingSet(1, 1, [om_of(0.7 + 2j)]))
        with pytest.raises(BoundsError, match="incomplete"):
            verify_chain(EmbeddingSet(1, 2, [om_of(1j)]))

    def test_rejects_tau_inside_the_unit_circle(self):
        # |Re tau| <= 1/2 and Im tau >= sqrt(3)/2, but |tau| < 1: there rho
        # (0.9545) is below lam (1.0233), which (d) would take for it
        with pytest.raises(BoundsError, match="embedding 0: .*reduced"):
            verify_chain(EmbeddingSet(1, 1, [om_of(0.1 + 0.9j)]))


class TestCheckEntry:
    """Each constructor passes exactly when slack >= -tolerance."""

    # rhs -/+ tol is exact for each pair, so the boundary slack is exactly -tol
    @pytest.mark.parametrize("rhs,tol", [(0.0, 0.0), (0.0, 2.0**-30), (0.0, 1e-9), (0.0, 1e-6),
                                         (1.0, 2.0**-20), (-4.0, 2.0**-10)])
    def test_boundary_is_inclusive(self, rhs, tol):
        low, high = rhs - tol, rhs + tol
        assert CheckEntry.at_least("c", low, rhs, tol).passed
        assert not CheckEntry.at_least("c", math.nextafter(low, -math.inf), rhs, tol).passed
        assert CheckEntry.at_most("c", high, rhs, tol).passed
        assert not CheckEntry.at_most("c", math.nextafter(high, math.inf), rhs, tol).passed
        for lhs in (low, high):
            assert CheckEntry.equal("c", lhs, rhs, tol).passed
        for lhs in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf)):
            assert not CheckEntry.equal("c", lhs, rhs, tol).passed

    @pytest.mark.parametrize("a,b", [(1.0, 1.0 + 1e-9), (-3.0, 2.5), (0.0, 1e-300)])
    def test_equal_is_symmetric(self, a, b):
        for tol in (0.0, abs(a - b), 10.0):
            one, two = CheckEntry.equal("c", a, b, tol), CheckEntry.equal("c", b, a, tol)
            assert (one.slack, one.passed) == (two.slack, two.passed)
            assert one.slack == -abs(a - b)

    def test_fields(self):
        e = CheckEntry.at_most("x", np.float64(2.0), 3.0, 0.5, error_estimate=0.25)
        assert (e.name, e.lhs, e.rhs, e.slack, e.tolerance, e.error_estimate) == (
            "x", 2.0, 3.0, 1.0, 0.5, 0.25)
        assert e.passed is True  # a plain bool, so the report serializes
        assert CheckEntry.at_least("x", 2.0, 3.0, 0.5).slack == -1.0
