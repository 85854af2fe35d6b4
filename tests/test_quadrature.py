import math

import numpy as np
import pytest

from mlk.lattice import GramMatrix, mu_interval, psi_sq_batch
from mlk.quadrature import (
    QuadratureError,
    _integrate_rows,
    integral_ln_f,
    integral_psi_sq,
    integrate_cube,
)

from conftest import make_spd

# mpmath (40 digits): int_0^1 ln sum_m exp(-pi t (x-m)^2) dx
INT_LNF_T1 = -0.0018726824497685461156385794799613989
INT_LNF_T2 = -0.3927025690593227554163774326634235654


class TestIntegrateCube:
    def test_constant(self):
        for scheme in ("tensor-gauss", "qmc-shifted"):
            r = integrate_cube(lambda P: np.ones(P.shape[0]), 2, scheme, 64)
            assert r.value == pytest.approx(1.0, abs=1e-13)
            assert r.error_estimate <= 1e-12

    def test_polynomial_exactness(self):
        r = integrate_cube(lambda P: P[:, 0] ** 2, 1, "tensor-gauss")
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_distance_squared(self):
        f = lambda P: np.minimum(P[:, 0], 1.0 - P[:, 0]) ** 2
        r = integrate_cube(f, 1, "qmc-shifted", 65536)
        assert r.value == pytest.approx(1.0 / 12.0, abs=1e-10)
        # the kink at 1/2 limits plain tensor-gauss to ~1e-5 here
        r = integrate_cube(f, 1, "tensor-gauss", 256)
        assert r.value == pytest.approx(1.0 / 12.0, abs=1e-4)

    def test_rejects_singular_integrand(self):
        def f(P):
            out = np.zeros(P.shape[0])
            out[P[:, 0] > 0.5] = np.inf
            return out

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_cube(f, 1, "qmc-shifted", 16)

    def test_rejects_bad_scheme_and_dim(self):
        with pytest.raises(QuadratureError):
            integrate_cube(lambda P: np.ones(len(P)), 1, "midpoint")
        with pytest.raises(QuadratureError):
            integrate_cube(lambda P: np.ones(len(P)), 0)
        with pytest.raises(QuadratureError):
            integrate_cube(lambda P: np.ones(len(P)), 3, "tensor-gauss")

    def test_reproducible_bit_identical(self, rng):
        Y = make_spd(rng, 2)
        a = integral_psi_sq(Y, "qmc-shifted", 4096, seed=11)
        b = integral_psi_sq(Y, "qmc-shifted", 4096, seed=11)
        assert a == b
        c = integral_psi_sq(Y, "qmc-shifted", 4096, seed=12)
        assert c.value != a.value

    @pytest.mark.parametrize("scheme, budget", [("tensor-gauss", 48), ("qmc-shifted", 1024)])
    def test_rows_equal_separate_integrals_bit_for_bit(self, rng, scheme, budget):
        Y = make_spd(rng, 2)
        rows = [
            lambda P: psi_sq_batch(Y, P),
            lambda P: np.cos(7.0 * P[:, 0]) * P[:, 1] ** 3,
            lambda P: np.minimum(P[:, 0], 1.0 - P[:, 1]) ** 2,
        ]
        together = _integrate_rows(lambda P: np.stack([f(P) for f in rows]), 2, scheme,
                                   budget, 5)
        assert together == [integrate_cube(f, 2, scheme, budget, 5) for f in rows]


class TestIntegralPsiSq:
    @pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
    def test_one_dimensional_equality_case(self, c):
        r = integral_psi_sq(GramMatrix([[c]]), "tensor-gauss")
        assert r.value == pytest.approx(c / 12.0, abs=1e-12)
        iv = mu_interval(GramMatrix([[c]]))
        assert r.value == pytest.approx(iv.lo**2 / 3.0, abs=1e-10)

    def test_identity_g2_separates(self):
        r = integral_psi_sq(GramMatrix(np.eye(2)), "tensor-gauss")
        assert r.value == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_hexagonal_dense_grid_oracle(self):
        Y = GramMatrix([[2.0, 1.0], [1.0, 2.0]])
        grid = np.stack(
            np.meshgrid(*(2 * [np.arange(5e-4, 1, 1e-3)]), indexing="ij"), -1
        ).reshape(-1, 2)
        oracle = float(psi_sq_batch(Y, grid).mean())
        r = integral_psi_sq(Y, "qmc-shifted", 16384)
        assert r.value == pytest.approx(oracle, abs=5e-6)
        lo = mu_interval(Y).lo
        assert r.value + r.error_estimate >= lo * lo / 3.0

    def test_second_moment_bound_both_schemes(self, rng):
        for g, scheme in [(1, "tensor-gauss"), (2, "tensor-gauss"), (3, "qmc-shifted"), (4, "qmc-shifted")]:
            Y = make_spd(rng, g)
            r = integral_psi_sq(Y, scheme, 2048 if scheme == "qmc-shifted" else 128)
            lo = mu_interval(Y, budget=128).lo
            assert r.value + r.error_estimate >= lo * lo / 3.0 - 1e-9


class TestIntegralLnF:
    def test_frozen_one_dimensional_values(self):
        Y = GramMatrix([[1.0]])
        assert integral_ln_f(Y, 1.0, "tensor-gauss").value == pytest.approx(INT_LNF_T1, abs=1e-10)
        assert integral_ln_f(Y, 2.0, "tensor-gauss").value == pytest.approx(INT_LNF_T2, abs=1e-10)

    def test_upper_bounds(self):
        Y = GramMatrix([[1.0]])
        assert integral_ln_f(Y, 1.0, "tensor-gauss").value <= 0.0
        assert integral_ln_f(Y, 2.0, "tensor-gauss").value <= -0.5 * math.log(2.0)

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_log_mean_bound_random(self, t, rng):
        for g in (1, 2):
            Y = make_spd(rng, g, cond_max=20.0)
            r = integral_ln_f(Y, t, "tensor-gauss", 128)
            assert r.value - r.error_estimate <= -(g / 2.0) * math.log(t) + 1e-9

    def test_scaling_identity(self, rng):
        # integral for cY at t equals integral for Y at ct, plus (g/2) ln c
        for g, scheme, budget in [(1, "tensor-gauss", 256), (2, "qmc-shifted", 8192)]:
            Y = make_spd(rng, g, cond_max=10.0)
            c = 1.7
            a = integral_ln_f(GramMatrix(c * Y.entries), 1.3, scheme, budget)
            b = integral_ln_f(Y, c * 1.3, scheme, budget)
            lhs = a.value
            rhs = b.value + (g / 2.0) * math.log(c)
            assert lhs == pytest.approx(rhs, abs=max(1e-8, a.error_estimate + b.error_estimate))

    def test_gauss_and_qmc_agree(self, rng):
        Y = make_spd(rng, 1)
        a = integral_ln_f(Y, 2.0, "tensor-gauss")
        b = integral_ln_f(Y, 2.0, "qmc-shifted", 32768)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-9

    def test_rejects_nonpositive_t(self):
        with pytest.raises(QuadratureError):
            integral_ln_f(GramMatrix([[1.0]]), 0.0)
